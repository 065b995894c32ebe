"""Image- and pixel-level AUC and experiment reports.

AUC uses the rank-sum formulation with midranks for ties (Hanley & McNeil,
1982), which makes it equal to the pairwise win/tie count without
enumerating pairs. Pixel AUC pools every scored pixel across the test set,
so ranking is one sort of the pool and a ``searchsorted`` per positive,
with no permutation of the pool. ``auc`` and ``midranks`` sort a copy;
``evaluate`` sorts each pool it built in place. Midranks are exact
half-integers, so the rank sum does not depend on how the ranks were found.
Each NaN ranks after every number, as a run of its own in input order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import bool_mask, load_chunks
from .errors import DataError, MetricError
from .fileio import write_text_atomic
from .inference import CHUNK, blend, fused_maps, score_batch

CSV_FIELDS = ("images", "anomalous", "image_auc", "pixel_auc",
              "level1_image_auc", "level2_image_auc", "level3_image_auc",
              "level4_image_auc")


def _midranks_sorting(pool, select):
    """Midranks among ``pool`` of ``pool[select]``, sorting ``pool`` in place.

    ``pool`` is a float64 vector and ``select`` a bool vector of its length.
    The selected values, and each selected NaN's place among the NaNs, are
    taken in input order before the sort. Then each ranked value's run of
    ties fills the sorted positions [left, right), found by two
    ``searchsorted``, so its 1-based midrank is (left + right - 1) / 2 + 1.
    These are integers halved once, so every rank is an exact half-integer.
    ``-0.0`` and ``+0.0`` compare equal and tie. Each NaN is a run of its
    own, ranked after every number in input order; ``searchsorted`` alone
    would give all NaNs one tied rank.
    """
    ranked = pool[select]
    nan = np.isnan(ranked)
    if nan.any():
        # a NaN's place among the NaNs counts the NaNs up to its own index
        places = np.searchsorted(np.flatnonzero(np.isnan(pool)),
                                 np.flatnonzero(select)[nan], side="right")
    pool.sort()
    left = np.searchsorted(pool, ranked, side="left")
    right = np.searchsorted(pool, ranked, side="right")
    ranks = (left + right - 1) / 2.0 + 1.0
    if nan.any():
        # a NaN's left is the count of numbers
        ranks[nan] = left[nan] + places
    return ranks


def midranks(values):
    """1-based ranks with ties sharing their average rank; NaNs last, in input order."""
    pool = np.array(values, dtype=np.float64)
    return _midranks_sorting(pool, np.ones(pool.shape, dtype=bool))


def auc(scores, labels):
    """Rank-based AUC of scores against binary labels (midrank ties).

    Only the positives are ranked, against one sorted copy of the scores.
    Their midranks are exact half-integers, and so is every partial sum of
    them below 2**52: the rank sum has the bits of ranking every score and
    summing the positives' ranks.
    """
    return _auc_sorting(np.array(scores, dtype=np.float64), labels)


def _auc_sorting(pool, labels):
    """``auc`` of a float64 vector nothing reads afterwards: it is sorted in place."""
    y = np.asarray(labels)
    if pool.shape != y.shape or pool.ndim != 1:
        raise MetricError(f"auc: scores {pool.shape} and labels {y.shape} must be "
                          f"equal-length vectors")
    positive = y == 1
    if not (positive | (y == 0)).all():
        raise MetricError("auc: labels must be 0 or 1")
    n_pos = int(np.count_nonzero(positive))
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc: undefined when only one class is present")
    ranks = _midranks_sorting(pool, positive)
    return float((ranks.sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _maybe_pool_auc(pool, labels):
    """AUC of a float64 vector nothing reads afterwards, or None where undefined.

    The vector is sorted in place.
    """
    try:
        return _auc_sorting(pool, labels)
    except MetricError:
        return None


@dataclass
class Report:
    image_auc: float
    pixel_auc: float | None
    per_level_image_auc: list
    per_level_pixel_auc: list | None
    per_modality: dict
    counts: dict

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    def to_csv_line(self):
        """Single CSV line in CSV_FIELDS order; absent values print empty."""
        values = {"images": self.counts["images"],
                  "anomalous": self.counts["anomalous"],
                  "image_auc": self.image_auc, "pixel_auc": self.pixel_auc}
        for i in range(4):
            key = f"level{i + 1}_image_auc"
            values[key] = self.per_level_image_auc[i]
        return ",".join(csv_value(values[name]) for name in CSV_FIELDS) + "\n"


def csv_value(value):
    """CSV text of a table value: empty for None, six decimals for a float."""
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def score_samples(backbone, params, samples, text_features, bank=None,
                  beta1=0.5, beta2=0.5, tau=0.07):
    """Yield (LoadedSample, AnomalyResult) pairs of loaded (or loadable) samples.

    The order is that of ``samples``. CHUNK of them are loaded and scored in
    one batch, and the next chunk only once the caller has taken every pair
    of this one, so a caller that writes each pair out holds one chunk.
    """
    for loaded in load_chunks(samples, CHUNK):
        for sample in loaded:
            if sample.modality not in text_features:
                raise DataError(f"no text features for modality {sample.modality!r}")
        yield from zip(loaded, score_batch(
            backbone, params, [s.image for s in loaded],
            [text_features[s.modality] for s in loaded], bank=bank, beta1=beta1,
            beta2=beta2, tau=tau))


def evaluate(backbone, params, samples, text_features, bank=None, beta1=0.5,
             beta2=0.5, tau=0.07) -> Report:
    """Score a test set and assemble image/pixel/per-level AUCs.

    Only each image's label, modality, bool mask and lean result are kept.
    Each pixel pool (overall, each level, each modality) is built from the
    grids by ``inference.fused_maps`` into one float64 array, ranked in place
    and freed before the next.
    """
    if not samples:
        raise DataError("test set is empty")
    labels, modalities, masks, results = [], [], [], []
    for sample, result in score_samples(backbone, params, samples, text_features,
                                        bank=bank, beta1=beta1, beta2=beta2, tau=tau):
        labels.append(sample.label)
        modalities.append(sample.modality)
        masks.append(bool_mask(sample.mask))
        results.append(result)

    labels = np.array(labels)
    c_pred = np.array([r.c_pred for r in results])
    image_auc = auc(c_pred, labels)

    level_scores = blend(beta1, np.array([r.c_levels_zero for r in results]), beta2,
                         None if results[0].c_levels_few is None
                         else np.array([r.c_levels_few for r in results]))
    # each column is ranked in place and not read again
    per_level_image = [_maybe_pool_auc(column, labels) for column in level_scores.T]

    def pixel_auc_of(idx, level=None):
        """Pooled pixel AUC of the fused maps of the masked images among ``idx``."""
        idx = [i for i in idx if masks[i] is not None]
        if not idx:
            return None
        pixels = np.concatenate([masks[i].reshape(-1) for i in idx])
        pool = fused_maps([results[i] for i in idx], beta1, beta2, level)
        return _maybe_pool_auc(pool.reshape(-1), pixels)

    masked = [i for i, mask in enumerate(masks) if mask is not None]
    pixel_auc = pixel_auc_of(masked)
    per_level_pixel = [pixel_auc_of(masked, level) for level in range(4)] if masked else None

    per_modality = {}
    for modality in sorted(set(modalities)):
        idx = [i for i, m in enumerate(modalities) if m == modality]
        # a modality of the whole set has its images pooled in the same order
        whole = len(idx) == len(results)
        per_modality[modality] = {
            "images": len(idx),
            "image_auc": image_auc if whole else _maybe_pool_auc(c_pred[idx], labels[idx]),
            "pixel_auc": pixel_auc if whole else pixel_auc_of(idx)}

    counts = {"images": len(results), "anomalous": int(labels.sum()),
              "with_masks": len(masked)}
    return Report(image_auc, pixel_auc, per_level_image, per_level_pixel,
                  per_modality, counts)


def write_report(report: Report, json_path=None, csv_path=None):
    if json_path is not None:
        write_text_atomic(json_path, report.to_json())
    if csv_path is not None:
        write_text_atomic(csv_path, report.to_csv_line())
