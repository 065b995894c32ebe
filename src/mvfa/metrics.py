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
from .inference import grid_maps, score_batch

# images loaded and scored per batch: it bounds what scoring holds at once,
# and a batch gives each image the bits it gets alone
CHUNK = 16

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


def _maybe_auc(scores, labels):
    try:
        return auc(scores, labels)
    except MetricError:
        return None


def _maybe_pool_auc(pool, labels):
    """``_maybe_auc`` of a float64 pool that nothing reads afterwards."""
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


def _fused_level_maps(results, level, beta1, beta2):
    """One level's fused float64 maps of ``results``, as one (images, h, w) array.

    Each map is beta1 times the zero-shot map, plus beta2 times the few-shot
    map when there is a bank: the expression and the bits of
    ``beta1 * r.s_levels_zero[level] + beta2 * r.s_levels_few[level]``,
    upsampled CHUNK images at a time.
    """
    out_hw = results[0].zero.out_hw
    pool = np.empty((len(results),) + out_hw)
    for start in range(0, len(results), CHUNK):
        part, out = results[start:start + CHUNK], pool[start:start + CHUNK]
        np.multiply(beta1, grid_maps(np.stack([r.zero.grids[level] for r in part]),
                                     out_hw), out=out)
        if part[0].few is not None:
            out += beta2 * grid_maps(np.stack([r.few.grids[level] for r in part]), out_hw)
    return pool


def _fused_maps(results):
    """The fused maps of ``results`` as one (images, h, w) float64 array."""
    pool = np.empty((len(results),) + results[0].zero.out_hw)
    for out, result in zip(pool, results):
        out[...] = result.s_pred
    return pool


def _pixel_aucs(masks, results, beta1, beta2):
    """Pooled pixel AUC of the fused maps, overall and per level.

    Each pool is one float64 array, built, ranked in place and freed before
    the next is built.
    """
    mask_pixels = np.concatenate([mask.reshape(-1) for mask in masks])
    pixel_auc = _maybe_pool_auc(_fused_maps(results).reshape(-1), mask_pixels)
    per_level = [_maybe_pool_auc(
        _fused_level_maps(results, level, beta1, beta2).reshape(-1), mask_pixels)
        for level in range(4)]
    return pixel_auc, per_level


def evaluate(backbone, params, samples, text_features, bank=None, beta1=0.5,
             beta2=0.5, tau=0.07) -> Report:
    """Score a test set and assemble image/pixel/per-level AUCs.

    Only each image's label, modality, bool mask and lean result are kept.
    Each pixel pool (overall, each level, each modality) is built from the
    grids into one float64 array, ranked in place and freed before the next.
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

    level_scores = beta1 * np.array([r.c_levels_zero for r in results])
    if results[0].few is not None:
        level_scores += beta2 * np.array([r.c_levels_few for r in results])
    per_level_image = [_maybe_auc(level_scores[:, level], labels) for level in range(4)]

    masked = [i for i, mask in enumerate(masks) if mask is not None]
    pixel_auc = None
    per_level_pixel = None
    if masked:
        pixel_auc, per_level_pixel = _pixel_aucs(
            [masks[i] for i in masked], [results[i] for i in masked], beta1, beta2)

    per_modality = {}
    for modality in sorted(set(modalities)):
        idx = [i for i, m in enumerate(modalities) if m == modality]
        if len(idx) == len(results):
            # the modality's images are the whole set, pooled in the same order
            per_modality[modality] = {"images": len(idx), "image_auc": image_auc,
                                      "pixel_auc": pixel_auc}
            continue
        entry = {"images": len(idx),
                 "image_auc": _maybe_auc(c_pred[idx], labels[idx])}
        sub_masked = [i for i in idx if masks[i] is not None]
        if sub_masked:
            pixels = np.concatenate([masks[i].reshape(-1) for i in sub_masked])
            entry["pixel_auc"] = _maybe_pool_auc(
                _fused_maps([results[i] for i in sub_masked]).reshape(-1), pixels)
        else:
            entry["pixel_auc"] = None
        per_modality[modality] = entry

    counts = {"images": len(results), "anomalous": int(labels.sum()),
              "with_masks": len(masked)}
    return Report(image_auc, pixel_auc, per_level_image, per_level_pixel,
                  per_modality, counts)


def write_report(report: Report, json_path=None, csv_path=None):
    if json_path is not None:
        write_text_atomic(json_path, report.to_json())
    if csv_path is not None:
        write_text_atomic(csv_path, report.to_csv_line())
