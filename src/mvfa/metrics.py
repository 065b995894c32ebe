"""Image- and pixel-level AUC and experiment reports.

Every AUC is one exact count, the Mann-Whitney U of the rank-sum
formulation with midranks for ties (Hanley & McNeil, 1982): over
positive-negative pairs, one for each negative ranked below the positive
and one half for each tie. ``_ChunkedAUC`` counts it as the integer 2U from
the sorted positives and the pool fed a chunk at a time, so no pair is
enumerated and no permutation is built. ``auc`` and the image AUCs of
``evaluate`` count their pool as one chunk; each pixel AUC is counted
CHUNK images at a time, and the test set's pixels are never pooled. The
ranking rule: NaN ranks after every number, each NaN is a run of its own
in pool order, and -0.0 ties with +0.0.

``score_samples`` scores the test set for ``evaluate`` and the CLI's
``predict``, halved by chunks with ``worker.halves``; the pixel AUCs are
counted here once both halves are in.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import bool_mask, load_chunks
from .errors import DataError, MetricError
from .fileio import write_text_atomic
from .inference import CHUNK, blend, fused_maps, score_batch
from .worker import halves

CSV_FIELDS = ("images", "anomalous", "image_auc", "pixel_auc",
              "level1_image_auc", "level2_image_auc", "level3_image_auc",
              "level4_image_auc")


def auc(scores, labels):
    """The AUC of a vector of scores against 0/1 labels, counted as one chunk.

    ``MetricError`` for vectors of unequal length, a label other than 0 or
    1, or only one class.
    """
    pool = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if pool.shape != y.shape or pool.ndim != 1:
        raise MetricError(f"auc: scores {pool.shape} and labels {y.shape} must be "
                          f"equal-length vectors")
    positive = y == 1
    if not (positive | (y == 0)).all():
        raise MetricError("auc: labels must be 0 or 1")
    value = _auc_or_none(pool, positive)
    if value is None:
        raise MetricError("auc: undefined when only one class is present")
    return value


def _auc_or_none(scores, positive):
    """The AUC of float64 ``scores`` against bool ``positive``, or None for one class."""
    counter = _ChunkedAUC([scores[positive]])
    counter.add(scores, positive)
    return counter.auc()


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


class Scored(NamedTuple):
    """What scoring keeps of a sample: no image, and its mask packed to bits."""

    path: str
    label: int
    modality: str
    mask: np.ndarray | None  # np.packbits of the bool mask, None without a mask


def score_samples(backbone, params, samples, text_features, bank=None,
                  beta1=0.5, beta2=0.5, tau=0.07):
    """Yield a (:class:`Scored`, AnomalyResult) pair of each of a list of samples.

    The samples are loaded (or loadable), and the order is theirs. CHUNK of
    them are loaded and scored in one batch. A mask must hold only 0 and 1
    and have the shape of the score maps (``DataError`` otherwise). BLAS
    runs on one thread throughout.

    The list is halved by chunks (``worker.halves``): this process scores
    and yields the earlier half, and the worker the later half, with the
    odd chunk of an odd count, since this process also handles every
    pair: in 40 alternating rounds of the seed-42 reference set's 13
    chunks, ``predict`` took a median 23 ms less this way than with the
    odd chunk here. Every image keeps the bits it gets in one process.
    """
    def score(indices):
        for loaded in load_chunks((samples[i] for i in indices), CHUNK):
            for sample in loaded:
                if sample.modality not in text_features:
                    raise DataError(f"no text features for modality {sample.modality!r}")
            for sample, result in zip(loaded, score_batch(
                    backbone, params, [s.image for s in loaded],
                    [text_features[s.modality] for s in loaded], bank=bank, beta1=beta1,
                    beta2=beta2, tau=tau)):
                mask = bool_mask(sample.mask)
                if mask is not None and mask.shape != result.out_hw:
                    raise DataError(f"{sample.path}: mask shape {mask.shape} does not "
                                    f"match the score maps' {result.out_hw}")
                yield Scored(sample.path, sample.label, sample.modality,
                             None if mask is None else np.packbits(mask)), result

    with halves(score) as split:
        yield from split(range(len(samples)), -(-len(samples) // CHUNK) // 2 * CHUNK)


class _ChunkedAUC:
    """The AUC of a pool counted one chunk at a time, or None for one class.

    The numeric positives are given up front, in any order, and sorted; the
    chunks of the pool are fed to ``add`` in pool order. A chunk's negatives
    are sorted; each positive's left bound among them counts those below
    it, and a second ``searchsorted``, only for the positives equal to the
    negative at that bound, counts their ties. By the module's ranking rule
    a NaN positive wins against every numeric negative and every NaN
    negative before it in the pool.
    """

    def __init__(self, positives):
        ranked = np.concatenate(positives) if positives else np.empty(0)
        ranked.sort()
        self.positives = ranked[:np.count_nonzero(~np.isnan(ranked))]  # NaNs sort last
        self.n_pos = self.n_neg = 0
        self.twice_u = 0
        self.numeric_neg = self.nan_neg = self.nan_pos = 0

    def add(self, scores, labels):
        """Count a chunk: float64 ``scores`` and bool ``labels`` of one shape."""
        scores, labels = scores.reshape(-1), labels.reshape(-1)
        n_pos = int(np.count_nonzero(labels))
        self.n_pos += n_pos
        self.n_neg += labels.size - n_pos
        nan = np.isnan(scores)
        negatives = scores[~labels & ~nan]
        negatives.sort()
        self.numeric_neg += negatives.size
        left = np.searchsorted(negatives, self.positives)
        # only a positive equal to the negative at its left bound has ties
        tied = left < negatives.size
        tied[tied] = negatives[left[tied]] == self.positives[tied]
        ties = np.searchsorted(negatives, self.positives[tied], side="right") - left[tied]
        self.twice_u += 2 * int(left.sum()) + int(ties.sum())
        if nan.any():
            nan_neg = np.flatnonzero(nan & ~labels)
            nan_pos = np.flatnonzero(nan & labels)
            before = self.nan_neg * nan_pos.size + np.searchsorted(nan_neg, nan_pos).sum()
            self.twice_u += 2 * int(before)
            self.nan_neg += nan_neg.size
            self.nan_pos += nan_pos.size

    def auc(self):
        """The AUC of everything added, or None where only one class was."""
        if self.n_pos == 0 or self.n_neg == 0:
            return None
        twice_u = self.twice_u + 2 * self.nan_pos * self.numeric_neg
        # U and P * N are exact below 2**53, so the quotient is rounded once
        return twice_u / 2 / (self.n_pos * self.n_neg)


def _pixel_aucs(results, masks, pools, beta1, beta2):
    """The pixel AUC of each pool, a pair (image indices, map of ``fused_maps``).

    A pool's map is its index among the maps ``fused_maps`` yields: 0 to 3
    a level's, 4 the mean's. A first pass collects each pool's positive
    pixels from the images that have any; a second walks every masked image
    and counts each pool's pixels against them. Both fuse CHUNK images' maps
    at a time, with every level upsampled once for all pools, so the pixels
    are never pooled.

    A step holds the results, the pools' positives (about 0.55 MiB on the
    seed-42 reference set, in float64), the chunk's masks and what
    ``fused_maps`` holds: both branches' running sums, one level's maps and
    one upsample's temporaries, 1.18 MiB at CHUNK 8 and 64x64. Each map
    is dropped here before the next is made; ``enumerate`` is not used,
    since its reused result tuple would keep the last map.
    """
    members = [set(images) for images, _ in pools]
    out_hw = results[0].out_hw

    def chunks(images):
        """Yield (pool, scores, labels) of each pool's images, CHUNK images at a time."""
        for start in range(0, len(images), CHUNK):
            part = images[start:start + CHUNK]
            flags = np.stack([np.unpackbits(masks[i], count=out_hw[0] * out_hw[1])
                              .view(bool).reshape(out_hw) for i in part])
            kept = [[j for j, i in enumerate(part) if i in member] for member in members]
            index = 0
            for fused in fused_maps([results[i] for i in part], beta1, beta2):
                for pool, (rows, (_, reads)) in enumerate(zip(kept, pools)):
                    if reads == index and rows:
                        whole = len(rows) == len(part)  # no copy of a whole chunk's map
                        yield pool, (fused if whole else fused[rows]), flags[rows]
                index += 1
                del fused  # freed before the next map is made

    masked = sorted(set().union(*members))
    positives = [[] for _ in pools]
    for pool, scores, labels in chunks([i for i in masked if masks[i].any()]):
        positives[pool].append(scores[labels])
        del scores
    # popped, so each pool's parts are freed as soon as they are ranked
    counters = [_ChunkedAUC(positives.pop(0)) for _ in pools]
    for pool, scores, labels in chunks(masked):
        counters[pool].add(scores, labels)
        del scores
    return [counter.auc() for counter in counters]


def evaluate(backbone, params, samples, text_features, bank=None, beta1=0.5,
             beta2=0.5, tau=0.07) -> Report:
    """Score a test set and assemble image/pixel/per-level AUCs.

    Only each image's label, modality, bit-packed mask and lean result are
    kept. The pixel AUCs (overall, each level, each modality) are counted
    together, CHUNK images at a time, by ``_pixel_aucs``: no pool of every
    test pixel is built.
    """
    if not samples:
        raise DataError("test set is empty")
    labels, modalities, masks, results = [], [], [], []
    for sample, result in score_samples(backbone, params, samples, text_features,
                                        bank=bank, beta1=beta1, beta2=beta2, tau=tau):
        labels.append(sample.label)
        modalities.append(sample.modality)
        masks.append(sample.mask)
        results.append(result)

    labels = np.array(labels)
    c_pred = np.array([r.c_pred for r in results])
    image_auc = auc(c_pred, labels)

    level_scores = blend(beta1, np.array([r.c_levels_zero for r in results]), beta2,
                         None if results[0].c_levels_few is None
                         else np.array([r.c_levels_few for r in results]))
    positive = labels == 1
    per_level_image = [_auc_or_none(column, positive) for column in level_scores.T]

    masked = [i for i, mask in enumerate(masks) if mask is not None]
    groups = {m: [i for i, x in enumerate(modalities) if x == m]
              for m in sorted(set(modalities))}
    # keyed None for the fused mean map (the 5th of fused_maps), each level
    # for its own, and each modality of part of the set for the mean map; a
    # modality of the whole set has its images pooled in the same order
    pools = {None: (masked, 4), **{level: (masked, level) for level in range(4)},
             **{m: ([i for i in idx if masks[i] is not None], 4)
                for m, idx in groups.items() if len(idx) < len(results)}}
    pools = {key: pool for key, pool in pools.items() if pool[0]}
    pixel = dict(zip(pools, _pixel_aucs(results, masks, list(pools.values()), beta1, beta2)))
    pixel_auc = pixel.get(None)
    per_level_pixel = [pixel[level] for level in range(4)] if masked else None

    per_modality = {}
    for modality, idx in groups.items():
        whole = len(idx) == len(results)
        per_modality[modality] = {
            "images": len(idx),
            "image_auc": image_auc if whole else _auc_or_none(c_pred[idx], positive[idx]),
            "pixel_auc": pixel_auc if whole else pixel.get(modality)}

    counts = {"images": len(results), "anomalous": int(labels.sum()),
              "with_masks": len(masked)}
    return Report(image_auc, pixel_auc, per_level_image, per_level_pixel,
                  per_modality, counts)


def write_report(report: Report, json_path=None, csv_path=None):
    if json_path is not None:
        write_text_atomic(json_path, report.to_json())
    if csv_path is not None:
        write_text_atomic(csv_path, report.to_csv_line())
