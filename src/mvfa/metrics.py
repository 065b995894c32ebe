"""Image- and pixel-level AUC and experiment reports.

AUC uses the rank-sum formulation with midranks for ties, which makes it
equal to the pairwise win/tie count without enumerating pairs. Pixel AUC
pools every scored pixel across the test set by default; a per-image
average is available behind a flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import LoadedSample, load_sample
from .errors import DataError, MetricError
from .inference import score_image

CSV_FIELDS = ("images", "anomalous", "image_auc", "pixel_auc",
              "level1_image_auc", "level2_image_auc", "level3_image_auc",
              "level4_image_auc")


def midranks(values):
    """1-based ranks with ties sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    order = np.argsort(v, kind="stable")
    ranks = np.take(v, order)
    # a run of ties starts wherever a sorted value differs from the one before;
    # NaN differs from everything, so each NaN is its own run
    new_run = np.ones(n, dtype=bool)
    np.not_equal(ranks[1:], ranks[:-1], out=new_run[1:])
    # the rest works in place on two position buffers: pooled pixel AUCs
    # rank every pixel of a test set at once
    first = np.arange(n, dtype=np.float64)
    ranks[:] = first
    first *= new_run
    np.maximum.accumulate(first, out=first)
    np.copyto(ranks[:-1], n, where=~new_run[1:])
    np.minimum.accumulate(ranks[::-1], out=ranks[::-1])
    # (first + last) / 2 + 1 of each run, exact for integer positions
    first += ranks
    first /= 2.0
    first += 1.0
    ranks[order] = first
    return ranks


def auc(scores, labels):
    """Rank-based AUC of scores against binary labels (midrank ties)."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise MetricError(f"auc: scores {s.shape} and labels {y.shape} must be "
                          f"equal-length vectors")
    if not np.isin(y, (0, 1)).all():
        raise MetricError("auc: labels must be 0 or 1")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("auc: undefined when only one class is present")
    ranks = midranks(s)
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _maybe_auc(scores, labels):
    try:
        return auc(scores, labels)
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

    def to_dict(self):
        return {"image_auc": self.image_auc, "pixel_auc": self.pixel_auc,
                "per_level_image_auc": self.per_level_image_auc,
                "per_level_pixel_auc": self.per_level_pixel_auc,
                "per_modality": self.per_modality, "counts": self.counts}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

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
    """Score loaded (or loadable) samples in a stable order."""
    loaded = [s if isinstance(s, LoadedSample) else load_sample(s) for s in samples]
    results = []
    for sample in loaded:
        if sample.modality not in text_features:
            raise DataError(f"no text features for modality {sample.modality!r}")
        results.append(score_image(backbone, params, sample.image,
                                   text_features[sample.modality], bank=bank,
                                   beta1=beta1, beta2=beta2, tau=tau))
    return loaded, results


def evaluate(backbone, params, samples, text_features, bank=None, beta1=0.5,
             beta2=0.5, tau=0.07, pixel_per_image=False) -> Report:
    """Score a test set and assemble image/pixel/per-level AUCs."""
    if not samples:
        raise DataError("test set is empty")
    loaded, results = score_samples(backbone, params, samples, text_features,
                                    bank=bank, beta1=beta1, beta2=beta2, tau=tau)

    labels = np.array([s.label for s in loaded])
    c_pred = np.array([r.c_pred for r in results])
    image_auc = auc(c_pred, labels)

    def fused_level(result, level):
        c = beta1 * result.c_levels_zero[level]
        s = beta1 * result.s_levels_zero[level]
        if result.c_levels_few is not None:
            c += beta2 * result.c_levels_few[level]
            s += beta2 * result.s_levels_few[level]
        return c, s

    per_level_image = []
    for level in range(4):
        level_scores = np.array([fused_level(r, level)[0] for r in results])
        per_level_image.append(_maybe_auc(level_scores, labels))

    masked = [(s, r) for s, r in zip(loaded, results) if s.mask is not None]
    pixel_auc = None
    per_level_pixel = None
    if masked:
        mask_pixels = np.concatenate([s.mask.reshape(-1) for s, _ in masked])
        if pixel_per_image:
            per_image = [_maybe_auc(r.s_pred.reshape(-1), s.mask.reshape(-1))
                         for s, r in masked]
            valid = [v for v in per_image if v is not None]
            pixel_auc = float(np.mean(valid)) if valid else None
        else:
            pooled = np.concatenate([r.s_pred.reshape(-1) for _, r in masked])
            pixel_auc = _maybe_auc(pooled, mask_pixels)
        per_level_pixel = []
        for level in range(4):
            pooled = np.concatenate([fused_level(r, level)[1].reshape(-1)
                                     for _, r in masked])
            per_level_pixel.append(_maybe_auc(pooled, mask_pixels))

    per_modality = {}
    for modality in sorted({s.modality for s in loaded}):
        idx = [i for i, s in enumerate(loaded) if s.modality == modality]
        sub_labels = labels[idx]
        entry = {"images": len(idx),
                 "image_auc": _maybe_auc(c_pred[idx], sub_labels)}
        sub_masked = [(loaded[i], results[i]) for i in idx if loaded[i].mask is not None]
        if sub_masked:
            pooled = np.concatenate([r.s_pred.reshape(-1) for _, r in sub_masked])
            pixels = np.concatenate([s.mask.reshape(-1) for s, _ in sub_masked])
            entry["pixel_auc"] = _maybe_auc(pooled, pixels)
        else:
            entry["pixel_auc"] = None
        per_modality[modality] = entry

    counts = {"images": len(loaded), "anomalous": int(labels.sum()),
              "with_masks": len(masked)}
    return Report(image_auc, pixel_auc, per_level_image, per_level_pixel,
                  per_modality, counts)


def write_report(report: Report, json_path=None, csv_path=None):
    from .fileio import write_text_atomic
    if json_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(json_path)), exist_ok=True)
        write_text_atomic(json_path, report.to_json())
    if csv_path is not None:
        os.makedirs(os.path.dirname(os.path.abspath(csv_path)), exist_ok=True)
        write_text_atomic(csv_path, report.to_csv_line())
