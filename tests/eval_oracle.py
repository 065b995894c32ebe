"""Per-image, full-resolution scoring and evaluation, for the tests.

This is the scorer as it was before batching: one adapted forward pass per
image, and every per-level map of both branches kept at full resolution in
float64 for the whole test set, each pool concatenated and ranked by the
argsort of ``auc_oracle``. The batched, streaming ``mvfa.metrics``
evaluator, which counts every AUC exactly and pools no pixels, must give a
byte-equal report.
"""

from dataclasses import dataclass

import auc_oracle
import numpy as np

from mvfa import autograd as ag
from mvfa.adaptation import adapt_forward, text_probabilities
from mvfa.autograd import no_grad
from mvfa.data import LoadedSample, load_sample
from mvfa.errors import MetricError
from mvfa.inference import _min_cosine_distances
from mvfa.metrics import Report


def auc(scores, labels):
    """The argsort AUC, with the library's error where only one class is present."""
    n_pos = int(np.count_nonzero(np.asarray(labels) == 1))
    if n_pos in (0, len(labels)):
        raise MetricError("auc: undefined when only one class is present")
    return auc_oracle.auc(scores, labels)


def _maybe_auc(scores, labels):
    try:
        return auc(scores, labels)
    except MetricError:
        return None


@dataclass
class Branch:
    c: float
    smap: np.ndarray
    c_levels: np.ndarray       # (4,)
    s_levels: np.ndarray       # (4, h, w) float64


@dataclass
class Result:
    c_pred: float
    s_pred: np.ndarray
    c_zero: float
    c_few: float | None
    c_levels_zero: np.ndarray
    s_levels_zero: np.ndarray
    c_levels_few: np.ndarray | None
    s_levels_few: np.ndarray | None


def _upsample(grid_map, out_hw):
    side = int(np.sqrt(grid_map.size))
    return ag.upsample(grid_map.reshape(side, side), out_hw)


def zero_shot(features, f_text, tau, out_hw):
    c_levels = np.zeros(4)
    s_levels = np.zeros((4,) + tuple(out_hw))
    for level in range(4):
        cls_prob = text_probabilities(features.cls[level].data, f_text.data, tau)[0][:, 1]
        seg_prob = text_probabilities(features.seg[level].data, f_text.data, tau)[0][:, 1]
        c_levels[level] = cls_prob.max()
        s_levels[level] = _upsample(seg_prob, out_hw)
    return Branch(float(c_levels.mean()), s_levels.mean(axis=0), c_levels, s_levels)


def few_shot(features, bank, out_hw):
    c_levels = np.zeros(4)
    s_levels = np.zeros((4,) + tuple(out_hw))
    for level in range(4):
        cls_dist = _min_cosine_distances(
            features.cls[level].data.astype(np.float32), bank.cls[level])
        seg_dist = _min_cosine_distances(
            features.seg[level].data.astype(np.float32), bank.seg[level])
        c_levels[level] = cls_dist.max()
        s_levels[level] = _upsample(seg_dist, out_hw)
    return Branch(float(c_levels.mean()), s_levels.mean(axis=0), c_levels, s_levels)


def fuse(zero, few, beta1, beta2):
    if few is None:
        return Result(beta1 * zero.c, beta1 * zero.smap, zero.c, None,
                      zero.c_levels, zero.s_levels, None, None)
    return Result(beta1 * zero.c + beta2 * few.c, beta1 * zero.smap + beta2 * few.smap,
                  zero.c, few.c, zero.c_levels, zero.s_levels, few.c_levels, few.s_levels)


def score_image(backbone, params, image, f_text, bank=None, beta1=0.5, beta2=0.5,
                tau=0.07):
    """One image through its own (N, d) forward pass and both branches."""
    out_hw = (backbone.config.image_size, backbone.config.image_size)
    with no_grad():
        features, _ = adapt_forward(backbone, params, image)
        zero = zero_shot(features, f_text, tau, out_hw)
        few = None if bank is None else few_shot(features, bank, out_hw)
    return fuse(zero, few, beta1, beta2)


def evaluate(backbone, params, samples, text_features, bank=None, beta1=0.5,
             beta2=0.5, tau=0.07):
    """Every image's full result held at once, then the AUCs."""
    loaded = [s if isinstance(s, LoadedSample) else load_sample(s) for s in samples]
    results = [score_image(backbone, params, s.image, text_features[s.modality], bank,
                           beta1, beta2, tau) for s in loaded]

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
