"""Alignment losses and the Adam training loop over the adapter parameters.

Each level contributes a Dice + Focal segmentation term, computed on the
anomaly-probability map upsampled to image resolution, plus a BCE term on
the max anomaly probability over the grid. The total loss sums the
included levels. Samples without a pixel mask contribute only the BCE
term.

Each level's loss is one autograd node with a hand-written VJP for its
seg and cls features. Its forward runs the numpy operations of the loss
written out op by op (``tests/loss_oracle.py``) in the same order and
dtypes, and its VJP adds each array's gradient contributions in the order
the engine would. Floating-point addition is not associative: three or
more contributions summed in another order round differently, and the
trained checkpoints would change. For the upsampled map that order is
dice p*s, dice sum(p), focal p*s, focal -p. The node's parents are
(seg, cls) because the engine's depth-first walk explores the last parent
first, which keeps the order in which the shared adapter tensors receive
their gradients.

Training runs the B samples of a step as one graph with a leading batch
axis, and the loss holds one value per sample. Every value and gradient
keeps the bits of a graph of one sample, which the batch must reproduce:
the maps are built in C order, so a sample's sums over its map pair the
elements as they would for that map alone, and the per-sample totals are
added left to right, as a chain of per-sample additions would; ``np.sum``
pairs eight or more terms differently. A sample without a mask has no seg
term, and its rows of the seg gradient are zero, which adds nothing.

Training holds no image: it loads the samples one batch at a time for a
single pass through the embedding and stage 1, which no trainable tensor
reaches, and keeps of each sample only that pass's rows, its label, its
modality and its mask as bool. A bool mask gives the loss the bits of the
float32 one, since both cast to the same 0/1 map.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .adaptation import AdaptedFeatures, MVFAParams, adapt_forward, text_probabilities
from .autograd import Tensor
from .data import bool_mask, load_chunks
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError
from .fileio import write_text_atomic

PROB_EPS = 1e-7
DICE_SMOOTH = 1.0


@dataclass
class LossWeights:
    lambda1: float = 1.0  # dice
    lambda2: float = 1.0  # focal
    lambda3: float = 1.0  # bce

    def __post_init__(self):
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be nonnegative")


@dataclass
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 50
    seed: int = 0
    gamma: float = 0.1
    weights: LossWeights = field(default_factory=LossWeights)
    tau: float = 0.07
    levels: tuple = (1, 2, 3, 4)

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("learning rate must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"train seed must be nonnegative, got {self.seed}")
        if not self.tau > 0:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        # a repeated level would add its loss twice
        if (not self.levels or any(l not in (1, 2, 3, 4) for l in self.levels)
                or len(set(self.levels)) != len(self.levels)):
            raise ConfigError(f"levels must be a nonempty subset of 1..4, got {self.levels}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        raw = dict(raw)
        weights = LossWeights(raw.pop("lambda1", 1.0), raw.pop("lambda2", 1.0),
                              raw.pop("lambda3", 1.0))
        levels = tuple(raw.pop("levels", (1, 2, 3, 4)))
        return cls(weights=weights, levels=levels, **raw)


def _as_mask(s, like):
    if isinstance(s, Tensor):
        s = s.data
    arr = np.asarray(s)
    if arr.shape != like.shape:
        raise ShapeError(f"mask shape {arr.shape} does not match map shape {like.shape}")
    return arr.astype(like.dtype)


# Each term below maps a batch of arrays, with the samples on the first axis,
# to one value per sample and a VJP that takes one gradient per sample and
# returns the maps' gradient as a list of contributions, in the order the
# engine would add them.

def _per_sample(g, ndim):
    """Per-sample values shaped to broadcast against (B, ...) arrays of ``ndim``."""
    return g.reshape(g.shape + (1,) * (ndim - 1))


def _dice(p, mask):
    ndim, axes = p.ndim, tuple(range(1, p.ndim))
    inter = np.sum(p * mask, axis=axes)
    numer = inter * 2.0 + DICE_SMOOTH
    mask_sums = np.sum(mask, axis=axes).astype(np.float64) + DICE_SMOOTH
    denom = np.sum(p, axis=axes) + mask_sums.astype(p.dtype)

    def vjp(g):
        g_ratio = g * -1.0
        return [_per_sample(g_ratio / denom * 2.0, ndim) * mask,
                _per_sample(-g_ratio * numer / (denom * denom), ndim)]

    return numer / denom * -1.0 + 1.0, vjp


def _focal(p, mask):
    """Focal term; its VJP keeps p_t, the bool clip mask and ``mask``.

    1 - p_t, its square and log(p_t) are recomputed by the same ops, with
    the same bits, instead of being kept.
    """
    ndim, axes = p.ndim, tuple(range(1, p.ndim))
    raw = p * mask + (p * -1.0 + 1.0) * (1.0 - mask)
    inside = (raw >= PROB_EPS) & (raw <= 1.0 - PROB_EPS)
    p_t = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS)
    one_minus = p_t * -1.0 + 1.0
    value = np.mean(one_minus * one_minus * np.log(p_t), axis=axes) * -1.0  # focusing exponent 2

    def vjp(g):
        one_minus, log_p = p_t * -1.0 + 1.0, np.log(p_t)
        g_prod = _per_sample(g * -1.0 / p_t[0].size, ndim)
        g_weight = g_prod * log_p
        g_p_t = ((g_weight * one_minus + g_weight * one_minus) * -1.0
                 + g_prod * (one_minus * one_minus) / p_t)
        g_raw = g_p_t * inside
        return [g_raw * mask, g_raw * (1.0 - mask) * -1.0]

    return value, vjp


def _bce(prob, c):
    positive = np.asarray(c).astype(int) == 1
    clipped = np.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    inside = (prob >= PROB_EPS) & (prob <= 1.0 - PROB_EPS)
    rest = clipped * -1.0 + 1.0

    def vjp(g):
        return np.where(positive, g * -1.0 / clipped, g * -1.0 / rest * -1.0) * inside

    return np.log(np.where(positive, clipped, rest)) * -1.0, vjp


def _sum(contributions):
    return functools.reduce(operator.add, contributions)


def dice_loss(p: Tensor, s) -> Tensor:
    """1 - (2 sum(p*s) + 1) / (sum(p) + sum(s) + 1)."""
    value, vjp = _dice(p.data[None], _as_mask(s, p)[None])
    return ag.record(value[0], "dice_loss", (p,), lambda g: (_sum(vjp(g[None]))[0],))


def focal_loss(p: Tensor, s) -> Tensor:
    """Mean of -(1 - p_t)^2 log(p_t) with p_t = p on positives else 1 - p."""
    value, vjp = _focal(p.data[None], _as_mask(s, p)[None])
    return ag.record(value[0], "focal_loss", (p,), lambda g: (_sum(vjp(g[None]))[0],))


def bce_image(prob: Tensor, c) -> Tensor:
    """Binary cross-entropy of a scalar probability against label c."""
    value, vjp = _bce(prob.data, c)
    return ag.record(value, "bce_image", (prob,), lambda g: (vjp(g),))


def _anomaly_column(features, text, tau):
    """Grid anomaly probabilities as a column, and their VJP to ``features``."""
    probs, vjp = text_probabilities(features, text, tau)
    selector = np.array([[0.0], [1.0]], dtype=probs.dtype)
    return probs @ selector, lambda g: vjp(g @ selector.T)


def level_loss(cls_l: Tensor, seg_l: Tensor, f_text: Tensor, c, s, weights: LossWeights,
               tau=0.07, out_hw=None) -> Tensor:
    """One level's weighted Dice + Focal + BCE; seg terms skip when s is None.

    For (N, d) features of one sample, ``c`` is its label, ``s`` its mask
    or None, ``f_text`` its (2, d) text rows, and the loss is a scalar. For
    a (B, N, d) batch, ``c`` and ``s`` hold one label and one mask (or
    None) per sample, ``f_text`` is (2, d) or (B, 2, d), and the loss holds
    one value per sample, each with the bits of that sample's scalar loss.

    The level is one autograd node over ``(seg_l, cls_l)``, holding only the
    parents its enabled terms use. The seg gradient of a sample without a
    mask is zero.
    """
    if cls_l.ndim == 2:  # one sample is a batch of one
        c, s = [c], [s]
    cls = cls_l.data.reshape((-1,) + cls_l.shape[-2:])
    seg = seg_l.data.reshape((-1,) + seg_l.shape[-2:])
    text = f_text.data
    count = cls.shape[0]
    masked = [i for i, mask in enumerate(s) if mask is not None]
    parents, vjps = [], []
    value = np.zeros(count, dtype=cls.dtype)
    if weights.lambda3 > 0:
        peaks, cls_vjp = _anomaly_column(cls, text, tau)
        if peaks.shape[1] == 0:
            raise ShapeError("max: empty input")
        peaks = peaks.reshape(count, -1)
        top = np.argmax(peaks, axis=1)
        bce, bce_vjp = _bce(np.max(peaks, axis=1), c)
        value = bce * float(weights.lambda3)

        def cls_grad(g):
            # each sample's max passes its gradient to its first maximal row
            g_peaks = np.zeros_like(peaks)
            g_peaks[np.arange(count), top] = bce_vjp(g * float(weights.lambda3))
            return cls_vjp(g_peaks.reshape(peaks.shape + (1,)))

        parents.append(cls_l)
        vjps.append(cls_grad)
    if masked and (weights.lambda1 > 0 or weights.lambda2 > 0):
        # a slice when every sample has a mask, so seg[rows] is a view, not a copy
        rows = slice(None) if len(masked) == count else np.array(masked)
        grid = int(math.isqrt(seg.shape[1]))
        if grid * grid != seg.shape[1]:
            raise ShapeError(f"grid count {seg.shape[1]} is not a perfect square")
        if out_hw is None:
            out_hw = np.asarray(s[masked[0]]).shape
        anomaly, seg_vjp = _anomaly_column(seg[rows], text if text.ndim == 2 else text[rows],
                                           tau)
        upsampled = ag.upsample(anomaly.reshape(-1, grid, grid), out_hw)
        dtype, column_shape = upsampled.dtype, anomaly.shape
        mask = np.stack([_as_mask(s[i], upsampled[0]) for i in masked])
        map_terms = [(weight, term(upsampled, mask))
                     for weight, term in ((weights.lambda1, _dice), (weights.lambda2, _focal))
                     if weight > 0]
        seg_value = _sum([part * float(weight) for weight, (part, _) in map_terms])
        value[rows] = seg_value + value[rows] if weights.lambda3 > 0 else seg_value

        def seg_grad(g):
            g = g[rows]
            g_map = _sum([part for weight, (_, vjp) in map_terms
                          for part in vjp(g * float(weight))])
            g_grid = ag.upsample_vjp(g_map, (grid, grid), dtype)
            g_seg = np.zeros_like(seg)
            g_seg[rows] = seg_vjp(g_grid.reshape(column_shape))
            return g_seg

        parents.insert(0, seg_l)
        vjps.insert(0, seg_grad)
    value = value.reshape(cls_l.shape[:-2])
    if not parents:
        return Tensor(value)

    def backward_fn(g):
        g = g.reshape(-1)
        return tuple(vjp(g).reshape(parent.shape) if parent.requires_grad else None
                     for parent, vjp in zip(parents, vjps))

    return ag.record(value, "level_loss", parents, backward_fn)


def total_loss(features: AdaptedFeatures, f_text: Tensor, c, s, weights: LossWeights,
               tau=0.07, out_hw=None, levels=(1, 2, 3, 4)) -> Tensor:
    """Sum of level losses over the included levels, one value per sample.

    Takes one sample or a batch, as :func:`level_loss` does.
    """
    total = None
    for level in levels:
        ll = level_loss(features.cls[level - 1], features.seg[level - 1], f_text,
                        c, s, weights, tau=tau, out_hw=out_hw)
        total = ll if total is None else ag.add(total, ll)
    return total


class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    def __init__(self, named_params):
        self.m = {t: np.zeros_like(t.data) for _, t in named_params}
        self.v = {t: np.zeros_like(t.data) for _, t in named_params}
        self.step = 0


def adam_step(named_params, grads, state: AdamState, lr,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam update, applied in place."""
    state.step += 1
    t = state.step
    for name, p in named_params:
        if p not in grads:
            raise ContractError(f"adam_step: missing gradient for {name!r}")
        g = grads[p].data
        m = state.m[p] = beta1 * state.m[p] + (1 - beta1) * g
        v = state.v[p] = beta2 * state.v[p] + (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)


def _stage1_pass(backbone, samples, batch_size):
    """What training keeps of each sample, loading ``batch_size`` at a time.

    Returns the embedding and stage 1 of every image as one (S, N, d)
    array, which depend on no trainable tensor and so run once, plus each
    sample's label, modality and bool mask. No step reads an image again.
    """
    stage1, labels, modalities, masks = None, [], [], []
    for chunk in load_chunks(samples, batch_size):
        rows = backbone.run_stage(0, backbone.embed([s.image for s in chunk])).data
        if stage1 is None:
            stage1 = np.empty((len(samples),) + rows.shape[1:], dtype=rows.dtype)
        stage1[len(labels):len(labels) + len(chunk)] = rows
        for sample in chunk:
            labels.append(sample.label)
            modalities.append(sample.modality)
            masks.append(bool_mask(sample.mask))
    return stage1, np.array(labels), modalities, masks


def _sum_samples(totals):
    """Scalar sum of the per-sample totals, added left to right."""
    return ag.record(ag.sum_in_order(totals.data), "sum_samples", (totals,),
                     lambda g: (np.broadcast_to(g, totals.shape),))


def train(backbone, params: MVFAParams, samples, text_features: dict,
          config: TrainConfig, loss_log_path=None):
    """Optimize the adapter parameters on loaded (or loadable) samples.

    ``samples`` are manifest :class:`~mvfa.data.Sample` entries or loaded
    samples with image/label/mask/modality attributes, whose masks hold
    only 0 and 1; ``text_features`` maps each modality to its 2 x d text
    tensor. Returns the per-epoch mean losses and optionally appends them
    to a CSV file.

    The images are loaded ``batch_size`` at a time for one pass through the
    embedding and stage 1; no step reads an image again. Each step runs
    its samples as one (B, N, d) graph and sums their losses
    left to right before one backward pass; every sample keeps the bits it
    would get in a graph of its own, so the checkpoints are those of
    training one sample graph at a time (``tests/train_oracle.py``).
    """
    if not samples:
        raise DataError("training set is empty")
    for sample in samples:
        if sample.modality not in text_features:
            raise DataError(f"no text features for modality {sample.modality!r}")

    named = params.named_tensors()
    state = AdamState(named)
    rng = np.random.default_rng(config.seed)
    out_hw = (backbone.config.image_size, backbone.config.image_size)
    history = []
    stage1, labels, modalities, masks = _stage1_pass(backbone, samples, config.batch_size)

    for epoch in range(config.epochs):
        order = rng.permutation(len(samples))
        weighted = 0.0
        for start in range(0, len(order), config.batch_size):
            chunk = order[start:start + config.batch_size]
            features, _ = adapt_forward(backbone, params, None, stage1=Tensor(stage1[chunk]))
            texts = np.stack([text_features[modalities[i]].data for i in chunk])
            totals = total_loss(features, Tensor(texts), labels[chunk],
                                [masks[i] for i in chunk], config.weights,
                                tau=config.tau, out_hw=out_hw, levels=config.levels)
            batch = ag.scale(_sum_samples(totals), 1.0 / len(chunk))
            value = float(batch.data)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite loss at epoch {epoch + 1}, step {state.step + 1}")
            grads = ag.backward(batch)
            # ablation level masks can leave some tensors off the loss path
            active = [(n, p) for n, p in named if p in grads]
            adam_step(active, grads, state, config.lr)
            weighted += value * len(chunk)
            # not alive at the next step's backward peak
            del features, totals, batch, grads
        history.append(weighted / len(samples))

    if loss_log_path is not None:
        lines = ["epoch,mean_loss"]
        lines += [f"{i + 1},{value:.8f}" for i, value in enumerate(history)]
        write_text_atomic(loss_log_path, "\n".join(lines) + "\n")
    return history
