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

Training runs the samples of a step as consecutive graphs of at most
:data:`SUB_BATCH` samples, each with a leading batch axis, and the loss
holds one value per sample. Every value and gradient keeps the bits of a
graph of one sample, which the batch must reproduce: the maps are built in
C order, so a sample's sums over its map pair the elements as they would
for that map alone, and the per-sample totals are added left to right, as
a chain of per-sample additions would; ``np.sum`` pairs eight or more
terms differently. The step's weight gradients run on across its graphs:
each backward returns its per-sample weight products unadded
(``autograd.backward``), and the step adds them onto its running sums in
sample order, so a step split into any number of graphs gets the bits of
one graph of all its samples, and a step's memory is that of one graph,
whatever ``batch_size`` is. A sample without a mask has no seg term, and
its rows of the seg gradient are zero, which adds nothing.

A step is halved by samples with ``worker.halves``: this process runs the
first ceil(n/2) of a step's n samples, the odd sample of an odd step
included, and the worker the rest, each half as its own graphs. Both halves
return each graph's per-sample totals and products by leaf index, which the
step adds in sample order, so the bits do not depend on which process ran a
sample. Memory and RSS figures for training are per process.

Training holds at most one graph of samples. The embedding and stage 1
reach no trainable tensor, so a graph needs of each sample only its
stage-1 rows, its label, its modality and its mask as bool. A training
set that fits in one batch (the few-shot case) is loaded and passed
through them once, one graph's samples at a time, and its rows are kept;
a larger one (the zero-shot case) is loaded again for every graph, when
the graph runs, so memory does not grow with the training set or the
batch. :func:`total_loss` casts a graph's bool masks to one float32 stack
that the four level nodes share; a bool mask gives the loss the bits of
the float32 one, since both cast to the same 0/1 map.

Within a graph, the step lets go of the level features before the
backward walk, which frees each array once its last VJP has run
(``autograd.backward``). The focal term runs its ops in place, and a
level node's VJP adds its map gradient's contributions into one buffer it
owns, so a default-size graph peaks in its first level-loss VJP, just
ahead of its first stage-4 block VJP, and its forward pass stays below
both.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .adaptation import (AdaptedFeatures, MVFAParams, _check_tau, adapt_forward,
                         text_probabilities)
from .autograd import Tensor
from .data import bool_mask, load_chunks
from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError
from .fileio import write_text_atomic
from .worker import halves

PROB_EPS = 1e-7
DICE_SMOOTH = 1.0
# samples per training graph, within each process's half of a step: the
# encoder blocks' per-sample cost is about flat from 8 samples up and rises
# below, while memory grows with the graph
SUB_BATCH = 8


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0  # dice
    lambda2: float = 1.0  # focal
    lambda3: float = 1.0  # bce

    def __post_init__(self):
        # a NaN weight passes min(...) < 0
        if not all(w >= 0 for w in (self.lambda1, self.lambda2, self.lambda3)):
            raise ConfigError("loss weights must be nonnegative")


@dataclass(frozen=True)
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
        if not self.lr >= 0:
            raise ConfigError("learning rate must be nonnegative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if self.seed < 0:
            raise ConfigError(f"train seed must be nonnegative, got {self.seed}")
        _check_tau(self.tau)
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
# to one value per sample and a VJP that takes one gradient per sample. A map
# term's VJP adds its contributions to the maps' gradient, in the order the
# engine would add them, into ``total``, an array the level's VJP made, and
# returns it; without one it returns its contributions' sum.

def _per_sample(g, ndim):
    """Per-sample values shaped to broadcast against (B, ...) arrays of ``ndim``."""
    return g.reshape(g.shape + (1,) * (ndim - 1))


def _dice(p, mask):
    """1 - (2 sum(p*s) + 1) / (sum(p) + sum(s) + 1) of each map p and its mask s."""
    ndim, axes = p.ndim, tuple(range(1, p.ndim))
    inter = np.sum(p * mask, axis=axes)
    numer = inter * 2.0 + DICE_SMOOTH
    mask_sums = np.sum(mask, axis=axes).astype(np.float64) + DICE_SMOOTH
    denom = np.sum(p, axis=axes) + mask_sums.astype(p.dtype)

    def vjp(g, total=None):
        g_ratio = g * -1.0
        total = _add_into(total, _per_sample(g_ratio / denom * 2.0, ndim) * mask)
        return _add_into(total, _per_sample(-g_ratio * numer / (denom * denom), ndim))

    return numer / denom * -1.0 + 1.0, vjp


def _focal(p, mask):
    """Mean of -(1 - p_t)^2 log(p_t), with p_t = p on positives else 1 - p.

    The VJP keeps p_t, the bool clip mask and ``mask``; 1 - p_t, its square
    and log(p_t) are recomputed by the same ops, with the same bits, instead
    of being kept. Both passes run the ops of their written-out formulas in
    place in maps they have made, with at most three such maps live at once,
    ``total`` included.
    """
    ndim, axes = p.ndim, tuple(range(1, p.ndim))
    # raw = p * mask + (p * -1.0 + 1.0) * (1.0 - mask), then the mean of
    # one_minus * one_minus * log(p_t)
    raw = p * mask
    negative = p * -1.0
    negative += 1.0
    np.multiply(negative, 1.0 - mask, out=negative)
    raw += negative
    del negative
    inside = (raw >= PROB_EPS) & (raw <= 1.0 - PROB_EPS)
    p_t = np.clip(raw, PROB_EPS, 1.0 - PROB_EPS, out=raw)
    one_minus = p_t * -1.0
    one_minus += 1.0
    np.multiply(one_minus, one_minus, out=one_minus)
    np.multiply(one_minus, np.log(p_t), out=one_minus)
    value = np.mean(one_minus, axis=axes) * -1.0  # focusing exponent 2

    def vjp(g, total=None):
        # g_raw = ((g_weight * one_minus + g_weight * one_minus) * -1.0
        #          + g_prod * (one_minus * one_minus) / p_t) * inside,
        # with g_weight = g_prod * log(p_t)
        g_prod = _per_sample(g * -1.0 / p_t[0].size, ndim)
        g_raw = g_prod * np.log(p_t)
        one_minus = p_t * -1.0
        one_minus += 1.0
        np.multiply(g_raw, one_minus, out=g_raw)
        np.add(g_raw, g_raw, out=g_raw)
        np.multiply(g_raw, -1.0, out=g_raw)
        np.multiply(one_minus, one_minus, out=one_minus)
        np.multiply(g_prod, one_minus, out=one_minus)
        np.divide(one_minus, p_t, out=one_minus)
        np.add(g_raw, one_minus, out=g_raw)
        del one_minus
        np.multiply(g_raw, inside, out=g_raw)
        total = _add_into(total, g_raw * mask)
        g_negative = 1.0 - mask
        np.multiply(g_raw, g_negative, out=g_negative)
        return _add_into(total, np.multiply(g_negative, -1.0, out=g_negative))

    return value, vjp


def _bce(prob, c):
    """Binary cross-entropy of each probability against its label in ``c``."""
    positive = np.asarray(c).astype(int) == 1
    clipped = np.clip(prob, PROB_EPS, 1.0 - PROB_EPS)
    inside = (prob >= PROB_EPS) & (prob <= 1.0 - PROB_EPS)
    rest = clipped * -1.0 + 1.0

    def vjp(g):
        return np.where(positive, g * -1.0 / clipped, g * -1.0 / rest * -1.0) * inside

    return np.log(np.where(positive, clipped, rest)) * -1.0, vjp


def _sum(contributions):
    return functools.reduce(operator.add, contributions)


def _add_into(total, part):
    """``total + part``, written into ``total``; a None ``total`` starts from ``part``.

    ``part`` must then be an array of the map's full shape that the caller made.
    """
    if total is None:
        return part
    total += part
    return total


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
    return _level_loss(cls_l, seg_l, f_text, c, s, weights, tau, out_hw, {})


def _level_loss(cls_l, seg_l, f_text, c, s, weights, tau, out_hw, stacks):
    """:func:`level_loss`, taking its float mask stack from ``stacks`` by dtype.

    The stack is made on first use, so the levels of one step share one array.
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
        mask = stacks.get(dtype)
        if mask is None:
            mask = stacks[dtype] = np.stack([_as_mask(s[i], upsampled[0]) for i in masked])
        map_terms = [(weight, term(upsampled, mask))
                     for weight, term in ((weights.lambda1, _dice), (weights.lambda2, _focal))
                     if weight > 0]
        seg_value = _sum([part * float(weight) for weight, (part, _) in map_terms])
        value[rows] = seg_value + value[rows] if weights.lambda3 > 0 else seg_value

        def seg_grad(g):
            g = g[rows]
            g_map = None  # one buffer holds the map gradient's running sum
            for weight, (_, vjp) in map_terms:
                g_map = vjp(g * float(weight), g_map)
            g_grid = ag.upsample_vjp(g_map, (grid, grid), dtype)
            del g_map
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

    Takes one sample or a batch, as :func:`level_loss` does. The levels'
    nodes share one float32 stack of the masks.
    """
    total, stacks = None, {}
    for level in levels:
        ll = _level_loss(features.cls[level - 1], features.seg[level - 1], f_text,
                         c, s, weights, tau, out_hw, stacks)
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


def _step_inputs(backbone, samples):
    """The stage-1 rows, labels, modalities and bool masks of ``samples``.

    The samples are loaded as one chunk and run through the embedding and
    stage 1, which depend on no trainable tensor. A sample's rows have the
    same bits whatever batch computes them.
    """
    (loaded,) = load_chunks(samples, len(samples))
    rows = backbone.run_stage(0, backbone.embed([s.image for s in loaded])).data
    return (rows, np.array([s.label for s in loaded]), [s.modality for s in loaded],
            [bool_mask(s.mask) for s in loaded])


def _sum_samples(totals):
    """Scalar sum of the per-sample totals, added left to right."""
    return ag.record(ag.sum_in_order(totals.data), "sum_samples", (totals,),
                     lambda g: (np.broadcast_to(g, totals.shape),))


def _graphs(indices):
    """``indices`` in consecutive runs of at most :data:`SUB_BATCH`."""
    return [indices[i:i + SUB_BATCH] for i in range(0, len(indices), SUB_BATCH)]


def train(backbone, params: MVFAParams, samples, text_features: dict,
          config: TrainConfig, loss_log_path=None):
    """Optimize the adapter parameters on loaded (or loadable) samples.

    ``samples`` are manifest :class:`~mvfa.data.Sample` entries or loaded
    samples with image/label/mask/modality attributes, whose masks hold
    only 0 and 1; ``text_features`` maps each modality to its 2 x d text
    tensor. Returns the per-epoch mean losses and optionally appends them
    to a CSV file.

    Each step takes up to ``batch_size`` samples and makes one Adam update.
    It runs them as consecutive (B, N, d) graphs of at most
    :data:`SUB_BATCH` samples, each with its own forward, loss and backward
    pass, and adds the graphs' per-sample weight gradients onto the step's
    running sums in sample order. The step's loss is its per-sample totals
    added left to right, times 1/len(step); a non-finite one raises
    NumericError before the update, as does a non-finite parameter after
    it (an update that overflows float32), and a step whose graphs reach
    no trainable tensor raises the engine's ContractError. Every sample keeps
    the bits it would get in a graph of its own, so the checkpoints are
    those of training one sample graph at a time (``tests/train_oracle.py``)
    whatever the graph size.

    Each step's samples are halved across two processes (see the module
    docstring and ``worker.halves``).

    A training set that fits in one batch is loaded and run through the
    embedding and stage 1 once, one graph's samples at a time, and each
    epoch takes its permutation of those rows. A larger set is streamed:
    each graph loads only its own samples and runs them through the
    embedding and stage 1, so memory grows with neither the training set
    nor the batch, and a sample that fails to load fails the step that
    reaches it.
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
    if len(samples) <= config.batch_size:
        rows, labels, modalities, masks = zip(*(
            _step_inputs(backbone, [samples[i] for i in graph])
            for graph in _graphs(range(len(samples)))))
        rows, labels = np.concatenate(rows), np.concatenate(labels)
        modalities, masks = sum(modalities, []), sum(masks, [])

        def graph_inputs(graph):
            return (rows[graph], labels[graph], [modalities[i] for i in graph],
                    [masks[i] for i in graph])
    else:
        def graph_inputs(graph):
            return _step_inputs(backbone, [samples[i] for i in graph])

    leaves = [p for _, p in named]
    index = {leaf: i for i, leaf in enumerate(leaves)}

    def run_graph(graph, size):
        """One graph's per-sample loss totals and each leaf's per-sample products.

        The products come as (leaf index, products) pairs. ``size`` is the
        step's sample count. A graph with a non-finite total fails its step,
        and one that reaches no trainable tensor adds nothing; neither runs
        a backward pass.
        """
        stage1, labels, modalities, masks = graph_inputs(graph)
        features = adapt_forward(backbone, params, None, stage1=Tensor(stage1))[0]
        texts = np.stack([text_features[m].data for m in modalities])
        totals = total_loss(features, Tensor(texts), labels, masks, config.weights,
                            tau=config.tau, out_hw=out_hw, levels=config.levels)
        del features  # the walk frees each feature once its level's VJP has run
        if not (totals.requires_grad and np.isfinite(totals.data).all()):
            return totals.data, []
        loss = ag.scale(_sum_samples(totals), 1.0 / size)
        return totals.data, [(index[leaf], part)
                             for leaf, part in ag.backward(loss, parts=True).items()]

    def run_graphs(indices, arrays, size):
        """Each graph of one process's share of a step, with the leaves set to ``arrays``."""
        for leaf, data in zip(leaves, arrays):
            leaf.data = data
        for graph in _graphs(indices):
            yield run_graph(graph, size)

    with halves(run_graphs) as split:
        for epoch in range(config.epochs):
            order = rng.permutation(len(samples))
            weighted = 0.0
            for start in range(0, len(order), config.batch_size):
                chunk = order[start:start + config.batch_size]
                total, sums = None, {}
                for totals, parts in split(chunk, (len(chunk) + 1) // 2,
                                           [leaf.data for leaf in leaves], len(chunk)):
                    total = ag.sum_in_order(totals, total)
                    if not np.isfinite(total):
                        raise NumericError(
                            f"non-finite loss at epoch {epoch + 1}, step {state.step + 1}")
                    for i, part in parts:
                        sums[leaves[i]] = ag.sum_in_order(part, sums.get(leaves[i]))
                    parts.clear()  # so the next graph runs without them
                if not sums:  # the engine's error for a loss that reaches no trainable tensor
                    raise ContractError(
                        "backward: loss is not connected to any requires-grad tensor")
                # ablation level masks can leave some tensors off the loss path
                active = [(n, p) for n, p in named if p in sums]
                adam_step(active, {p: Tensor(g) for p, g in sums.items()}, state, config.lr)
                for name, p in active:
                    if not np.isfinite(p.data).all():
                        raise NumericError(f"non-finite value in tensor {name!r} after the "
                                           f"update at epoch {epoch + 1}, step {state.step}")
                weighted += float(total * (1.0 / len(chunk))) * len(chunk)
            history.append(weighted / len(samples))

    if loss_log_path is not None:
        lines = ["epoch,mean_loss"]
        lines += [f"{i + 1},{value:.8f}" for i, value in enumerate(history)]
        write_text_atomic(loss_log_path, "\n".join(lines) + "\n")
    return history
