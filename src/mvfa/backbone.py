"""Deterministic frozen ViT-style visual encoder with staged outputs.

The encoder stands in for a large pre-trained model: its weights are a
pure function of (config, seed), every matrix drawn from a seeded
generator and scaled by 1/sqrt(fan_in), with a fixed sinusoidal position
table. Nothing in here ever requires gradients. The tokens are patches
only (no class token) and the blocks run in four stages, which
:meth:`FrozenBackbone.run_stage` runs one at a time, so that
``adaptation.adapt_forward`` can mix adapters into the features between
stages without touching the frozen weights.

Each block is recorded as one autograd node whose hand-written VJP returns
the gradient of the block input only, since the weights never train. Its
forward runs the same numpy operations in the same order as the block
written out op by op (``tests/block_oracle.py``), and the VJP adds each
tensor's gradient contributions in the order the engine would, so outputs
and gradients keep their bits. That is why LayerNorm still computes
1/sqrt(var + eps) as exp(-0.5 * log(var + eps)), why the heads run one at
a time with their outputs summed head by head, and why the attention scale
is a Python float: a direct rsqrt, stacked heads or a numpy float64 scale
would each change float32 rounding. The node keeps only what its VJP
reads; of the (B, N, 2d) MLP pre-activation that is the sign, kept as one
bool per value.

Features are (N, d) for one image or (B, N, d) for a batch. Every operation
works on the last two axes, normalizing over ``axis=-1`` and transposing
with ``swapaxes(-1, -2)``, and numpy multiplies a stack of matrices one
matrix at a time, so each sample of a batch gets the bits it would get
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class BackboneConfig:
    image_size: int = 64
    patch_size: int = 8
    dim: int = 64
    stages: int = 4
    blocks_per_stage: int = 2
    heads: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.image_size <= 0 or self.patch_size <= 0:
            raise ConfigError("image_size and patch_size must be positive")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.stages != 4:
            raise ConfigError("the encoder is defined with exactly 4 stages")
        if self.blocks_per_stage < 1:
            raise ConfigError("blocks_per_stage must be at least 1")
        if self.dim < 1 or self.heads < 1:
            raise ConfigError(f"dim and heads must be at least 1, got {self.dim} and "
                              f"{self.heads}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    @property
    def grid_side(self) -> int:
        return self.image_size // self.patch_size

    @property
    def grid_count(self) -> int:
        return self.grid_side ** 2


class _Block:
    __slots__ = ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo",
                 "ln2_g", "ln2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")


class FrozenBackbone:
    """Encoder weights that never require gradients, so no step changes them."""

    def __init__(self, config: BackboneConfig, dtype, patch_w, pos, stages):
        self.config = config
        self.dtype = dtype
        self.patch_w = patch_w
        self.pos = pos
        self.stages = stages  # list of 4 lists of _Block

    def weight_tensors(self):
        out = [self.patch_w, self.pos]
        for blocks in self.stages:
            for blk in blocks:
                out += [blk.ln1_g, blk.ln1_b, *blk.wq, *blk.wk, *blk.wv, *blk.wo,
                        blk.ln2_g, blk.ln2_b, blk.mlp_w1, blk.mlp_b1, blk.mlp_w2, blk.mlp_b2]
        return out

    def embed(self, image):
        """Patch tokens times the patch weights, plus positions.

        ``image`` is one image, giving (N, d), or a list of B images, giving
        (B, N, d).
        """
        if isinstance(image, list):
            tokens = np.stack([patch_tokens(one, self.config) for one in image])
        else:
            tokens = patch_tokens(image.data if isinstance(image, Tensor)
                                  else np.asarray(image), self.config)
        x = ag.matmul(Tensor(tokens.astype(self.dtype)), self.patch_w)
        return ag.add(x, self.pos)

    def run_stage(self, index, x):
        for blk in self.stages[index]:
            x = _block_forward(x, blk, self.config)
        return x


def sinusoidal_table(count, dim):
    """Fixed sine/cosine position encodings, one row per grid token."""
    half = (dim + 1) // 2
    pos = np.arange(count)[:, None].astype(np.float64)
    freq = np.power(10000.0, -2.0 * np.arange(half) / dim)[None, :]
    angles = pos * freq
    table = np.zeros((count, 2 * half))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table[:, :dim]


def patch_tokens(image, config: BackboneConfig):
    """Cut an image into non-overlapping patches, row-major over the grid.

    Accepts (h, w) or (h, w, c) with c in {1, 3}; color channels are
    averaged to one intensity channel before patching.
    """
    arr = np.asarray(image)
    if arr.ndim == 3:
        if arr.shape[2] not in (1, 3):
            raise ShapeError(f"patch_tokens: expected 1 or 3 channels, got {arr.shape[2]}")
        arr = arr.mean(axis=2)
    if arr.ndim != 2:
        raise ShapeError(f"patch_tokens: expected an image, got shape {arr.shape}")
    size = config.image_size
    if arr.shape != (size, size):
        raise ShapeError(f"patch_tokens: image shape {arr.shape} does not match "
                         f"configured size {(size, size)}")
    p = config.patch_size
    g = config.grid_side
    return arr.reshape(g, p, g, p).transpose(0, 2, 1, 3).reshape(g * g, p * p)


def _layer_norm(x, gamma, beta, eps=1e-5):
    """Affine layer normalization over the last axis of an array.

    Returns the output and the (-mean, var + eps, 1/std) arrays its VJP
    needs; the VJP recomputes centered = x + -mean from the input.
    """
    shift = np.mean(x, axis=-1, keepdims=True) * -1.0
    centered = x + shift
    shifted_var = np.mean(centered * centered, axis=-1, keepdims=True) + eps
    rstd = np.exp(np.log(shifted_var) * -0.5)
    return centered * rstd * gamma + beta, (shift, shifted_var, rstd)


def _layer_norm_vjp(g, x, gamma, saved, g_residual):
    """Input gradient of :func:`_layer_norm` of ``x`` added onto ``g_residual``."""
    shift, shifted_var, rstd = saved
    centered = x + shift
    count = centered.shape[-1]
    g_normed = g * gamma
    g_rstd = np.sum(g_normed * centered, axis=-1, keepdims=True)
    g_square = g_rstd * rstd * -0.5 / shifted_var / count
    square_side = g_square * centered
    # sums run left to right in the order the op-by-op graph accumulates them
    g_centered = g_normed * rstd + square_side + square_side
    g_mean = np.sum(g_centered, axis=-1, keepdims=True) * -1.0 / count
    return g_residual + g_centered + g_mean


def _block_forward(x, blk, config):
    """One pre-norm encoder block, recorded as a single autograd node.

    The weights are frozen, so the node's VJP returns the input gradient
    only. Besides the input x, which the graph holds anyway, it keeps each
    head's q, k, v and attention, the residual sum x1, the MLP's ReLU sign
    as bool and each LayerNorm's row statistics; it recomputes each
    LayerNorm's centered input from x or x1. A softmax row's max is read at
    its argmax: np.max's value, NaN included, at about half the cost; a max
    of either zero gives the same exp(scores - max).
    """
    att_scale = float(1.0 / np.sqrt(config.dim // config.heads))
    h, ln1 = _layer_norm(x.data, blk.ln1_g.data, blk.ln1_b.data)
    heads = []
    attended = None
    for wq, wk, wv, wo in zip(blk.wq, blk.wk, blk.wv, blk.wo):
        q, k, v = h @ wq.data, h @ wk.data, h @ wv.data
        scores = (q @ k.swapaxes(-1, -2)) * att_scale
        peak = np.take_along_axis(scores, np.argmax(scores, axis=-1, keepdims=True), axis=-1)
        e = np.exp(scores - peak)
        att = e / np.sum(e, axis=-1, keepdims=True)
        head = (att @ v) @ wo.data
        attended = head if attended is None else attended + head
        heads.append((q, k, v, att))
    x1 = x.data + attended

    h2, ln2 = _layer_norm(x1, blk.ln2_g.data, blk.ln2_b.data)
    pre = h2 @ blk.mlp_w1.data + blk.mlp_b1.data
    out = x1 + (np.maximum(pre, 0) @ blk.mlp_w2.data + blk.mlp_b2.data)
    # the ReLU's VJP reads only this sign, so the float pre-activation is not kept
    positive = pre > 0

    def backward_fn(g):
        g_h2 = (g @ blk.mlp_w2.data.T * positive) @ blk.mlp_w1.data.T
        g_x1 = _layer_norm_vjp(g_h2, x1, blk.ln2_g.data, ln2, g)
        g_h = None
        for (q, k, v, att), wq, wk, wv, wo in zip(heads, blk.wq, blk.wk, blk.wv, blk.wo):
            g_av = g_x1 @ wo.data.T
            g_att = g_av @ v.swapaxes(-1, -2)
            g_scores = att * (g_att - np.sum(g_att * att, axis=-1, keepdims=True)) * att_scale
            # q, k, v of each head in turn: the op-by-op accumulation order
            for part in ((g_scores @ k) @ wq.data.T,
                         (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2) @ wk.data.T,
                         (att.swapaxes(-1, -2) @ g_av) @ wv.data.T):
                g_h = part if g_h is None else g_h + part
        return (_layer_norm_vjp(g_h, x.data, blk.ln1_g.data, ln1, g_x1),)

    return ag.record(out, "encoder_block", (x,), backward_fn)


def init_backbone(config: BackboneConfig, dtype=np.float32) -> FrozenBackbone:
    """Build the frozen encoder deterministically from (config, seed)."""
    rng = np.random.default_rng(config.seed)
    d = config.dim
    head_dim = d // config.heads
    mlp_dim = 2 * d

    def frozen(arr):
        return Tensor(arr.astype(dtype), requires_grad=False)

    def matrix(rows, cols, fan_in):
        return frozen(rng.standard_normal((rows, cols)) / np.sqrt(fan_in))

    p2 = config.patch_size ** 2
    patch_w = matrix(p2, d, p2)
    pos = frozen(sinusoidal_table(config.grid_count, d))

    stages = []
    for _ in range(config.stages):
        blocks = []
        for _ in range(config.blocks_per_stage):
            blk = _Block()
            blk.ln1_g = frozen(1.0 + 0.02 * rng.standard_normal((1, d)))
            blk.ln1_b = frozen(0.02 * rng.standard_normal((1, d)))
            blk.wq = [matrix(d, head_dim, d) for _ in range(config.heads)]
            blk.wk = [matrix(d, head_dim, d) for _ in range(config.heads)]
            blk.wv = [matrix(d, head_dim, d) for _ in range(config.heads)]
            blk.wo = [matrix(head_dim, d, head_dim) for _ in range(config.heads)]
            blk.ln2_g = frozen(1.0 + 0.02 * rng.standard_normal((1, d)))
            blk.ln2_b = frozen(0.02 * rng.standard_normal((1, d)))
            blk.mlp_w1 = matrix(d, mlp_dim, d)
            blk.mlp_b1 = frozen(np.zeros((1, mlp_dim)))
            blk.mlp_w2 = matrix(mlp_dim, d, mlp_dim)
            blk.mlp_b2 = frozen(np.zeros((1, d)))
            blocks.append(blk)
        stages.append(blocks)
    return FrozenBackbone(config, dtype, patch_w, pos, stages)
