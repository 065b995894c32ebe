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
would each change float32 rounding.

The node keeps only what its VJP reads, and recomputes what it can rebuild
bit for bit: it keeps the residual sum x1, the sign of the (B, N, 2d) MLP
pre-activation packed eight values to a byte along the last axis
(``np.packbits``), the LayerNorm row statistics and each head's (B, N, 1)
softmax peak and denominator. The VJP rebuilds, with the forward's own
ops, the LN1 output h from the block input x and LN1's shift and 1/std
(:func:`_normalize`), each head's q, k, v and (B, N, N) attention from h
(:func:`_attention`), and each LayerNorm's centered input from x or x1.
The kernels write intermediates in place (``out=``), but only into arrays
they have just made: never into an array a VJP reads later, and never
into an incoming gradient, which another node may have passed on as its
own (an adapter mix's VJP returns ``g`` itself).

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


# values one encoder may hold in its patch weights, position table and blocks,
# so that no config file or checkpoint header makes init_backbone allocate
# without bound; the default encoder holds 273,920
MAX_ENCODER_VALUES = 2 ** 22
# tensors one encoder's blocks may hold, since each costs RNG and Python call
# overhead to build however small it is; the default encoder's blocks hold 192
MAX_ENCODER_TENSORS = 2 ** 12


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
        d = self.dim  # a block holds 8 * d * d weights and 7 * d norm and bias values
        values = ((self.patch_size ** 2 + self.grid_count) * d
                  + self.stages * self.blocks_per_stage * (8 * d * d + 7 * d))
        if values > MAX_ENCODER_VALUES:
            raise ConfigError(f"the encoder would hold {values} values, more than "
                              f"{MAX_ENCODER_VALUES}")
        # a block holds 4 * heads attention matrices and 8 norm and MLP tensors
        tensors = self.stages * self.blocks_per_stage * (4 * self.heads + 8)
        if tensors > MAX_ENCODER_TENSORS:
            raise ConfigError(f"the encoder would hold {tensors} tensors, more than "
                              f"{MAX_ENCODER_TENSORS}")

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
    needs; the VJP recomputes centered = x + -mean from the input. The
    affine runs in place in the centered array, which the output becomes.
    """
    shift = np.mean(x, axis=-1, keepdims=True) * -1.0
    centered = x + shift
    shifted_var = np.mean(centered * centered, axis=-1, keepdims=True) + eps
    rstd = np.exp(np.log(shifted_var) * -0.5)
    return _normalize(centered, rstd, gamma, beta), (shift, shifted_var, rstd)


def _normalize(centered, rstd, gamma, beta):
    """The affine of :func:`_layer_norm`, in place in the ``centered`` array.

    A VJP passes x + shift to rebuild the forward's output bit for bit.
    """
    np.multiply(centered, rstd, out=centered)
    np.multiply(centered, gamma, out=centered)
    np.add(centered, beta, out=centered)
    return centered


def _layer_norm_vjp(g, x, gamma, saved, g_residual):
    """Input gradient of :func:`_layer_norm` of ``x`` added onto ``g_residual``.

    Writes only into arrays it makes, never into ``g`` or ``g_residual``.
    """
    shift, shifted_var, rstd = saved
    centered = x + shift
    count = centered.shape[-1]
    g_normed = g * gamma
    g_rstd = np.sum(g_normed * centered, axis=-1, keepdims=True)
    g_square = g_rstd * rstd * -0.5 / shifted_var / count
    square_side = np.multiply(g_square, centered, out=centered)
    # sums run left to right in the order the op-by-op graph accumulates them
    g_centered = np.multiply(g_normed, rstd, out=g_normed)
    g_centered += square_side
    g_centered += square_side
    g_mean = np.sum(g_centered, axis=-1, keepdims=True) * -1.0 / count
    np.add(g_residual, g_centered, out=g_centered)
    g_centered += g_mean
    return g_centered


def _attention(h, wq, wk, wv, scale, peak=None, denom=None):
    """One head's q, k, v and softmax attention of the LayerNorm output ``h``.

    Returns (q, k, v, att, peak, denom). A softmax row's peak is read at its
    argmax: np.max's value, NaN included; a peak of either zero gives the
    same exp(scores - peak). The VJP passes the forward's peak and row sum
    denom back in, so the same ops rebuild the same att bits.
    """
    q, k, v = h @ wq, h @ wk, h @ wv
    att = q @ k.swapaxes(-1, -2)
    np.multiply(att, scale, out=att)
    if peak is None:
        peak = np.take_along_axis(att, np.argmax(att, axis=-1, keepdims=True), axis=-1)
    np.subtract(att, peak, out=att)
    np.exp(att, out=att)
    if denom is None:
        denom = np.sum(att, axis=-1, keepdims=True)
    np.divide(att, denom, out=att)
    return q, k, v, att, peak, denom


def _block_forward(x, blk, config):
    """One pre-norm encoder block, recorded as a single autograd node.

    The weights are frozen, so the node's VJP returns the input gradient
    only. Besides the input x, which the graph holds anyway, the node keeps
    the residual sum x1, the MLP's ReLU sign packed eight to a byte, each
    LayerNorm's row statistics and, per head, only the (B, N, 1) softmax
    peak and denominator. The VJP rebuilds the LN1 output h from x and
    LN1's statistics with :func:`_normalize`, each head's q, k, v and
    attention from h with :func:`_attention`, the forward's own ops, and
    each LayerNorm's centered input from x or x1. Intermediates are written
    in place (out=) only into arrays this kernel has just made: never into
    x1 or the statistics, which the VJP reads, nor into the incoming g.
    """
    att_scale = float(1.0 / np.sqrt(config.dim // config.heads))
    h, ln1 = _layer_norm(x.data, blk.ln1_g.data, blk.ln1_b.data)
    softmax_stats = []
    attended = None
    for wq, wk, wv, wo in zip(blk.wq, blk.wk, blk.wv, blk.wo):
        _, _, v, att, peak, denom = _attention(h, wq.data, wk.data, wv.data, att_scale)
        head = (att @ v) @ wo.data
        attended = head if attended is None else np.add(attended, head, out=attended)
        softmax_stats.append((peak, denom))
        del v, att, head  # freed before the next head's are made
    del h
    x1 = np.add(x.data, attended, out=attended)

    h2, ln2 = _layer_norm(x1, blk.ln2_g.data, blk.ln2_b.data)
    pre = h2 @ blk.mlp_w1.data
    del h2
    np.add(pre, blk.mlp_b1.data, out=pre)
    # the ReLU's VJP reads only this sign, so the float pre-activation is not kept
    hidden = pre.shape[-1]
    positive = np.packbits(pre > 0, axis=-1)
    out = np.maximum(pre, 0, out=pre) @ blk.mlp_w2.data
    np.add(out, blk.mlp_b2.data, out=out)
    np.add(x1, out, out=out)

    def backward_fn(g):
        g_pre = g @ blk.mlp_w2.data.T
        np.multiply(g_pre, np.unpackbits(positive, axis=-1, count=hidden).view(bool),
                    out=g_pre)
        # each (B, N, 2d) or (B, N, d) gradient is freed once read, before the
        # attention is rebuilt
        g_h2 = g_pre @ blk.mlp_w1.data.T
        del g_pre
        g_x1 = _layer_norm_vjp(g_h2, x1, blk.ln2_g.data, ln2, g)
        del g_h2
        shift, _, rstd = ln1
        h = _normalize(x.data + shift, rstd, blk.ln1_g.data, blk.ln1_b.data)
        g_h = None
        for (peak, denom), wq, wk, wv, wo in zip(softmax_stats, blk.wq, blk.wk, blk.wv,
                                                 blk.wo):
            q, k, v, att, _, _ = _attention(h, wq.data, wk.data, wv.data, att_scale,
                                            peak, denom)
            g_av = g_x1 @ wo.data.T
            g_scores = g_av @ v.swapaxes(-1, -2)
            del v
            row = np.sum(g_scores * att, axis=-1, keepdims=True)
            np.subtract(g_scores, row, out=g_scores)
            np.multiply(att, g_scores, out=g_scores)
            np.multiply(g_scores, att_scale, out=g_scores)
            # q, k, v of each head in turn: the op-by-op accumulation order;
            # each part is made once the one before it is added, and each
            # (B, N, N) array is freed once the last part that reads it is made
            g_q = (g_scores @ k) @ wq.data.T
            g_h = g_q if g_h is None else np.add(g_h, g_q, out=g_h)
            del g_q
            np.add(g_h, (q.swapaxes(-1, -2) @ g_scores).swapaxes(-1, -2) @ wk.data.T,
                   out=g_h)
            del q, k, g_scores
            np.add(g_h, (att.swapaxes(-1, -2) @ g_av) @ wv.data.T, out=g_h)
            del att, g_av
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
