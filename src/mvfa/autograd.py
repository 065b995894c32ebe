"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional graph node. Nodes are
recorded eagerly while an operation runs, but only when gradients are
enabled and at least one operand requires them. :func:`backward` walks the
recorded graph once in reverse topological order, accumulates gradients by
summation, returns them for the requires-grad leaves, and releases the
graph so every forward pass starts from a clean slate.

Arrays are float32 by default; passing ``dtype=np.float64`` at creation
switches a computation to double precision, which the gradient-check tests
rely on.

The row softmax, the row normalization and the bilinear upsample are also
plain-array kernels, each with its VJP (:func:`row_softmax`,
:func:`unit_rows`, :func:`upsample` and their ``_vjp`` partners). The
Tensor ops wrap them, and fused nodes and grad-free scoring call them
directly, so each formula is written once.

Training runs a batch of B samples as one graph whose arrays carry a
leading batch axis, and it must give the bits of B single-sample graphs
summed by the engine. Row-wise work is per sample already; two places need
care. A weight shared by the batch gets one gradient product per sample,
added in sample order (:func:`matmul`), because that is the order in which
the engine accumulates one product per sample graph; a single (B * N)-row
product would pair the terms differently. And a reduction over a sample's
map pairs its elements by memory layout, so batched maps are built in C
order (:func:`upsample`), where each sample is one contiguous block laid
out as its own map.
"""

from __future__ import annotations

import contextlib
import functools
import threading

import numpy as np

from .errors import ContractError, NormalizationError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)

# per-thread so parallel inference cannot toggle recording under a trainer
_state = threading.local()


def _grad_enabled():
    return getattr(_state, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (used for inference)."""
    previous = _grad_enabled()
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


class _Node:
    __slots__ = ("op", "parents", "backward")

    def __init__(self, op, parents, backward):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tensor:
    """Dense numeric array, optionally tracked by the autograd graph."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.generic)) and data.dtype in _FLOAT_DTYPES:
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar; python scalars become constants of matching dtype
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, scale(_wrap(other, self.dtype), -1.0))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), scale(self, -1.0))

    def __neg__(self):
        return scale(self, -1.0)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return div(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _wrap(value, dtype):
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def record(data, op, parents, backward_fn):
    """Wrap ``data`` as the output of op ``op`` applied to ``parents``.

    A graph node is kept only when recording is on and some parent
    requires gradients. ``backward_fn(g)`` maps the output gradient to one
    gradient per parent, or None for a parent that needs none; custom fused
    ops use this to join the graph as a single node.
    """
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.node = _Node(op, tuple(parents), backward_fn)
    return out


def _check_broadcast(op, a, b):
    if a.shape == b.shape:
        return
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _unbroadcast(grad, shape):
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    b = _wrap(b, a.dtype)
    _check_broadcast("add", a, b)
    data = a.data + b.data

    def backward_fn(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return record(data, "add", (a, b), backward_fn)


def mul(a, b):
    b = _wrap(b, a.dtype)
    _check_broadcast("mul", a, b)
    data = a.data * b.data

    def backward_fn(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return record(data, "mul", (a, b), backward_fn)


def div(a, b):
    b = _wrap(b, a.dtype)
    _check_broadcast("div", a, b)
    data = a.data / b.data

    def backward_fn(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
                if b.requires_grad else None)

    return record(data, "div", (a, b), backward_fn)


def scale(a, c):
    c = float(c)
    data = a.data * c

    def backward_fn(g):
        return (g * c,)

    return record(data, "scale", (a,), backward_fn)


def matmul(a, b):
    """Matrix product; ``a`` may be a (B, n, k) batch against a (k, m) matrix."""
    if a.ndim not in (2, 3) or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    data = a.data @ b.data

    def backward_fn(g):
        g_b = None
        if b.requires_grad:
            # one product per sample, added in sample order
            g_b = (a.data.T @ g if a.ndim == 2
                   else sum_in_order(np.matmul(a.data.swapaxes(-1, -2), g)))
        return (g @ b.data.T if a.requires_grad else None, g_b)

    return record(data, "matmul", (a, b), backward_fn)


def sum_in_order(parts):
    """Sum of ``parts`` along its first axis, added left to right.

    This is the order of a chain of additions, one part at a time; np.sum
    pairs eight or more terms differently.
    """
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def relu(a):
    data = np.maximum(a.data, 0)

    def backward_fn(g):
        # subgradient at exactly zero is defined as zero
        return (g * (a.data > 0),)

    return record(data, "relu", (a,), backward_fn)


def exp(a):
    data = np.exp(a.data)

    def backward_fn(g):
        return (g * data,)

    return record(data, "exp", (a,), backward_fn)


def log(a):
    data = np.log(a.data)

    def backward_fn(g):
        return (g / a.data,)

    return record(data, "log", (a,), backward_fn)


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g, in_shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors the numpy name
    data = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backward_fn(g):
        return (_expand_reduced(g, a.shape, axis, keepdims),)

    return record(data, "sum", (a,), backward_fn)


def mean(a, axis=None, keepdims=False):
    data = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]

    def backward_fn(g):
        return (_expand_reduced(g, a.shape, axis, keepdims) / count,)

    return record(data, "mean", (a,), backward_fn)


def max(a, axis=None):  # noqa: A001 - mirrors the numpy name
    """Max-reduce; on ties the gradient goes to the lowest index."""
    if a.data.size == 0:
        raise ShapeError("max: empty input")
    data = np.max(a.data, axis=axis)

    def backward_fn(g):
        gx = np.zeros_like(a.data)
        if axis is None:
            gx.flat[np.argmax(a.data)] = g
        else:
            idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
            np.put_along_axis(gx, idx, np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return record(data, "max", (a,), backward_fn)


def transpose(a):
    if a.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.shape}")
    data = a.data.T

    def backward_fn(g):
        return (g.T,)

    return record(data, "transpose", (a,), backward_fn)


def reshape(a, shape):
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {tuple(shape)}")
    data = a.data.reshape(shape)

    def backward_fn(g):
        return (g.reshape(a.shape),)

    return record(data, "reshape", (a,), backward_fn)


def clip(a, lo, hi):
    data = np.clip(a.data, lo, hi)

    def backward_fn(g):
        return (g * ((a.data >= lo) & (a.data <= hi)),)

    return record(data, "clip", (a,), backward_fn)


def row_softmax(x):
    """Softmax over the last axis of an array, numerically stabilized."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def row_softmax_vjp(g, probs):
    """Input gradient of :func:`row_softmax` given its output ``probs``."""
    dot = np.sum(g * probs, axis=-1, keepdims=True)
    return probs * (g - dot)


def unit_rows(x):
    """Scale each row (last axis) of an array to unit norm; returns (rows, norms)."""
    norms = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    if not norms.all():
        row = int(np.flatnonzero(norms.reshape(-1) == 0)[0])
        raise NormalizationError(f"l2norm_rows: row {row} has zero norm")
    return x / norms, norms


def unit_rows_vjp(g, rows, norms):
    """Input gradient of :func:`unit_rows` given its outputs."""
    dot = np.sum(g * rows, axis=-1, keepdims=True)
    return (g - rows * dot) / norms


def softmax_rows(a):
    """Row-wise softmax of a matrix, numerically stabilized."""
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expected a matrix, got shape {a.shape}")
    data = row_softmax(a.data)
    return record(data, "softmax_rows", (a,), lambda g: (row_softmax_vjp(g, data),))


def l2norm_rows(a):
    """Scale each row of a matrix to unit Euclidean norm."""
    if a.ndim != 2:
        raise ShapeError(f"l2norm_rows: expected a matrix, got shape {a.shape}")
    data, norms = unit_rows(a.data)
    return record(data, "l2norm_rows", (a,), lambda g: (unit_rows_vjp(g, data, norms),))


def _axis_coords(in_extent, out_extent, dtype):
    """Source indices and blend weights for 1-D align-corners interpolation."""
    if out_extent == 1 or in_extent == 1:
        src = np.zeros(out_extent)
    else:
        src = np.arange(out_extent) * ((in_extent - 1) / (out_extent - 1))
    i0 = np.minimum(np.floor(src).astype(np.int64), in_extent - 1)
    i1 = np.minimum(i0 + 1, in_extent - 1)
    w = (src - i0).astype(dtype)
    return i0, i1, w


@functools.lru_cache(maxsize=32)
def _upsample_plan(gh, gw, h, w):
    """Gather plan that scatters the upsample VJP in np.add.at's order.

    The VJP spreads each output pixel's gradient onto four source cells,
    one corner at a time, and each cell must sum its contributions
    sequentially in that order, starting from zero, to keep the bits of a
    scatter with ``np.add.at``. Row ``j`` of the returned (width, gh * gw)
    index matrix lists, for every source cell, the position of its j-th
    contribution in the four flattened corner arrays, in scatter order; a
    cell with fewer contributions points at index ``4 * h * w``, an appended
    zero. Adding a zero never changes a sum that started from +0, so adding
    the rows one after another equals the scatter.
    """
    y0, y1, _ = _axis_coords(gh, h, np.float64)
    x0, x1, _ = _axis_coords(gw, w, np.float64)
    cells = np.concatenate([(ys[:, None] * gw + xs[None, :]).reshape(-1)
                            for ys, xs in ((y0, x0), (y0, x1), (y1, x0), (y1, x1))])
    order = np.argsort(cells, kind="stable")
    counts = np.bincount(cells, minlength=gh * gw)
    sorted_cells = cells[order]
    slot = np.arange(cells.size) - (np.cumsum(counts) - counts)[sorted_cells]
    plan = np.full((counts.max(), gh * gw), cells.size)
    plan[slot, sorted_cells] = order
    plan.flags.writeable = False
    return plan


@functools.lru_cache(maxsize=32)
def _upsample_blend(gh, gw, h, w, dtype):
    """Gather indices and blend weights of an align-corners resize.

    Returns the source rows y0, y1 and columns x0, x1 of each output pixel,
    then 1 - wy, wy as columns and 1 - wx, wx as rows, in ``dtype``.
    """
    y0, y1, wy = _axis_coords(gh, h, dtype.type)
    x0, x1, wx = _axis_coords(gw, w, dtype.type)
    blend = (y0, y1, x0, x1, 1 - wy[:, None], wy[:, None], 1 - wx[None, :], wx[None, :])
    for arr in blend:
        arr.flags.writeable = False
    return blend


def upsample(src, size):
    """Resize a 2-D map, or a (B, gh, gw) stack of maps, to ``size``.

    The interpolation is align-corners bilinear: each output pixel is
    (1 - wy) * top + wy * bottom, where top and bottom blend the two source
    columns of a source row: (1 - wx) * left + wx * right. The row blends
    are computed once per source row and then gathered, which does the same
    arithmetic per pixel. The result is C-ordered, so a reduction over one
    map of a stack pairs its elements as it would for that map alone.
    """
    if src.ndim not in (2, 3):
        raise ShapeError(f"bilinear_upsample: expected a map or a stack of maps, "
                         f"got shape {src.shape}")
    gh, gw = src.shape[-2:]
    if gh == 0 or gw == 0:
        raise ShapeError("bilinear_upsample: empty input map")
    h, w = int(size[0]), int(size[1])
    if h < gh or w < gw:
        raise ShapeError(f"bilinear_upsample: target {(h, w)} smaller than input {src.shape}")
    y0, y1, x0, x1, vy, wy, vx, wx = _upsample_blend(gh, gw, h, w, src.dtype)
    rows = vx * src[..., x0] + wx * src[..., x1]
    return np.add(vy * rows[..., y0, :], wy * rows[..., y1, :], order="C")


def upsample_vjp(g, src_shape, dtype):
    """Source gradient of :func:`upsample` for a ``dtype`` source of ``src_shape``.

    Each source cell sums its contributions sequentially in ``np.add.at``'s
    scatter order (see :func:`_upsample_plan`). The contributions are
    gathered with the samples of a stack side by side, so each step of that
    sum is one addition over every cell of every sample.
    """
    gh, gw = src_shape[-2:]
    h, w = g.shape[-2:]
    _, _, _, _, vy, wy, vx, wx = _upsample_blend(gh, gw, h, w, np.dtype(dtype))
    # (h, w, samples), so a pixel's contributions from all samples are adjacent
    g_hws = np.ascontiguousarray(np.moveaxis(g.reshape(-1, h, w), 0, -1))
    vy, wy, vx, wx = vy[..., None], wy[..., None], vx[..., None], wx[..., None]
    top, bot = g_hws * vy, g_hws * wy
    flat = np.empty((4 * h * w + 1,) + g_hws.shape[2:], dtype=top.dtype)
    corners = flat[:-1].reshape((4,) + g_hws.shape)
    for corner, (rows, cols) in enumerate(((top, vx), (top, wx), (bot, vx), (bot, wx))):
        np.multiply(rows, cols, out=corners[corner])
    flat[-1] = 0
    total = np.zeros((gh * gw,) + g_hws.shape[2:], dtype=top.dtype)
    for contributions in np.take(flat, _upsample_plan(gh, gw, h, w), axis=0):
        total += contributions
    return np.moveaxis(total, -1, 0).reshape(g.shape[:-2] + (gh, gw))


def bilinear_upsample(a, size):
    """Resize a 2-D map, or a stack of maps, with align-corners bilinear interpolation."""
    data = upsample(a.data, size)
    return record(data, "bilinear_upsample", (a,),
                  lambda g: (upsample_vjp(g, a.shape, a.dtype),))


def backward(loss):
    """Propagate gradients from a scalar loss back to requires-grad leaves.

    Returns a mapping from each reachable leaf tensor to a gradient tensor
    of the same shape. Gradients from multiple uses of a leaf accumulate by
    summation. Graph nodes are released as they are consumed, so the graph
    cannot be replayed.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be a scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ContractError("backward: loss is not connected to any requires-grad tensor")

    # iterative postorder traversal; graphs can be deep at batch scale
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        tensor, processed = stack.pop()
        if processed:
            topo.append(tensor)
            continue
        if id(tensor) in visited:
            continue
        visited.add(id(tensor))
        stack.append((tensor, True))
        if tensor.node is not None:
            for parent in tensor.node.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

    grads = {loss: np.ones_like(loss.data)}
    leaf_grads = {}
    for tensor in reversed(topo):
        g = grads.pop(tensor, None)
        if g is None:
            continue
        if tensor.node is None:
            if tensor.requires_grad:
                leaf_grads[tensor] = g
            continue
        parent_grads = tensor.node.backward(g)
        for parent, pg in zip(tensor.node.parents, parent_grads):
            if pg is None or not (parent.requires_grad or parent.node is not None):
                continue
            if parent in grads:
                grads[parent] = grads[parent] + pg
            else:
                grads[parent] = pg
        tensor.node = None
    return {leaf: Tensor(np.array(g, copy=True)) for leaf, g in leaf_grads.items()}
