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

The engine holds what training runs: :func:`add`, :func:`scale`,
:func:`matmul` and :func:`relu` as graph ops, and :func:`record`, through
which a fused node (an encoder block, a level loss) joins the graph as one
node with a hand-written VJP. The row softmax, the row normalization and
the bilinear upsample are plain-array kernels, each with its VJP
(:func:`row_softmax`, :func:`unit_rows`, :func:`upsample` and their
``_vjp`` partners); fused nodes and grad-free scoring call them directly,
so each formula is written once. :func:`release` frees the arrays that a
graph holds but no VJP reads.

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

# per-thread, so no_grad in one thread leaves recording in the others on
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

    __slots__ = ("_data", "requires_grad", "node")

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
    def data(self):
        if self._data is None:
            raise ContractError("read of a released tensor array")
        return self._data

    @data.setter
    def data(self, value):
        self._data = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        if self._data is None:
            return f"Tensor(released{flag})"
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


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


def release(*tensors):
    """Free the arrays of graph tensors that no VJP reads; a later read raises.

    The tensors stay in the graph and still receive their gradients.
    """
    for tensor in tensors:
        tensor._data = None


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
        raise NormalizationError(f"feature row {row} has zero norm")
    return x / norms, norms


def unit_rows_vjp(g, rows, norms):
    """Input gradient of :func:`unit_rows` given its outputs."""
    dot = np.sum(g * rows, axis=-1, keepdims=True)
    return (g - rows * dot) / norms


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
        raise ShapeError(f"upsample: expected a map or a stack of maps, "
                         f"got shape {src.shape}")
    gh, gw = src.shape[-2:]
    if gh == 0 or gw == 0:
        raise ShapeError("upsample: empty input map")
    h, w = int(size[0]), int(size[1])
    if h < gh or w < gw:
        raise ShapeError(f"upsample: target {(h, w)} smaller than input {src.shape}")
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
