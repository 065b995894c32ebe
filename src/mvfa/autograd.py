"""Reverse-mode automatic differentiation over dense numpy arrays.

A :class:`Tensor` wraps an ndarray plus an optional graph node. Nodes are
recorded eagerly while an operation runs, but only when gradients are
enabled and at least one operand requires them. :func:`backward` walks the
recorded graph once in reverse topological order, accumulates gradients by
summation and returns them for the requires-grad leaves. The walk lets go
of each tensor once its VJP has run, so a forward array that no remaining
VJP reads is freed during the walk unless the caller still holds its
tensor; the graph is gone when the walk ends, and every forward pass
starts from a clean slate.

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
so each formula is written once. The upsample and its VJP read one cached
plan per grid, output size and dtype: the gather's source rows and
columns, the blend weights and the scatter's source cells. :func:`release`
frees the arrays that a graph holds but no VJP reads.

Training runs a batch of samples as graphs whose arrays carry a leading
batch axis, and it must give the bits of one single-sample graph per
sample summed by the engine. Row-wise work is per sample already; two
places need care. A weight shared by the batch gets one gradient product
per sample (:func:`matmul`), added in sample order (:func:`sum_in_order`),
because that is the order in which the engine accumulates one product per
sample graph; a single (B * N)-row product would pair the terms
differently. The sum runs on across the graphs of one step:
:func:`backward` can return each weight's per-sample products unadded,
and the step adds those of all its graphs onto one sum per weight, one
sample at a time, so a step split into several graphs, in one process or
two, keeps the bits of one. And a reduction over a sample's map pairs its
elements by memory layout, so batched maps are built in C order
(:func:`upsample`), where each sample is one contiguous block laid out as
its own map.
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
            # one product per sample; backward adds them in sample order
            g_b = (a.data.T @ g if a.ndim == 2
                   else _PerSample(np.matmul(a.data.swapaxes(-1, -2), g)))
        return (g @ b.data.T if a.requires_grad else None, g_b)

    return record(data, "matmul", (a, b), backward_fn)


class _PerSample:
    """The gradient of a tensor shared by a batch: one part per sample, not yet added."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts


def sum_in_order(parts, total=None):
    """Sum of ``parts`` along its first axis, added left to right onto ``total``.

    This is the order of a chain of additions, one part at a time; np.sum
    pairs eight or more terms differently. Without ``total`` the sum starts
    from a copy of the first part; an array ``total`` is added onto in
    place, so a sum can run on over parts that arrive in pieces and keep
    the bits of one call over all of them.
    """
    if total is None:
        total, parts = parts[0].copy(), parts[1:]
    for part in parts:
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
    """Input gradient of :func:`unit_rows` given its outputs.

    The result is built in place in ``rows * dot``, whose dtype is already
    that of ``(g - rows * dot) / norms``.
    """
    dot = np.sum(g * rows, axis=-1, keepdims=True)
    grad = rows * dot
    np.subtract(g, grad, out=grad)
    return np.divide(grad, norms, out=grad)


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
def _upsample_blend(gh, gw, h, w, dtype):
    """The plan of an align-corners resize, read by :func:`upsample` and its VJP.

    Returns the source rows y0, y1 and columns x0, x1 of each output pixel,
    then 1 - wy, wy as columns and 1 - wx, wx as rows, in ``dtype``, then
    the flat source cells of the output pixels, in C order, at the blend
    corners (y0, x0), (y0, x1), (y1, x0) and (y1, x1).
    """
    y0, y1, wy = _axis_coords(gh, h, dtype.type)
    x0, x1, wx = _axis_coords(gw, w, dtype.type)
    corners = tuple((ys[:, None] * gw + xs[None, :]).reshape(-1)
                    for ys, xs in ((y0, x0), (y0, x1), (y1, x0), (y1, x1)))
    blend = (y0, y1, x0, x1, 1 - wy[:, None], wy[:, None], 1 - wx[None, :], wx[None, :])
    for arr in blend + corners:
        arr.flags.writeable = False
    return blend + (corners,)


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
    y0, y1, x0, x1, vy, wy, vx, wx, _ = _upsample_blend(gh, gw, h, w, src.dtype)
    rows = vx * src[..., x0] + wx * src[..., x1]
    return np.add(vy * rows[..., y0, :], wy * rows[..., y1, :], order="C")


def upsample_vjp(g, src_shape, dtype):
    """Source gradient of :func:`upsample` for a ``dtype`` source of ``src_shape``.

    Each map's gradient is scattered onto its source cells with one
    ``np.add.at`` per blend corner, (y0, x0), (y0, x1), (y1, x0) and (y1, x1)
    in that order, so each cell sums its contributions one at a time,
    starting from zero. The weights and cells come from the plan that the
    forward :func:`upsample` of the same sizes and dtype reads. A stack
    goes one map at a time, which keeps the temporaries at one map's size.
    """
    gh, gw = src_shape[-2:]
    h, w = g.shape[-2:]
    _, _, _, _, vy, wy, vx, wx, corners = _upsample_blend(gh, gw, h, w, np.dtype(dtype))
    maps = g.reshape(-1, h, w)
    total = np.zeros((len(maps), gh * gw), dtype=np.result_type(g, vy))
    for g_map, cells in zip(maps, total):
        top, bot = g_map * vy, g_map * wy
        for rows, cols, index in zip((top, top, bot, bot), (vx, wx, vx, wx), corners):
            np.add.at(cells, index, (rows * cols).reshape(-1))
    return total.reshape(g.shape[:-2] + (gh, gw))


def backward(loss, parts=False):
    """Propagate gradients from a scalar loss back to requires-grad leaves.

    Returns a mapping from each reachable leaf tensor to a gradient tensor
    of the same shape. Gradients from multiple uses of a leaf accumulate by
    summation; a leaf shared by a batch adds its per-sample products in
    sample order.

    The walk holds the graph's tensors in a list in topological order and
    pops them from its end, so it holds each tensor until that tensor's VJP
    has run and then drops both the tensor and its node, which cannot be
    replayed. Every VJP that reads a tensor's array has run by then: the
    tensor's own, and those of the tensors computed from it, which come
    first. So a forward array is freed as soon as its tensor is popped,
    unless the caller still holds that tensor; leaves, and tensors the
    caller holds, stay readable.

    With ``parts``, each leaf maps instead to its gradient's parts not yet
    added, as one array: the per-sample products of a leaf shared by the
    batch, or the gradient with a leading axis of one. A training step adds
    the parts of all its graphs onto one running sum per leaf in sample
    order (:func:`sum_in_order`), which keeps the bits of one graph over all
    its samples. A leaf reached twice in one graph is then a ContractError:
    its second gradient would follow the first one's later samples.
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

    grads = {}
    leaf_parts = {}

    def arrive(tensor, g):
        if parts and tensor.node is None:
            if tensor in leaf_parts:
                raise ContractError(f"backward: a leaf of shape {tensor.shape} is reached "
                                    f"twice in one graph, so its running sum would add "
                                    f"its gradients out of sample order")
            leaf_parts[tensor] = g.parts if isinstance(g, _PerSample) else g[None]
            return
        if isinstance(g, _PerSample):
            g = sum_in_order(g.parts)
        grads[tensor] = grads[tensor] + g if tensor in grads else g

    arrive(loss, np.ones_like(loss.data))
    leaf_grads = {}
    while topo:
        tensor = topo.pop()
        g = grads.pop(tensor, None)
        if g is None:
            continue
        if tensor.node is None:
            leaf_grads[tensor] = g
            continue
        parent_grads = tensor.node.backward(g)
        for parent, pg in zip(tensor.node.parents, parent_grads):
            if pg is not None and (parent.requires_grad or parent.node is not None):
                arrive(parent, pg)
        tensor.node = None
    if parts:
        return leaf_parts
    return {leaf: Tensor(np.array(g, copy=True)) for leaf, g in leaf_grads.items()}
