"""Op-by-op Tensor ops that only the reference graphs use, for the tests.

The oracles (``block_oracle``, ``loss_oracle``, ``train_oracle``) build the
encoder block, the level losses and the training step one primitive op at a
time, each op with its own VJP, and the fused nodes of ``mvfa`` must give
their bits. These are the ops beyond ``mvfa.autograd``'s ``add``,
``scale``, ``matmul`` and ``relu``; they record through the engine's
``record`` and reuse its array kernels, so the oracles and the library
share one formula for the softmax, the row normalization and the upsample.
"""

import numpy as np

from mvfa import autograd as ag
from mvfa.adaptation import _check_tau
from mvfa.autograd import _check_broadcast, _unbroadcast, _wrap, record
from mvfa.errors import ShapeError


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


def exp(a):
    data = np.exp(a.data)
    return record(data, "exp", (a,), lambda g: (g * data,))


def log(a):
    return record(np.log(a.data), "log", (a,), lambda g: (g / a.data,))


def _expand_reduced(g, in_shape, axis, keepdims):
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, in_shape)


def sum(a, axis=None, keepdims=False):  # noqa: A001 - mirrors the numpy name
    data = np.sum(a.data, axis=axis, keepdims=keepdims)
    return record(data, "sum", (a,),
                  lambda g: (_expand_reduced(g, a.shape, axis, keepdims),))


def mean(a, axis=None, keepdims=False):
    data = np.mean(a.data, axis=axis, keepdims=keepdims)
    count = a.data.size if axis is None else a.shape[axis]
    return record(data, "mean", (a,),
                  lambda g: (_expand_reduced(g, a.shape, axis, keepdims) / count,))


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
    return record(a.data.T, "transpose", (a,), lambda g: (g.T,))


def reshape(a, shape):
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {tuple(shape)}")
    return record(a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(a.shape),))


def clip(a, lo, hi):
    data = np.clip(a.data, lo, hi)
    return record(data, "clip", (a,), lambda g: (g * ((a.data >= lo) & (a.data <= hi)),))


def softmax_rows(a):
    """Row-wise softmax of a matrix, numerically stabilized."""
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expected a matrix, got shape {a.shape}")
    data = ag.row_softmax(a.data)
    return record(data, "softmax_rows", (a,), lambda g: (ag.row_softmax_vjp(g, data),))


def l2norm_rows(a):
    """Scale each row of a matrix to unit Euclidean norm."""
    if a.ndim != 2:
        raise ShapeError(f"l2norm_rows: expected a matrix, got shape {a.shape}")
    data, norms = ag.unit_rows(a.data)
    return record(data, "l2norm_rows", (a,),
                  lambda g: (ag.unit_rows_vjp(g, data, norms),))


def bilinear_upsample(a, size):
    """Resize a 2-D map, or a stack of maps, with align-corners bilinear interpolation."""
    return record(ag.upsample(a.data, size), "bilinear_upsample", (a,),
                  lambda g: (ag.upsample_vjp(g, a.shape, a.dtype),))


def similarity_logits(f, f_text, tau):
    """Cosine logits of grid features against the two text rows, scaled by 1/tau."""
    _check_tau(tau)
    fn = l2norm_rows(f)
    tn = l2norm_rows(f_text)
    return ag.scale(ag.matmul(fn, transpose(tn)), 1.0 / tau)
