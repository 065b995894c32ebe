"""Tour of the autograd engine: graph ops, a hand-written node, backward, FD check.

Training records a handful of graph ops (add, scale, matmul, relu) and
fused nodes that join the graph through `ag.record` with a hand-written
vector-Jacobian product (VJP). This demo builds such a node, a row softmax
on the library's `row_softmax` kernel and its VJP, runs `backward`, and
checks the gradient against central finite differences.
"""

import numpy as np

from mvfa import autograd as ag
from mvfa.autograd import Tensor, backward, no_grad


def softmax_node(a):
    """Row softmax as one graph node: the kernel forward, the kernel's VJP backward."""
    probs = ag.row_softmax(a.data)
    return ag.record(probs, "softmax_rows", (a,), lambda g: (ag.row_softmax_vjp(g, probs),))


def anomaly_mass(x, w1, w2):
    """Total class-1 probability of a two-layer softmax head: a (1, 1) scalar."""
    probs = softmax_node(ag.matmul(ag.relu(ag.matmul(x, w1)), w2))
    rows = Tensor(np.ones((1, x.shape[0]), dtype=x.dtype))
    column = Tensor(np.array([[0.0], [1.0]], dtype=x.dtype))
    return ag.matmul(ag.matmul(rows, probs), column), probs


rng = np.random.default_rng(0)
arrays = (rng.standard_normal((4, 6)), rng.standard_normal((6, 8)) * 0.3,
          rng.standard_normal((8, 2)) * 0.3)


def tensors(dtype):
    """The input and the two trainable weights, as ``dtype`` tensors."""
    x, w1, w2 = (np.array(a, dtype=dtype) for a in arrays)
    return Tensor(x), Tensor(w1, requires_grad=True), Tensor(w2, requires_grad=True)


loss, probs = anomaly_mass(*tensors(np.float32))
print(f"loss: {loss.data.item():.4f}")
print(f"softmax rows sum to {probs.data.sum(axis=1)}")

# analytic gradients in 64-bit, from one backward pass over the recorded graph
x, w1, w2 = tensors(np.float64)
grads = backward(anomaly_mass(x, w1, w2)[0])
print(f"gradient tensors returned: {len(grads)} (w1 and w2)")
print(f"|dL/dw1| mean: {np.abs(grads[w1].data).mean():.5f}")

# central differences over every entry of both weights
step, worst = 1e-5, 0.0
with no_grad():
    for weight in (w1, w2):
        flat = weight.data.reshape(-1)
        numeric = np.empty_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            f_plus = anomaly_mass(x, w1, w2)[0].data.item()
            flat[i] = original - step
            f_minus = anomaly_mass(x, w1, w2)[0].data.item()
            flat[i] = original
            numeric[i] = (f_plus - f_minus) / (2 * step)
        analytic = grads[weight].data.reshape(-1)
        scale = np.maximum(np.abs(analytic), np.abs(numeric)).max()
        worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
print(f"finite differences vs analytic: worst error {worst:.2e} of the largest entry")
assert worst < 1e-6

# the same kernels serve grad-free scoring on plain arrays
checkerboard = np.array([[0.0, 1.0], [1.0, 0.0]])
print("2x2 checkerboard upsampled to 5x5, center row:",
      np.round(ag.upsample(checkerboard, (5, 5))[2], 3))
print("done")
