import numpy as np
import ops_oracle as ops
import pytest
from fdcheck import check_gradients, numeric_grads, max_relative_error

from mvfa import autograd as ag
from mvfa.autograd import Tensor, backward, no_grad
from mvfa.errors import ContractError, NormalizationError, ShapeError


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# -- forward values -----------------------------------------------------------

def test_relu_definition():
    out = ag.relu(Tensor([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    out = ag.row_softmax(np.array([[0.0, 0.0]], dtype=np.float32))
    assert np.allclose(out, [[0.5, 0.5]])


def test_l2norm_three_four_five():
    out, _ = ag.unit_rows(np.array([[3.0, 4.0]], dtype=np.float32))
    assert np.allclose(out, [[0.6, 0.8]])


def test_l2norm_zero_row_names_index():
    with pytest.raises(NormalizationError, match="row 1"):
        ag.unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = ag.row_softmax((rng.standard_normal((20, 7)) * 5).astype(np.float32))
    sums = out.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-6
    assert (out > 0).all() and (out < 1).all()


def test_forward_is_bit_deterministic():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((6, 6)))
    w = Tensor(rng.standard_normal((6, 6)))

    def run():
        return ag.row_softmax(ag.matmul(ag.relu(x), w).data)

    assert np.array_equal(run(), run())


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ag.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_dtype_modes():
    x32 = Tensor([[1.0, 1.0], [1.0, 1.0]])  # python lists default to float32
    x64 = Tensor(np.ones((2, 2)), dtype=np.float64)
    assert x32.dtype == np.float32
    assert ag.relu(x32).dtype == np.float32
    assert ops.sum(x32).dtype == np.float32
    assert ag.row_softmax(x64.data).dtype == np.float64
    assert ops.mean(x64).dtype == np.float64
    assert ag.upsample(x64.data, (3, 3)).dtype == np.float64


# -- bilinear upsampling ------------------------------------------------------

def bilinear_oracle(src, h, w):
    """Independent scalar interpolation loop over output pixels."""
    gh, gw = src.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            sy = i * (gh - 1) / (h - 1) if h > 1 and gh > 1 else 0.0
            sx = j * (gw - 1) / (w - 1) if w > 1 and gw > 1 else 0.0
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, gh - 1), min(x0 + 1, gw - 1)
            wy, wx = sy - y0, sx - x0
            out[i, j] = ((1 - wy) * (1 - wx) * src[y0, x0]
                         + (1 - wy) * wx * src[y0, x1]
                         + wy * (1 - wx) * src[y1, x0]
                         + wy * wx * src[y1, x1])
    return out


def test_bilinear_constant_field():
    out = ag.upsample(np.array([[0.7]], dtype=np.float32), (5, 3))
    assert np.allclose(out, 0.7)


def test_bilinear_center_midpoint():
    out = ag.upsample(np.array([[0.0, 1.0], [1.0, 0.0]]), (3, 3))
    assert out[1, 1] == pytest.approx(0.5)


def test_bilinear_matches_scalar_oracle():
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = ag.upsample(src, (4, 4))
    assert np.allclose(out, bilinear_oracle(src, 4, 4), atol=1e-12)
    rng = np.random.default_rng(7)
    src = rng.standard_normal((3, 5))
    out = ag.upsample(src, (8, 11))
    assert np.allclose(out, bilinear_oracle(src, 8, 11), atol=1e-12)


def test_bilinear_range_bounded():
    rng = np.random.default_rng(3)
    src = rng.standard_normal((4, 4))
    out = ag.upsample(src, (13, 9))
    assert out.min() >= src.min() - 1e-12 and out.max() <= src.max() + 1e-12


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src_hw, out_hw", [
    ((8, 8), (64, 64)), ((10, 10), (80, 80)), ((7, 7), (50, 50)), ((3, 5), (8, 11)),
    ((1, 4), (1, 9)), ((5, 1), (12, 1)), ((1, 1), (3, 2))])
def test_bilinear_vjp_matches_add_at_scatter_bitwise(src_hw, out_hw, dtype):
    rng = np.random.default_rng(21)
    a = Tensor(rng.standard_normal(src_hw).astype(dtype), requires_grad=True)
    g = rng.standard_normal(out_hw).astype(dtype)
    got = ag.upsample_vjp(g, a.shape, a.dtype)
    expected = _add_at_scatter(g, src_hw)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def _add_at_scatter(g, src_hw):
    """Gradient of a (h, w) map under bilinear upsampling, one ``np.add.at`` per corner."""
    y0, y1, wy = ag._axis_coords(src_hw[0], g.shape[0], g.dtype.type)
    x0, x1, wx = ag._axis_coords(src_hw[1], g.shape[1], g.dtype.type)
    wy, wx = wy[:, None], wx[None, :]
    expected = np.zeros(src_hw, dtype=g.dtype)
    np.add.at(expected, np.ix_(y0, x0), g * (1 - wy) * (1 - wx))
    np.add.at(expected, np.ix_(y0, x1), g * (1 - wy) * wx)
    np.add.at(expected, np.ix_(y1, x0), g * wy * (1 - wx))
    np.add.at(expected, np.ix_(y1, x1), g * wy * wx)
    return expected


def test_bilinear_vjp_matches_add_at_scatter_on_seeded_draws():
    """The upsample VJP has the bits of the corner scatter on random sizes.

    300 draws of a source grid of 1..10 by 1..10 cells, square or not, and
    an output of at least that size, in float32 or float64, as one map or
    a stack of 1..4 maps; the first draws are the 1x1 grid. Upstream
    gradients include exact zeros, signed zeros and subnormals. Summing
    the gathered plan with one ``np.add.reduce`` instead of row by row
    fails this test: numpy sums a 1x1 source's contributions pairwise.
    """
    rng = np.random.default_rng(2029)
    for draw in range(300):
        dtype = (np.float32, np.float64)[draw % 2]
        src_hw = (1, 1) if draw < 4 else tuple(int(n) for n in rng.integers(1, 11, 2))
        out_hw = tuple(int(n + rng.integers(0, 4 * n + 8)) for n in src_hw)
        count = int(rng.integers(0, 5))
        g = rng.standard_normal((max(count, 1),) + out_hw)
        tiny = np.finfo(dtype).smallest_subnormal
        edge = rng.uniform(size=g.shape) < 0.1
        g[edge] = rng.choice([0.0, -0.0, tiny, -tiny], size=int(edge.sum()))
        g = g.astype(dtype)
        if count:
            got = ag.upsample_vjp(g, (count,) + src_hw, dtype)
            expected = np.stack([_add_at_scatter(one, src_hw) for one in g])
        else:
            got = ag.upsample_vjp(g[0], src_hw, dtype)
            expected = _add_at_scatter(g[0], src_hw)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src_hw, out_hw", [
    ((8, 8), (64, 64)), ((3, 5), (8, 11)), ((1, 4), (1, 9)), ((5, 1), (12, 1)),
    ((1, 1), (3, 2)), ((4, 4), (13, 9))])
def test_bilinear_forward_matches_corner_gather_bitwise(src_hw, out_hw, dtype):
    src = np.random.default_rng(22).standard_normal(src_hw).astype(dtype)
    y0, y1, wy = ag._axis_coords(src_hw[0], out_hw[0], src.dtype.type)
    x0, x1, wx = ag._axis_coords(src_hw[1], out_hw[1], src.dtype.type)
    wy, wx = wy[:, None], wx[None, :]
    top = (1 - wx) * src[np.ix_(y0, x0)] + wx * src[np.ix_(y0, x1)]
    bot = (1 - wx) * src[np.ix_(y1, x0)] + wx * src[np.ix_(y1, x1)]
    expected = (1 - wy) * top + wy * bot
    got = ag.upsample(src, out_hw)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("src_hw, out_hw", [
    ((8, 8), (64, 64)), ((10, 10), (80, 80)), ((13, 9), (13, 9)), ((4, 4), (13, 9)),
    ((1, 1), (3, 2))])
@pytest.mark.parametrize("count", [1, 9])
def test_batched_bilinear_matches_each_map_bitwise(count, src_hw, out_hw, dtype):
    rng = np.random.default_rng(23)
    src = rng.standard_normal((count,) + src_hw).astype(dtype)
    g = rng.standard_normal((count,) + out_hw).astype(dtype)
    batched = ag.upsample(src, out_hw)
    assert batched.flags.c_contiguous
    sums = batched.sum(axis=(1, 2))
    got = ag.upsample_vjp(g, src.shape, src.dtype)
    for i in range(count):
        single = ag.upsample(src[i], out_hw)
        assert batched[i].tobytes() == single.tobytes()
        # a map of the stack reduces as it would alone
        assert sums[i].tobytes() == single.sum().tobytes()
        assert got[i].tobytes() == ag.upsample_vjp(g[i], src_hw, src.dtype).tobytes()


def test_bilinear_empty_and_shrink_errors():
    with pytest.raises(ShapeError, match="empty"):
        ag.upsample(np.zeros((0, 0)), (2, 2))
    with pytest.raises(ShapeError):
        ag.upsample(np.zeros((4, 4)), (2, 2))


# -- backward mechanics -------------------------------------------------------

def test_backward_relu_subgradient():
    for value, expected in ((2.0, 1.0), (-1.0, 0.0), (0.0, 0.0)):
        x = t64([value], requires_grad=True)
        grads = backward(ops.sum(ag.relu(x)))
        assert grads[x].data[0] == expected


def test_backward_accumulates_over_reuse():
    x = t64([3.0], requires_grad=True)
    loss = ops.sum(ag.add(ops.mul(x, x), x))  # x^2 + x -> 2x + 1
    grads = backward(loss)
    assert grads[x].data[0] == pytest.approx(7.0)


def test_backward_requires_scalar_and_connection():
    x = t64(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError, match="scalar"):
        backward(ag.relu(x))
    with pytest.raises(ContractError):
        backward(ops.sum(Tensor(np.ones((2, 2)))))


def test_backward_only_returns_leaves():
    x = t64(np.ones((2, 2)), requires_grad=True)
    w = t64(np.ones((2, 2)), requires_grad=True)
    frozen = t64(np.ones((2, 2)))
    grads = backward(ops.sum(ag.matmul(ag.add(x, frozen), w)))
    assert set(grads) == {x, w}
    assert grads[x].shape == x.shape and grads[w].shape == w.shape


def test_batched_matmul_adds_weight_gradients_in_sample_order():
    # as the engine accumulates one product per sample graph
    rng = np.random.default_rng(24)
    count = 9
    a = rng.standard_normal((count, 64, 16)).astype(np.float32)
    g = rng.standard_normal((count, 64, 8)).astype(np.float32)
    w = Tensor(rng.standard_normal((16, 8)).astype(np.float32), requires_grad=True)
    batched = ag.matmul(Tensor(a, requires_grad=True), w)
    g_a, g_w = batched.node.backward(g)
    total = None
    for i in range(count):
        assert batched.data[i].tobytes() == (a[i] @ w.data).tobytes()
        assert g_a[i].tobytes() == (g[i] @ w.data.T).tobytes()
        part = ops.sum(ops.mul(ag.matmul(Tensor(a[i]), w), Tensor(g[i])))
        total = part if total is None else ag.add(total, part)
    assert g_w.tobytes() == backward(total)[w].data.tobytes()


def test_graph_freed_after_backward():
    x = t64([1.0, 2.0], requires_grad=True)
    y = ops.mul(x, x)
    loss = ops.sum(y)
    backward(loss)
    assert y.node is None and loss.node is None


def test_released_tensor_raises_on_read_and_still_receives_its_gradient():
    # scale's VJP reads no array, so y's array can go once z is computed
    x = t64([1.0, -2.0], requires_grad=True)
    y = ag.scale(x, 3.0)
    z = ag.scale(y, 0.5)
    ag.release(y)
    with pytest.raises(ContractError, match="released"):
        y.data
    with pytest.raises(ContractError, match="released"):
        y.shape
    assert repr(y) == "Tensor(released, requires_grad=True)"
    grads = backward(ops.sum(z))
    assert np.array_equal(grads[x].data, [1.5, 1.5])


def test_no_grad_blocks_recording():
    x = t64([1.0], requires_grad=True)
    with no_grad():
        y = ops.mul(x, x)
    assert y.node is None and not y.requires_grad


def test_max_tie_routes_to_lowest_flat_index():
    x = t64([[1.0, 5.0], [5.0, 0.0]], requires_grad=True)
    grads = backward(ops.max(x))
    assert np.array_equal(grads[x].data, [[0.0, 1.0], [0.0, 0.0]])

    x = t64([[2.0, 2.0, 1.0]], requires_grad=True)
    grads = backward(ops.sum(ops.max(x, axis=1)))
    assert np.array_equal(grads[x].data, [[1.0, 0.0, 0.0]])


# -- finite-difference checks for every differentiable op ----------------------

def _rand(rng, shape, away_from=None, margin=0.05):
    x = rng.uniform(-2.0, 2.0, size=shape)
    if away_from is not None:
        x = np.where(np.abs(x - away_from) < margin, x + 2 * margin, x)
    return x


def _scalarize(out, weight):
    return ops.sum(ops.mul(out, Tensor(weight, dtype=np.float64)))


OP_CASES = []


def op_case(name):
    def register(fn):
        OP_CASES.append(pytest.param(fn, id=name))
        return fn
    return register


@op_case("matmul")
def _(rng):
    a = t64(_rand(rng, (3, 4)), requires_grad=True)
    b = t64(_rand(rng, (4, 5)), requires_grad=True)
    w = rng.standard_normal((3, 5))
    return lambda: _scalarize(ag.matmul(a, b), w), [a, b]


@op_case("add_broadcast")
def _(rng):
    a = t64(_rand(rng, (4, 3)), requires_grad=True)
    b = t64(_rand(rng, (1, 3)), requires_grad=True)
    w = rng.standard_normal((4, 3))
    return lambda: _scalarize(ag.add(a, b), w), [a, b]


@op_case("mul_broadcast")
def _(rng):
    a = t64(_rand(rng, (4, 3)), requires_grad=True)
    b = t64(_rand(rng, (4, 1)), requires_grad=True)
    w = rng.standard_normal((4, 3))
    return lambda: _scalarize(ops.mul(a, b), w), [a, b]


@op_case("div")
def _(rng):
    a = t64(_rand(rng, (3, 3)), requires_grad=True)
    b = t64(np.sign(_rand(rng, (3, 3), away_from=0.0, margin=0.3))
            * (np.abs(_rand(rng, (3, 3))) + 0.5), requires_grad=True)
    w = rng.standard_normal((3, 3))
    return lambda: _scalarize(ops.div(a, b), w), [a, b]


@op_case("scale")
def _(rng):
    a = t64(_rand(rng, (2, 5)), requires_grad=True)
    w = rng.standard_normal((2, 5))
    return lambda: _scalarize(ag.scale(a, -1.7), w), [a]


@op_case("relu")
def _(rng):
    a = t64(_rand(rng, (4, 4), away_from=0.0), requires_grad=True)
    w = rng.standard_normal((4, 4))
    return lambda: _scalarize(ag.relu(a), w), [a]


@op_case("exp")
def _(rng):
    a = t64(_rand(rng, (3, 4)), requires_grad=True)
    w = rng.standard_normal((3, 4))
    return lambda: _scalarize(ops.exp(a), w), [a]


@op_case("log")
def _(rng):
    a = t64(np.abs(_rand(rng, (3, 4))) + 0.5, requires_grad=True)
    w = rng.standard_normal((3, 4))
    return lambda: _scalarize(ops.log(a), w), [a]


@op_case("mean_all")
def _(rng):
    a = t64(_rand(rng, (4, 3)), requires_grad=True)
    return lambda: ops.mean(a), [a]


@op_case("mean_axis_keepdims")
def _(rng):
    a = t64(_rand(rng, (4, 3)), requires_grad=True)
    w = rng.standard_normal((4, 1))
    return lambda: _scalarize(ops.mean(a, axis=1, keepdims=True), w), [a]


@op_case("sum_axis")
def _(rng):
    a = t64(_rand(rng, (4, 3)), requires_grad=True)
    w = rng.standard_normal(3)
    return lambda: _scalarize(ops.sum(a, axis=0), w), [a]


@op_case("max_all")
def _(rng):
    values = np.sort(rng.uniform(-2, 2, 12))
    values[-1] += 0.5  # keep the maximum isolated from the step size
    rng.shuffle(values)
    a = t64(values.reshape(3, 4), requires_grad=True)
    return lambda: ops.max(a), [a]


@op_case("max_axis")
def _(rng):
    base = rng.uniform(-2, 2, (3, 4))
    base[:, 0] += 5.0  # unique per-row maxima
    a = t64(base, requires_grad=True)
    w = rng.standard_normal(3)
    return lambda: _scalarize(ops.max(a, axis=1), w), [a]


@op_case("transpose")
def _(rng):
    a = t64(_rand(rng, (3, 5)), requires_grad=True)
    w = rng.standard_normal((5, 3))
    return lambda: _scalarize(ops.transpose(a), w), [a]


@op_case("reshape")
def _(rng):
    a = t64(_rand(rng, (3, 4)), requires_grad=True)
    w = rng.standard_normal((2, 6))
    return lambda: _scalarize(ops.reshape(a, (2, 6)), w), [a]


@op_case("clip")
def _(rng):
    a = t64(_rand(rng, (4, 4), away_from=-1.0).clip(-3, 3), requires_grad=True)
    a.data[np.abs(a.data - 1.0) < 0.05] += 0.2  # keep entries off the clip bounds
    w = rng.standard_normal((4, 4))
    return lambda: _scalarize(ops.clip(a, -1.0, 1.0), w), [a]


@op_case("softmax_rows")
def _(rng):
    a = t64(_rand(rng, (4, 5)), requires_grad=True)
    w = rng.standard_normal((4, 5))
    return lambda: _scalarize(ops.softmax_rows(a), w), [a]


@op_case("l2norm_rows")
def _(rng):
    a = t64(_rand(rng, (4, 5)) + 3.0, requires_grad=True)
    w = rng.standard_normal((4, 5))
    return lambda: _scalarize(ops.l2norm_rows(a), w), [a]


@op_case("bilinear_upsample")
def _(rng):
    a = t64(_rand(rng, (3, 3)), requires_grad=True)
    w = rng.standard_normal((7, 5))
    return lambda: _scalarize(ops.bilinear_upsample(a, (7, 5)), w), [a]


@pytest.mark.parametrize("case", OP_CASES)
def test_op_gradients_match_finite_differences(case):
    rng = np.random.default_rng(11)
    loss_fn, tensors = case(rng)
    check_gradients(loss_fn, tensors, rel_tol=1e-4, step=1e-3)


def test_composed_graph_gradients():
    rng = np.random.default_rng(5)
    x = t64(rng.standard_normal((4, 6)), requires_grad=True)
    w1 = t64(rng.standard_normal((6, 3)), requires_grad=True)
    w2 = t64(rng.standard_normal((3, 6)), requires_grad=True)

    def loss_fn():
        h = ag.relu(ag.matmul(x, w1))
        y = ops.softmax_rows(ag.matmul(h, w2))
        return ops.mean(ops.mul(y, y))

    check_gradients(loss_fn, [x, w1, w2])


def test_numeric_grad_helper_self_consistency():
    # the FD helper itself sanity-checked on an analytic closed form
    x = t64([2.0], requires_grad=True)
    numeric = numeric_grads(lambda: float(x.data[0]) ** 3, [x])
    assert max_relative_error(np.array([12.0]), numeric[x]) <= 1e-4
