import inspect
import tracemalloc

import numpy as np
import ops_oracle as ops
import pytest
from block_oracle import block_forward
from fdcheck import check_gradients

from mvfa import autograd as ag
from mvfa.autograd import Tensor, backward
from mvfa.backbone import (BackboneConfig, _attention, _Block, _block_forward, _layer_norm,
                           init_backbone, patch_tokens)
from mvfa.errors import ConfigError, ShapeError

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)


def toy_image(seed=0, size=8):
    return np.random.default_rng(seed).uniform(0, 1, (size, size)).astype(np.float32)


def weight_tensors(backbone):
    """Every weight tensor of the encoder: patch weights, positions, each block's."""
    out = [backbone.patch_w, backbone.pos]
    for blocks in backbone.stages:
        for blk in blocks:
            out += [blk.ln1_g, blk.ln1_b, *blk.wq, *blk.wk, *blk.wv, *blk.wo,
                    blk.ln2_g, blk.ln2_b, blk.mlp_w1, blk.mlp_b1, blk.mlp_w2, blk.mlp_b2]
    return out


def frozen_levels(backbone, image):
    """The four stage outputs of the untouched encoder, one ``run_stage`` call each."""
    levels = [backbone.run_stage(0, backbone.embed(image))]
    for index in range(1, 4):
        levels.append(backbone.run_stage(index, levels[-1]))
    return levels


def test_same_config_and_seed_is_bit_identical():
    a = init_backbone(TOY)
    b = init_backbone(TOY)
    for wa, wb in zip(weight_tensors(a), weight_tensors(b)):
        assert np.array_equal(wa.data, wb.data)


def test_different_seeds_differ():
    a = init_backbone(BackboneConfig(image_size=8, patch_size=4, dim=8,
                                     blocks_per_stage=1, heads=2, seed=1))
    b = init_backbone(BackboneConfig(image_size=8, patch_size=4, dim=8,
                                     blocks_per_stage=1, heads=2, seed=2))
    assert any(not np.array_equal(wa.data, wb.data)
               for wa, wb in zip(weight_tensors(a), weight_tensors(b)))


def test_default_config_grid():
    cfg = BackboneConfig()
    assert cfg.grid_side == 8
    assert cfg.grid_count == 64


def test_config_validation():
    with pytest.raises(ConfigError):
        BackboneConfig(image_size=60, patch_size=8)
    with pytest.raises(ConfigError):
        BackboneConfig(dim=30, heads=4)
    with pytest.raises(ConfigError):
        BackboneConfig(stages=3)


def test_weights_are_frozen():
    backbone = init_backbone(TOY)
    assert all(not w.requires_grad for w in weight_tensors(backbone))


def test_stage_outputs_shape_and_finite():
    backbone = init_backbone(TOY)
    for f in frozen_levels(backbone, toy_image()):
        assert f.shape == (TOY.grid_count, TOY.dim)
        assert np.isfinite(f.data).all()


def test_identity_hook_equals_plain_forward():
    # a stage reads only its input: restarted from a copy of the previous
    # stage's output, as a caller handing features on unchanged, no bit moves
    backbone = init_backbone(TOY)
    plain = frozen_levels(backbone, toy_image())
    for index in range(1, 4):
        restarted = backbone.run_stage(index, Tensor(plain[index - 1].data.copy()))
        assert np.array_equal(restarted.data, plain[index].data)


def test_scaling_hook_matches_manual_recomputation():
    # stage 2 fed (1 - gamma) times the stage-1 output must equal stage 2 run
    # on rows scaled beforehand, and must differ from the plain stage 2
    backbone = init_backbone(TOY)
    plain = frozen_levels(backbone, toy_image())
    scaled_f2 = backbone.run_stage(1, ag.scale(plain[0], 0.9))
    manual_f2 = backbone.run_stage(1, Tensor(plain[0].data * 0.9))
    assert np.array_equal(scaled_f2.data, manual_f2.data)
    assert not np.array_equal(scaled_f2.data, plain[1].data)


def test_layer_norm_pre_affine_statistics():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((32, 64)) * 3 + 1
    normed, _ = _layer_norm(x, 1.0, 0.0)
    assert np.abs(normed.mean(axis=1)).max() <= 1e-4
    assert np.abs(normed.var(axis=1) - 1.0).max() <= 1e-4


def test_patch_tokens_takes_one_image_of_the_configured_size():
    with pytest.raises(ShapeError, match="does not match configured size"):
        patch_tokens(np.zeros((4, 4)), TOY)
    for shape in ((8, 8, 2), (8, 8, 3)):
        with pytest.raises(ShapeError, match="expected an image"):
            patch_tokens(np.zeros(shape), TOY)


def test_backbone_never_receives_gradients():
    backbone = init_backbone(TOY, dtype=np.float64)
    w = Tensor(np.random.default_rng(0).standard_normal((8, 8)) * 0.1,
               requires_grad=True, dtype=np.float64)

    x = ag.matmul(backbone.run_stage(0, backbone.embed(toy_image())), w)
    for index in range(1, 4):
        x = backbone.run_stage(index, x)
    grads = backward(ops.mean(x))
    assert set(grads) == {w}


def test_hook_parameter_gradients_match_finite_differences():
    backbone = init_backbone(TOY, dtype=np.float64)
    image = toy_image(seed=4)
    rng = np.random.default_rng(5)
    w = Tensor(rng.standard_normal((8, 8)) * 0.2, requires_grad=True,
               dtype=np.float64)

    def loss_fn():
        x = backbone.run_stage(1, backbone.run_stage(0, backbone.embed(image)))
        x = ag.add(x, ag.matmul(x, w))  # between stages 2 and 3
        x = backbone.run_stage(3, backbone.run_stage(2, x))
        return ops.mean(ops.mul(x, x))

    check_gradients(loss_fn, [w], rel_tol=1e-4)


@pytest.mark.parametrize("config", [BackboneConfig(), TOY], ids=["default", "toy"])
def test_fused_block_matches_node_by_node_oracle_bitwise(config):
    # every block, fed the running encoder features, in float32
    backbone = init_backbone(config)
    rng = np.random.default_rng(11)
    for seed in range(2):
        x = backbone.embed(toy_image(seed=seed, size=config.image_size)).data
        for blk in [blk for blocks in backbone.stages for blk in blocks]:
            upstream = Tensor(rng.standard_normal(x.shape).astype(np.float32))
            fused_in = Tensor(x, requires_grad=True)
            oracle_in = Tensor(x.copy(), requires_grad=True)
            fused = _block_forward(fused_in, blk, config)
            oracle = block_forward(oracle_in, blk, config)
            assert fused.dtype == oracle.dtype == np.float32
            assert np.array_equal(fused.data, oracle.data)
            g_fused = backward(ops.sum(ops.mul(fused, upstream)))[fused_in]
            g_oracle = backward(ops.sum(ops.mul(oracle, upstream)))[oracle_in]
            assert np.array_equal(g_fused.data, g_oracle.data)
            x = fused.data


def test_batched_encoder_matches_each_image_bitwise():
    # embedding and every block, output and input gradient, on a (B, N, d) batch
    config = BackboneConfig()
    backbone = init_backbone(config)
    rng = np.random.default_rng(13)
    images = [toy_image(seed=seed, size=config.image_size) for seed in range(3)]
    x = backbone.embed(images).data
    for i, image in enumerate(images):
        assert x[i].tobytes() == backbone.embed(image).data.tobytes()
    for blk in [blk for blocks in backbone.stages for blk in blocks]:
        upstream = rng.standard_normal(x.shape).astype(np.float32)
        batch_in = Tensor(x, requires_grad=True)
        batched = _block_forward(batch_in, blk, config)
        g_batch = backward(ops.sum(ops.mul(batched, Tensor(upstream))))[batch_in].data
        for i in range(len(images)):
            one_in = Tensor(x[i].copy(), requires_grad=True)
            one = _block_forward(one_in, blk, config)
            g_one = backward(ops.sum(ops.mul(one, Tensor(upstream[i]))))[one_in].data
            assert batched.data[i].tobytes() == one.data.tobytes()
            assert g_batch[i].tobytes() == g_one.tobytes()
        x = batched.data


def test_block_node_keeps_no_attention_and_no_qkv():
    # A default-size, 16-sample node keeps x1 (256 KiB), the packed ReLU sign
    # (16 KiB), the LayerNorm statistics and each head's (B, N, 1) softmax peak and
    # denominator: 20.8 KiB a sample measured, 43.8 while it kept h and the sign as
    # bool, 137.9 while it kept q, k, v and att. Keeping h would add 16 KiB a sample,
    # one head's att 16 KiB, its q, k or v 4 KiB each.
    config = BackboneConfig()
    blk = init_backbone(config).stages[0][0]
    batch, tokens = 16, config.grid_count
    x = Tensor(np.random.default_rng(19).standard_normal((batch, tokens, config.dim))
               .astype(np.float32), requires_grad=True)
    _block_forward(x, blk, config)  # warm caches
    source, first = inspect.getsourcelines(_attention)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = _block_forward(x, blk, config)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert kept / batch <= 24 * 1024
    # at this size h and x1 are (B, N, N) too, so each array made in _attention is
    # checked instead: only the (B, N, 1) peaks and denominators may outlive the call
    made_there = [trace.size for trace in snapshot.traces
                  if trace.traceback[0].filename == _attention.__code__.co_filename
                  and first <= trace.traceback[0].lineno < first + len(source)]
    assert made_there and max(made_there) <= batch * tokens * 4
    assert out.node is not None


def test_fused_block_vjp_matches_finite_differences():
    backbone = init_backbone(TOY, dtype=np.float64)
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((TOY.grid_count, TOY.dim)), requires_grad=True,
               dtype=np.float64)
    upstream = Tensor(rng.standard_normal(x.shape), dtype=np.float64)
    for blocks in backbone.stages:
        check_gradients(lambda: ops.sum(ops.mul(_block_forward(x, blocks[0], TOY), upstream)),
                        [x], rel_tol=1e-6, step=1e-5)


BLOCK_SHAPES = [(4, 1), (4, 2), (4, 4), (6, 3), (8, 2), (8, 4), (12, 3), (16, 4), (64, 4)]


def _random_block(rng, dim, heads, dtype):
    """Random block weights; some columns of ``mlp_w1`` are zero.

    A zero column makes the GEMM's value +0 in every row, so that column's
    pre-activation is its bias: +0 for a bias of +0 or -0 (+0 plus -0
    rounds to +0, and the GEMM never returns -0), or a subnormal of either
    sign.
    """
    tiny = np.finfo(dtype).smallest_subnormal

    def frozen(arr):
        return Tensor(np.asarray(arr).astype(dtype), requires_grad=False)

    def matrix(rows, cols):
        return rng.standard_normal((rows, cols)) / np.sqrt(rows)

    head_dim, hidden = dim // heads, 2 * dim
    blk = _Block()
    blk.ln1_g, blk.ln2_g = (frozen(1.0 + 0.3 * rng.standard_normal((1, dim))) for _ in "12")
    blk.ln1_b, blk.ln2_b = (frozen(0.3 * rng.standard_normal((1, dim))) for _ in "12")
    blk.wq, blk.wk, blk.wv = ([frozen(matrix(dim, head_dim)) for _ in range(heads)]
                              for _ in "qkv")
    blk.wo = [frozen(matrix(head_dim, dim)) for _ in range(heads)]
    w1, b1 = matrix(dim, hidden), 0.3 * rng.standard_normal((1, hidden))
    edges = rng.choice(hidden, size=int(rng.integers(1, hidden // 2 + 1)), replace=False)
    w1[:, edges] = 0.0
    b1[0, edges] = rng.choice([0.0, -0.0, tiny, -tiny], size=edges.size)
    blk.mlp_w1, blk.mlp_b1 = frozen(w1), frozen(b1)
    blk.mlp_w2 = frozen(matrix(hidden, dim))
    blk.mlp_b2 = frozen(0.3 * rng.standard_normal((1, dim)))
    return blk


def _cancel_pre_activations(rng, x, blk, config):
    """Set biases so that some pre-activations of nonzero ``mlp_w1`` columns are +0.

    A probe block with a zero MLP output returns the block-middle ``x1``;
    its LayerNorm times ``mlp_w1`` is the GEMM the block will compute, so a
    bias of minus one of its values cancels that value exactly. Where the
    column is nonzero, the ReLU mask of that pre-activation reaches the
    input gradient.
    """
    probe = _Block()
    for name in _Block.__slots__:
        setattr(probe, name, getattr(blk, name))
    probe.mlp_w2 = Tensor(np.zeros_like(blk.mlp_w2.data))
    probe.mlp_b2 = Tensor(np.zeros_like(blk.mlp_b2.data))
    x1 = _block_forward(Tensor(x), probe, config).data
    gemm = _layer_norm(x1, blk.ln2_g.data, blk.ln2_b.data)[0] @ blk.mlp_w1.data
    gemm = gemm.reshape(-1, gemm.shape[-1])
    live = np.flatnonzero(blk.mlp_w1.data.any(axis=0))
    for column in rng.choice(live, size=min(live.size, 3), replace=False):
        blk.mlp_b1.data[0, column] = -gemm[rng.integers(gemm.shape[0]), column]


def _block_draws(count=200):
    """Seeded (x, block, config, upstream) draws, with ties, zeros and subnormals."""
    rng = np.random.default_rng(2027)
    for draw in range(count):
        dim, heads = BLOCK_SHAPES[draw % len(BLOCK_SHAPES)]
        dtype = (np.float32, np.float64)[draw % 4 == 3]
        batch, grid = int(rng.integers(1, 18)), int(rng.integers(1, 5))
        x = rng.standard_normal((batch, grid * grid, dim))
        kind = draw % 5
        if kind == 1:    # tied tokens: equal attention scores and LayerNorm rows
            x[:, 1:] = x[:, :1]
        elif kind == 2:  # constant rows: exactly zero after centering
            x[:] = rng.integers(-2, 3, (batch, grid * grid, 1))
        elif kind == 3:  # subnormal rows and exact +-0 entries
            tiny = np.finfo(dtype).smallest_subnormal
            x[:, ::2] = rng.integers(-3, 4, x[:, ::2].shape) * tiny
            x[:, 1::2, ::2] = rng.choice([0.0, -0.0], x[:, 1::2, ::2].shape)
        elif kind == 4:  # coarse values: many ties within a row
            x = np.round(x)
        upstream = rng.standard_normal(x.shape)
        upstream[rng.uniform(size=x.shape) < 0.2] = 0.0
        config = BackboneConfig(image_size=8, patch_size=8, dim=dim, heads=heads)
        x, upstream = x.astype(dtype), upstream.astype(dtype)
        if batch == 1 and draw % 2:  # one image as (N, d)
            x, upstream = x[0], upstream[0]
        blk = _random_block(rng, dim, heads, dtype)
        _cancel_pre_activations(rng, x, blk, config)
        yield x, blk, config, upstream


def test_fused_block_matches_oracle_on_seeded_draws():
    """Output and input gradient of each draw keep the op-by-op block's bits.

    Each draw is B in 1..17 images of N = 1, 4, 9 or 16 tokens for a
    (dim, heads) pair, in float32 or float64. The first, the last and one
    random sample of the batch are checked against ``block_oracle``. Pre-activations include exact
    zeros, which carry a gradient, and subnormals of both signs; a -0
    pre-activation cannot arise (see ``_random_block``). Inputs include
    tied tokens, constant rows, subnormals and signed zeros. Each of these
    changes to ``backbone._block_forward`` fails this test: the ReLU mask
    taken as ``pre >= 0``, which differs only where a pre-activation is
    exactly 0, and the mask taken after an in-place ReLU,
    ``np.maximum(pre, 0, out=pre)`` followed by ``pre >= 0``.
    """
    rng = np.random.default_rng(2028)
    for x, blk, config, upstream in _block_draws():
        fused_in = Tensor(x, requires_grad=True)
        fused = _block_forward(fused_in, blk, config)
        g_fused = backward(ops.sum(ops.mul(fused, Tensor(upstream))))[fused_in].data
        if x.ndim == 2:
            rows = [(x, upstream, fused.data, g_fused)]
        else:
            picked = sorted({0, len(x) - 1, int(rng.integers(len(x)))})
            rows = [(x[i], upstream[i], fused.data[i], g_fused[i]) for i in picked]
        for x_i, up_i, out_i, g_i in rows:
            oracle_in = Tensor(x_i.copy(), requires_grad=True)
            oracle = block_forward(oracle_in, blk, config)
            g_oracle = backward(ops.sum(ops.mul(oracle, Tensor(up_i))))[oracle_in].data
            assert out_i.dtype == oracle.dtype == x.dtype
            assert out_i.tobytes() == oracle.data.tobytes()
            assert g_i.tobytes() == g_oracle.tobytes()


def _special_score_block(rng, dtype):
    """A dim-8, 4-head block whose heads give +0, +-inf and NaN attention scores.

    Head 0 has q = +0, so every score is +0. Head 1 scales q and k up until
    q . k overflows to +-inf. In head 3, q's first column overflows to +-inf
    on the rows whose normalized first feature exceeds 1 in magnitude, and
    k's first column is 0, so those rows score inf * 0 = NaN. The GEMM
    never returns -0, so no block score is -0.
    """
    dim, heads = 8, 4
    blk = _random_block(rng, dim, heads, dtype)
    big = np.finfo(dtype).max
    blk.wq[0].data = np.zeros_like(blk.wq[0].data)
    blk.wq[1].data = blk.wq[1].data * np.sqrt(big)
    blk.wk[1].data = blk.wk[1].data * np.sqrt(big)
    wq, wk = blk.wq[3].data.copy(), blk.wk[3].data.copy()
    wq[:, 0], wk[:, 0] = 0.0, 0.0
    wq[0, 0] = big
    blk.wq[3].data, blk.wk[3].data = wq, wk
    return blk, BackboneConfig(image_size=8, patch_size=8, dim=dim, heads=heads)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fused_block_matches_oracle_on_nan_inf_and_zero_scores():
    # the block reads each softmax row's max at its argmax; np.max gives the
    # same value, and a max of -0 or +0 gives the same scores - max and exp
    rows = np.array([[np.nan, 1.0, np.inf], [-np.inf, np.inf, 2.0], [-np.inf] * 3,
                     [-0.0, -1.0, 0.0], [0.0, -0.0, -2.0], [-0.0, -0.0, -3.0]])
    for dtype in (np.float32, np.float64):
        s = rows.astype(dtype)
        peak = np.take_along_axis(s, np.argmax(s, axis=-1, keepdims=True), axis=-1)
        assert np.exp(s - peak).tobytes() == np.exp(s - np.max(s, -1, keepdims=True)).tobytes()

    rng = np.random.default_rng(31)
    for dtype in (np.float32, np.float64):
        blk, config = _special_score_block(rng, dtype)
        x = rng.standard_normal((3, 16, config.dim)).astype(dtype)
        h = _layer_norm(x, blk.ln1_g.data, blk.ln1_b.data)[0]
        maxima = [np.max((h @ wq.data) @ (h @ wk.data).swapaxes(-1, -2), axis=-1)
                  for wq, wk in zip(blk.wq, blk.wk)]
        assert (maxima[0] == 0).all() and not np.signbit(maxima[0]).any()
        assert np.isposinf(maxima[1]).any() and np.isfinite(maxima[1]).any()
        assert np.isnan(maxima[3]).any() and not np.isnan(maxima[3]).all()
        upstream = rng.standard_normal(x.shape).astype(dtype)
        fused_in = Tensor(x, requires_grad=True)
        fused = _block_forward(fused_in, blk, config)
        g_fused = backward(ops.sum(ops.mul(fused, Tensor(upstream))))[fused_in].data
        for i in range(len(x)):
            oracle_in = Tensor(x[i].copy(), requires_grad=True)
            oracle = block_forward(oracle_in, blk, config)
            g_oracle = backward(ops.sum(ops.mul(oracle, Tensor(upstream[i]))))[oracle_in].data
            assert fused.data[i].tobytes() == oracle.data.tobytes()
            assert g_fused[i].tobytes() == g_oracle.tobytes()
