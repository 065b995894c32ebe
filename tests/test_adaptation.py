import struct

import numpy as np
import ops_oracle as ops
import pytest
from fdcheck import check_gradients
from test_backbone import frozen_levels

from mvfa import autograd as ag
from mvfa.adaptation import (MVFAParams, adapt_forward, apply_adapter, init_params,
                             load_checkpoint, residual_mix, save_checkpoint,
                             text_probabilities)
from mvfa.autograd import Tensor, backward
from mvfa.backbone import BackboneConfig, init_backbone
from mvfa.errors import ConfigError, ContractError, FormatError, NormalizationError

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)


def toy_image(seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (8, 8)).astype(np.float32)


def toy_params(seed=1, gamma=0.1, randomize_up=False, dtype=np.float32, **kw):
    params = init_params(TOY.dim, seed=seed, gamma=gamma, dtype=dtype, **kw)
    if randomize_up and params.arch == "adapter":
        rng = np.random.default_rng(seed + 100)
        for name, up in params.named_tensors():
            if name.endswith(".up"):
                up.data = (rng.standard_normal(up.shape) * 0.3).astype(dtype)
    return params


# -- adapter and residual mix --------------------------------------------------

def test_apply_adapter_zero_cases():
    rng = np.random.default_rng(0)
    f = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    down = Tensor(rng.standard_normal((8, 2)).astype(np.float32))
    zero_up = Tensor(np.zeros((2, 8), dtype=np.float32))
    assert np.array_equal(apply_adapter(f, down, zero_up).data, np.zeros((4, 8)))
    any_down = Tensor(rng.standard_normal((8, 2)).astype(np.float32))
    any_up = Tensor(rng.standard_normal((2, 8)).astype(np.float32))
    zero_f = Tensor(np.zeros((4, 8), dtype=np.float32))
    assert np.array_equal(apply_adapter(zero_f, any_down, any_up).data, np.zeros((4, 8)))


def test_apply_adapter_matches_hand_matrix_arithmetic():
    f = np.array([[1.0, -2.0, 0.5, 3.0],
                  [0.0, 1.0, -1.0, 2.0]])
    w1 = np.array([[0.5, -1.0], [1.0, 0.0], [0.0, 2.0], [-0.5, 0.5]])
    w2 = np.array([[1.0, 0.0, -1.0, 2.0], [0.5, 1.0, 0.0, -1.0]])
    expected = np.maximum(f @ w1, 0.0) @ w2
    out = apply_adapter(Tensor(f, dtype=np.float64), Tensor(w1, dtype=np.float64),
                        Tensor(w2, dtype=np.float64))
    assert np.allclose(out.data, expected, atol=1e-12)


def test_residual_mix_limits():
    rng = np.random.default_rng(1)
    f = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    adapted = Tensor(rng.standard_normal((4, 8)).astype(np.float32))
    assert np.array_equal(residual_mix(f, adapted, 0.0).data, f.data)
    assert np.array_equal(residual_mix(f, adapted, 1.0).data, adapted.data)
    zero = Tensor(np.zeros((4, 8), dtype=np.float32))
    assert np.allclose(residual_mix(f, zero, 0.1).data, 0.9 * f.data, atol=1e-7)
    with pytest.raises(ConfigError):
        residual_mix(f, adapted, 1.5)


def test_adapter_parameter_count_is_grid_independent():
    params = init_params(64, seed=0)
    for level in range(1, 4):
        for role in ("cls", "seg"):
            prefix = f"adapter{level}.{role}"
            assert (params[f"{prefix}.down"].data.size + params[f"{prefix}.up"].data.size
                    == 2 * 64 * 16)


# -- adapted forward pass -------------------------------------------------------

def test_zero_weights_gamma_zero_reduces_to_frozen_features():
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=2, gamma=0.0)
    params["projector.cls"].data = np.zeros((8, 8), dtype=np.float32)
    params["projector.seg"].data = np.zeros((8, 8), dtype=np.float32)
    image = toy_image()
    features, _ = adapt_forward(backbone, params, image)
    plain = frozen_levels(backbone, image)
    for level in range(3):
        assert np.array_equal(features.cls[level].data, plain[level].data)
        assert np.array_equal(features.seg[level].data, plain[level].data)
    assert np.array_equal(features.cls[3].data, np.zeros((TOY.grid_count, 8)))
    assert np.array_equal(features.seg[3].data, np.zeros((TOY.grid_count, 8)))


def test_gamma_zero_forward_equals_frozen_forward_bitwise():
    backbone = init_backbone(TOY)
    params = toy_params(gamma=0.0, randomize_up=True)
    image = toy_image(seed=5)
    _, raw = adapt_forward(backbone, params, image)
    for adapted, frozen in zip(raw, frozen_levels(backbone, image), strict=True):
        assert np.array_equal(adapted.data, frozen.data)


def test_zero_up_projection_forwards_scaled_features():
    # untrained adapters (zero up-projection) with gamma=0.1 feed 0.9 * F_l onward
    backbone = init_backbone(TOY)
    params = toy_params(gamma=0.1)  # w2 zero by construction
    image = toy_image(seed=6)
    _, raw = adapt_forward(backbone, params, image)
    plain = frozen_levels(backbone, image)
    manual = backbone.run_stage(1, ag.scale(plain[0], 0.9))
    assert np.abs(raw[1].data - manual.data).max() <= 1e-6


@pytest.mark.parametrize("style", ["dual", "single"])
def test_adapted_forward_releases_the_arrays_no_vjp_reads(style):
    # each mix's rest and each up product: a read raises, never gives stale values
    backbone = init_backbone(TOY)
    params = toy_params(randomize_up=True, adapter_style=style)
    features, raw = adapt_forward(backbone, params, toy_image(seed=8))
    mixes = [features.cls[level] for level in range(3)] + [features.seg[level]
                                                          for level in range(3)]
    mixes += [raw[level].node.parents[0] for level in range(1, 4)]  # next-stage inputs
    for mix in mixes:
        assert mix.node.op == "residual_mix"
        *adapted, rest = mix.node.parents
        assert {a.node.op for a in adapted} == {"matmul"}
        for released in adapted + [rest]:
            with pytest.raises(ContractError, match="released"):
                released.data
    total = features.cls[0]
    for f in features.cls[1:] + features.seg:
        total = ag.add(total, f)
    grads = backward(ops.sum(ops.mul(total, total)))
    assert set(grads) == set(params.tensors())


@pytest.mark.parametrize("arch", ["adapter", "projector"])
def test_cached_stage1_reproduces_features_and_gradients(arch):
    backbone = init_backbone(TOY)
    image = toy_image(seed=9)
    stage1 = backbone.run_stage(0, backbone.embed(image))
    runs = []
    for cached in (None, stage1):
        params = toy_params(seed=4, randomize_up=True, arch=arch)
        features, _ = adapt_forward(backbone, params, image, stage1=cached)
        outputs = features.cls + features.seg
        total = outputs[0]
        for f in outputs[1:]:
            total = ag.add(total, f)
        grads = backward(ops.sum(ops.mul(total, total)))
        runs.append(([f.data for f in outputs], [grads[t].data for t in params.tensors()]))
    (full_out, full_grads), (cached_out, cached_grads) = runs
    for a, b in zip(full_out + full_grads, cached_out + cached_grads):
        assert np.array_equal(a, b)


def test_trainable_set_closure():
    backbone = init_backbone(TOY)
    params = toy_params(randomize_up=True)
    features, _ = adapt_forward(backbone, params, toy_image())
    loss = ops.mean(ops.mul(features.cls[3], features.cls[3]))
    for level in range(3):
        loss = ag.add(loss, ops.mean(ops.mul(features.seg[level], features.seg[level])))
        loss = ag.add(loss, ops.mean(ops.mul(features.cls[level], features.cls[level])))
    loss = ag.add(loss, ops.mean(ops.mul(features.seg[3], features.seg[3])))
    grads = backward(loss)
    assert set(grads) == set(params.tensors())


def test_seg_adapter_gradient_propagates_through_later_stages():
    backbone = init_backbone(TOY, dtype=np.float64)
    params = toy_params(randomize_up=True, dtype=np.float64)
    _, raw = adapt_forward(backbone, params, toy_image(seed=8))
    # a loss reading only the final stage still reaches the level-1 seg adapter
    grads = backward(ops.mean(ops.mul(raw[3], raw[3])))
    g = grads[params["adapter1.seg.down"]].data
    assert np.abs(g).max() > 0


def test_adapted_forward_gradients_match_finite_differences():
    backbone = init_backbone(TOY, dtype=np.float64)
    params = toy_params(randomize_up=True, dtype=np.float64)
    image = toy_image(seed=9)

    def loss_fn():
        features, _ = adapt_forward(backbone, params, image)
        loss = None
        for level in range(4):
            term = ag.add(ops.mean(ops.mul(features.cls[level], features.cls[level])),
                          ops.mean(ops.mul(features.seg[level], features.seg[level])))
            loss = term if loss is None else ag.add(loss, term)
        return loss

    check_gradients(loss_fn, params.tensors(), rel_tol=1e-4)


def test_projector_arch_uses_isolated_projections():
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=4, arch="projector")
    image = toy_image(seed=10)
    features, raw = adapt_forward(backbone, params, image)
    plain = frozen_levels(backbone, image)
    # the encoder run is untouched and level features are plain projections
    for adapted, frozen in zip(raw, plain, strict=True):
        assert np.array_equal(adapted.data, frozen.data)
    expected = plain[0].data @ params["level1.cls"].data
    assert np.allclose(features.cls[0].data, expected, atol=1e-6)
    assert len(params.named_tensors()) == 8


def test_single_adapter_style_shares_tensors():
    params = toy_params(seed=5, adapter_style="single", randomize_up=True)
    assert [name for name, _ in params.named_tensors()] == [
        "adapter1.down", "adapter1.up", "adapter2.down", "adapter2.up",
        "adapter3.down", "adapter3.up", "projector.cls", "projector.seg"]
    # one adapter per level serves both branches
    features, _ = adapt_forward(init_backbone(TOY), params, toy_image(seed=11))
    for level in range(3):
        assert np.array_equal(features.cls[level].data, features.seg[level].data)


# -- text probabilities ---------------------------------------------------------

def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def test_text_probabilities_self_row():
    # a row along the normal text row has logits 1/tau and cos(normal, abnormal)/tau
    tau = 0.07
    t_normal = unit([1.0, 0.2, 0.0, 0.5])
    t_abnormal = unit([0.1, 1.0, 0.3, 0.0])
    f_text = np.stack([t_normal, t_abnormal])
    f = (2.5 * t_normal).reshape(1, 4)
    probs, _ = text_probabilities(f, f_text, tau)
    gap = (float(t_normal @ t_abnormal) - 1.0) / tau
    assert probs[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(-gap)), rel=1e-6)
    assert probs[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(gap)), rel=1e-6)


def test_text_probabilities_orthogonal_row():
    f_text = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    f = np.array([[0.0, 0, 2.0, 0]])
    probs, _ = text_probabilities(f, f_text, 0.07)
    assert np.allclose(probs, 0.5, atol=1e-12)


def test_similarity_cosine_gap_sets_anomaly_probability():
    # anomaly probability depends only on the cosine gap: 1/(1 + exp(-gap/tau))
    tau, gap = 0.07, 0.1
    t_normal = np.array([1.0, 0.0])
    t_abnormal = np.array([0.0, 1.0])
    a = (-gap + np.sqrt(2 - gap ** 2)) / 2.0
    f = np.array([[a, a + gap]])  # unit row with cos(abnormal) - cos(normal) = gap
    assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)
    prob = text_probabilities(f, np.stack([t_normal, t_abnormal]), tau)[0][0, 1]
    expected = 1.0 / (1.0 + np.exp(-gap / tau))
    assert prob == pytest.approx(expected, abs=1e-9)
    assert prob == pytest.approx(0.80668, abs=5e-4)


def test_similarity_rejects_zero_rows_and_bad_tau():
    f_text = np.eye(2, 4)
    with pytest.raises(NormalizationError, match="row 0"):
        text_probabilities(np.zeros((1, 4)), f_text, 0.07)
    with pytest.raises(ConfigError):
        text_probabilities(np.ones((1, 4)), f_text, 0.0)


# -- checkpoints ----------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {},
    {"adapter_style": "single"},
    {"arch": "projector"},
])
def test_checkpoint_round_trip(tmp_path, kwargs):
    params = init_params(TOY.dim, seed=6, gamma=0.25, **kwargs)
    rng = np.random.default_rng(0)
    for name, up in params.named_tensors():
        if name.endswith(".up"):
            up.data = rng.standard_normal(up.shape).astype(np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TOY, params)
    config, loaded = load_checkpoint(path)
    assert config == TOY
    assert loaded.arch == params.arch
    assert loaded.adapter_style == params.adapter_style
    assert loaded.gamma == pytest.approx(params.gamma)
    for (name_a, a), (name_b, b) in zip(params.named_tensors(), loaded.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data)
        assert b.requires_grad
    # byte-exact round trip
    second = tmp_path / "model2.ckpt"
    save_checkpoint(second, config, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_init_params_rejects_a_zero_adapter_width():
    with pytest.raises(ConfigError, match="dim must be at least 4"):
        init_params(3)


def test_checkpoint_rejects_a_custom_adapter_width(tmp_path):
    params = init_params(TOY.dim, seed=6)
    for name, tensor in params.named_tensors():
        if name.endswith(".down"):
            tensor.data = np.zeros((TOY.dim, 3), dtype=np.float32)
        elif name.endswith(".up"):
            tensor.data = np.zeros((3, TOY.dim), dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TOY, params)
    with pytest.raises(FormatError, match=r"'adapter1.cls.down' has shape \(8, 3\)"):
        load_checkpoint(path)


def overflowing_checkpoint(path, shape):
    """A checkpoint whose one tensor has ``shape``; the value count overflows int64."""
    payload = [b"MVFA-CKPT\0", struct.pack("<I", 1),
               struct.pack("<6IQ", 8, 4, 8, 4, 1, 2, 3), struct.pack("<I", 1),
               struct.pack("<H", 5), b"gamma", struct.pack("<B", len(shape)),
               struct.pack(f"<{len(shape)}I", *shape), b"\0" * 64]
    path.write_bytes(b"".join(payload))
    return path


@pytest.mark.parametrize("shape", [(65536,) * 4, (2 ** 31, 2 ** 31, 4)])
def test_checkpoint_rejects_overflowing_shape(tmp_path, shape):
    with pytest.raises(FormatError, match="unexpected end of file"):
        load_checkpoint(overflowing_checkpoint(tmp_path / "bad.ckpt", shape))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)
