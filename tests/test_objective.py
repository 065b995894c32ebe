import os
import signal
import tracemalloc

import loss_oracle
import numpy as np
import ops_oracle as ops
import pytest
import train_oracle
from calllog import count_forks, logged, read_lines
from fdcheck import check_gradients

from mvfa import autograd as ag
from mvfa import objective, worker
from mvfa.adaptation import adapt_forward, init_params, save_checkpoint, text_probabilities
from mvfa.autograd import Tensor, backward
from mvfa.backbone import BackboneConfig, FrozenBackbone, init_backbone
from mvfa.data import LoadedSample, ModalityProfile, SynthConfig, gen_dataset, load_manifest, \
    load_samples
from mvfa.errors import ConfigError, ContractError, DataError, NumericError, ShapeError
from mvfa.inference import score_batch
from mvfa.objective import (PROB_EPS, AdamState, LossWeights, TrainConfig, _as_mask, _bce,
                            _dice, _focal, _sum, _sum_samples, adam_step, level_loss,
                            total_loss, train)
from mvfa.textbank import PromptSet, build_text_features

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)
LN2 = float(np.log(2.0))


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


def toy_text(d=8, seed=0, dtype=np.float64):
    prompts = PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                        templates=["a photo of a/the [c]."])
    return build_text_features(prompts, "widget", seed, d, dtype=dtype).f_text


# -- loss kernels -----------------------------------------------------------------
#
# level_loss runs the _dice, _focal and _bce kernels on a batch of maps (or of
# probabilities) at once; these tests give them one map as a batch of one.

def term(kernel, p, s):
    """A kernel's value of one map (or probability) ``p`` against its mask (or label)."""
    return float(kernel(np.asarray(p, dtype=np.float64)[None], np.asarray(s)[None])[0][0])


def term_node(kernel, p, s):
    """A kernel on the map (or probability) tensor ``p`` as one autograd node."""
    value, vjp = kernel(p.data[None], _as_mask(s, p)[None])

    def backward_fn(g):
        return (vjp(g[None])[0].reshape(p.shape),)

    return ag.record(value[0], kernel.__name__, (p,), backward_fn)


def test_dice_closed_forms():
    assert term(_dice, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    assert term(_dice, [0.0, 1.0], [1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert term(_dice, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_focal_closed_forms():
    assert term(_focal, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0, abs=1e-10)
    expected = -(0.1 ** 2) * np.log(0.9)
    assert term(_focal, [0.9], [1.0]) == pytest.approx(expected, rel=1e-9)
    half = 0.25 * LN2
    assert term(_focal, [0.5], [1.0]) == pytest.approx(half, rel=1e-9)
    assert term(_focal, [0.5], [0.0]) == pytest.approx(half, rel=1e-9)


def test_bce_closed_forms():
    assert term(_bce, 0.5, 1) == pytest.approx(LN2, rel=1e-9)
    assert term(_bce, 0.5, 0) == pytest.approx(LN2, rel=1e-9)
    assert term(_bce, 1.0 - 1e-7, 1) == pytest.approx(1e-7, abs=2e-8)
    assert term(_bce, 0.8, 0) == pytest.approx(-np.log(0.2), rel=1e-9)
    # clamping keeps the loss finite at the boundary
    assert np.isfinite(term(_bce, 0.0, 1))


def test_loss_primitives_are_nonnegative_and_zero_at_perfection():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(0, 1, 16)
        s = (rng.uniform(0, 1, 16) > 0.5).astype(float)
        assert term(_dice, p, s) >= 0
        assert term(_focal, p, s) >= 0
        assert term(_bce, rng.uniform(0, 1), int(rng.integers(2))) >= 0
    perfect = (rng.uniform(0, 1, 16) > 0.5).astype(float)
    assert term(_dice, perfect, perfect) == pytest.approx(0.0, abs=1e-12)
    assert term(_focal, perfect, perfect) == pytest.approx(0.0, abs=1e-10)


def test_losses_invariant_under_joint_pixel_permutation():
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 1, 25)
    s = (rng.uniform(0, 1, 25) > 0.5).astype(float)
    perm = rng.permutation(25)
    assert term(_dice, p, s) == pytest.approx(term(_dice, p[perm], s[perm]), rel=1e-12)
    assert term(_focal, p, s) == pytest.approx(term(_focal, p[perm], s[perm]), rel=1e-12)


def test_loss_shape_mismatch():
    rng = np.random.default_rng(2)
    cls, seg = (Tensor(rng.standard_normal((4, 8))) for _ in range(2))
    weights = LossWeights()
    with pytest.raises(ShapeError, match="mask shape"):
        level_loss(cls, seg, toy_text(), 1, np.ones((8, 8)), weights, out_hw=(6, 6))
    with pytest.raises(ShapeError, match="mask shape"):
        level_loss(Tensor(rng.standard_normal((2, 4, 8))), Tensor(rng.standard_normal((2, 4, 8))),
                   toy_text(), [1, 1], [np.ones((8, 8)), np.ones((6, 6))], weights)


def test_weights_validation():
    with pytest.raises(ConfigError):
        LossWeights(lambda1=-0.1)


def _score_toy(beta1, beta2, tau=0.07):
    image = np.zeros((8, 8), dtype=np.float32)
    return score_batch(init_backbone(TOY), init_params(TOY.dim), [image], [toy_text()], None,
                       beta1, beta2, tau)


NAN = float("nan")


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(lr=NAN), "learning rate must be nonnegative"),
    (lambda: LossWeights(lambda1=NAN), "loss weights must be nonnegative"),
    (lambda: LossWeights(lambda2=NAN), "loss weights must be nonnegative"),
    (lambda: LossWeights(lambda3=NAN), "loss weights must be nonnegative"),
    (lambda: text_probabilities(np.ones((4, 8)), np.eye(2, 8), NAN),
     "temperature must be positive"),
    (lambda: _score_toy(NAN, 0.0), "fusion weights must be nonnegative"),
    (lambda: _score_toy(1.0, NAN), "fusion weights must be nonnegative"),
    (lambda: SynthConfig(defect_delta=NAN), "defect_delta must be a finite number"),
    (lambda: SynthConfig(benign_delta=NAN), "benign_delta must be a finite number"),
    (lambda: SynthConfig(defect_delta=float("inf")), "defect_delta must be a finite number"),
    (lambda: SynthConfig(benign_radius=(6.0, NAN)), "bad benign radius range"),
], ids=["lr", "lambda1", "lambda2", "lambda3", "inference_tau", "beta1", "beta2",
        "defect_delta", "benign_delta", "defect_delta_inf", "benign_radius"])
def test_nan_setting_is_config_error(build, message):
    """A NaN setting is refused with the error of a setting off its range.

    A NaN passes ``x < 0`` and ``x <= 0``, so each check is written as ``not
    x >= 0`` or ``not x > 0``. Each of these was accepted before: a NaN lr
    trained an all-NaN checkpoint, a NaN loss weight passed ``min(...) < 0``,
    a NaN tau scored every image NaN, a NaN beta2 without a bank was a
    BankError, and a NaN delta wrote images cast from NaN to uint8.
    """
    with pytest.raises(ConfigError, match=message):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: TrainConfig(tau=float("inf")), "temperature must be positive and finite"),
    (lambda: _score_toy(float("inf"), 0.0), "fusion weights must be nonnegative and finite"),
    (lambda: _score_toy(1.0, float("inf")), "fusion weights must be nonnegative and finite"),
    (lambda: text_probabilities(np.ones((4, 8)), np.eye(2, 8), float("inf")),
     "temperature must be positive and finite"),
    (lambda: _score_toy(1.0, 0.0, tau=float("inf")), "temperature must be positive and finite"),
], ids=["tau", "beta1", "beta2", "text_tau", "score_tau"])
def test_infinite_setting_is_config_error(build, message):
    """An infinite tau or beta is refused, as a NaN one is.

    An infinite beta scored every image inf, so eval reported AUC 0.5 / 0.5,
    and an infinite tau flattened the text logits, so training wrote a
    checkpoint at a loss that did not move and ``score_batch`` scored every
    image 0.5.
    """
    with pytest.raises(ConfigError, match=message):
        build()


@pytest.mark.parametrize("tau", [0.0, -0.07, float("nan")])
def test_train_config_rejects_nonpositive_tau(tau):
    with pytest.raises(ConfigError, match="temperature"):
        TrainConfig(tau=tau)
    with pytest.raises(ConfigError, match="temperature"):
        TrainConfig.from_dict({"tau": tau})


@pytest.mark.parametrize("levels", [(1, 1), (2, 4, 2)])
def test_train_config_rejects_repeated_levels(levels):
    # a repeated level would add its loss twice
    with pytest.raises(ConfigError, match="subset of 1..4"):
        TrainConfig(levels=levels)
    with pytest.raises(ConfigError, match="subset of 1..4"):
        TrainConfig.from_dict({"levels": list(levels)})


# -- level and total losses -------------------------------------------------------

def orthogonal_features(g=4, d=4):
    rows = np.zeros((g, d))
    rows[:, 2] = 1.0  # orthogonal to both text rows below
    return t64(rows), t64(rows)


def orthogonal_text(d=4):
    rows = np.zeros((2, d))
    rows[0, 0] = 1.0
    rows[1, 1] = 1.0
    return t64(rows)


def test_level_loss_bce_only_reduction():
    cls_l, seg_l = orthogonal_features()
    f_text = orthogonal_text()
    s = (np.random.default_rng(2).uniform(0, 1, (8, 8)) > 0.5).astype(float)
    only_bce = level_loss(cls_l, seg_l, f_text, 1, s, LossWeights(0.0, 0.0, 1.0),
                          tau=0.07, out_hw=(8, 8))
    peak = ops.max(ops.softmax_rows(ag.matmul(ops.l2norm_rows(cls_l),
                                            ops.transpose(ops.l2norm_rows(f_text)))))
    # orthogonal rows give uniform probability 0.5, so the BCE peak is ln 2
    assert float(only_bce.data) == pytest.approx(LN2, rel=1e-9)


def test_level_loss_uniform_logits_closed_form():
    cls_l, seg_l = orthogonal_features()
    f_text = orthogonal_text()
    s = (np.random.default_rng(3).uniform(0, 1, (8, 8)) > 0.7).astype(float)
    weights = LossWeights(1.0, 1.0, 1.0)
    value = float(level_loss(cls_l, seg_l, f_text, 1, s, weights,
                             tau=0.07, out_hw=(8, 8)).data)
    n = s.size
    s_sum = s.sum()
    dice_expected = 1.0 - (2 * 0.5 * s_sum + 1.0) / (0.5 * n + s_sum + 1.0)
    focal_expected = 0.25 * LN2
    expected = dice_expected + focal_expected + LN2
    assert value == pytest.approx(expected, rel=1e-9)


def test_level_loss_skips_seg_terms_without_mask():
    cls_l, seg_l = orthogonal_features()
    f_text = orthogonal_text()
    weights = LossWeights(1.0, 1.0, 1.0)
    no_mask = float(level_loss(cls_l, seg_l, f_text, 0, None, weights,
                               tau=0.07, out_hw=(8, 8)).data)
    bce_only = float(level_loss(cls_l, seg_l, f_text, 0,
                                np.zeros((8, 8)), LossWeights(0.0, 0.0, 1.0),
                                tau=0.07, out_hw=(8, 8)).data)
    assert no_mask == pytest.approx(bce_only, rel=1e-12)


def test_total_loss_sums_levels():
    cls_l, seg_l = orthogonal_features()
    f_text = orthogonal_text()
    s = np.zeros((8, 8))
    s[0, 0] = 1.0

    class Features:
        cls = [cls_l] * 4
        seg = [seg_l] * 4

    weights = LossWeights(1.0, 1.0, 1.0)
    one = float(level_loss(cls_l, seg_l, f_text, 1, s, weights, out_hw=(8, 8)).data)
    full = float(total_loss(Features, f_text, 1, s, weights, out_hw=(8, 8)).data)
    first_only = float(total_loss(Features, f_text, 1, s, weights, out_hw=(8, 8),
                                  levels=(1,)).data)
    assert full == pytest.approx(4 * one, rel=1e-9)
    assert first_only == pytest.approx(one, rel=1e-12)
    assert full >= 0


def test_level_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    cls_l = t64(rng.standard_normal((4, 6)), requires_grad=True)
    seg_l = t64(rng.standard_normal((4, 6)), requires_grad=True)
    f_text = t64(rng.standard_normal((2, 6)))
    s = (rng.uniform(0, 1, (8, 8)) > 0.6).astype(float)

    def loss_fn():
        return level_loss(cls_l, seg_l, f_text, 1, s, LossWeights(),
                          tau=0.07, out_hw=(8, 8))

    check_gradients(loss_fn, [cls_l, seg_l], rel_tol=1e-4)


def test_full_objective_gradients_on_toy_model():
    backbone = init_backbone(TOY, dtype=np.float64)
    params = init_params(TOY.dim, seed=11, dtype=np.float64)
    rng = np.random.default_rng(12)
    for level in range(1, 4):
        for role in ("cls", "seg"):
            up = params[f"adapter{level}.{role}.up"]
            up.data = rng.standard_normal(up.shape) * 0.3
    image = rng.uniform(0, 1, (8, 8))
    mask = (rng.uniform(0, 1, (8, 8)) > 0.7).astype(float)
    f_text = toy_text()

    def loss_fn():
        features, _ = adapt_forward(backbone, params, image)
        return total_loss(features, f_text, 1, mask, LossWeights(),
                          tau=0.07, out_hw=(8, 8))

    check_gradients(loss_fn, params.tensors(), rel_tol=1e-4)


# -- the fused level node against the op-by-op oracle ------------------------------

def _value_and_grads(loss_fn, *args, **kwargs):
    loss = loss_fn(*args, **kwargs)
    leaves = [a for a in args if isinstance(a, Tensor) and a.requires_grad]
    grads = backward(ag.scale(loss, 0.37))
    return loss.data, [grads[t].data if t in grads else None for t in leaves]


def _assert_same_bits(got, expected):
    got_value, got_grads = got
    value, grads = expected
    assert got_value.dtype == value.dtype and got_value.tobytes() == value.tobytes()
    for g, e in zip(got_grads, grads):
        assert (g is None) == (e is None)
        if e is not None:
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


# name: (grid, out_hw, mask kind, weights, tau, tied cls rows)
LEVEL_CASES = {
    "default": (8, (64, 64), "binary", (1.0, 1.0, 1.0), 0.07, False),
    "no_dice": (4, (16, 16), "binary", (0.0, 1.0, 1.0), 0.07, False),
    "no_focal": (4, (16, 16), "binary", (1.0, 0.0, 1.0), 0.07, False),
    "no_bce": (4, (16, 16), "binary", (1.0, 1.0, 0.0), 0.07, False),
    "bce_only": (4, (16, 16), "binary", (0.0, 0.0, 1.0), 0.07, False),
    "no_mask": (4, (16, 16), None, (1.0, 1.0, 1.0), 0.07, False),
    "non_square_soft_mask": (4, (13, 9), "soft", (0.3, 2.5, 1.7), 0.2, False),
    "empty_mask_2x2": (2, (17, 33), "empty", (1.0, 1.0, 1.0), 1.0, False),
    "saturated": (4, (16, 16), "binary", (1.0, 1.0, 1.0), 1e-3, False),
    "tied_max": (4, (16, 16), "binary", (1.0, 1.0, 1.0), 0.07, True),
}


@pytest.mark.parametrize("c", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_fused_level_loss_matches_op_by_op_oracle_bitwise(case, dtype, c):
    grid, out_hw, mask_kind, lambdas, tau, tied = LEVEL_CASES[case]
    rng = np.random.default_rng(sorted(LEVEL_CASES).index(case))
    cls = rng.standard_normal((grid * grid, 12)).astype(dtype)
    if tied:
        cls[:] = cls[0]
    seg = rng.standard_normal((grid * grid, 12)).astype(dtype)
    f_text = Tensor(rng.standard_normal((2, 12)).astype(dtype))
    s = {"binary": (rng.uniform(0, 1, out_hw) > 0.8).astype(np.float32),
         "soft": rng.uniform(0, 1, out_hw), "empty": np.zeros(out_hw), None: None}[mask_kind]
    weights = LossWeights(*lambdas)

    def run(loss_fn):
        cls_l = Tensor(cls.copy(), requires_grad=True)
        seg_l = Tensor(seg.copy(), requires_grad=True)
        return _value_and_grads(loss_fn, cls_l, seg_l, f_text, c, s, weights,
                                tau=tau, out_hw=out_hw)

    got = run(level_loss)
    expected = run(loss_oracle.level_loss)
    _assert_same_bits(got, expected)
    if case == "saturated":  # the clip bounds were reached on both sides
        probs = ops.softmax_rows(ops.similarity_logits(Tensor(seg), f_text, tau)).data
        assert probs.min() < PROB_EPS and probs.max() > 1 - PROB_EPS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loss_primitives_match_op_by_op_oracle_bitwise(dtype):
    rng = np.random.default_rng(14)
    p = rng.uniform(0, 1, (9, 7)).astype(dtype)
    p[0, :3] = 0.0  # beyond both clip bounds
    p[1, :3] = 1.0
    s = (rng.uniform(0, 1, (9, 7)) > 0.5).astype(np.float32)
    for kernel, oracle in ((_dice, loss_oracle.dice_loss), (_focal, loss_oracle.focal_loss)):
        _assert_same_bits(_value_and_grads(term_node, kernel, Tensor(p, requires_grad=True), s),
                          _value_and_grads(oracle, Tensor(p, requires_grad=True), s))
    for prob in (0.0, 1e-9, PROB_EPS, 0.3, 1.0 - PROB_EPS, 1.0 - 1e-9, 1.0):
        for c in (0, 1):
            arr = np.asarray(prob, dtype=dtype)
            _assert_same_bits(
                _value_and_grads(term_node, _bce, Tensor(arr, requires_grad=True), c),
                _value_and_grads(loss_oracle.bce_image, Tensor(arr, requires_grad=True), c))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_level_loss_matches_per_sample_bitwise(dtype):
    # non-square maps, per-sample labels and text rows, samples with and without masks
    rng = np.random.default_rng(15)
    count, grid, out_hw, tau = 9, 4, (13, 9), 0.2
    cls = rng.standard_normal((count, grid * grid, 12)).astype(dtype)
    seg = rng.standard_normal((count, grid * grid, 12)).astype(dtype)
    text = rng.standard_normal((count, 2, 12)).astype(dtype)
    labels = rng.integers(0, 2, count)
    masks = [None if i % 3 == 0 else (rng.uniform(0, 1, out_hw) > 0.7).astype(np.float32)
             for i in range(count)]
    weights = LossWeights(0.3, 2.5, 1.7)
    cls_b, seg_b = Tensor(cls, requires_grad=True), Tensor(seg, requires_grad=True)
    batched = level_loss(cls_b, seg_b, Tensor(text), labels, masks, weights, tau=tau,
                         out_hw=out_hw)
    assert batched.shape == (count,)
    grads = backward(ag.scale(_sum_samples(batched), 0.37))
    for i in range(count):
        cls_i = Tensor(cls[i].copy(), requires_grad=True)
        seg_i = Tensor(seg[i].copy(), requires_grad=True)
        got = (batched.data[i], [grads[cls_b].data[i], grads[seg_b].data[i]])
        value, (g_cls, g_seg) = _value_and_grads(level_loss, cls_i, seg_i, Tensor(text[i]),
                                                 labels[i], masks[i], weights, tau=tau,
                                                 out_hw=out_hw)
        if masks[i] is None:  # no seg term: the batch writes a zero gradient
            assert g_seg is None and not got[1][1].any()
            g_seg = got[1][1]
        _assert_same_bits(got, (value, [g_cls, g_seg]))


def _loss_draws(count=200):
    """Seeded level-loss inputs: batches of 1..4 samples with edge-case masks and weights."""
    rng = np.random.default_rng(2030)
    for draw in range(count):
        dtype = (np.float32, np.float64)[draw % 2]
        batch, grid = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        dim = int(rng.integers(2, 9))
        out_hw = tuple(int(grid + rng.integers(0, 3 * grid + 6)) for _ in range(2))
        cls, seg = rng.standard_normal((2, batch, grid * grid, dim)).astype(dtype)
        if draw % 7 == 0:  # tied grid rows: the max passes its gradient to the first
            cls[:] = cls[:, :1]
        text = rng.standard_normal((batch, 2, dim) if draw % 3 else (2, dim)).astype(dtype)
        masks = []
        for _ in range(batch):  # None, empty, all ones or random
            masks.append((None, np.zeros(out_hw, np.float32), np.ones(out_hw, np.float32),
                          (rng.uniform(size=out_hw) < 0.3).astype(np.float32))[rng.integers(4)])
        lambdas = [0.0 if rng.uniform() < 0.3 else float(rng.uniform(0.1, 3.0))
                   for _ in range(3)]
        tau = float(rng.choice([1e-3, 0.07, 0.2, 1.0]))
        given_hw = None if draw % 5 == 0 and any(m is not None for m in masks) else out_hw
        yield (cls, seg, text, rng.integers(0, 2, batch), masks, LossWeights(*lambdas), tau,
               given_hw)


def _loss_bits(loss_fn, cls, seg, *args, **kwargs):
    """Value and (cls, seg) gradient bytes of 0.37 times a loss; None for no gradient."""
    cls_t, seg_t = Tensor(cls, requires_grad=True), Tensor(seg, requires_grad=True)
    loss = loss_fn(cls_t, seg_t, *args, **kwargs)
    total = _sum_samples(loss) if loss.ndim else loss
    grads = backward(ag.scale(total, 0.37)) if loss.node is not None else {}
    return loss.data, [grads[t].data if t in grads else None for t in (cls_t, seg_t)]


def test_level_loss_matches_oracle_on_seeded_draws():
    """A batched level loss keeps the op-by-op loss's bits for each sample.

    200 draws of 1..4 samples on a 1x1 to 4x4 grid, upsampled to a random
    map size, in float32 or float64. Masks are None, empty, all ones or
    random, and each lambda is 0 in about a third of the draws. Each draw
    passes its masks as float32 and again as bool, and both must give the
    same bits; then each sample's value and gradients must equal
    ``loss_oracle``'s. A sample without a seg term has a zero seg gradient.
    Each of these changes to ``objective`` fails this test: ``_as_mask``
    without its cast to the map's dtype, the BCE gradient sent to the last
    maximal grid row instead of the first, and the focal term's map
    gradient added before the dice term's.
    """
    for cls, seg, text, labels, masks, weights, tau, out_hw in _loss_draws():
        value, grads = _loss_bits(level_loss, cls, seg, Tensor(text), labels, masks,
                                  weights, tau=tau, out_hw=out_hw)
        flags = [None if m is None else m.astype(bool) for m in masks]
        value_b, grads_b = _loss_bits(level_loss, cls, seg, Tensor(text), labels, flags,
                                      weights, tau=tau, out_hw=out_hw)
        _assert_same_bits((value, grads), (value_b, grads_b))
        for i, mask in enumerate(masks):
            expected = _loss_bits(loss_oracle.level_loss, cls[i], seg[i],
                                  Tensor(text if text.ndim == 2 else text[i]), labels[i],
                                  mask, weights, tau=tau, out_hw=out_hw)
            got = [None if g is None else g[i] for g in grads]
            if expected[1][1] is None and got[1] is not None:  # no seg term for this one
                assert not got[1].any()
                got[1] = None
            _assert_same_bits((value[i], got), expected)


def _graph_nodes(loss):
    seen, stack, nodes = set(), [loss], 0
    while stack:
        tensor = stack.pop()
        if id(tensor) not in seen:
            seen.add(id(tensor))
            if tensor.node is not None:
                nodes += 1
                stack.extend(tensor.node.parents)
    return nodes


def test_default_masked_sample_graph_stays_small():
    # each frozen encoder block and each level loss is one node; spelled out op
    # by op the blocks add 420 and the losses 176
    config = BackboneConfig()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=0)
    rng = np.random.default_rng(13)
    image = rng.uniform(0, 1, (64, 64)).astype(np.float32)
    mask = (rng.uniform(0, 1, (64, 64)) > 0.9).astype(np.float32)
    features, _ = adapt_forward(backbone, params, image)
    loss = total_loss(features, toy_text(config.dim, dtype=np.float32), 1, mask,
                      LossWeights(), out_hw=(64, 64))
    assert _graph_nodes(loss) <= 70


# -- Adam --------------------------------------------------------------------------

def make_param(value):
    return [("p", Tensor(np.asarray(value, dtype=np.float64), requires_grad=True))]


def test_adam_zero_gradient_keeps_parameters():
    named = make_param([1.0, -2.0])
    state = AdamState(named)
    grads = {named[0][1]: Tensor(np.zeros(2, dtype=np.float64))}
    adam_step(named, grads, state, lr=0.05)
    assert np.array_equal(named[0][1].data, [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_magnitude_is_lr():
    named = make_param([1.0, -1.0, 0.5])
    state = AdamState(named)
    g = np.array([0.3, -2.0, 1e-3])
    grads = {named[0][1]: Tensor(g.copy())}
    before = named[0][1].data.copy()
    adam_step(named, grads, state, lr=0.01)
    update = before - named[0][1].data
    # bias-corrected first step moves by ~lr in the gradient sign direction
    assert np.allclose(np.abs(update), 0.01, rtol=1e-4)
    assert np.array_equal(np.sign(update), np.sign(g))


def test_adam_is_deterministic():
    def run():
        named = make_param([[0.5, -0.5]])
        state = AdamState(named)
        for step in range(5):
            g = Tensor(np.full((1, 2), 0.1 * (step + 1), dtype=np.float64))
            adam_step(named, {named[0][1]: g}, state, lr=0.01)
        return named[0][1].data.copy()

    assert np.array_equal(run(), run())


def test_adam_missing_gradient_is_contract_error():
    named = make_param([1.0])
    state = AdamState(named)
    with pytest.raises(ContractError, match="'p'"):
        adam_step(named, {}, state, lr=0.01)


# -- training loop -------------------------------------------------------------------

def toy_samples(n=4, with_masks=True, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        image = rng.uniform(0, 1, (8, 8)).astype(np.float32)
        label = i % 2
        mask = None
        if with_masks:
            mask = np.zeros((8, 8), dtype=np.float32)
            if label:
                mask[2:4, 2:4] = 1.0
        samples.append(LoadedSample(image, label, mask, "widget", f"mem://{i}"))
    return samples


def toy_setup():
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=11)
    text = {"widget": toy_text(dtype=np.float32)}
    return backbone, params, text


def snapshot(params):
    return [t.data.copy() for t in params.tensors()]


def test_train_empty_dataset_errors():
    backbone, params, text = toy_setup()
    with pytest.raises(DataError):
        train(backbone, params, [], text, TrainConfig(epochs=1))


def test_train_lr_zero_keeps_initialization():
    backbone, params, text = toy_setup()
    before = snapshot(params)
    train(backbone, params, toy_samples(2), text,
          TrainConfig(lr=0.0, batch_size=2, epochs=1, seed=0))
    for old, new in zip(before, snapshot(params)):
        assert np.array_equal(old, new)


def test_train_zero_epochs_keeps_initialization():
    backbone, params, text = toy_setup()
    before = snapshot(params)
    history = train(backbone, params, toy_samples(2), text,
                    TrainConfig(epochs=0, batch_size=2))
    assert history == []
    for old, new in zip(before, snapshot(params)):
        assert np.array_equal(old, new)


def test_train_reduces_loss_and_logs(tmp_path):
    backbone, params, text = toy_setup()
    log = tmp_path / "loss.csv"
    history = train(backbone, params, toy_samples(6, seed=2), text,
                    TrainConfig(lr=5e-3, batch_size=3, epochs=8, seed=1),
                    loss_log_path=log)
    assert len(history) == 8
    assert history[-1] < history[0]
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss"
    assert len(lines) == 9


def test_train_is_deterministic():
    def run():
        backbone, params, text = toy_setup()
        train(backbone, params, toy_samples(4, seed=3), text,
              TrainConfig(lr=1e-3, batch_size=2, epochs=2, seed=5))
        return snapshot(params)

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


def test_classification_only_samples_move_only_via_bce():
    # without masks, training must equal a run with the seg weights zeroed
    samples = toy_samples(4, with_masks=False, seed=4)

    def run(weights):
        backbone, params, text = toy_setup()
        train(backbone, params, samples, text,
              TrainConfig(lr=1e-3, batch_size=2, epochs=2, seed=6, weights=weights))
        return snapshot(params)

    default = run(LossWeights(1.0, 1.0, 1.0))
    bce_only = run(LossWeights(0.0, 0.0, 1.0))
    for a, b in zip(default, bce_only):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite_loss():
    backbone, params, text = toy_setup()
    with pytest.raises(NumericError, match="epoch"):
        train(backbone, params, toy_samples(4, seed=5), text,
              TrainConfig(lr=1e18, batch_size=2, epochs=50, seed=7))


def mixed_samples(n, size, seed):
    """Two modalities; every third sample has no mask."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        label = i % 2
        mask = np.zeros((size, size), dtype=np.float32)
        if label:
            mask[size // 4:size // 2, size // 4:size // 2] = 1.0
        samples.append(LoadedSample(rng.uniform(-1, 1, (size, size)).astype(np.float32),
                                    label, None if i % 3 == 0 else mask,
                                    ("widget", "gadget")[(i // 2) % 2], f"mem://{i}"))
    return samples


def _trained_bits(train_fn, config, samples, model, train_config):
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=11, **model)
    text = {"widget": toy_text(config.dim, dtype=np.float32),
            "gadget": toy_text(config.dim, seed=1, dtype=np.float32)}
    history = train_fn(backbone, params, samples, text, train_config)
    return history, [t.data.tobytes() for t in params.tensors()]


@pytest.mark.parametrize("with_masks", [True, False])
def test_training_with_fused_loss_matches_op_by_op_oracle_bitwise(with_masks):
    # also pins the order in which the shared adapter tensors gather gradients
    samples = toy_samples(4, with_masks=with_masks, seed=9)
    train_config = TrainConfig(lr=1e-2, batch_size=2, epochs=2, seed=10)
    assert (_trained_bits(train, TOY, samples, {}, train_config)
            == _trained_bits(train_oracle.train, TOY, samples, {}, train_config))


# name: (init_params keywords, TrainConfig keywords); 5 samples in steps of 3 and 2
TRAIN_CASES = {
    "mixed_masks": ({}, {}),
    "projector": ({"arch": "projector"}, {}),
    "single_style": ({"adapter_style": "single"}, {}),
    "levels_1_3": ({}, {"levels": (1, 3)}),
    "no_dice": ({}, {"weights": LossWeights(0.0, 1.0, 1.0)}),
    "no_focal": ({}, {"weights": LossWeights(1.0, 0.0, 1.0)}),
    "no_bce": ({}, {"weights": LossWeights(1.0, 1.0, 0.0)}),
}


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_batched_training_matches_per_sample_oracle_bitwise(case):
    model, overrides = TRAIN_CASES[case]
    train_config = TrainConfig(**{"lr": 1e-2, "batch_size": 3, "epochs": 2, "seed": 10,
                                  **overrides})
    samples = mixed_samples(5, TOY.image_size, seed=16)
    assert (_trained_bits(train, TOY, samples, model, train_config)
            == _trained_bits(train_oracle.train, TOY, samples, model, train_config))


def test_batched_training_matches_per_sample_oracle_at_default_size():
    # 64x64 maps reduce pairwise in blocks; a full step of 16 and a final step of 4
    config = BackboneConfig()
    samples = mixed_samples(20, config.image_size, seed=17)
    train_config = TrainConfig(lr=1e-2, batch_size=16, epochs=1, seed=10)
    assert (_trained_bits(train, config, samples, {}, train_config)
            == _trained_bits(train_oracle.train, config, samples, {}, train_config))


def _train_draws(count=30):
    """Seeded (model, TrainConfig, samples) draws over every training layout.

    Each draw picks the architecture and adapter style, a nonempty subset of
    levels, loss weights each zeroed about a third of the time, a batch size
    of 1..10 with a sample count that mostly leaves a partial last step,
    masks present or None per sample, and two modalities.
    """
    rng = np.random.default_rng(2029)
    size = TOY.image_size
    for draw in range(count):
        model = {"arch": ("adapter", "projector")[draw % 3 == 2],
                 "adapter_style": ("dual", "single")[draw % 2]}
        levels = tuple(int(l) + 1 for l in
                       sorted(rng.choice(4, int(rng.integers(1, 5)), replace=False)))
        weights = LossWeights(*(0.0 if rng.uniform() < 1 / 3 else float(rng.uniform(0.5, 2))
                                for _ in range(3)))
        batch = int(rng.integers(1, 11))
        steps = int(rng.integers(1, 3))
        samples = []
        for i in range(batch * (steps - 1) + int(rng.integers(1, batch + 1))):
            label, mask = int(rng.integers(2)), None
            if rng.uniform() < 0.7:
                mask = np.zeros((size, size), dtype=np.float32)
                if label:
                    row, col = rng.integers(0, size - 1, 2)
                    mask[row:row + int(rng.integers(1, 4)), col:col + int(rng.integers(1, 4))] = 1
            samples.append(LoadedSample(rng.uniform(-1, 1, (size, size)).astype(np.float32),
                                        label, mask, ("widget", "gadget")[int(rng.integers(2))],
                                        f"mem://{i}"))
        yield model, TrainConfig(lr=float(rng.choice([1e-3, 1e-2, 5e-2])), batch_size=batch,
                                 epochs=1 + (draw % 5 == 0), seed=draw, levels=levels,
                                 weights=weights), samples


def test_batched_training_matches_per_sample_oracle_on_seeded_draws():
    """Loss history and trained tensors of each draw keep the oracle loop's bits.

    The draws cover the adapter (dual and single) and projector layouts,
    which ``adapt_forward`` builds in one pass, so this guards every layout
    of that forward against ``tests/train_oracle.py``. Each of these changes
    fails this test: the per-sample totals added in reversed sample order
    (``sum_in_order(totals.data[::-1])`` in ``objective._sum_samples``), the
    weight gradient of a batched matmul summed in reversed sample order, and
    ``np.sum`` of the per-sample totals, which pairs eight or more terms
    differently. A step whose loss reaches no trainable tensor (every
    weight zero, or lambda3 zero and no mask in the step) raises
    ContractError in both loops; the draw then checks that both raise it.
    """
    for model, train_config, samples in _train_draws():
        outcomes = []
        for train_fn in (train, train_oracle.train):
            try:
                outcomes.append(_trained_bits(train_fn, TOY, samples, model, train_config))
            except ContractError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (model, train_config)


def _default_size_step(tmp_path, monkeypatch, batch_size):
    """Train one default-size step of masked samples; returns the node count of each graph."""
    config = BackboneConfig()
    samples = [s for s in mixed_samples(3 * batch_size, config.image_size, seed=18)
               if s.mask is not None][:batch_size]
    log = tmp_path / "nodes.txt"
    monkeypatch.setattr(ag, "backward", logged(log, ag.backward,
                                               lambda loss, **kwargs: _graph_nodes(loss)))
    _trained_bits(train, config, samples, {},
                  TrainConfig(batch_size=batch_size, epochs=1, seed=10))
    return [int(line) for line in read_lines(log)]


@pytest.mark.parametrize("batch_size", [1, 16])
def test_training_step_graph_stays_small(tmp_path, monkeypatch, batch_size):
    # one graph per 8 samples of a step: 50 nodes each (65 before each adapter mix
    # became one node; 16 one-sample graphs would hold about 800)
    counted = _default_size_step(tmp_path, monkeypatch, batch_size)
    assert len(counted) == (batch_size + 7) // 8 and max(counted) <= 55


def test_training_step_memory_is_bounded(tmp_path, monkeypatch):
    # the stage-1 pass and one 16-sample step as two 8-sample graphs: 7.98 MiB
    # measured; 9.36 MiB while the walk held every graph tensor to its end and
    # the level-loss and encoder-block VJPs held their temporaries until they
    # returned; 15.2 MiB as one 16-sample graph; 18.6 MiB while each block node
    # kept h and a bool ReLU sign, each level its own float mask stack and the
    # upsample VJP gathered its whole plan at once; 27.4 MiB while each encoder
    # block node kept its heads' q, k, v and attention, and 39.0 MiB while the
    # graph also kept each adapter mix's scale and add outputs
    tracemalloc.start()
    try:
        _default_size_step(tmp_path, monkeypatch, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.5 * 2 ** 20


def _manifest(root, image_size, normals, anomalies, modalities):
    """Train-manifest samples of a generated dataset."""
    radius = (1.0, 2.0) if image_size < 16 else (6.0, 10.0)
    train_manifest, _ = gen_dataset(SynthConfig(
        modalities=modalities, image_size=image_size, defect_radius=radius,
        benign_radius=radius, train_normals=normals, train_anomalies=anomalies,
        test_normals=1, test_anomalies=1, seed=19), root)
    return load_manifest(train_manifest)


def test_training_on_manifest_samples_writes_the_loaded_checkpoint(tmp_path):
    # two modalities in steps of 4, 4 and 2; the manifest path loads each step's images
    modalities = (ModalityProfile("widget", 3.0, 0.5, 0.03),
                  ModalityProfile("gadget", 12.0, 0.4, 0.04))
    samples = _manifest(tmp_path / "data", TOY.image_size, 3, 2, modalities)
    train_config = TrainConfig(lr=1e-2, batch_size=4, epochs=2, seed=10)
    written = []
    for given in (samples, load_samples(samples)):
        backbone = init_backbone(TOY)
        params = init_params(TOY.dim, seed=11)
        text = {"widget": toy_text(dtype=np.float32),
                "gadget": toy_text(seed=1, dtype=np.float32)}
        train(backbone, params, given, text, train_config)
        path = tmp_path / f"run{len(written)}.ckpt"
        save_checkpoint(path, TOY, params)
        written.append(path.read_bytes())
    assert written[0] == written[1]


def test_training_peak_does_not_grow_with_the_training_set(tmp_path):
    # a set larger than one batch is loaded one step at a time: 3 KiB more over 96
    # more samples measured, the permutation's 768 B among it. Each sample kept its
    # 16 KiB stage-1 rows and a 512 B packed mask for the whole run before (1.6 MiB).
    config = BackboneConfig()
    samples = _manifest(tmp_path / "data", config.image_size, 112, 16,
                        (ModalityProfile("widget", 3.0, 0.5, 0.03),))
    text = {"widget": toy_text(config.dim, dtype=np.float32)}
    train_config = TrainConfig(batch_size=16, epochs=1, seed=10)

    def peak(count):
        backbone = init_backbone(config)
        params = init_params(config.dim, seed=11)
        tracemalloc.start()
        try:
            train(backbone, params, samples[:count], text, train_config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # warm caches
    assert peak(128) - peak(32) <= 32 * 1024


def test_training_embeds_one_batch_once_and_a_larger_set_at_every_step(tmp_path,
                                                                          monkeypatch):
    # the few-shot set reuses its stage-1 rows across epochs, computed one graph
    # of 3 at a time before the fork; a zero-shot set larger than one batch embeds
    # each graph's samples when the graph runs. A step of n samples runs its first
    # ceil(n / 2) here and the rest on the worker, each half as graphs of at most
    # 3. The two halves run at the same time, so each step's calls (all logged
    # before its Adam update) are compared as a sorted list
    def graphs(where, count):
        sizes = [3] * (count // 3) + [count % 3] * (count % 3 > 0)
        return [f"{where} {size}" for size in sizes]

    def step(count):
        return sorted(graphs("here", (count + 1) // 2) + graphs("worker", count // 2))

    caller = os.getpid()
    log = tmp_path / "calls.txt"
    monkeypatch.setattr(FrozenBackbone, "embed", logged(
        log, FrozenBackbone.embed,
        lambda self, images: f"{'here' if os.getpid() == caller else 'worker'} {len(images)}"))
    monkeypatch.setattr(objective, "adam_step",
                        logged(log, objective.adam_step, lambda *args: "step"))
    monkeypatch.setattr(objective, "SUB_BATCH", 3)
    # 4 samples in one step per epoch; 9 samples in steps of 7 (4 + 3: graphs of
    # 3 and 1 here, one of 3 on the worker) and 2 (1 + 1); 3 epochs each
    for count, expected in ((4, [sorted(graphs("here", 4)), [], []]),
                            (9, [step(7), step(2)] * 3)):
        backbone, params, text = toy_setup()
        log.unlink(missing_ok=True)
        train(backbone, params, toy_samples(count), text,
              TrainConfig(batch_size=7, epochs=3, seed=2))
        steps, calls = [], []
        for line in read_lines(log):
            if line == "step":
                steps.append(sorted(calls))
                calls = []
            else:
                calls.append(line)
        assert steps == expected, count


def _train_outputs(tmp_path, samples, train_config):
    """Checkpoint and loss-log bytes of a default-model run on ``samples``."""
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=11)
    text = {"widget": toy_text(dtype=np.float32), "gadget": toy_text(seed=1, dtype=np.float32)}
    log = tmp_path / "loss.csv"
    train(backbone, params, samples, text, train_config, loss_log_path=log)
    save_checkpoint(tmp_path / "model.ckpt", TOY, params)
    return (tmp_path / "model.ckpt").read_bytes(), log.read_bytes()


@pytest.mark.parametrize("count", [20, 7])
def test_training_bytes_do_not_depend_on_the_graph_size(tmp_path, monkeypatch, count):
    # 20 samples stream in steps of 16 and 4; 7 fit in one batch. 3 divides
    # neither step, and 16 or more runs each step as one graph
    samples = mixed_samples(count, TOY.image_size, seed=27)
    train_config = TrainConfig(lr=1e-2, batch_size=16, epochs=2, seed=12)
    outputs = []
    for size in (1, 3, 8, 16, 40):
        monkeypatch.setattr(objective, "SUB_BATCH", size)
        outputs.append(_train_outputs(tmp_path / str(size), samples, train_config))
    assert all(output == outputs[0] for output in outputs[1:])


def _checkpoint_and_log(tmp_path, train_fn, config, samples, train_config):
    """Checkpoint and loss-log bytes of ``train_fn`` on ``samples``.

    ``train`` writes its log; the oracle's history is written as ``train``
    writes one.
    """
    tmp_path.mkdir()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=11)
    text = {"widget": toy_text(config.dim, dtype=np.float32),
            "gadget": toy_text(config.dim, seed=1, dtype=np.float32)}
    log = tmp_path / "loss.csv"
    if train_fn is train:
        train(backbone, params, samples, text, train_config, loss_log_path=log)
    else:
        history = train_fn(backbone, params, samples, text, train_config)
        log.write_text("epoch,mean_loss\n" + "".join(f"{epoch},{value:.8f}\n" for epoch, value
                                                     in enumerate(history, 1)))
    save_checkpoint(tmp_path / "model.ckpt", config, params)
    return (tmp_path / "model.ckpt").read_bytes(), log.read_bytes()


# name: (backbone config, sample count, TrainConfig keywords)
FORKED_CASES = {
    # a streamed set: a step of 16 as 8 + 8, then a short step of 4 as 2 + 2
    "streamed_default_size": (BackboneConfig(), 20, {"batch_size": 16, "epochs": 1}),
    # the few-shot reference layout: one batch of 8 whose rows are built before the
    # fork, each step run as 4 + 4
    "resident_default_size": (BackboneConfig(), 8, {"batch_size": 16, "epochs": 2}),
    # one batch of 12 whose rows, graphs of 8 and 4, are built before the fork;
    # each step runs as 6 + 6
    "resident": (TOY, 12, {"batch_size": 16, "epochs": 2}),
    # an odd step: 3 samples here and 2 on the worker
    "odd_step": (TOY, 5, {"batch_size": 5, "epochs": 2}),
    # a step of 24 as 12 + 12, each half a graph of 8 and one of 4, then a step
    # of 6 as 3 + 3
    "batch_24": (TOY, 30, {"batch_size": 24, "epochs": 2}),
    # steps of 32 as 16 + 16, two graphs on each process, then a step of 8 as 4 + 4
    "batch_32": (TOY, 40, {"batch_size": 32, "epochs": 2}),
}


@pytest.mark.parametrize("case", sorted(FORKED_CASES))
def test_training_with_a_forked_worker_writes_the_oracle_bytes(tmp_path, monkeypatch, case):
    config, count, overrides = FORKED_CASES[case]
    samples = mixed_samples(count, config.image_size, seed=32)
    train_config = TrainConfig(lr=1e-2, seed=10, **overrides)
    forks = count_forks(monkeypatch)
    outputs = _checkpoint_and_log(tmp_path / "train", train, config, samples, train_config)
    assert len(forks) == 1
    assert outputs == _checkpoint_and_log(tmp_path / "oracle", train_oracle.train, config,
                                          samples, train_config)


def test_the_worker_ignores_sigint(monkeypatch):
    # Ctrl-C signals the whole process group, and only the caller acts on it, so
    # that the worker is reaped: a SIGINT to the worker alone after step 1
    # leaves it to run its graph of step 2
    forks = count_forks(monkeypatch)
    adam_step = objective.adam_step

    def interrupt_the_worker(*args):
        if args[2].step == 0:
            os.kill(forks[0], signal.SIGINT)
        return adam_step(*args)

    monkeypatch.setattr(objective, "adam_step", interrupt_the_worker)
    samples = mixed_samples(40, TOY.image_size, seed=36)
    train_config = TrainConfig(lr=1e-2, batch_size=16, epochs=1, seed=10)
    assert (_trained_bits(train, TOY, samples, {}, train_config)
            == _trained_bits(train_oracle.train, TOY, samples, {}, train_config))


def test_one_graph_steps_and_a_python_without_fork_train_in_one_process(tmp_path,
                                                                       monkeypatch):
    # steps of one sample run here; without os.fork, steps of two graphs run
    # here too
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for name, count, batch_size in (("one_sample", 8, 1), ("no_fork", 20, 16)):
        if name == "no_fork":
            monkeypatch.delattr(os, "fork")
        samples = mixed_samples(count, TOY.image_size, seed=33)
        train_config = TrainConfig(lr=1e-2, batch_size=batch_size, epochs=2, seed=10)
        assert (_checkpoint_and_log(tmp_path / name, train, TOY, samples, train_config)
                == _checkpoint_and_log(tmp_path / f"{name}_oracle", train_oracle.train, TOY,
                                       samples, train_config)), name


def test_an_error_on_the_worker_is_raised_by_train(monkeypatch):
    # an error that pickles comes back as itself; one that does not (its class
    # is local) as a RuntimeError of its text. No worker is left behind
    class Local(Exception):
        pass

    caller, total_loss = os.getpid(), objective.total_loss
    samples = mixed_samples(20, TOY.image_size, seed=34)
    for error, expected in ((DataError("no such sample"), DataError),
                            (Local("no such sample"), RuntimeError)):
        def on_the_worker(*args, **kwargs):
            if os.getpid() != caller:
                raise error
            return total_loss(*args, **kwargs)

        monkeypatch.setattr(objective, "total_loss", on_the_worker)
        with pytest.raises(expected) as raised:
            _trained_bits(train, TOY, samples, {}, TrainConfig(batch_size=16, epochs=1))
        assert type(raised.value) is expected
        assert str(raised.value) == ("no such sample" if expected is DataError
                                     else "Local: no such sample")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_blas_runs_on_one_thread_in_both_processes_while_the_worker_lives(tmp_path,
                                                                         monkeypatch):
    calls = worker.openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set is loaded")
    get, set_ = calls
    before = get()
    log = tmp_path / "threads.txt"
    monkeypatch.setattr(objective, "total_loss",
                        logged(log, objective.total_loss, lambda *a, **k: get()))
    set_(2)
    try:
        _trained_bits(train, TOY, mixed_samples(20, TOY.image_size, seed=35), {},
                      TrainConfig(batch_size=16, epochs=1))
        after = get()
    finally:
        set_(before)
    # four graphs: steps of 16 and 4 run as 8 + 8 and 2 + 2
    assert read_lines(log) == ["1"] * 4 and after == 2


def test_blas_runs_on_one_thread_in_a_train_without_a_worker(tmp_path, monkeypatch):
    # steps of one sample, and any step without os.fork, train in one process
    calls = worker.openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set is loaded")
    get, set_ = calls
    before = get()
    log = tmp_path / "threads.txt"
    monkeypatch.setattr(objective, "total_loss",
                        logged(log, objective.total_loss, lambda *a, **k: get()))
    samples = mixed_samples(4, TOY.image_size, seed=35)
    set_(2)
    try:
        _trained_bits(train, TOY, samples, {}, TrainConfig(batch_size=1, epochs=1))
        monkeypatch.delattr(os, "fork")
        _trained_bits(train, TOY, samples, {}, TrainConfig(batch_size=4, epochs=1))
        after = get()
    finally:
        set_(before)
    # four one-sample graphs, then one graph of four
    assert read_lines(log) == ["1"] * 5 and after == 2


def test_a_graph_that_reaches_no_trainable_tensor_adds_nothing(monkeypatch):
    # with lambda3 0 a mask-free sample's loss has no node, so in graphs of one
    # sample its graph has no backward and the step keeps the oracle's bits; a
    # step whose graphs all reach none raises the oracle's ContractError
    monkeypatch.setattr(objective, "SUB_BATCH", 1)
    masked, free = toy_samples(4, seed=29), toy_samples(4, with_masks=False, seed=30)
    train_config = TrainConfig(lr=1e-2, batch_size=4, epochs=2, seed=10,
                               weights=LossWeights(1.0, 1.0, 0.0))
    samples = [masked[0], free[1], masked[2], free[3]]
    assert (_trained_bits(train, TOY, samples, {}, train_config)
            == _trained_bits(train_oracle.train, TOY, samples, {}, train_config))
    for train_fn in (train, train_oracle.train):
        with pytest.raises(ContractError, match="not connected to any requires-grad tensor"):
            _trained_bits(train_fn, TOY, free, {}, train_config)


def test_training_step_memory_does_not_grow_with_the_batch(tmp_path):
    # a streamed step of 64 samples runs as 32 + 32, four 8-sample graphs on each
    # process, and one of 16 as 8 + 8, one graph on each: 113 KiB more measured in
    # the caller, against 18.4 MiB more for one 32-sample graph over one of 8
    config = BackboneConfig()
    samples = mixed_samples(65, config.image_size, seed=28)
    text = {"widget": toy_text(config.dim, dtype=np.float32),
            "gadget": toy_text(config.dim, seed=1, dtype=np.float32)}

    def peak(batch_size):
        backbone = init_backbone(config)
        params = init_params(config.dim, seed=11)
        tracemalloc.start()
        try:
            train(backbone, params, samples[:batch_size + 1], text,
                  TrainConfig(batch_size=batch_size, epochs=1, seed=10))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # warm caches
    assert peak(64) - peak(16) <= 256 * 1024


def test_training_rejects_a_mask_that_is_not_zero_or_one():
    samples = toy_samples(2)
    samples[1].mask[0, 0] = 0.5
    backbone, params, text = toy_setup()
    with pytest.raises(DataError, match="only the values 0 and 1"):
        train(backbone, params, samples, text, TrainConfig(batch_size=2, epochs=1))


def test_backbone_untouched_by_training():
    backbone, params, text = toy_setup()
    frozen_before = [w.data.copy() for w in backbone.weight_tensors()]
    train(backbone, params, toy_samples(4, seed=6), text,
          TrainConfig(lr=1e-2, batch_size=2, epochs=2, seed=8))
    for old, new in zip(frozen_before, backbone.weight_tensors()):
        assert np.array_equal(old, new.data)
