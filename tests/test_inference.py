import tracemalloc

import numpy as np
import ops_oracle as ops
import pytest
from forge import forge
from nn_oracle import min_cosine_distance_oracle, normalize_rows_oracle

from mvfa import autograd as ag
from mvfa.adaptation import AdaptedFeatures, init_params, text_probabilities
from mvfa.autograd import Tensor
from mvfa.backbone import BackboneConfig, init_backbone
from mvfa.errors import BankError, ConfigError, FormatError
from mvfa.inference import (AnomalyResult, MemoryBank, build_memory_bank, few_shot,
                            fused_maps, grid_maps, load_bank, load_map, map_to_u8, save_bank,
                            save_map, score_batch, score_image, zero_shot,
                            _min_cosine_distances)

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)


def toy_image(seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (8, 8)).astype(np.float32)


def toy_model(seed=1):
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=seed)
    return backbone, params


def random_features(rng, g=4, d=8):
    """One image's (g, d) rows per level: a chunk of one for the branches."""
    return AdaptedFeatures(
        [rng.standard_normal((g, d)).astype(np.float32) for _ in range(4)],
        [rng.standard_normal((g, d)).astype(np.float32) for _ in range(4)])


def random_bank(rng, rows=12, d=8):
    def store():
        return normalize_rows_oracle(rng.standard_normal((rows, d)).astype(np.float32))
    return MemoryBank([store() for _ in range(4)], [store() for _ in range(4)])


def one_image(branch, out_hw):
    """The image score, (4, h, w) level maps and mean map of a branch's one-image batch."""
    c_levels, grids = branch
    s_levels = grid_maps(grids[0], out_hw)
    return c_levels[0], s_levels, s_levels.mean(axis=0)


# -- memory bank ---------------------------------------------------------------

def test_bank_row_counts_and_norms():
    backbone, params = toy_model()
    for k in (1, 4):
        bank = build_memory_bank([toy_image(s) for s in range(k)], backbone, params)
        for level in range(4):
            assert bank.cls[level].shape == (k * TOY.grid_count, TOY.dim)
            assert bank.seg[level].shape == (k * TOY.grid_count, TOY.dim)
            norms = np.linalg.norm(bank.cls[level], axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-6


def test_empty_bank_errors():
    backbone, params = toy_model()
    with pytest.raises(BankError):
        build_memory_bank([], backbone, params)


# -- zero-shot branch ------------------------------------------------------------

def test_zero_shot_identical_levels_average_to_single_map():
    rng = np.random.default_rng(2)
    shared = rng.standard_normal((4, 8)).astype(np.float32)
    features = AdaptedFeatures([shared] * 4, [shared] * 4)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    c_levels, s_levels, smap = one_image(zero_shot(features, f_text[None], tau=0.07), (8, 8))
    assert np.allclose(smap, s_levels[0], atol=1e-7)
    assert c_levels.mean() == pytest.approx(c_levels[0], rel=1e-6)


def test_zero_shot_aligned_to_abnormal_row_closed_form():
    rng = np.random.default_rng(3)
    tau = 0.07
    t_normal = rng.standard_normal(8)
    t_normal /= np.linalg.norm(t_normal)
    t_abnormal = rng.standard_normal(8)
    t_abnormal /= np.linalg.norm(t_abnormal)
    f_text = np.stack([t_normal, t_abnormal])
    aligned = np.tile(1.7 * t_abnormal, (4, 1))
    features = AdaptedFeatures([aligned] * 4, [aligned] * 4)
    c_levels, _, smap = one_image(zero_shot(features, f_text[None], tau=tau), (8, 8))
    gap = 1.0 - float(t_normal @ t_abnormal)
    expected = 1.0 / (1.0 + np.exp(-gap / tau))
    assert c_levels.mean() == pytest.approx(expected, rel=1e-5)
    assert np.allclose(smap, expected, atol=1e-5)


def test_zero_shot_scores_lie_in_unit_interval():
    rng = np.random.default_rng(4)
    features = random_features(rng)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    c_levels, _, smap = one_image(zero_shot(features, f_text[None], tau=0.07), (8, 8))
    assert 0.0 <= c_levels.mean() <= 1.0
    assert smap.min() >= 0.0 and smap.max() <= 1.0


def test_zero_shot_matches_tensor_ops_bitwise():
    rng = np.random.default_rng(6)
    features = random_features(rng, g=16)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    c_levels, s_levels, _ = one_image(zero_shot(features, f_text[None], tau=0.2), (16, 16))
    text = Tensor(f_text)
    for level in range(4):
        cls = ops.softmax_rows(ops.similarity_logits(Tensor(features.cls[level]), text,
                                                     0.2)).data
        seg = ops.softmax_rows(ops.similarity_logits(Tensor(features.seg[level]), text,
                                                     0.2)).data
        upsampled = ops.bilinear_upsample(Tensor(seg[:, 1].reshape(4, 4)), (16, 16)).data
        assert c_levels[level] == cls[:, 1].max()
        assert s_levels[level].tobytes() == upsampled.astype(np.float64).tobytes()


def test_per_pixel_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    f = rng.standard_normal((16, 8)).astype(np.float32)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    probs, _ = text_probabilities(f, f_text, 0.07)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6


# -- few-shot branch --------------------------------------------------------------

def test_self_query_distances_vanish():
    backbone, params = toy_model()
    image = toy_image(7)
    bank = build_memory_bank([image], backbone, params)
    from mvfa.adaptation import adapt_forward
    from mvfa.autograd import no_grad
    with no_grad():
        features, _ = adapt_forward(backbone, params, image)
    rows = AdaptedFeatures([f.data for f in features.cls], [f.data for f in features.seg])
    c_levels, _, smap = one_image(few_shot(rows, bank, images=1), (8, 8))
    assert c_levels.mean() <= 1e-6
    assert smap.max() <= 1e-6


def test_orthogonal_single_row_bank_gives_distance_one():
    d = 8
    queries = np.zeros((4, d), dtype=np.float32)
    queries[:, 0] = 2.0
    store = np.zeros((1, d), dtype=np.float32)
    store[0, 1] = 1.0
    dist = _min_cosine_distances(queries, store)
    assert np.allclose(dist, 1.0, atol=1e-7)


def test_min_distance_matches_double_loop_oracle_exactly():
    rng = np.random.default_rng(6)
    for _ in range(25):
        queries = rng.standard_normal((4, 8)).astype(np.float32)
        store = normalize_rows_oracle(rng.standard_normal((5, 8)).astype(np.float32))
        mine = _min_cosine_distances(queries, store)
        oracle = min_cosine_distance_oracle(queries, store)
        assert np.array_equal(mine, oracle)


def assert_bitwise_oracle(queries, store):
    mine = _min_cosine_distances(queries, store)
    oracle = min_cosine_distance_oracle(queries, store)
    assert mine.dtype == oracle.dtype
    assert mine.tobytes() == oracle.tobytes()


def unit_rows(rng, rows, d=64, dtype=np.float32):
    return normalize_rows_oracle(rng.standard_normal((rows, d)).astype(dtype))


def test_shortlist_exact_duplicate_store_rows():
    rng = np.random.default_rng(30)
    store = unit_rows(rng, 10)
    store[7] = store[2]
    store = np.concatenate([store, store])
    queries = np.concatenate([3.0 * store[:6], rng.standard_normal((6, 64))]).astype(np.float32)
    assert_bitwise_oracle(queries, store)


def test_shortlist_rows_one_ulp_apart():
    # the rows next to base are within the float32 error bound of each other,
    # so all of them are re-ranked and the elementwise winner decides
    rng = np.random.default_rng(31)
    base = unit_rows(rng, 1)[0]
    rows = [base]
    for _ in range(7):
        rows.append(np.nextafter(rows[-1], np.float32(np.inf)))
    rows += [np.nextafter(base, np.float32(-np.inf)), -base]
    store = np.stack(rows)
    queries = np.concatenate([np.stack([base, rows[3], 2.0 * rows[8]]),
                              base + 1e-4 * rng.standard_normal((9, 64))]).astype(np.float32)
    assert_bitwise_oracle(queries, store)


def test_shortlist_near_tied_rows():
    # rows 1e-8 apart: the GEMM's best row is often several ulps below the
    # elementwise best, so a shortlist without the error bound picks wrong
    for seed in (40, 41):
        rng = np.random.default_rng(seed)
        base = unit_rows(rng, 1)[0]
        store = base + np.float32(1e-8) * rng.standard_normal((32, 64)).astype(np.float32)
        assert_bitwise_oracle(rng.standard_normal((256, 64)).astype(np.float32), store)


def test_shortlist_all_equal_and_single_row_stores():
    rng = np.random.default_rng(32)
    queries = rng.standard_normal((12, 64)).astype(np.float32)
    assert_bitwise_oracle(queries, np.repeat(unit_rows(rng, 1), 9, axis=0))
    assert_bitwise_oracle(queries, unit_rows(rng, 1))


def test_shortlist_signed_zero_similarities():
    # query e0 against rows with a zero first coordinate: every product is
    # +0.0 or -0.0, so the similarities are signed zeros and the distance is 1
    rng = np.random.default_rng(33)
    queries = np.zeros((2, 64), dtype=np.float32)
    queries[0, 0] = 1.0
    queries[1, 0] = -2.0
    magnitudes = np.abs(rng.standard_normal((2, 64))).astype(np.float32)
    magnitudes[:, 0] = 0.0
    store = normalize_rows_oracle(np.stack([-magnitudes[0], magnitudes[1]]))
    assert_bitwise_oracle(queries, store)
    assert np.array_equal(_min_cosine_distances(queries, store), [1.0, 1.0])


def test_shortlist_float64_inputs():
    rng = np.random.default_rng(34)
    queries = rng.standard_normal((16, 64))
    store = unit_rows(rng, 20, dtype=np.float64)
    store[5] = np.nextafter(store[4], np.inf)
    assert_bitwise_oracle(queries, store)
    assert_bitwise_oracle(queries, unit_rows(rng, 20))  # float32 store


def test_shortlist_random_stores_of_unequal_norm():
    # a loaded bank need not be unit-norm; the bound uses the actual norms
    rng = np.random.default_rng(35)
    for scale in (1e-3, 1.0, 40.0):
        store = (scale * rng.standard_normal((24, 64))).astype(np.float32)
        assert_bitwise_oracle(rng.standard_normal((20, 64)).astype(np.float32), store)


def test_shortlist_nan_rows_give_nan_like_an_exhaustive_max():
    rng = np.random.default_rng(36)
    store = unit_rows(rng, 8)
    queries = rng.standard_normal((5, 64)).astype(np.float32)
    queries[2, 10] = np.nan
    dist = _min_cosine_distances(queries, store)
    assert np.isnan(dist[2])
    keep = [0, 1, 3, 4]
    assert dist[keep].tobytes() == min_cosine_distance_oracle(queries[keep], store).tobytes()
    # a NaN store row poisons every query, as np.max over all rows does
    store[3, 0] = np.nan
    assert np.isnan(_min_cosine_distances(queries[keep], store)).all()


def test_shortlist_peak_memory_is_queries_by_rows():
    # the former broadcast held queries x rows x d float32: 256 MiB here
    rng = np.random.default_rng(37)
    queries = rng.standard_normal((256, 64)).astype(np.float32)
    store = unit_rows(rng, 4096)
    tracemalloc.start()
    try:
        _min_cosine_distances(queries, store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


NN_WIDTHS = (1, 2, 3, 8, 64)


def _nn_draws(count=300):
    """Seeded (queries, store) draws for the bank search, in six kinds.

    Gaussian rows; ties (repeated store rows, queries along store rows);
    store rows within 1 ulp of one row; subnormal store rows and query
    entries; NaN and inf query rows, and store rows with one inf entry
    (the queries have no zero there, so no similarity is NaN); one-row
    stores. Widths d run over 1, 2, 3, 8 and 64, and every fourth draw is
    float64.
    """
    rng = np.random.default_rng(2029)
    for draw in range(count):
        d = NN_WIDTHS[draw % len(NN_WIDTHS)]
        dtype = (np.float32, np.float64)[draw % 4 == 3]
        kind = draw % 6
        n_queries, n_rows = int(rng.integers(1, 13)), int(rng.integers(1, 21))
        queries = rng.standard_normal((n_queries, d))
        store = rng.standard_normal((n_rows, d))
        if kind == 1:    # ties
            store[1::2] = store[0]
            queries[::2] = store[rng.integers(n_rows, size=queries[::2].shape[0])] * 3.0
        elif kind == 2:  # rows that differ from one row by at most 1 ulp per entry
            base = store[0].astype(dtype)
            toward = rng.choice([-np.inf, np.inf], (n_rows, d)).astype(dtype)
            store = np.where(rng.uniform(size=(n_rows, d)) < 0.5, base,
                             np.nextafter(base, toward))
            queries[::3] = base
        elif kind == 3:  # subnormal products and entries
            tiny = np.finfo(dtype).smallest_subnormal
            store[::2] = rng.integers(-4, 5, store[::2].shape) * tiny
            queries[:, 1::2] *= rng.choice([1.0, float(tiny)], queries[:, 1::2].shape)
        elif kind == 4:  # non-finite rows
            queries[rng.integers(n_queries), rng.integers(d)] = rng.choice([np.nan, np.inf])
            store[rng.integers(n_rows), rng.integers(d)] = rng.choice([np.inf, -np.inf])
        elif kind == 5:  # one row
            store = store[:1]
        yield queries.astype(dtype), store.astype(dtype)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_min_distance_matches_double_loop_oracle_on_seeded_draws():
    """Each draw's distances keep the bits of the exhaustive double loop.

    300 draws of 1-12 queries against 1-20 rows (see ``_nn_draws``). A NaN
    distance need only be NaN: the sign bit of a NaN is not a result. A
    shortlist without its error bound, ``slack = 0``, fails this test: near
    ties and 1-ulp neighbours make the GEMM's best row differ from the
    elementwise best by a few ulps.
    """
    for queries, store in _nn_draws():
        mine = _min_cosine_distances(queries, store)
        oracle = min_cosine_distance_oracle(queries, store)
        nan = np.isnan(oracle)
        assert mine.dtype == oracle.dtype
        assert np.array_equal(np.isnan(mine), nan)
        assert mine[~nan].tobytes() == oracle[~nan].tobytes()


def test_few_shot_matches_oracle_at_grid_resolution():
    # with out_hw equal to the grid, upsampling is the identity mapping
    rng = np.random.default_rng(7)
    features = random_features(rng)
    bank = random_bank(rng)
    c_levels, s_levels, _ = one_image(few_shot(features, bank, images=1), (2, 2))
    for level in range(4):
        cls_oracle = min_cosine_distance_oracle(features.cls[level], bank.cls[level])
        seg_oracle = min_cosine_distance_oracle(features.seg[level], bank.seg[level])
        assert c_levels[level] == max(cls_oracle)
        assert np.array_equal(s_levels[level], seg_oracle.reshape(2, 2))


def test_adding_bank_rows_never_increases_distances():
    rng = np.random.default_rng(8)
    queries = rng.standard_normal((6, 8)).astype(np.float32)
    store = normalize_rows_oracle(rng.standard_normal((4, 8)).astype(np.float32))
    extra = normalize_rows_oracle(rng.standard_normal((3, 8)).astype(np.float32))
    base = _min_cosine_distances(queries, store)
    grown = _min_cosine_distances(queries, np.concatenate([store, extra]))
    assert (grown <= base + 1e-12).all()


def test_few_shot_distances_lie_in_zero_two():
    rng = np.random.default_rng(9)
    c_levels, _, smap = one_image(few_shot(random_features(rng), random_bank(rng), images=1),
                                  (8, 8))
    assert 0.0 <= c_levels.mean() <= 2.0
    assert smap.min() >= -1e-7 and smap.max() <= 2.0


def test_few_shot_requires_bank():
    rng = np.random.default_rng(10)
    with pytest.raises(BankError):
        few_shot(random_features(rng), None, images=1)
    empty = MemoryBank([np.zeros((0, 8), dtype=np.float32)] * 4,
                       [np.zeros((0, 8), dtype=np.float32)] * 4)
    with pytest.raises(BankError):
        few_shot(random_features(rng), empty, images=1)


# -- fusion ------------------------------------------------------------------------

def scored(beta1, beta2, with_bank=True):
    """Two toy images scored with these weights, against a one-image bank or none."""
    backbone, params = toy_model(seed=5)
    bank = build_memory_bank([toy_image(21)], backbone, params) if with_bank else None
    return score_batch(backbone, params, [toy_image(20), toy_image(22)], [_toy_text()] * 2,
                       bank, beta1, beta2)


def test_fuse_gating_reproduces_branches_exactly():
    for only_zero in scored(1.0, 0.0):
        assert only_zero.c_pred == only_zero.c_zero
        assert np.array_equal(only_zero.s_pred, only_zero.s_levels_zero.mean(axis=0))
    for only_few in scored(0.0, 1.0):
        assert only_few.c_pred == only_few.c_few
        assert np.array_equal(only_few.s_pred, only_few.s_levels_few.mean(axis=0))


def test_fuse_arithmetic_and_zero_weights():
    for half in scored(0.5, 0.5):
        assert half.c_pred == 0.5 * half.c_zero + 0.5 * half.c_few
    for nothing in scored(0.0, 0.0):
        assert nothing.c_pred == 0.0
        assert np.array_equal(nothing.s_pred, np.zeros((8, 8)))


def test_fuse_validates_weights_and_bank():
    """score_batch checks the weights once, after the branches, as fusing each image did.

    A negative or NaN weight is a ConfigError with a bank and without one;
    beta2 > 0 without a bank, an empty bank and a bank of another width are
    BankErrors, and the bank's own errors come before the weights'. No
    images score to [] without any check.
    """
    backbone, params = toy_model(seed=5)
    bank = build_memory_bank([toy_image(21)], backbone, params)
    empty = MemoryBank([np.zeros((0, TOY.dim), dtype=np.float32)] * 4,
                       [np.zeros((0, TOY.dim), dtype=np.float32)] * 4)
    narrow = MemoryBank([s[:, :4] for s in bank.cls], [s[:, :4] for s in bank.seg])
    images, texts = [toy_image(20), toy_image(22)], [_toy_text()] * 2
    for bad in (-0.1, np.nan):
        for betas in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(ConfigError, match="fusion weights must be nonnegative"):
                score_batch(backbone, params, images, texts, bank, *betas)
        with pytest.raises(ConfigError, match="fusion weights must be nonnegative"):
            score_batch(backbone, params, images, texts, None, bad, 0.0)
        with pytest.raises(ConfigError, match="fusion weights must be nonnegative"):
            score_batch(backbone, params, images, texts, None, 0.5, bad)
    with pytest.raises(BankError, match="beta2 > 0 requires a memory bank"):
        score_batch(backbone, params, images, texts, None, 0.5, 0.5)
    for unusable, message in ((empty, "non-empty memory bank"), (narrow, "width 4")):
        for betas in ((0.5, 0.5), (-0.1, 0.5)):
            with pytest.raises(BankError, match=message):
                score_batch(backbone, params, images, texts, unusable, *betas)
    for with_bank in (bank, empty, None):
        assert score_batch(backbone, params, [], [], with_bank, np.nan, -1.0) == []
    gated = score_batch(backbone, params, images, texts, None, 1.0, 0.0)
    assert all(r.c_few is None and r.c_levels_few is None and r.grids_few is None
               and r.s_levels_few is None for r in gated)


def test_fused_map_is_mean_of_per_level_maps():
    # level-ensemble contract on real branch outputs, not synthetic fixtures
    for result in scored(0.5, 0.5):
        recomputed = (0.5 * result.s_levels_zero.mean(axis=0)
                      + 0.5 * result.s_levels_few.mean(axis=0))
        assert np.allclose(result.s_pred, recomputed, atol=1e-12)
        assert result.c_pred == pytest.approx(
            0.5 * result.c_levels_zero.mean() + 0.5 * result.c_levels_few.mean(), abs=1e-12)


def _bits(arr):
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("count", [1, 16, 17])
@pytest.mark.parametrize("with_bank", [False, True], ids=["zero_only", "bank"])
def test_fused_maps_have_the_bits_of_the_expressions_they_replace(count, with_bank):
    """s_pred and every map fused_maps yields keep the bits of blending the branch maps.

    A level's map, yielded first, is ``beta1 * s_levels_zero[l] + beta2 *
    s_levels_few[l]`` and a result's map, yielded last, ``beta1 *
    s_levels_zero.mean(axis=0) + beta2 * s_levels_few.mean(axis=0)``, each made
    per image from its (4, h, w) stack of level maps; without a bank only
    the beta1 term. A third of the branch draws holds a NaN grid cell, and
    another third tied grids of 0.5 and signed zeros.
    """
    rng = np.random.default_rng(40 + count)
    beta1, beta2 = (0.3, 0.7) if with_bank else (0.9, 0.0)
    side, out_hw = 4, (10, 7)

    def branch(kind):
        grids = rng.uniform(0, 2, (4, side * side)).astype(np.float32)
        if kind == 1:
            grids[rng.integers(4), rng.integers(side * side)] = np.nan
        elif kind == 2:
            grids[:] = rng.choice(np.array([0.0, -0.0, 0.5], dtype=np.float32), side * side)
        return float(rng.uniform()), rng.uniform(size=4), grids

    # c_pred is not read by the maps
    results = [AnomalyResult(0.0, *branch(i % 3),
                             *(branch((i + 1) % 3) if with_bank else (None,) * 3),
                             beta1, beta2, out_hw) for i in range(count)]
    *levels, mean = fused_maps(results, beta1, beta2)
    assert len(levels) == 4
    assert all(m.shape == (count,) + out_hw and m.dtype == np.float64 for m in levels + [mean])
    for r, fused in zip(results, mean):
        expected = beta1 * r.s_levels_zero.mean(axis=0)
        if with_bank:
            expected = (beta1 * r.s_levels_zero.mean(axis=0)
                        + beta2 * r.s_levels_few.mean(axis=0))
        assert _bits(r.s_pred) == _bits(fused) == _bits(expected)
    for level in range(4):
        for r, fused in zip(results, levels[level]):
            expected = beta1 * r.s_levels_zero[level]
            if with_bank:
                expected = beta1 * r.s_levels_zero[level] + beta2 * r.s_levels_few[level]
            assert _bits(fused) == _bits(expected)
    assert any(np.isnan(r.s_pred).any() for r in results) == (count > 1 or with_bank)


def test_ranking_invariant_under_common_beta_rescaling():
    rng = np.random.default_rng(13)
    pairs = [(rng.uniform(0, 1), rng.uniform(0, 2)) for _ in range(32)]
    base = np.array([0.5 * a + 0.5 * b for a, b in pairs])
    scaled = np.array([1.7 * 0.5 * a + 1.7 * 0.5 * b for a, b in pairs])
    assert np.array_equal(np.argsort(base, kind="stable"),
                          np.argsort(scaled, kind="stable"))


def test_score_image_end_to_end_and_zero_only():
    backbone, params = toy_model(seed=5)
    image = toy_image(20)
    bank = build_memory_bank([toy_image(21)], backbone, params)
    fused = score_image(backbone, params, image, _toy_text(), bank=bank)
    assert fused.c_few is not None
    zero_only = score_image(backbone, params, image, _toy_text(), bank=None,
                            beta1=1.0, beta2=0.0)
    assert zero_only.c_pred == zero_only.c_zero


def _toy_text():
    from mvfa.textbank import PromptSet, build_text_features
    prompts = PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                        templates=["a photo of a [c]."])
    return build_text_features(prompts, "widget", 0, TOY.dim).f_text


# -- file formats -------------------------------------------------------------------

def test_bank_round_trip_is_byte_exact(tmp_path):
    rng = np.random.default_rng(14)
    bank = random_bank(rng, rows=9)
    path = tmp_path / "bank.bin"
    save_bank(path, bank)
    loaded = load_bank(path)
    for level in range(4):
        assert np.array_equal(bank.cls[level], loaded.cls[level])
        assert np.array_equal(bank.seg[level], loaded.seg[level])
    assert loaded.checkpoint is None
    second = tmp_path / "bank2.bin"
    save_bank(second, loaded)
    assert path.read_bytes() == second.read_bytes()
    bank.checkpoint = "ab" * 32
    save_bank(path, bank)
    assert load_bank(path).checkpoint == bank.checkpoint


@pytest.mark.parametrize("edit, message", [
    (lambda h: h.update(checkpoint=7), "a bank holds"),
    (lambda h: h.update(k=4), "a bank holds"),
    (lambda h: h.pop("checkpoint"), "a bank holds"),
    (lambda h: h["tensors"].reverse(), "a bank holds"),
    (lambda h: h["tensors"][0].__setitem__(1, [16]), "a bank holds"),
    (lambda h: h.update(kind="map"), "not a bank file"),
], ids=["digest_type", "extra_key", "no_digest", "order", "rank", "kind"])
def test_load_bank_rejects_a_sealed_header_it_cannot_use(tmp_path, edit, message):
    # each file carries a valid digest, so the header's own checks must catch it
    path = tmp_path / "bank.bin"
    save_bank(path, random_bank(np.random.default_rng(16), rows=2))
    with pytest.raises(FormatError, match=message):
        load_bank(forge(path, edit))


@pytest.mark.parametrize("edit", [
    lambda h: h.update(h=6),
    lambda h: h["tensors"][0].__setitem__(1, [42]),
    lambda h: h["tensors"][0].__setitem__(0, "scores"),
], ids=["extra_key", "rank", "name"])
def test_load_map_rejects_a_sealed_header_it_cannot_use(tmp_path, edit):
    path = tmp_path / "scores.map"
    save_map(path, np.zeros((6, 7)))
    with pytest.raises(FormatError, match="a map holds one"):
        load_map(forge(path, edit))


def test_load_bank_rejects_non_finite_rows(tmp_path):
    rng = np.random.default_rng(39)
    for value in (np.nan, np.inf):
        bank = random_bank(rng, rows=3)
        bank.seg[2][1, 4] = value
        path = tmp_path / "bank.bin"
        save_bank(path, bank)
        with pytest.raises(FormatError, match="non-finite value in tensor 'level3.seg'"):
            load_bank(path)


def test_map_round_trip_and_pgm_rendering(tmp_path):
    rng = np.random.default_rng(15)
    scores = rng.standard_normal((6, 7)).astype(np.float32)
    path = tmp_path / "scores.map"
    save_map(path, scores)
    assert np.array_equal(load_map(path), scores)
    rendered = map_to_u8(scores)
    assert rendered.dtype == np.uint8
    assert rendered.min() == 0 and rendered.max() == 255
    assert np.array_equal(map_to_u8(np.zeros((3, 3))), np.zeros((3, 3), dtype=np.uint8))


# -- batched scoring ------------------------------------------------------------------

RESULT_FIELDS = ("c_pred", "s_pred", "c_zero", "c_few", "c_levels_zero", "s_levels_zero",
                 "c_levels_few", "s_levels_few")


def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_score_batch_equals_per_image_scoring_bitwise():
    import eval_oracle
    from mvfa.adaptation import adapt_forward
    from mvfa.autograd import no_grad
    from mvfa.textbank import build_text_features, default_prompt_set

    config = BackboneConfig()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=7)
    rng = np.random.default_rng(16)
    images = [rng.uniform(-1, 1, (64, 64)).astype(np.float32) for _ in range(19)]
    refs, images = images[:2], images[2:]
    bank = build_memory_bank(refs, backbone, params)
    # the batched bank equals one forward pass per reference
    with no_grad():
        own = [adapt_forward(backbone, params, image)[0] for image in refs]
    for level in range(4):
        for got, side in ((bank.cls[level], "cls"), (bank.seg[level], "seg")):
            rows = [ag.unit_rows(getattr(f, side)[level].data.astype(np.float32))[0]
                    for f in own]
            assert _same(got, np.concatenate(rows))

    texts = [build_text_features(default_prompt_set(), m, 0, config.dim).f_text
             for m in ("texture-a", "texture-b")]
    f_texts = [texts[i % 2] for i in range(len(images))]
    for scoring_bank in (bank, None):
        betas = (0.5, 0.5) if scoring_bank is not None else (1.0, 0.0)
        batch = score_batch(backbone, params, images, f_texts, scoring_bank, *betas, 0.2)
        assert len(batch) == len(images) == 17
        for image, f_text, got in zip(images, f_texts, batch):
            alone = score_image(backbone, params, image, f_text, scoring_bank, *betas, 0.2)
            oracle = eval_oracle.score_image(backbone, params, image, f_text,
                                             scoring_bank, *betas, 0.2)
            assert _same(got.c_pred, alone.c_pred) and _same(got.s_pred, alone.s_pred)
            assert got.out_hw == alone.out_hw == (64, 64)
            for field in RESULT_FIELDS + ("grids_zero", "grids_few"):
                assert _same(getattr(got, field), getattr(alone, field)), field
            for field in RESULT_FIELDS:
                assert _same(getattr(got, field), getattr(oracle, field)), field


@pytest.fixture(scope="module")
def default_model():
    """Reference-size model and bank, two modalities' texts, 18 test images."""
    from mvfa.textbank import build_text_features, default_prompt_set
    config = BackboneConfig()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=7)
    rng = np.random.default_rng(17)
    images = [rng.uniform(-1, 1, (64, 64)).astype(np.float32) for _ in range(20)]
    bank = build_memory_bank(images[:2], backbone, params)
    texts = [build_text_features(default_prompt_set(), m, 0, config.dim).f_text
             for m in ("texture-a", "texture-b")]
    return backbone, params, bank, texts, images[2:]


def test_a_scored_chunk_peaks_below_2_25_mib_above_its_inputs():
    """One CHUNK of default-size images scored against a K=4 bank.

    The forward pass and the bank search each run with the chunk's eight
    (CHUNK * N, d) feature arrays, 1 MiB, held. 2.80 MiB was measured while
    ``score_batch`` kept the four raw stage outputs through both branches
    and the search held the GEMM's (rows, bank rows) product, a float32 copy
    of the rows and three (pairs, d) arrays; 2.00 MiB once each is released
    after its last use, the forward pass's stage-4 blocks being the peak.
    """
    from mvfa.inference import CHUNK
    from mvfa.textbank import build_text_features, default_prompt_set

    config = BackboneConfig()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=7)
    rng = np.random.default_rng(23)
    images = [rng.uniform(-1, 1, (64, 64)).astype(np.float32) for _ in range(4 + CHUNK)]
    bank = build_memory_bank(images[:4], backbone, params)
    f_texts = [build_text_features(default_prompt_set(), "texture-c", 0, config.dim).f_text
               ] * CHUNK
    score_batch(backbone, params, images[4:], f_texts, bank, 0.5, 0.5, 0.2)  # warm caches
    tracemalloc.start()
    try:
        score_batch(backbone, params, images[4:], f_texts, bank, 0.5, 0.5, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2 ** 20


@pytest.mark.parametrize("with_bank", [True, False], ids=["bank", "no-bank"])
@pytest.mark.parametrize("count", [1, 16])
def test_score_batch_chunk_equals_eval_oracle_on_every_field(default_model, count,
                                                              with_bank):
    # a chunk of 17 is checked by test_score_batch_equals_per_image_scoring_bitwise
    import eval_oracle
    backbone, params, bank, texts, images = default_model
    bank, betas = (bank, (0.5, 0.5)) if with_bank else (None, (1.0, 0.0))
    images = images[:count]
    f_texts = [texts[i % 3 % 2] for i in range(count)]
    batch = score_batch(backbone, params, images, f_texts, bank, *betas, 0.2)
    assert len(batch) == count
    for image, f_text, got in zip(images, f_texts, batch):
        oracle = eval_oracle.score_image(backbone, params, image, f_text, bank,
                                         *betas, 0.2)
        for field in RESULT_FIELDS:
            assert _same(getattr(got, field), getattr(oracle, field)), field


def test_score_batch_nan_image_reaches_only_its_own_scores(default_model):
    backbone, params, bank, texts, images = default_model
    images = [image.copy() for image in images[:16]]
    images[5][10, 20] = np.nan
    batch = score_batch(backbone, params, images, [texts[0]] * 16, bank, 0.5, 0.5, 0.2)
    assert np.isnan(batch[5].c_pred) and np.isnan(batch[5].s_pred).all()
    for index, (image, got) in enumerate(zip(images, batch)):
        if index != 5:
            alone = score_image(backbone, params, image, texts[0], bank, 0.5, 0.5, 0.2)
            for field in RESULT_FIELDS:
                assert _same(getattr(got, field), getattr(alone, field)), (index, field)


def test_score_batch_rejects_unpaired_text_and_takes_no_images():
    from mvfa.errors import ContractError
    backbone, params = toy_model()
    with pytest.raises(ContractError, match="2 images but 1 text"):
        score_batch(backbone, params, [toy_image(1), toy_image(2)], [_toy_text()])
    assert score_batch(backbone, params, [], []) == []


def _score_batch_draws(count=100):
    """Seeded (images, f_texts, bank, beta1, beta2, tau) draws on the toy model.

    Draw i scores a chunk of i % 40 + 1 images, so every size from 1 to 40
    appears, on both sides of 16/17; every other draw has a bank. Each image
    takes one of three modalities' text pairs. beta1 (and, with a bank,
    beta2) is 0, 1 or a uniform draw; without a bank beta2 is 0. Some chunks
    repeat an image, and some hold constant images.
    """
    from mvfa.textbank import build_text_features, default_prompt_set
    rng = np.random.default_rng(2031)
    backbone, params = toy_model()
    bank = build_memory_bank([rng.uniform(-1, 1, (8, 8)).astype(np.float32)
                              for _ in range(3)], backbone, params)
    texts = [build_text_features(default_prompt_set(), m, 0, TOY.dim).f_text
             for m in ("widget", "gadget", "gizmo")]

    def beta():
        return (0.0, 1.0, float(rng.uniform()))[int(rng.integers(3))]

    for draw in range(count):
        size = draw % 40 + 1
        images = [rng.uniform(-1, 1, (8, 8)).astype(np.float32) for _ in range(size)]
        if draw % 3 == 1:
            images[int(rng.integers(size))] = images[0]
        elif draw % 3 == 2:
            images[-1] = np.full((8, 8), rng.uniform(-1, 1), dtype=np.float32)
        f_texts = [texts[int(rng.integers(3))] for _ in range(size)]
        with_bank = draw % 2 == 0
        yield (backbone, params, images, f_texts, bank if with_bank else None, beta(),
               beta() if with_bank else 0.0, float(rng.choice([0.07, 0.2, 1.0])))


def test_score_batch_matches_eval_oracle_on_seeded_draws():
    """Every result field of each draw keeps the per-image oracle's bits.

    ``eval_oracle.score_image`` scores one image alone at full resolution in
    float64. The first, the last and one random image of each chunk are
    checked. Each of these changes to ``mvfa.inference`` fails this test:
    ``zero_shot`` scoring every image against the first image's text pair;
    ``score_batch`` weighting the few-shot branch by beta1; ``few_shot`` cutting the
    distances as ``reshape(-1, images).T``; ``zero_shot`` viewing the rows
    as ``reshape(-1, len(f_texts), d).swapaxes(0, 1)``.
    """
    import eval_oracle
    rng = np.random.default_rng(2032)
    for backbone, params, images, f_texts, bank, beta1, beta2, tau in _score_batch_draws():
        batch = score_batch(backbone, params, images, f_texts, bank, beta1, beta2, tau)
        assert len(batch) == len(images)
        for i in sorted({0, len(images) - 1, int(rng.integers(len(images)))}):
            oracle = eval_oracle.score_image(backbone, params, images[i], f_texts[i], bank,
                                             beta1, beta2, tau)
            for field in RESULT_FIELDS:
                assert _same(getattr(batch[i], field), getattr(oracle, field)), (i, field)
