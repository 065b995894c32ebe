import tracemalloc

import numpy as np
import ops_oracle as ops
import pytest
from nn_oracle import min_cosine_distance_oracle, normalize_rows_oracle

from mvfa import autograd as ag
from mvfa.adaptation import AdaptedFeatures, init_params, text_probabilities
from mvfa.autograd import Tensor
from mvfa.backbone import BackboneConfig, init_backbone
from mvfa.errors import BankError, ConfigError, FormatError
from mvfa.inference import (MemoryBank, build_memory_bank, few_shot, fuse, load_bank,
                            load_map, map_to_u8, save_bank, save_map, score_image,
                            zero_shot, BranchScores, _min_cosine_distances)

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
    scores = zero_shot(features, f_text[None], tau=0.07, out_hw=(8, 8))[0]
    assert np.allclose(scores.smap, scores.s_levels[0], atol=1e-7)
    assert scores.c == pytest.approx(scores.c_levels[0], rel=1e-6)


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
    scores = zero_shot(features, f_text[None], tau=tau, out_hw=(8, 8))[0]
    gap = 1.0 - float(t_normal @ t_abnormal)
    expected = 1.0 / (1.0 + np.exp(-gap / tau))
    assert scores.c == pytest.approx(expected, rel=1e-5)
    assert np.allclose(scores.smap, expected, atol=1e-5)


def test_zero_shot_scores_lie_in_unit_interval():
    rng = np.random.default_rng(4)
    features = random_features(rng)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    scores = zero_shot(features, f_text[None], tau=0.07, out_hw=(8, 8))[0]
    assert 0.0 <= scores.c <= 1.0
    assert scores.smap.min() >= 0.0 and scores.smap.max() <= 1.0


def test_zero_shot_matches_tensor_ops_bitwise():
    rng = np.random.default_rng(6)
    features = random_features(rng, g=16)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    scores = zero_shot(features, f_text[None], tau=0.2, out_hw=(16, 16))[0]
    text = Tensor(f_text)
    for level in range(4):
        cls = ops.softmax_rows(ops.similarity_logits(Tensor(features.cls[level]), text,
                                                     0.2)).data
        seg = ops.softmax_rows(ops.similarity_logits(Tensor(features.seg[level]), text,
                                                     0.2)).data
        upsampled = ops.bilinear_upsample(Tensor(seg[:, 1].reshape(4, 4)), (16, 16)).data
        assert scores.c_levels[level] == cls[:, 1].max()
        assert scores.s_levels[level].tobytes() == upsampled.astype(np.float64).tobytes()


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
    scores = few_shot(rows, bank, out_hw=(8, 8), images=1)[0]
    assert scores.c <= 1e-6
    assert scores.smap.max() <= 1e-6


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
    scores = few_shot(features, bank, out_hw=(2, 2), images=1)[0]
    for level in range(4):
        cls_oracle = min_cosine_distance_oracle(features.cls[level], bank.cls[level])
        seg_oracle = min_cosine_distance_oracle(features.seg[level], bank.seg[level])
        assert scores.c_levels[level] == max(cls_oracle)
        assert np.array_equal(scores.s_levels[level], seg_oracle.reshape(2, 2))


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
    scores = few_shot(random_features(rng), random_bank(rng), out_hw=(8, 8), images=1)[0]
    assert 0.0 <= scores.c <= 2.0
    assert scores.smap.min() >= -1e-7 and scores.smap.max() <= 2.0


def test_few_shot_requires_bank():
    rng = np.random.default_rng(10)
    with pytest.raises(BankError):
        few_shot(random_features(rng), None, out_hw=(8, 8), images=1)
    empty = MemoryBank([np.zeros((0, 8), dtype=np.float32)] * 4,
                       [np.zeros((0, 8), dtype=np.float32)] * 4)
    with pytest.raises(BankError):
        few_shot(random_features(rng), empty, out_hw=(8, 8), images=1)


# -- fusion ------------------------------------------------------------------------

def branch_scores(seed=11):
    # consistent with the real branches: the map/score are the level means
    rng = np.random.default_rng(seed)
    z_grids = rng.uniform(0, 1, (4, 16))
    zc_levels = rng.uniform(0, 1, 4)
    zero = BranchScores(0.8, zc_levels, z_grids, (8, 8))
    f_grids = rng.uniform(0, 2, (4, 16))
    fc_levels = rng.uniform(0, 2, 4)
    few = BranchScores(0.4, fc_levels, f_grids, (8, 8))
    return zero, few


def test_fuse_gating_reproduces_branches_exactly():
    zero, few = branch_scores()
    only_zero = fuse(zero, few, 1.0, 0.0)
    assert only_zero.c_pred == zero.c
    assert np.array_equal(only_zero.s_pred, zero.smap)
    only_few = fuse(zero, few, 0.0, 1.0)
    assert only_few.c_pred == few.c
    assert np.array_equal(only_few.s_pred, few.smap)


def test_fuse_arithmetic_and_zero_weights():
    zero, few = branch_scores()
    half = fuse(zero, few, 0.5, 0.5)
    assert half.c_pred == pytest.approx(0.6, abs=1e-12)
    nothing = fuse(zero, few, 0.0, 0.0)
    assert nothing.c_pred == 0.0
    assert np.array_equal(nothing.s_pred, np.zeros((8, 8)))


def test_fuse_validates_weights_and_bank():
    zero, few = branch_scores()
    with pytest.raises(ConfigError):
        fuse(zero, few, -0.1, 0.5)
    with pytest.raises(BankError):
        fuse(zero, None, 0.5, 0.5)
    gated = fuse(zero, None, 1.0, 0.0)
    assert gated.c_few is None


def test_fused_map_is_mean_of_per_level_maps():
    # level-ensemble contract on real branch outputs, not synthetic fixtures
    rng = np.random.default_rng(12)
    features = random_features(rng)
    f_text = rng.standard_normal((2, 8)).astype(np.float32)
    zero = zero_shot(features, f_text[None], tau=0.07, out_hw=(8, 8))[0]
    few = few_shot(features, random_bank(rng), out_hw=(8, 8), images=1)[0]
    result = fuse(zero, few, 0.5, 0.5)
    recomputed = (0.5 * result.s_levels_zero.mean(axis=0)
                  + 0.5 * result.s_levels_few.mean(axis=0))
    assert np.allclose(result.s_pred, recomputed, atol=1e-12)
    assert result.c_pred == pytest.approx(
        0.5 * result.c_levels_zero.mean() + 0.5 * result.c_levels_few.mean(), abs=1e-12)


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
    second = tmp_path / "bank2.bin"
    save_bank(second, loaded)
    assert path.read_bytes() == second.read_bytes()


def test_load_bank_rejects_non_finite_rows(tmp_path):
    rng = np.random.default_rng(39)
    for value in (np.nan, np.inf):
        bank = random_bank(rng, rows=3)
        bank.seg[2][1, 4] = value
        path = tmp_path / "bank.bin"
        save_bank(path, bank)
        with pytest.raises(FormatError, match="non-finite value in the level 3 seg rows"):
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

def _same(a, b):
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_score_batch_equals_per_image_scoring_bitwise():
    import eval_oracle
    from mvfa.adaptation import adapt_forward
    from mvfa.autograd import no_grad
    from mvfa.inference import score_batch
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
            for mine, single in ((got.zero, alone.zero), (got.few, alone.few)):
                assert (mine is None) == (single is None)
                if mine is not None:
                    assert mine.out_hw == single.out_hw == (64, 64)
                    for field in ("c", "c_levels", "grids", "s_levels", "smap"):
                        assert _same(getattr(mine, field), getattr(single, field)), field
            for field in ("c_pred", "s_pred", "c_zero", "s_zero", "c_few", "s_few",
                          "c_levels_zero", "s_levels_zero", "c_levels_few",
                          "s_levels_few"):
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


RESULT_FIELDS = ("c_pred", "s_pred", "c_zero", "s_zero", "c_few", "s_few",
                 "c_levels_zero", "s_levels_zero", "c_levels_few", "s_levels_few")


@pytest.mark.parametrize("with_bank", [True, False], ids=["bank", "no-bank"])
@pytest.mark.parametrize("count", [1, 16])
def test_score_batch_chunk_equals_eval_oracle_on_every_field(default_model, count,
                                                              with_bank):
    # a chunk of 17 is checked by test_score_batch_equals_per_image_scoring_bitwise
    import eval_oracle
    from mvfa.inference import score_batch
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
    from mvfa.inference import score_batch
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
    from mvfa.inference import score_batch
    backbone, params = toy_model()
    with pytest.raises(ContractError, match="2 images but 1 text"):
        score_batch(backbone, params, [toy_image(1), toy_image(2)], [_toy_text()])
    assert score_batch(backbone, params, [], []) == []
