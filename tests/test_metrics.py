import os
import pickle
import tracemalloc

import auc_oracle
import eval_oracle
import numpy as np
import pytest
from calllog import count_forks, logged, read_lines

from mvfa import inference, worker
from mvfa.adaptation import init_params
from mvfa.backbone import BackboneConfig, init_backbone
from mvfa.data import LoadedSample, ModalityProfile, SynthConfig, few_shot_split, \
    gen_dataset, load_manifest, load_samples
from mvfa.errors import DataError, MetricError
from mvfa.inference import CHUNK, build_memory_bank
from mvfa.metrics import Report, _ChunkedAUC, auc, evaluate, score_samples
from mvfa.textbank import default_prompt_set, build_text_features

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)


def auc_pairwise_oracle(scores, labels):
    """Brute force: wins plus half ties over all positive/negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_perfect_separation():
    assert auc([0.1, 0.9], [0, 1]) == 1.0


def test_auc_all_equal_scores_is_half():
    assert auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5


def test_auc_example_with_pairwise_oracle():
    scores, labels = [0.4, 0.3, 0.8], [1, 0, 0]
    assert auc(scores, labels) == pytest.approx(0.5, abs=1e-15)
    assert auc(scores, labels) == pytest.approx(auc_pairwise_oracle(scores, labels),
                                                abs=1e-15)


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 1)  # heavy ties
        assert abs(auc(scores, labels) - auc_pairwise_oracle(scores, labels)) <= 1e-12


def test_auc_monotone_transform_invariance():
    rng = np.random.default_rng(18)
    scores = np.round(rng.uniform(0, 1, 40), 1)
    labels = rng.integers(0, 2, 40)
    labels[0], labels[1] = 0, 1
    base = auc(scores, labels)
    assert auc(0.5 * scores, labels) == base
    assert auc(auc_oracle.midranks(scores), labels) == base


def test_auc_negation_symmetry():
    rng = np.random.default_rng(19)
    scores = rng.uniform(0, 1, 30)
    labels = rng.integers(0, 2, 30)
    labels[0], labels[1] = 0, 1
    assert abs((1.0 - auc(scores, labels)) - auc(-scores, labels)) <= 1e-12


def test_auc_duplication_invariance():
    scores = [0.2, 0.7, 0.7, 0.1]
    labels = [0, 1, 0, 1]
    assert auc(scores + scores, labels + labels) == pytest.approx(
        auc(scores, labels), abs=1e-12)


def test_auc_single_class_errors():
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(MetricError):
        auc([0.1, 0.2], [0, 0])


def test_midranks_average_tied_groups():
    assert np.array_equal(auc_oracle.midranks([0.1, 0.3, 0.1]), [1.5, 3.0, 1.5])


def midranks_loop_oracle(values):
    """The original run-by-run loop: each run extends while values equal its first."""
    v = np.asarray(values, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    ranks = np.empty(v.size, dtype=np.float64)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and v[order[j + 1]] == v[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


@pytest.mark.parametrize("values", [
    np.random.default_rng(4).integers(0, 7, 500).astype(float),
    np.random.default_rng(5).standard_normal(300),
    np.full(40, 0.25),
    [3.5],
    [],
    [0.0, -0.0, 1.0, -0.0, 0.0],
    [np.nan, 1.0, np.nan, -1.0, 1.0, np.inf, -np.inf, np.nan],
], ids=["ties", "distinct", "all-equal", "single", "empty", "signed-zeros", "nan-inf"])
def test_midranks_equal_loop_oracle_bitwise(values):
    got = auc_oracle.midranks(values)
    assert got.dtype == np.float64
    assert np.array_equal(got, midranks_loop_oracle(values))


def _auc_cases():
    """Seeded (scores, labels) pairs: the value patterns a ranking can get wrong."""
    rng = np.random.default_rng(2026)
    tiny = np.finfo(np.float64).smallest_subnormal
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1.0,
                         np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)])
    for case in range(360):
        n = int(rng.integers(2, 120))
        kind = case % 6
        if kind == 0:    # heavy ties
            scores = rng.integers(0, 4, n).astype(np.float64)
        elif kind == 1:  # signed zeros among a few values
            scores = rng.choice([0.0, -0.0, 1.0, -1.0], n)
        elif kind == 2:  # runs of 1-ulp neighbours
            base = rng.standard_normal()
            scores = base + rng.integers(-3, 4, n) * np.spacing(base)
        elif kind == 3:  # subnormals and signed zeros
            scores = rng.integers(-3, 4, n) * tiny * rng.choice([1.0, -1.0], n)
        elif kind == 4:  # infinities, NaN and the rest
            scores = rng.choice(specials, n)
        else:            # NaN in both classes
            scores = np.round(rng.standard_normal(n), 1)
            scores[rng.uniform(size=n) < 0.3] = np.nan
        labels = rng.integers(0, 2, n)
        if case % 7 == 3:
            labels[:] = 0
            labels[rng.integers(n)] = 1
        elif case % 7 == 5:
            labels[:] = 1
            labels[rng.integers(n)] = 0
        elif kind == 5:
            labels[:2] = (0, 1)
            scores[:2] = np.nan
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        yield scores, labels
    # one pooled test set: 100 images of 64 x 64 pixels, ties and a few NaNs
    n = 100 * 64 * 64
    scores = np.round(rng.standard_normal(n), 3)
    scores[rng.integers(0, n, 20)] = np.nan
    yield scores, (rng.uniform(size=n) < 0.1).astype(np.float32)


def test_auc_and_midranks_equal_the_argsort_oracle_bitwise():
    """The exact count gives the argsort ranking's bits, case by case.

    Each of these changes to ``metrics._ChunkedAUC`` fails this test:
    ``side="right"`` for a positive's left bound among the negatives, ties
    counted as wins, and the NaN positives' wins over the numeric negatives
    (``2 * nan_pos * numeric_neg`` in ``auc()``) dropped.
    """
    for scores, labels in _auc_cases():
        assert auc(scores, labels).hex() == auc_oracle.auc(scores, labels).hex()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_auc_and_midranks_leave_their_input_bytes_unchanged(dtype):
    # auc sorts copies of the scores, never the caller's array
    scores = np.array([0.5, np.nan, -0.0, 0.0, 0.5, -1.0, np.nan, np.inf, 0.0, -0.0],
                      dtype=dtype)
    for labels in (np.array([1, 0, 1, 0, 0, 1, 1, 0, 0, 1]),
                   np.array([1, 0, 1, 0, 0, 1, 1, 0, 0, 1], dtype=bool)):
        before = scores.tobytes(), labels.tobytes()
        assert auc(scores, labels).hex() == auc_oracle.auc(scores, labels).hex()
        assert (scores.tobytes(), labels.tobytes()) == before


def test_auc_of_a_pooled_test_set_peaks_below_an_argsort():
    # the argsort ranking peaks at 10.2 MiB here: an int64 permutation plus
    # float64 work arrays of every pixel
    rng = np.random.default_rng(21)
    scores = rng.standard_normal(100 * 64 * 64)
    labels = (rng.uniform(size=scores.size) < 0.1).astype(np.float32)  # as masks pool
    tracemalloc.start()
    try:
        value = auc(scores, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == auc_oracle.auc(scores, labels)
    assert peak < 8 * 2 ** 20


def _chunked_auc(scores, labels, size, rng):
    """``_ChunkedAUC`` of (images, pixels) arrays fed ``size`` images at a time.

    The positives are handed over shuffled and in three parts: their order
    must not matter.
    """
    counter = _ChunkedAUC(np.array_split(rng.permutation(scores[labels]), 3))
    for start in range(0, len(scores), size):
        counter.add(scores[start:start + size], labels[start:start + size])
    return counter.auc()


def _pooled_auc(scores, labels):
    try:
        return auc(scores.reshape(-1), labels.reshape(-1)).hex()
    except MetricError:
        return None


@pytest.mark.parametrize("size", [1, 3, CHUNK])
def test_chunked_auc_has_the_bits_of_auc_of_the_pool(size):
    """The chunked count returns auc's float for the concatenated pool.

    The draws take few distinct values, so ties straddle chunk edges, and
    -0.0 against +0.0. NaN falls in both classes. The fixed pool splits a
    run of four NaNs across images, and its NaN positives come before,
    between and after NaN negatives in pool order.
    """
    rng = np.random.default_rng(60 + size)
    values = np.array([-0.0, 0.0, 0.25, 0.5, 0.5, 1.0, np.nan, -np.inf])
    pools = []
    for _ in range(20):
        scores = rng.choice(values, (int(rng.integers(1, 12)), 5))
        scores[rng.uniform(size=scores.shape) < 0.3] = rng.standard_normal()
        labels = rng.uniform(size=scores.shape) < rng.uniform(0.05, 0.6)
        labels.flat[rng.permutation(labels.size)[:2]] = True, False  # both classes
        pools.append((scores, labels))
    nan = np.nan
    pools.append((np.array([[0.5, nan, nan], [nan, nan, 0.2], [nan, -0.0, 0.0],
                            [0.0, nan, 1.0], [nan, 0.5, nan]]),
                  np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 0, 0]], bool)))
    single = rng.choice(values[:6], (7, 4))
    pools.append((single, np.arange(single.size).reshape(single.shape) == 13))
    pools.append((single, np.ones(single.shape, bool)))   # one class: None
    pools.append((single, np.zeros(single.shape, bool)))
    answers = []
    for scores, labels in pools:
        expected = _pooled_auc(scores, labels)
        got = _chunked_auc(scores, labels, size, rng)
        assert (None if got is None else got.hex()) == expected
        answers.append(expected)
    assert answers[-2:] == [None, None] and None not in answers[:-2]


# -- evaluation ------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_eval_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval-ds")
    cfg = SynthConfig(
        modalities=(ModalityProfile("texture-a", 3.0, 0.5, 0.03),
                    ModalityProfile("texture-b", 12.0, 0.4, 0.04)),
        image_size=8, defect_count=(1, 2), defect_radius=(1.0, 2.0),
        benign_count=(0, 1), benign_radius=(1.0, 2.0),
        train_normals=3, train_anomalies=2,
        test_normals=3, test_anomalies=3, seed=10)
    train_manifest, test_manifest = gen_dataset(cfg, root)
    train_samples = load_manifest(train_manifest)
    test_samples = load_manifest(test_manifest)
    backbone = init_backbone(TOY)
    params = init_params(TOY.dim, seed=2)
    prompts = default_prompt_set()
    text = {m: build_text_features(prompts, m, 0, TOY.dim).f_text
            for m in ("texture-a", "texture-b")}
    return backbone, params, train_samples, test_samples, text


def test_evaluate_zero_shot_only(tiny_eval_setup):
    backbone, params, _, test_samples, text = tiny_eval_setup
    target = [s for s in test_samples if s.modality == "texture-a"]
    report = evaluate(backbone, params, target, text, bank=None, beta1=1.0, beta2=0.0)
    assert 0.0 <= report.image_auc <= 1.0
    assert report.pixel_auc is not None
    assert len(report.per_level_image_auc) == 4
    assert report.counts["images"] == len(target)


def test_evaluate_with_bank_and_determinism(tiny_eval_setup):
    backbone, params, train_samples, test_samples, text = tiny_eval_setup
    _, bank_normals, target = few_shot_split(train_samples, test_samples,
                                             "texture-a", 2, seed=3)
    images = [s.image for s in load_samples(bank_normals)]
    bank = build_memory_bank(images, backbone, params)
    one = evaluate(backbone, params, target, text, bank=bank)
    two = evaluate(backbone, params, target, text, bank=bank)
    assert one.to_json() == two.to_json()
    assert one.per_level_pixel_auc is not None
    assert "texture-a" in one.per_modality


def test_evaluate_duplicated_samples_keep_aucs(tiny_eval_setup):
    backbone, params, _, test_samples, text = tiny_eval_setup
    target = [s for s in test_samples if s.modality == "texture-b"]
    base = evaluate(backbone, params, target, text, bank=None, beta1=1.0, beta2=0.0)
    doubled = evaluate(backbone, params, target + target, text, bank=None,
                       beta1=1.0, beta2=0.0)
    assert doubled.image_auc == pytest.approx(base.image_auc, abs=1e-12)
    assert doubled.pixel_auc == pytest.approx(base.pixel_auc, abs=1e-12)


def test_evaluate_empty_test_set(tiny_eval_setup):
    backbone, params, _, _, text = tiny_eval_setup
    with pytest.raises(DataError):
        evaluate(backbone, params, [], text)


def test_report_serialization(tiny_eval_setup):
    backbone, params, _, test_samples, text = tiny_eval_setup
    target = [s for s in test_samples if s.modality == "texture-a"]
    report = evaluate(backbone, params, target, text, bank=None, beta1=1.0,
                      beta2=0.0)
    payload = report.to_json()
    assert '"image_auc"' in payload and '"per_modality"' in payload
    line = report.to_csv_line()
    assert line.count("\n") == 1
    assert len(line.strip().split(",")) == 8


# -- batched, streaming evaluation against the per-image oracle ------------------

SMALL = BackboneConfig(image_size=16, patch_size=4, dim=16, blocks_per_stage=1,
                       heads=2, seed=5)


def synthetic_samples(n, seed, size=16, modalities=("texture-a",), unmasked=()):
    """Loaded samples with a square defect on every odd one; ``unmasked`` get no mask."""
    rng = np.random.default_rng(seed)
    samples = []
    for i in range(n):
        image = rng.uniform(-1, 1, (size, size)).astype(np.float32)
        mask = np.zeros((size, size), dtype=np.float32)
        if i % 2:
            top, left = rng.integers(0, size - size // 4, 2)
            mask[top:top + size // 4, left:left + size // 4] = 1.0
            image[mask > 0] = np.float32(0.9)
        samples.append(LoadedSample(image, i % 2, None if i in unmasked else mask,
                                    modalities[(i // 2) % len(modalities)], f"s{i}.pgm"))
    return samples


@pytest.fixture(scope="module")
def small_model():
    backbone = init_backbone(SMALL)
    params = init_params(SMALL.dim, seed=4)
    text = {m: build_text_features(default_prompt_set(), m, 0, SMALL.dim).f_text
            for m in ("texture-a", "texture-b")}
    refs = [s.image for s in synthetic_samples(4, seed=99) if s.label == 0]
    return backbone, params, text, build_memory_bank(refs, backbone, params)


def assert_same_report(small_model, samples, few=True):
    backbone, params, text, bank = small_model
    bank, betas = (bank, (0.5, 0.5)) if few else (None, (1.0, 0.0))
    args = (backbone, params, samples, text, bank, *betas)
    try:
        expected = eval_oracle.evaluate(*args).to_json()
    except MetricError as exc:
        with pytest.raises(MetricError, match=str(exc)):
            evaluate(*args)
        return
    assert evaluate(*args).to_json() == expected


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 4 * CHUNK + 1])
def test_evaluate_equals_per_image_oracle_across_chunk_edges(small_model, n):
    assert_same_report(small_model, synthetic_samples(n, seed=n))


def test_evaluate_searches_the_bank_once_per_level_role_and_chunk(small_model,
                                                                   monkeypatch, tmp_path):
    # the calls are logged to a file, which the forked worker's chunks reach too
    log = tmp_path / "calls.txt"
    monkeypatch.setattr(inference, "_min_cosine_distances",
                        logged(log, inference._min_cosine_distances, lambda *a: "search"))
    monkeypatch.setattr(inference, "text_probabilities",
                        logged(log, inference.text_probabilities, lambda *a: "text"))
    backbone, params, text, bank = small_model
    evaluate(backbone, params, synthetic_samples(100, seed=8), text, bank=bank)
    # one call per chunk of at most CHUNK images, 4 levels x (cls, seg) each
    chunks = -(-100 // CHUNK)
    calls = read_lines(log)
    assert {name: calls.count(name) for name in ("search", "text")} == {
        "search": chunks * 8, "text": chunks * 8}


def test_evaluate_equals_oracle_zero_shot_without_bank(small_model):
    assert_same_report(small_model, synthetic_samples(17, seed=1), few=False)


def test_evaluate_equals_oracle_with_unmasked_samples(small_model):
    samples = synthetic_samples(20, seed=3, unmasked={0, 1, 5, 16, 17, 19})
    assert_same_report(small_model, samples)
    assert_same_report(small_model, synthetic_samples(6, seed=3, unmasked=range(6)))


def test_evaluate_equals_oracle_two_modalities(small_model):
    samples = synthetic_samples(33, seed=4, modalities=("texture-a", "texture-b"),
                                unmasked={2, 3})
    assert_same_report(small_model, samples)
    assert_same_report(small_model, samples, few=False)


def test_evaluate_gives_a_modality_of_normal_samples_no_image_auc(small_model):
    """A modality whose test samples are all normal has no image or pixel AUC.

    Every fourth sample, a normal one, moves to texture-b; texture-a keeps
    both classes, so only texture-b's AUCs are None, as in the oracle.
    """
    samples = [LoadedSample(s.image, s.label, s.mask, "texture-b" if i % 4 == 0 else
                            "texture-a", s.path)
               for i, s in enumerate(synthetic_samples(2 * CHUNK + 1, seed=10))]
    assert_same_report(small_model, samples)
    assert_same_report(small_model, samples, few=False)
    backbone, params, text, bank = small_model
    report = evaluate(backbone, params, samples, text, bank=bank)
    assert report.per_modality["texture-b"] == {"images": 5, "image_auc": None,
                                                "pixel_auc": None}
    assert report.per_modality["texture-a"]["image_auc"] is not None


def test_evaluate_equals_oracle_with_a_nan_image_and_tied_maps(small_model):
    """NaN pixels in both classes and maps tied across images rank as the oracle's.

    Sample 5 holds a NaN pixel, so every score of that anomalous image is
    NaN and its NaN pixels are positives and negatives; samples 6 to 9
    repeat samples 2 to 5, so their maps tie pixel for pixel. The in-place
    ranking takes each positive NaN's place among the NaNs before it sorts.
    """
    samples = synthetic_samples(10, seed=6, modalities=("texture-a", "texture-b"))
    samples[5].image[3, 4] = np.nan
    samples[6:10] = samples[2:6]
    assert_same_report(small_model, samples)
    assert_same_report(small_model, samples, few=False)
    backbone, params, text, bank = small_model
    report = evaluate(backbone, params, samples, text, bank=bank)
    assert np.isnan(report.per_level_image_auc).sum() == 0
    assert 0.0 < report.per_modality["texture-a"]["pixel_auc"] < 1.0


def test_evaluate_equals_oracle_with_nan_images_in_different_chunks(small_model):
    """A NaN normal image in the first chunk and a NaN anomalous one in the second.

    A NaN pixel makes every score of its image NaN. The anomalous image's
    NaN positives come after the normal image's NaN negatives in pool order,
    so each ranks above all of them; in the reverse order none would.
    """
    samples = synthetic_samples(2 * CHUNK + 1, seed=7)
    samples[2].image[0, 0] = np.nan
    samples[2 * CHUNK - 1].image[5, 5] = np.nan
    assert_same_report(small_model, samples)
    assert_same_report(small_model, samples, few=False)


def test_evaluate_refuses_a_mask_of_another_shape(small_model):
    backbone, params, text, bank = small_model
    samples = synthetic_samples(4, seed=2)
    samples[3] = LoadedSample(samples[3].image, 1, samples[3].mask[:8], "texture-a", "odd.pgm")
    with pytest.raises(DataError, match=r"odd.pgm: mask shape \(8, 16\) does not match"):
        evaluate(backbone, params, samples, text, bank=bank)


def test_evaluate_loads_manifest_samples_like_the_oracle(tiny_eval_setup):
    backbone, params, _, test_samples, text = tiny_eval_setup
    for modality_samples in (test_samples, test_samples[::-1] * 3):
        expected = eval_oracle.evaluate(backbone, params, modality_samples, text,
                                        beta1=1.0, beta2=0.0)
        assert evaluate(backbone, params, modality_samples, text, beta1=1.0,
                        beta2=0.0).to_json() == expected.to_json()


# -- the scoring worker: the later half of the chunks on one forked process -------

def _scored(small_model, samples, few=True):
    """Each pair ``score_samples`` yields, as bytes, then the error it raised or None."""
    backbone, params, text, bank = small_model
    bank, betas = (bank, (0.5, 0.5)) if few else (None, (1.0, 0.0))
    pairs = []
    try:
        for pair in score_samples(backbone, params, samples, text, bank, *betas):
            pairs.append(pickle.dumps(pair))
    except DataError as exc:
        return pairs, f"{type(exc).__name__}: {exc}"
    return pairs, None


@pytest.mark.parametrize("chunks", [1, 2, 5, 13])
def test_score_samples_yields_the_same_pairs_with_and_without_fork(small_model, monkeypatch,
                                                                   chunks):
    # one worker from two chunks up; the last chunk is short, and some samples
    # have no mask
    samples = synthetic_samples((chunks - 1) * CHUNK + 3, seed=chunks, unmasked={1, 2, 11})
    for few in (True, False):
        with monkeypatch.context() as patch:
            forks = count_forks(patch)
            forked = _scored(small_model, samples, few)
        assert len(forks) == (chunks > 1)
        with monkeypatch.context() as patch:
            patch.delattr(os, "fork")
            one_process = _scored(small_model, samples, few)
        assert forked == one_process and forked[1] is None
        assert len(forked[0]) == len(samples)


def test_an_error_in_the_scoring_workers_half_follows_the_pairs_before_it(small_model,
                                                                         monkeypatch):
    # 5 chunks: this process scores 2, the worker 3; sample 34, in the worker's
    # last chunk, has a mask value that is neither 0 nor 1
    samples = synthetic_samples(5 * CHUNK, seed=9)
    samples[34].mask[0, 0] = 0.5
    forks = count_forks(monkeypatch)
    forked = _scored(small_model, samples)
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    assert forked == _scored(small_model, samples)
    assert len(forked[0]) == 34
    assert forked[1] == "DataError: a pixel mask must hold only the values 0 and 1"


def test_a_scoring_generator_closed_after_its_first_pair_leaves_no_process(small_model,
                                                                          monkeypatch):
    backbone, params, text, bank = small_model
    forks = count_forks(monkeypatch)
    pairs = score_samples(backbone, params, synthetic_samples(4 * CHUNK, seed=10), text,
                          bank)
    next(pairs)
    pairs.close()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_blas_runs_on_one_thread_in_scoring_and_bank_building(small_model, tmp_path,
                                                              monkeypatch):
    calls = worker.openblas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS whose thread count can be set is loaded")
    get, set_ = calls
    before = get()
    log = tmp_path / "threads.txt"
    monkeypatch.setattr(inference, "adapt_forward",
                        logged(log, inference.adapt_forward, lambda *a, **k: get()))
    backbone, params, text, _ = small_model
    samples = synthetic_samples(3 * CHUNK, seed=11)
    set_(2)
    try:
        bank = build_memory_bank([s.image for s in samples[:4:2]], backbone, params)
        # one chunk here; three, one here and two on the worker; three without fork
        evaluate(backbone, params, samples[:CHUNK], text, bank=bank)
        evaluate(backbone, params, samples, text, bank=bank)
        monkeypatch.delattr(os, "fork")
        evaluate(backbone, params, samples, text, bank=bank)
        after = get()
    finally:
        set_(before)
    assert read_lines(log) == ["1"] * 8 and after == 2


# -- memory: evaluate keeps lean results, predict writes each chunk out -----------

def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_grows_at_most_12_kib_per_image():
    # a float64 64x64 map is 32 KiB. Pooling every test pixel in float64 for
    # each pixel AUC grew by 43 KiB per image from 80 to 160 images (the
    # scoring chunk's peak hid most of that from 40 to 80), keeping each
    # image's fused map as well by about 118 KiB, and keeping every per-level
    # map of both branches in float64 by 521 KiB
    config = BackboneConfig()
    backbone = init_backbone(config)
    params = init_params(config.dim, seed=7)
    text = {"texture-a": build_text_features(default_prompt_set(), "texture-a", 0,
                                             config.dim).f_text}
    samples = synthetic_samples(160, seed=5, size=64)
    bank = build_memory_bank([s.image for s in samples[:4:2]], backbone, params)
    evaluate(backbone, params, samples[:CHUNK], text, bank=bank)  # warm caches
    peaks = {n: _peak_bytes(lambda n=n: evaluate(backbone, params, samples[:n], text,
                                                 bank=bank))
             for n in (80, 160)}
    assert (peaks[160] - peaks[80]) / 80 <= 12 * 1024
