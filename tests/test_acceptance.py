"""Acceptance suite: one test per release criterion, printing PASS/FAIL lines.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end tests share
one default synthetic dataset (seed 42) built once per session.
"""

import json
import os
import time

import auc_oracle
import numpy as np
import pytest
from fdcheck import check_gradients
from nn_oracle import min_cosine_distance_oracle, normalize_rows_oracle
from test_backbone import frozen_levels, weight_tensors

from mvfa import autograd as ag
from mvfa.adaptation import (AdaptedFeatures, adapt_forward, init_params,
                             load_checkpoint, save_checkpoint)
from mvfa.autograd import Tensor, backward, no_grad
from mvfa.backbone import BackboneConfig, init_backbone
from mvfa.cli import main
from mvfa.data import (SynthConfig, few_shot_split, gen_dataset, load_manifest,
                       load_samples, read_pgm, write_pgm, zero_shot_split)
from mvfa.inference import (MemoryBank, build_memory_bank, few_shot, grid_maps, load_bank,
                            load_map, save_bank, save_map, score_batch)
from mvfa.metrics import auc, evaluate
from mvfa.objective import LossWeights, TrainConfig, _bce, _dice, _focal, total_loss, train
from mvfa.textbank import build_text_features, default_prompt_set

TOY = BackboneConfig(image_size=8, patch_size=4, dim=8, blocks_per_stage=1,
                     heads=2, seed=3)
GATE_TAU_TRAIN = 0.07
GATE_TAU_EVAL = 0.2


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def toy_text(d=8, dtype=np.float64):
    return build_text_features(default_prompt_set(), "widget", 0, d, dtype=dtype).f_text


def toy_trained_setup(dtype=np.float32, randomize_up=True):
    backbone = init_backbone(TOY, dtype=dtype)
    params = init_params(TOY.dim, seed=11, dtype=dtype)
    if randomize_up:
        rng = np.random.default_rng(5)
        for level in range(1, 4):
            for role in ("cls", "seg"):
                up = params[f"adapter{level}.{role}.up"]
                up.data = (rng.standard_normal(up.shape) * 0.3).astype(dtype)
    return backbone, params


# -- criterion 1: gradient suite -------------------------------------------------

def test_criterion_1_gradient_suite():
    started = time.time()
    from test_autograd import OP_CASES
    worst = 0.0
    for case in OP_CASES:
        rng = np.random.default_rng(11)
        loss_fn, tensors = case.values[0](rng)
        worst = max(worst, check_gradients(loss_fn, tensors, rel_tol=1e-4, step=1e-3))

    backbone, params = toy_trained_setup(dtype=np.float64)
    rng = np.random.default_rng(12)
    image = rng.uniform(0, 1, (8, 8))
    mask = (rng.uniform(0, 1, (8, 8)) > 0.7).astype(float)
    f_text = toy_text()

    def loss_fn():
        features, _ = adapt_forward(backbone, params, image)
        return total_loss(features, f_text, 1, mask, LossWeights(),
                          tau=0.07, out_hw=(8, 8))

    worst = max(worst, check_gradients(loss_fn, [t for _, t in params.named_tensors()],
                                       rel_tol=1e-4))
    elapsed = time.time() - started
    report(1, worst <= 1e-4 and elapsed < 60.0,
           f"max relative error {worst:.2e} over every op and the composed "
           f"objective (toy G=4, d=8), {elapsed:.1f}s")


# -- criterion 2: loss oracles ----------------------------------------------------

def test_criterion_2_loss_closed_forms():
    def term(kernel, p, s):
        """The value of one map (or one probability) under a level loss's kernel."""
        return float(kernel(np.array([p], dtype=np.float64), np.array([s]))[0][0])

    checks = [
        (term(_dice, [1.0, 0.0], [1.0, 0.0]), 0.0),
        (term(_dice, [0.0, 1.0], [1.0, 0.0]), 2.0 / 3.0),
        (term(_dice, [0.5, 0.5], [1.0, 0.0]), 1.0 / 3.0),
        (term(_focal, [0.9], [1.0]), -(0.1 ** 2) * np.log(0.9)),
        (term(_focal, [0.5], [0.0]), 0.25 * np.log(2.0)),
        (term(_bce, 0.5, 1), np.log(2.0)),
        (term(_bce, 0.8, 0), -np.log(0.2)),
    ]
    worst = max(abs(got - want) for got, want in checks)
    report(2, worst <= 1e-6,
           f"dice/focal/bce closed forms within {worst:.2e} of the oracle values")


# -- criterion 3: AUC oracle equivalence -------------------------------------------

def auc_pairwise_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_criterion_3_auc_oracle():
    rng = np.random.default_rng(33)
    worst = 0.0
    ordering_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, n), 1)  # injected ties
        fast = auc(scores, labels)
        worst = max(worst, abs(fast - auc_pairwise_oracle(scores, labels)))
        ordering_ok &= auc(0.5 * scores, labels) == fast
        ordering_ok &= auc(auc_oracle.midranks(scores), labels) == fast
    report(3, worst <= 1e-12 and ordering_ok,
           f"200 tied instances: midrank vs pairwise oracle off by {worst:.1e}; "
           f"monotone transforms preserve the value exactly")


# -- criterion 4: nearest-neighbor oracle equivalence -------------------------------

def test_criterion_4_nearest_neighbor_oracle():
    rng = np.random.default_rng(44)
    exact = True
    for _ in range(100):
        g, d = 2, int(rng.integers(4, 12))
        rows = int(rng.integers(1, 20))
        features = AdaptedFeatures(
            [rng.standard_normal((g * g, d)).astype(np.float32) for _ in range(4)],
            [rng.standard_normal((g * g, d)).astype(np.float32) for _ in range(4)])
        bank = MemoryBank(
            [normalize_rows_oracle(rng.standard_normal((rows, d)).astype(np.float32))
             for _ in range(4)],
            [normalize_rows_oracle(rng.standard_normal((rows, d)).astype(np.float32))
             for _ in range(4)])
        c_levels, grids = few_shot(features, bank, images=1)
        s_levels = grid_maps(grids[0], (g, g))
        for level in range(4):
            cls_oracle = min_cosine_distance_oracle(features.cls[level], bank.cls[level])
            seg_oracle = min_cosine_distance_oracle(features.seg[level], bank.seg[level])
            exact &= c_levels[0, level] == max(cls_oracle)
            exact &= np.array_equal(s_levels[level], seg_oracle.reshape(g, g))
    report(4, exact, "few-shot distances equal the exhaustive double-loop cosine "
                     "oracle bitwise on 100 seeded (bank, query) pairs")


# -- criterion 5: frozen backbone contract ------------------------------------------

def test_criterion_5_frozen_backbone_and_gradient_closure():
    backbone, params = toy_trained_setup()
    frozen_before = [w.data.tobytes() for w in weight_tensors(backbone)]

    rng = np.random.default_rng(55)
    samples = []
    from mvfa.data import LoadedSample
    for i in range(4):
        mask = np.zeros((8, 8), dtype=np.float32)
        if i % 2:
            mask[2:5, 2:5] = 1.0
        samples.append(LoadedSample(rng.uniform(-1, 1, (8, 8)).astype(np.float32),
                                    i % 2, mask, "widget", f"mem://{i}"))
    text = {"widget": toy_text(dtype=np.float32)}
    train(backbone, params, samples, text,
          TrainConfig(lr=1e-2, batch_size=2, epochs=3, seed=1))
    frozen_after = [w.data.tobytes() for w in weight_tensors(backbone)]
    untouched = frozen_before == frozen_after

    features, _ = adapt_forward(backbone, params, samples[1].image)
    loss = total_loss(features, text["widget"], 1, samples[1].mask, LossWeights(),
                      tau=0.07, out_hw=(8, 8))
    grads = backward(loss)
    closure = set(grads) == {t for _, t in params.named_tensors()}
    report(5, untouched and closure,
           "backbone bytes identical after training; gradient map keys equal "
           "exactly the trainable tensor set")


# -- criterion 6: residual identity --------------------------------------------------

def test_criterion_6_residual_identity():
    backbone, params = toy_trained_setup()
    params.gamma = 0.0
    image = np.random.default_rng(66).uniform(-1, 1, (8, 8)).astype(np.float32)
    _, raw = adapt_forward(backbone, params, image)
    plain = frozen_levels(backbone, image)
    bit_exact = all(np.array_equal(r.data, p.data) for r, p in zip(raw[:3], plain[:3]))

    fresh = init_params(TOY.dim, seed=11)  # up-projections still zero
    fresh.gamma = 0.1
    _, forwarded = adapt_forward(backbone, fresh, image)
    manual = backbone.run_stage(1, ag.scale(plain[0], 0.9))
    scaled = np.abs(forwarded[1].data - manual.data).max() <= 1e-6
    report(6, bit_exact and scaled,
           "gamma=0 reproduces the frozen pass bit-exactly; zero up-projections "
           "at gamma=0.1 forward 0.9 * features within 1e-6")


# -- criterion 7: branch gating -------------------------------------------------------

def test_criterion_7_branch_gating_and_self_query():
    backbone, params = toy_trained_setup()
    image = np.random.default_rng(77).uniform(-1, 1, (8, 8)).astype(np.float32)
    f_text = toy_text(dtype=np.float32)
    bank = build_memory_bank([image], backbone, params)

    def scored(beta1, beta2):
        return score_batch(backbone, params, [image], [f_text], bank, beta1, beta2)[0]

    only_zero, only_few = scored(1.0, 0.0), scored(0.0, 1.0)
    few_map = only_few.s_levels_few.mean(axis=0)
    gating = (only_zero.c_pred == only_zero.c_zero
              and np.array_equal(only_zero.s_pred, only_zero.s_levels_zero.mean(axis=0))
              and only_few.c_pred == only_few.c_few
              and np.array_equal(only_few.s_pred, few_map))
    self_query = only_few.c_few <= 1e-6 and few_map.max() <= 1e-6
    report(7, gating and self_query,
           "beta gating reproduces each branch exactly; self-query distances "
           f"peak at {few_map.max():.1e}")


# -- criteria 8-10: end-to-end runs on the default synthetic dataset -----------------

@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept-data")
    started = time.time()
    train_manifest, test_manifest = gen_dataset(SynthConfig(seed=42), root)
    return {"root": root, "gen_seconds": time.time() - started,
            "train": load_manifest(train_manifest),
            "test": load_manifest(test_manifest)}


def _gate_run(dataset, trained):
    cfg = BackboneConfig(seed=0)
    backbone = init_backbone(cfg)
    train_set, bank_normals, test_set = few_shot_split(
        dataset["train"], dataset["test"], "texture-c", 4, seed=42)
    text = {"texture-c": build_text_features(default_prompt_set(), "texture-c",
                                             0, cfg.dim).f_text}
    params = init_params(cfg.dim, seed=7, gamma=0.1,
                         text_features=text["texture-c"])
    history = []
    if trained:
        history = train(backbone, params, load_samples(train_set), text,
                        TrainConfig(lr=1e-3, batch_size=16, epochs=50, seed=42,
                                    tau=GATE_TAU_TRAIN))
    bank = build_memory_bank([s.image for s in load_samples(bank_normals)],
                             backbone, params)
    return evaluate(backbone, params, test_set, text, bank=bank,
                    beta1=0.5, beta2=0.5, tau=GATE_TAU_EVAL), history


def test_criterion_8_end_to_end_gate(default_dataset):
    started = time.time()
    trained, history = _gate_run(default_dataset, trained=True)
    baseline, _ = _gate_run(default_dataset, trained=False)
    elapsed = time.time() - started + default_dataset["gen_seconds"]
    gap = trained.image_auc - baseline.image_auc
    ok = (trained.image_auc >= 0.85 and trained.pixel_auc >= 0.85
          and gap >= 0.10 and elapsed <= 600.0
          and history[-1] < history[0])
    report(8, ok,
           f"trained image AUC {trained.image_auc:.3f} (>= 0.85), pixel AUC "
           f"{trained.pixel_auc:.3f} (>= 0.85), gap over untrained "
           f"{gap:+.3f} (>= 0.10), loss {history[0]:.2f} -> {history[-1]:.2f}, "
           f"runtime {elapsed:.0f}s (<= 600s)")


def test_criterion_9_zero_shot_leave_one_out(default_dataset):
    def run():
        cfg = BackboneConfig(seed=0)
        backbone = init_backbone(cfg)
        train_set, test_set = zero_shot_split(default_dataset["train"],
                                              default_dataset["test"], "texture-c")
        modalities = {s.modality for s in train_set} | {"texture-c"}
        text = {m: build_text_features(default_prompt_set(), m, 0, cfg.dim).f_text
                for m in sorted(modalities)}
        stacked = np.concatenate([text[m].data for m in sorted(text)])
        params = init_params(cfg.dim, seed=7, gamma=0.1, text_features=stacked)
        train(backbone, params, load_samples(train_set), text,
              TrainConfig(lr=1e-3, batch_size=16, epochs=3, seed=42,
                          tau=GATE_TAU_TRAIN))
        return evaluate(backbone, params, test_set, text, bank=None,
                        beta1=1.0, beta2=0.0, tau=GATE_TAU_EVAL)

    first = run()
    second = run()
    # untrained level 4 scores every image within rounding of 0.5 here (all ties),
    # so only training lifts it: 0.998 measured
    level4 = first.per_level_image_auc[3]
    ok = (first.image_auc is not None and first.pixel_auc is not None
          and level4 is not None and level4 >= 0.9
          and first.to_json() == second.to_json())
    report(9, ok,
           f"leave-one-out run produced image AUC {first.image_auc:.3f}, pixel "
           f"AUC {first.pixel_auc:.3f} and level-4 image AUC {level4:.3f} (>= 0.9); "
           f"two runs are byte-identical")


def test_criterion_10_ablation_plumbing(default_dataset, tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"train": {"epochs": 2}}), encoding="utf-8")
    out_dir = tmp_path / "ablation"
    code = main(["ablate", "--config", str(config_path),
                 "--data", str(default_dataset["root"]), "--out", str(out_dir)])
    rows = json.loads((out_dir / "ablation.json").read_text())
    columns_ok = all(
        f"level{i}_{kind}_auc" in row
        for row in rows for i in range(1, 5) for kind in ("image", "pixel"))
    columns_ok &= all("ensemble_image_auc" in row and "ensemble_pixel_auc" in row
                      for row in rows)
    archs = [row["arch"] for row in rows]
    adapter = next(r for r in rows if r["arch"] == "adapter")
    projector = next(r for r in rows if r["arch"] == "projector")
    a_cfg = {k: v for k, v in adapter["config"]["model"].items() if k != "arch"}
    p_cfg = {k: v for k, v in projector["config"]["model"].items() if k != "arch"}
    flags_ok = (a_cfg == p_cfg
                and adapter["config"]["train"] == projector["config"]["train"]
                and adapter["config"]["inference"] == projector["config"]["inference"])
    ok = code == 0 and columns_ok and set(archs) == {"adapter", "projector"} and flags_ok
    report(10, ok,
           "ablate emits per-level plus ensemble AUC columns; projector and "
           "adapter rows differ only in the declared architecture flag")


# -- criterion 11: file-format round-trips --------------------------------------------

def test_criterion_11_round_trips(tmp_path):
    rng = np.random.default_rng(111)
    ok = True

    params = init_params(TOY.dim, seed=9, gamma=0.3)
    for level in range(1, 4):
        up = params[f"adapter{level}.cls.up"]
        up.data = rng.standard_normal(up.shape).astype(np.float32)
    ckpt_a, ckpt_b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(ckpt_a, TOY, params)
    save_checkpoint(ckpt_b, *load_checkpoint(ckpt_a))
    ok &= ckpt_a.read_bytes() == ckpt_b.read_bytes()

    bank = MemoryBank(
        [normalize_rows_oracle(rng.standard_normal((7, 8)).astype(np.float32))
         for _ in range(4)],
        [normalize_rows_oracle(rng.standard_normal((5, 8)).astype(np.float32))
         for _ in range(4)])
    bank_a, bank_b = tmp_path / "a.bank", tmp_path / "b.bank"
    save_bank(bank_a, bank)
    save_bank(bank_b, load_bank(bank_a))
    ok &= bank_a.read_bytes() == bank_b.read_bytes()

    scores = rng.standard_normal((9, 11)).astype(np.float32)
    map_a, map_b = tmp_path / "a.map", tmp_path / "b.map"
    save_map(map_a, scores)
    save_map(map_b, load_map(map_a))
    ok &= map_a.read_bytes() == map_b.read_bytes()

    image = rng.integers(0, 256, (13, 7), dtype=np.uint8)
    pgm_a, pgm_b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_pgm(pgm_a, image)
    write_pgm(pgm_b, read_pgm(pgm_a))
    ok &= pgm_a.read_bytes() == pgm_b.read_bytes()

    report(11, ok, "checkpoint, memory bank, anomaly map and PGM files "
                   "round-trip byte-exactly on random payloads")
