"""The three workloads: how each sets up, runs one timed pass and checks outputs.

All three are closed loops with a single caller, because mvfa is a batch
tool with no request arrivals. The workload seed only selects the
synthetic dataset (``SynthConfig.seed``); every model setting stays at the
CLI defaults, so the program receives nothing but generated inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from mvfa import adaptation, autograd, backbone, cli, data, inference, textbank

TARGET = "texture-c"
README_AUCS = (1.000, 0.924)   # seed-42 reference run, rounded to 3 places
AUC_FLOOR = 0.85               # acceptance criterion 8
LARGE_IMAGE_SIZE = 80          # 10 x 10 grid against 8 x 8 at the reference
LARGE_K = 16                   # 1,600 bank rows per level and branch
NN_TOLERANCE = 1e-4            # float32 search over d=64 against a float64 recompute

# end-to-end metrics: name, unit, better. BENCHMARK.json gates END_TO_END,
# which both CLI workloads report; every time is its median over the passes.
# eval_s is printed, not gated: its pure-Python AUC loop slows most when
# other tenants load the machine, so its spread exceeds the largest bound
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
LIBRARY_SCORING = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("score_ms_p50", "ms", "lower"),
    ("score_ms_p90", "ms", "lower"),
    ("score_images_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]


class Run:
    """Ops, phase times, per-image latencies and output digests of one process."""

    def __init__(self, seed, work_dir, tracer):
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.units = {}          # timed unit of a pass -> [seconds per pass]
        self.phases = {}         # library loop name -> [seconds per pass]
        self.latencies = []      # seconds per scored image, library workloads only
        self.quality = {}        # image_auc / pixel_auc of the last checked pass
        self.digests = []        # one per pass

    def op(self, ok, what):
        """Count one operation; ``what`` says why when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def problem(self, what):
        """A failed check that belongs to no single operation."""
        self.problems.append(what)

    def unit(self, name, seconds):
        self.units.setdefault(name, []).append(seconds)

    def phase(self, name, seconds):
        self.phases.setdefault(name, []).append(seconds)


def _cli(run, phase, argv):
    """One in-process CLI subcommand, its stdout discarded: (exit code, seconds)."""
    start = perf_counter()
    try:
        with run.tracer.span(f"cli.{phase}"), redirect_stdout(io.StringIO()):
            code = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed op; the run goes on to report it
        traceback.print_exc()
        code = -1
    return code, perf_counter() - start


def _sha256(chunks):
    digest = hashlib.sha256()
    for name, payload in chunks:
        digest.update(name.encode())
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)
    return digest.hexdigest()


def _files_digest(root, paths, strip=None):
    """sha256 over named files; ``strip`` removes a run-specific path prefix."""
    chunks = []
    for path in paths:
        payload = Path(path).read_bytes()
        if strip is not None:
            payload = payload.replace(strip.encode(), b"<data>")
        chunks.append((str(Path(path).relative_to(root)), payload))
    return _sha256(chunks)


def _read_report(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


def _auc_ok(value):
    return isinstance(value, float) and 0.0 <= value <= 1.0


class CliWorkload:
    """Shared setup for the CLI workloads: ``gen-data`` into a fresh directory.

    Each subcommand is one timed unit, reported as ``<subcommand>_s``.
    """

    metrics = END_TO_END
    units_are_phases = True

    def setup(self, run, index):
        data_dir = run.work_dir / f"data{index}"
        code, _ = _cli(run, "gen-data", ["gen-data", "--out", data_dir,
                                            "--seed", run.seed])
        run.op(code == 0, f"gen-data exited {code}")
        return data_dir

    def run_pass(self, run, data_dir, index):
        """Run the subcommands in order, stopping at the first that fails."""
        out = run.work_dir / f"pass{index}"
        out.mkdir(parents=True)
        commands = self.commands(data_dir, out)
        codes = {}
        start = perf_counter()
        for phase, argv in commands:
            code, seconds = _cli(run, phase, argv)
            run.unit(phase, seconds)
            codes[phase] = code
            if code != 0:
                break
        seconds = perf_counter() - start
        faults = {}
        if len(codes) == len(commands) and not any(codes.values()):
            faults = self.check(run, data_dir, out)
        for phase, code in codes.items():
            why = [f"exited {code}"] if code else faults.get(phase, [])
            run.op(not why, f"{phase}: {'; '.join(why)}")
        return seconds


class FewShotRef(CliWorkload):
    name = "fewshot_ref"
    nominal_pass_s = 15
    why = ("README reference run through the CLI: train K=4, build-bank, eval, "
           "predict; the user path, the headline AUCs, every layer")

    def commands(self, data_dir, out):
        ckpt, bank = out / "model.ckpt", out / "bank.bin"
        return [
            ("train", ["train", "--data", data_dir, "--out", ckpt]),
            ("build_bank", ["build-bank", "--data", data_dir, "--ckpt", ckpt,
                            "--out", bank]),
            ("eval", ["eval", "--data", data_dir, "--ckpt", ckpt, "--bank", bank,
                      "--out", out / "report.json"]),
            ("predict", ["predict", "--data", data_dir, "--ckpt", ckpt, "--bank", bank,
                         "--out-dir", out / "maps"]),
        ]

    def check(self, run, data_dir, out):
        """{phase: [problems]} for the eval report and the predicted maps."""
        faults = {"eval": [], "predict": []}
        report = _read_report(out / "report.json") or {}
        image_auc, pixel_auc = report.get("image_auc"), report.get("pixel_auc")
        run.quality = {"image_auc": image_auc, "pixel_auc": pixel_auc}
        if not (_auc_ok(image_auc) and _auc_ok(pixel_auc)):
            faults["eval"].append(f"report lacks valid AUCs: {image_auc}, {pixel_auc}")
            return faults
        if min(image_auc, pixel_auc) < AUC_FLOOR:
            faults["eval"].append(f"AUCs {image_auc:.4f} / {pixel_auc:.4f} below "
                                  f"{AUC_FLOOR}")
        if run.seed == 42 and (round(image_auc, 3), round(pixel_auc, 3)) != README_AUCS:
            faults["eval"].append(f"seed-42 AUCs {image_auc:.4f} / {pixel_auc:.4f} do "
                                  f"not round to the README's {README_AUCS}")
        maps = out / "maps"
        map_files = sorted(maps.glob("*.map"))
        heat_files = sorted(maps.glob("*_heat.pgm"))
        rows = (maps / "scores.csv").read_text(encoding="utf-8").splitlines() \
            if (maps / "scores.csv").is_file() else []
        expected = report.get("counts", {}).get("images")
        if not (len(map_files) == len(heat_files) == len(rows) - 1 == expected):
            faults["predict"].append(f"wrote {len(map_files)} maps, {len(heat_files)} "
                                     f"heatmaps and {len(rows) - 1} score rows for "
                                     f"{expected} images")
        for path in map_files:
            scores = inference.load_map(path)
            if scores.shape != (64, 64) or not np.isfinite(scores).all():
                faults["predict"].append(f"{path.name}: not a finite 64x64 map")
        run.digests.append(_files_digest(
            out, [out / "model.ckpt", out / "bank.bin", out / "report.json",
                  *map_files, *heat_files, maps / "scores.csv"],
            strip=str(data_dir.resolve())))
        return faults


class ZeroShotLoo(CliWorkload):
    name = "zeroshot_loo"
    nominal_pass_s = 20
    why = ("leave-one-out CLI transfer: 58 full 16-sample training steps over two "
           "modalities, then bank-free eval, so bank search must read no change")

    def commands(self, data_dir, out):
        ckpt = out / "model.ckpt"
        return [
            ("train", ["train", "--data", data_dir, "--out", ckpt,
                       "--mode", "zero-shot", "--epochs", 2]),
            ("eval", ["eval", "--data", data_dir, "--ckpt", ckpt,
                      "--mode", "zero-shot", "--out", out / "report.json"]),
        ]

    def check(self, run, data_dir, out):
        report = _read_report(out / "report.json") or {}
        image_auc, pixel_auc = report.get("image_auc"), report.get("pixel_auc")
        run.quality = {"image_auc": image_auc, "pixel_auc": pixel_auc}
        run.digests.append(_files_digest(out, [out / "model.ckpt",
                                               out / "report.json"]))
        if not (_auc_ok(image_auc) and _auc_ok(pixel_auc)):
            return {"eval": [f"report lacks valid AUCs: {image_auc}, {pixel_auc}"]}
        return {}


class LargeBank:
    """Library scoring at an 80 px grid against a K=16 bank, untrained params."""

    name = "large_bank"
    nominal_pass_s = 13
    metrics = LIBRARY_SCORING
    units_are_phases = False     # its units are single images
    why = ("library scoring of 100 images on a 10x10 grid against 1,600 bank "
           "rows; bank search dominates, no training and no AUC")

    def setup(self, run, index):
        data_dir = run.work_dir / f"data{index}"
        profile = [m for m in data.SynthConfig().modalities if m.name == TARGET]
        synth = data.SynthConfig(modalities=tuple(profile),
                                 image_size=LARGE_IMAGE_SIZE, seed=run.seed)
        train_manifest, test_manifest = data.gen_dataset(synth, data_dir)
        _, refs, test = data.few_shot_split(data.load_manifest(train_manifest),
                                            data.load_manifest(test_manifest),
                                            TARGET, LARGE_K, 42)
        config = backbone.BackboneConfig(image_size=LARGE_IMAGE_SIZE, seed=0)
        encoder = backbone.init_backbone(config)
        text = textbank.build_text_features(textbank.default_prompt_set(), TARGET, 0,
                                            config.dim).f_text
        params = adaptation.init_params(config.dim, seed=7, gamma=0.1,
                                        text_features=text)
        bank = inference.build_memory_bank(
            [s.image for s in data.load_samples(refs)], encoder, params)
        return {"backbone": encoder, "params": params, "text": text, "bank": bank,
                "test": data.load_samples(test)}

    def run_pass(self, run, ctx, index):
        results = []
        start = perf_counter()
        with run.tracer.span("library.score_loop"):
            for sample in ctx["test"]:
                began = perf_counter()
                try:
                    result = inference.score_image(
                        ctx["backbone"], ctx["params"], sample.image, ctx["text"],
                        bank=ctx["bank"], beta1=0.5, beta2=0.5, tau=0.2)
                except Exception:  # a crash is a failed op; the run goes on to report it
                    traceback.print_exc()
                    result = None
                run.latencies.append(perf_counter() - began)
                run.unit(f"image{len(results)}", run.latencies[-1])
                results.append(result)
        seconds = perf_counter() - start
        run.phase("score_loop_s", seconds)

        chunks = []
        side = LARGE_IMAGE_SIZE
        for position, result in enumerate(results):
            why = None
            if result is None:
                why = "scoring raised"
            elif not (result.s_pred.shape == (side, side)
                      and bool(np.isfinite(result.s_pred).all())
                      and math.isfinite(result.c_pred)):
                why = f"map {result.s_pred.shape} is not a finite {side}x{side} map"
            elif index == 0 and position == 0:
                why = self._nn_mismatch(ctx, ctx["test"][0].image, result)
            run.op(why is None, f"image {position}: {why}")
            if result is not None:
                chunks.append((f"{position}", np.float64(result.c_pred).tobytes()
                               + result.s_pred.dtype.str.encode()
                               + np.ascontiguousarray(result.s_pred).tobytes()))
        run.digests.append(_sha256(chunks))
        return seconds

    def _nn_mismatch(self, ctx, image, result):
        """None when the per-level few-shot distances match a float64 search."""
        with autograd.no_grad():
            features, _ = adaptation.adapt_forward(ctx["backbone"], ctx["params"], image)
        worst = 0.0
        for level in range(4):
            cls_dist = _nearest_distances(features.cls[level].data, ctx["bank"].cls[level])
            seg_dist = _nearest_distances(features.seg[level].data, ctx["bank"].seg[level])
            side = int(round(math.sqrt(seg_dist.size)))
            seg_map = _upsample(seg_dist.reshape(side, side), result.s_levels_few.shape[1:])
            worst = max(worst, abs(cls_dist.max() - result.c_levels_few[level]),
                        float(np.abs(seg_map - result.s_levels_few[level]).max()))
        if worst > NN_TOLERANCE:
            return (f"few-shot distances differ from a float64 search by "
                    f"{worst:.2e} (> {NN_TOLERANCE:.0e})")
        return None


def _nearest_distances(queries, store):
    """1 - max cosine similarity of each query row to any store row, in float64."""
    q = np.asarray(queries, dtype=np.float64)
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    s = np.asarray(store, dtype=np.float64)
    s = s / np.linalg.norm(s, axis=1, keepdims=True)
    return 1.0 - (q @ s.T).max(axis=1)


def _upsample(grid, out_hw):
    """Align-corners bilinear resize in float64."""
    def axis(n_in, n_out):
        src = np.arange(n_out) * ((n_in - 1) / (n_out - 1))
        i0 = np.minimum(np.floor(src).astype(np.int64), n_in - 1)
        return i0, np.minimum(i0 + 1, n_in - 1), src - i0

    y0, y1, wy = axis(grid.shape[0], out_hw[0])
    x0, x1, wx = axis(grid.shape[1], out_hw[1])
    wy, wx = wy[:, None], wx[None, :]
    top = (1 - wx) * grid[np.ix_(y0, x0)] + wx * grid[np.ix_(y0, x1)]
    bottom = (1 - wx) * grid[np.ix_(y1, x0)] + wx * grid[np.ix_(y1, x1)]
    return (1 - wy) * top + wy * bottom


WORKLOADS = {w.name: w for w in (FewShotRef(), ZeroShotLoo(), LargeBank())}
