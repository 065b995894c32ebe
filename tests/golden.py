"""Golden SHA-256 digests of a tiny end-to-end CLI pipeline.

The pipeline runs every subcommand in process on a 32-pixel dataset:
gen-data, few-shot train, build-bank, eval --csv, predict, zero-shot train
and eval, and ablate --include-single. ``tests/test_golden.py`` compares
the digest of every file it writes with ``tests/golden_digests.json``,
which holds one recording per numpy version and BLAS build: the bits of a
float computation may differ between BLAS builds, not between runs.

Re-record this environment's digests after a change that is meant to move
bits (and say why in CHANGES.md):

    python tests/golden.py --record
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"

CONFIG = {
    "backbone": {"image_size": 32, "patch_size": 8, "dim": 16, "blocks_per_stage": 1,
                 "heads": 2, "seed": 0},
    "train": {"batch_size": 4, "epochs": 2},
    "inference": {"k": 2, "target": "texture-c"},
    "data": {"image_size": 32, "defect_radius": [2.0, 5.0], "benign_radius": [2.0, 5.0],
             "train_normals": 4, "train_anomalies": 2, "test_normals": 3,
             "test_anomalies": 3},
}

# run from the output directory, so every path below is relative to it
STEPS = (
    ["gen-data", "--out", "data"],
    ["train", "--data", "data", "--out", "few.ckpt"],
    ["build-bank", "--data", "data", "--ckpt", "few.ckpt", "--out", "bank.bin"],
    ["eval", "--data", "data", "--ckpt", "few.ckpt", "--bank", "bank.bin",
     "--out", "few_report.json", "--csv", "few_report.csv"],
    ["predict", "--data", "data", "--ckpt", "few.ckpt", "--bank", "bank.bin",
     "--out-dir", "maps"],
    ["train", "--data", "data", "--out", "zero.ckpt", "--mode", "zero-shot"],
    ["eval", "--data", "data", "--ckpt", "zero.ckpt", "--mode", "zero-shot",
     "--out", "zero_report.json"],
    ["ablate", "--data", "data", "--out", "ablation", "--epochs", "1",
     "--include-single"],
)


def environment_key():
    """'numpy <version> / <BLAS name> <BLAS version>' of this interpreter."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return f"numpy {np.__version__} / {blas.get('name')} {blas.get('version')}"


def run_pipeline(root):
    """Run STEPS in ``root``; return {relative path: sha256} of every file there.

    Score tables list absolute image paths, so ``root`` is replaced by
    ``<root>`` in every file before it is hashed.
    """
    from mvfa.cli import main
    root = Path(root).resolve()
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    previous = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in STEPS:
                code = main([argv[0], "--config", "config.json", *argv[1:]])
                if code != 0:
                    raise RuntimeError(f"mvfa {' '.join(argv)} exited {code}")
    finally:
        os.chdir(previous)
    prefix = str(root).encode("utf-8")
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            payload = path.read_bytes().replace(prefix, b"<root>")
            digests[path.relative_to(root).as_posix()] = hashlib.sha256(payload).hexdigest()
    return digests


def load_recordings():
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def record():
    recordings = load_recordings()
    key = environment_key()
    with tempfile.TemporaryDirectory() as root:
        recordings[key] = run_pipeline(root)
    DIGESTS.write_text(json.dumps(recordings, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(recordings[key])} digests for {key!r} in {DIGESTS}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-record this environment's digests")
    if parser.parse_args().record:
        record()
    else:
        print(environment_key())
