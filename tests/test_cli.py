import argparse
import errno
import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from calllog import count_forks, logged, read_lines
from forge import START, container, forge, header_bytes, split, v1_bank, v1_checkpoint
from test_adaptation import overflowing_checkpoint

from mvfa import autograd, cli, metrics, objective, worker
from mvfa import data as datamod
from mvfa.adaptation import init_params, load_checkpoint
from mvfa.cli import DEFAULT_CONFIG, build_parser, main
from mvfa.data import read_pgm
from mvfa.errors import ConfigError
from mvfa.fileio import file_sha256
from mvfa.inference import MemoryBank, load_bank, load_map, save_bank

CONFIG = {
    "backbone": {"image_size": 16, "patch_size": 4, "dim": 16,
                 "blocks_per_stage": 1, "heads": 2, "seed": 0},
    "model": {"init_seed": 7},
    "train": {"lr": 1e-3, "batch_size": 4, "epochs": 2, "seed": 11, "gamma": 0.1},
    "inference": {"k": 2, "target": "texture-c", "mode": "few-shot"},
    "data": {
        "modalities": [
            {"name": "texture-a", "base_freq": 2.0, "contrast": 0.5, "noise": 0.03},
            {"name": "texture-b", "base_freq": 4.0, "contrast": 0.45, "noise": 0.05},
            {"name": "texture-c", "base_freq": 6.0, "contrast": 0.4, "noise": 0.04},
        ],
        "image_size": 16,
        "defect_count": [1, 2],
        "defect_radius": [1.5, 3.0],
        "benign_count": [0, 1],
        "benign_radius": [1.5, 3.0],
        "benign_delta": 0.5,
        "train_normals": 4, "train_anomalies": 3,
        "test_normals": 3, "test_anomalies": 3,
        "seed": 21,
    },
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    assert main(["gen-data", "--config", str(config_path),
                 "--out", str(root / "data")]) == 0
    return root, str(config_path), str(root / "data")


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_gen_data_is_deterministic(workdir, tmp_path):
    root, config, _ = workdir
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "b")]) == 0
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def _gen_data_fails_cleanly(workdir, out, capsys, message):
    """Run a gen-data that must fail: exit 2, no manifest, no child process left behind."""
    _, config, _ = workdir
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "train.jsonl").exists() and not (out / "test.jsonl").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gen_data_write_error_is_io_error_without_manifests(workdir, tmp_path, capsys,
                                                            monkeypatch):
    """An OSError of this process's half reaches the CLI; no manifest is written."""
    real, calls = datamod.write_bytes_atomic, []

    def tenth_fails(path, payload):
        calls.append(path)
        if len(calls) == 10:
            raise OSError(28, "No space left on device", path)
        real(path, payload)

    monkeypatch.setattr(datamod, "write_bytes_atomic", tenth_fails)
    _gen_data_fails_cleanly(workdir, tmp_path / "gen", capsys, "i/o error")
    assert len(calls) == 10  # no write is attempted after the failed one


def test_gen_data_synthesis_error_is_data_error_without_manifests(workdir, tmp_path,
                                                                  capsys, monkeypatch):
    real, calls = datamod._synth_sample, []

    def fifth_fails(*args):
        calls.append(args)
        if len(calls) == 5:
            raise datamod.DataError("defect vanished")
        return real(*args)

    monkeypatch.setattr(datamod, "_synth_sample", fifth_fails)
    _gen_data_fails_cleanly(workdir, tmp_path / "gen", capsys, "defect vanished")


def test_gen_data_writes_the_manifests_after_every_file_they_list(workdir, tmp_path,
                                                                  monkeypatch):
    """Each manifest is started only once every image and mask write has finished.

    Both processes append their events to one log file opened with
    O_APPEND, so the log orders the writes of both halves. Each write is
    slowed, so the worker's half is still running when this one ends.
    """
    from mvfa import fileio
    real, log = fileio.write_bytes_atomic, tmp_path / "events.log"

    def append(event, path):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{event} {os.path.relpath(path, out)}\n")

    def recorded(path, payload):
        append("start", path)
        time.sleep(0.002)
        real(path, payload)
        append("done", path)

    _, config, _ = workdir
    out = tmp_path / "gen"
    monkeypatch.setattr(datamod, "write_bytes_atomic", recorded)
    monkeypatch.setattr(fileio, "write_bytes_atomic", recorded)
    assert main(["gen-data", "--config", config, "--out", str(out)]) == 0
    events = [tuple(line.split(" ", 1)) for line in read_lines(log)]
    done = {path: i for i, (event, path) in enumerate(events) if event == "done"}
    for manifest in ("train.jsonl", "test.jsonl"):
        started = events.index(("start", manifest))
        rows = [json.loads(line) for line in (out / manifest).read_text().splitlines()]
        listed = [row[key] for row in rows for key in ("image", "mask")]
        assert listed and all(done[path] < started for path in listed), manifest
    pgms = [path for event, path in events if event == "done" and path.endswith(".pgm")]
    assert len(pgms) == len(set(pgms)) == 2 * 3 * (4 + 3 + 3 + 3)


@pytest.mark.parametrize("names, message", [
    (["texture-a", "", "texture-c"], "got ''"),
    (["texture-a", "../escaped", "texture-c"], "got '../escaped'"),
    (["texture-a", "nul\0name", "texture-c"], "got 'nul\\x00name'"),
    (["texture-a", "texture-c", "texture-c"],
     "names must differ, got ['texture-a', 'texture-c', 'texture-c']")],
    ids=["empty", "escaping", "nul", "duplicate"])
def test_bad_modality_name_is_config_error_before_writing(workdir, tmp_path, capsys, names,
                                                          message):
    """A name must be one directory inside --out, and each profile's own.

    An empty name wrote a dataset that every later command refused,
    "../escaped" wrote outside --out, a NUL was a traceback, and a repeated
    name let the second profile overwrite the first's files.
    """
    root, config, data = workdir
    user = json.loads(open(config).read())
    for profile, name in zip(user["data"]["modalities"], names):
        profile["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert os.listdir(tmp_path) == ["bad.json"]


def test_train_zero_epochs_equals_initialization(workdir, tmp_path):
    root, config, data = workdir
    ckpt = tmp_path / "init.ckpt"
    assert main(["train", "--config", config, "--data", data,
                 "--out", str(ckpt), "--epochs", "0"]) == 0
    _, params = load_checkpoint(ckpt)
    from mvfa.textbank import build_text_features, default_prompt_set
    prompts = default_prompt_set()
    # few-shot training touches only the target modality's text rows
    stacked = build_text_features(prompts, "texture-c", 0, 16).f_text.data
    fresh = init_params(16, seed=7, gamma=0.1, text_features=stacked)
    for (name_a, a), (name_b, b) in zip(params.named_tensors(),
                                        fresh.named_tensors()):
        assert name_a == name_b
        assert np.array_equal(a.data, b.data.astype(np.float32))


def test_full_pipeline(workdir, tmp_path):
    root, config, data = workdir
    ckpt = str(tmp_path / "model.ckpt")
    bank = str(tmp_path / "bank.bin")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt]) == 0
    assert os.path.exists(ckpt + ".loss.csv")
    lines = open(ckpt + ".loss.csv").read().strip().splitlines()
    assert lines[0] == "epoch,mean_loss" and len(lines) == 3

    assert main(["build-bank", "--config", config, "--data", data,
                 "--ckpt", ckpt, "--out", bank]) == 0
    loaded = load_bank(bank)
    assert loaded.cls[0].shape == (2 * 16, 16)  # k=2 references, G=16

    out_dir = str(tmp_path / "pred")
    assert main(["predict", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--bank", bank, "--out-dir", out_dir]) == 0
    scores = open(os.path.join(out_dir, "scores.csv")).read().strip().splitlines()
    assert scores[0].startswith("image,modality,label")
    assert len(scores) == 1 + 6  # test_normals + test_anomalies for the target
    maps = [f for f in os.listdir(out_dir) if f.endswith(".map")]
    heats = [f for f in os.listdir(out_dir) if f.endswith("_heat.pgm")]
    assert len(maps) == 6 and len(heats) == 6
    one_map = load_map(os.path.join(out_dir, maps[0]))
    assert one_map.shape == (16, 16)
    assert read_pgm(os.path.join(out_dir, heats[0])).shape == (16, 16)

    report_path = str(tmp_path / "report.json")
    csv_path = str(tmp_path / "report.csv")
    assert main(["eval", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--bank", bank, "--out", report_path, "--csv", csv_path]) == 0
    report = json.load(open(report_path))
    assert 0.0 <= report["image_auc"] <= 1.0
    assert report["pixel_auc"] is not None
    assert len(report["per_level_image_auc"]) == 4
    assert open(csv_path).read().count("\n") == 1


def test_predict_quotes_a_data_directory_with_a_comma(workdir, tmp_path):
    # each row of a data directory with a comma was joined as it stood: 7
    # fields under the 6-field header
    import csv

    _, config, _ = workdir
    root = tmp_path / "csv,bug"
    data, ckpt, bank = (str(root / name) for name in ("data", "m.ckpt", "bank.bin"))
    assert main(["gen-data", "--config", config, "--out", data]) == 0
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    assert main(["build-bank", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--out", bank]) == 0
    out_dir = root / "pred"
    assert main(["predict", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--bank", bank, "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["image", "modality", "label", "c_pred", "c_zero", "c_few"]
    assert all(len(row) == 6 for row in rows)
    targets = [s.image for s in datamod.load_manifest(os.path.join(data, "test.jsonl"))
               if s.modality == "texture-c"]
    assert [row[0] for row in rows[1:]] == targets and "," in targets[0]


def test_predict_without_bank_fails_fast(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    code = main(["predict", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--out-dir", str(tmp_path / "pred"), "--beta2", "0.5"])
    assert code == 1
    assert "memory bank" in capsys.readouterr().err


def test_predict_with_both_data_and_manifest_is_usage_error(workdir, tmp_path, capsys):
    # --data was ignored: a 2-row --manifest with the set's --data wrote 2 maps, exit 0
    root, config, data = workdir
    manifest = tmp_path / "two.jsonl"
    manifest.write_text("".join(Path(data, "test.jsonl").read_text().splitlines(True)[-2:]))
    out_dir = tmp_path / "pred"
    flags = ["predict", "--config", config, "--ckpt", str(tmp_path / "missing.ckpt"),
             "--beta2", "0", "--out-dir", str(out_dir)]
    assert main([*flags, "--data", data, "--manifest", str(manifest)]) == 1
    assert capsys.readouterr().err.startswith(
        "usage error: argument --manifest: not allowed with argument --data")
    assert not out_dir.exists()
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    flags[flags.index(str(tmp_path / "missing.ckpt"))] = ckpt
    assert main(flags) == 1
    assert capsys.readouterr().err == "config error: predict needs --manifest or --data\n"
    assert not out_dir.exists()


def test_predict_rejects_images_that_share_a_file_name(workdir, tmp_path, capsys):
    # every modality of the test manifest has a normal_0000.pgm, and predict
    # names each output after its image, so one map would overwrite another
    root, config, data = workdir
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "pred"
    code = main(["predict", "--config", config, "--manifest",
                 os.path.join(data, "test.jsonl"), "--ckpt", ckpt, "--beta2", "0",
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    first = os.path.join(data, "texture-a", "test", "normal_0000.pgm")
    second = os.path.join(data, "texture-b", "test", "normal_0000.pgm")
    assert f"{first} and {second} would both write normal_0000.map" in err
    assert not out_dir.exists()


def test_eval_zero_shot_without_bank(workdir, tmp_path):
    root, config, data = workdir
    ckpt = str(tmp_path / "zs.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--mode", "zero-shot", "--epochs", "1"]) == 0
    report_path = str(tmp_path / "zs-report.json")
    assert main(["eval", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--mode", "zero-shot", "--out", report_path]) == 0
    report = json.load(open(report_path))
    assert report["pixel_auc"] is not None


def test_usage_and_data_error_exit_codes(workdir, tmp_path, capsys):
    root, config, data = workdir
    assert main(["train", "--config", config, "--data", data]) == 1  # missing --out
    assert main(["no-such-command"]) == 1
    code = main(["train", "--config", config, "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "x.ckpt")])
    assert code == 2
    capsys.readouterr()


def test_train_and_build_bank_create_a_missing_output_directory(workdir, tmp_path, capsys):
    # both ran all their work and then exited 2 on the missing directory
    root, config, data = workdir
    ckpt = tmp_path / "new" / "dir" / "m.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "1"]) == 0
    assert load_checkpoint(ckpt)[0].dim == 16
    assert Path(str(ckpt) + ".loss.csv").read_text().startswith("epoch,mean_loss")
    bank = tmp_path / "other" / "bank.bin"
    assert main(["build-bank", "--config", config, "--data", data, "--ckpt", str(ckpt),
                 "--out", str(bank)]) == 0
    assert load_bank(bank).cls[0].shape == (2 * 16, 16)
    capsys.readouterr()


def test_non_utf8_checkpoint_tensor_name_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    header, tensors = split(ckpt.read_bytes())
    raw = header_bytes(header)
    at = raw.index(b'"adapter1.cls.down"') + 1  # the first tensor name's first byte
    ckpt.write_bytes(container(raw[:at] + b"\xff" + raw[at + 1:], tensors))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: invalid UTF-8 at byte {START + at}")
    assert "Traceback" not in err



@pytest.mark.parametrize("kind", ["checkpoint", "bank"])
def test_version_1_file_is_data_error_that_names_the_command(workdir, tmp_path, capsys, kind):
    root, config, data = workdir
    ckpt, bank = tmp_path / "model.ckpt", tmp_path / "bank.bin"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    assert main(["build-bank", "--config", config, "--data", data, "--ckpt", str(ckpt),
                 "--out", str(bank)]) == 0
    capsys.readouterr()
    old, command = {"checkpoint": (ckpt, "train"), "bank": (bank, "build-bank")}[kind]
    old.write_bytes(v1_checkpoint() if kind == "checkpoint" else v1_bank())
    out = tmp_path / "report.json"
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt),
                 "--bank", str(bank), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {old}: a version 1 {kind} file, which this version "
                          f"cannot read; re-run `mvfa {command}`")
    assert not out.exists()


def test_non_utf8_manifest_line_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = copy / "test.jsonl"
    lines = manifest.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b"test", b"t\xffst", 1)
    manifest.write_bytes(b"\n".join(lines))
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", config, "--data", str(copy), "--ckpt", ckpt,
                 "--mode", "zero-shot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 2: invalid UTF-8 at byte ")
    assert "Traceback" not in err


def test_non_utf8_prompt_file_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    prompts = tmp_path / "prompts.txt"
    prompts.write_bytes(b"- flawless [c]\n+ damaged \xff[c]\nT a photo of a [c].\n")
    assert main(["train", "--config", config, "--data", data, "--prompts", str(prompts),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prompts}: line 2: invalid UTF-8 at byte 25")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("image", 5), ("mask", ["a"])])
def test_manifest_path_of_another_json_type_is_data_error(workdir, tmp_path, capsys,
                                                          field, value):
    # os.path.join raised a TypeError here, which printed a traceback and exited 1
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = copy / "train.jsonl"
    lines = manifest.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[2])
    row[field] = value
    lines[2] = json.dumps(row)
    manifest.write_text("\n".join(lines), encoding="utf-8")
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    assert main(["build-bank", "--config", config, "--data", str(copy), "--ckpt", ckpt,
                 "--out", str(tmp_path / "bank.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 3: image must be a path string")
    assert "Traceback" not in err


def test_prompt_file_that_expands_too_far_is_data_error(workdir, tmp_path, capsys):
    # nine words of eight alternates make 8**9 (1.3e8) variants per state:
    # expanding them raised MemoryError under a 2 GB address-space limit
    import tracemalloc

    root, config, data = workdir
    prompts = tmp_path / "prompts.txt"
    prompts.write_text("- flawless [o]\n+ damaged [o]\nT " + "a/b/c/d/e/f/g/h " * 9
                       + "[c]\n", encoding="utf-8")
    argv = ["train", "--config", config, "--data", data, "--prompts", str(prompts),
            "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]
    tracemalloc.start()
    try:
        assert main(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: 1 templates and 2 states expand to 268435456 prompts, "
                          "more than 100000")
    assert peak < 16 * 2 ** 20
    assert not (tmp_path / "m.ckpt").exists()


def test_json_integer_of_over_4300_digits_is_a_typed_error(workdir, tmp_path, capsys):
    # int() refuses it with a ValueError that is not a JSONDecodeError, which
    # the config and manifest readers let through as a traceback
    huge = "1" * 5000
    bad = tmp_path / "bad.json"
    bad.write_text('{"train": {"epochs": ' + huge + "}}", encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {bad}: invalid JSON (Exceeds the limit")
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = copy / "train.jsonl"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(re.sub(r'"label": \d', f'"label": {huge}', text, count=1),
                        encoding="utf-8")
    assert main(["train", "--config", config, "--data", str(copy),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: invalid JSON (Exceeds the limit")
    assert not (tmp_path / "gen").exists() and not (tmp_path / "m.ckpt").exists()



def test_deeply_nested_json_is_a_typed_error(workdir, tmp_path, capsys):
    # json.loads raised a RecursionError here, a traceback with exit 1
    nested = "[" * 100_000
    bad = tmp_path / "bad.json"
    bad.write_text(nested, encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {bad}: invalid JSON (maximum recursion depth")
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = copy / "train.jsonl"
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(re.sub(r'"label": \d', f'"label": {nested}', text, count=1),
                        encoding="utf-8")
    assert main(["train", "--config", config, "--data", str(copy),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 1: invalid JSON (maximum recursion depth")
    assert "Traceback" not in err
    assert not (tmp_path / "gen").exists() and not (tmp_path / "m.ckpt").exists()


def test_non_utf8_config_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"train":\n {"epochs": "\xff"}}\n')
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: line 2: invalid UTF-8 at byte 23")
    assert "Traceback" not in err


@pytest.mark.parametrize("shape", [(65536,) * 4, (2 ** 31, 2 ** 31, 4)])
def test_overflowing_checkpoint_shape_is_data_error(workdir, tmp_path, capsys, shape):
    root, config, data = workdir
    bad = overflowing_checkpoint(tmp_path / "bad.ckpt", shape)
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(bad)]) == 2
    assert "runs past the end of the file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("levels", ["1,a", "1,,2"])
def test_bad_levels_is_usage_error(workdir, tmp_path, capsys, command, levels):
    root, config, data = workdir
    assert main([command, "--config", config, "--data", data, "--out",
                 str(tmp_path / "out"), "--levels", levels]) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_repeated_levels_is_config_error(workdir, tmp_path, capsys, command):
    root, config, data = workdir
    assert main([command, "--config", config, "--data", data, "--out",
                 str(tmp_path / "out"), "--levels", "1,1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "subset of 1..4, got (1, 1)" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("base_freq", [0, float("nan")])
def test_modality_base_freq_off_its_range_is_config_error(workdir, tmp_path, capsys,
                                                           base_freq):
    root, config, data = workdir
    user = json.loads(open(config).read())
    user["data"]["modalities"][1]["base_freq"] = base_freq
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    # the config reader refuses a NaN before the profile sees it
    message = "NaN is not a finite number" if base_freq != 0 else "'texture-b': base_freq must be"
    assert err.startswith("config error") and message in err
    assert os.listdir(tmp_path) == ["bad.json"]
    with pytest.raises(ConfigError, match="'texture-b': base_freq must be"):
        datamod.ModalityProfile(**user["data"]["modalities"][1])


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_all_zero_loss_weights_is_config_error_before_reading_data(workdir, tmp_path, capsys,
                                                                   command):
    # a loss that reaches no trainable tensor cannot train; the data path does not exist
    root, config, data = workdir
    user = json.loads(open(config).read())
    user["train"].update(lambda1=0.0, lambda2=0.0, lambda3=0.0)
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps(user), encoding="utf-8")
    assert main([command, "--config", str(zero), "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "lambda1, lambda2 and lambda3 are all 0" in err
    assert os.listdir(tmp_path) == ["zero.json"]


def test_lambda3_zero_with_a_mask_free_training_modality_is_config_error(tmp_path, capsys):
    # a step of texture-b samples only would have no loss term; few-shot trains on
    # the masked target alone, so the same weights train there
    user = json.loads(json.dumps(CONFIG))
    user["data"]["modalities"][1]["masks"] = False
    user["train"].update(lambda3=0.0, epochs=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(user), encoding="utf-8")
    data = str(tmp_path / "data")
    assert main(["gen-data", "--config", str(config), "--out", data]) == 0
    capsys.readouterr()
    for command in ("train", "ablate"):
        out = tmp_path / command
        assert main([command, "--config", str(config), "--data", data, "--mode", "zero-shot",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and "modality texture-b has no masks" in err
        assert not out.exists()
    assert main(["train", "--config", str(config), "--data", data,
                 "--out", str(tmp_path / "fewshot.ckpt")]) == 0


@pytest.mark.parametrize("field", ["contrast", "noise"])
def test_modality_contrast_or_noise_not_finite_is_config_error_before_writing(
        workdir, tmp_path, capsys, field):
    # texture-a comes first, so a check at generation time would have written it
    root, config, data = workdir
    user = json.loads(open(config).read())
    user["data"]["modalities"][1][field] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    out = tmp_path / "gen"
    out.mkdir()
    assert main(["gen-data", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    # the config reader refuses the NaN; the profile refuses it from a library caller
    assert err.startswith("config error") and "NaN is not a finite number" in err
    assert os.listdir(out) == []
    with pytest.raises(ConfigError, match=f"'texture-b': {field} must be"):
        datamod.ModalityProfile(**user["data"]["modalities"][1])


@pytest.mark.parametrize("command, key, name", [
    ("train", ("train", "lr"), "train.lr"),
    ("gen-data", ("data", "modalities", 1, "contrast"), "data.modalities[1].contrast"),
    ("gen-data", ("data", "defect_delta"), "data.defect_delta")],
    ids=["train", "modality", "data"])
def test_integer_beyond_the_float_range_is_config_error(workdir, tmp_path, capsys, command,
                                                         key, name):
    """An integer in a float key must convert to a finite float.

    Each one was a traceback before: 10**400 as lr or defect_delta raised
    OverflowError in float(), and as contrast a TypeError from np.isfinite.
    """
    root, config, data = workdir
    user = json.loads(open(config).read())
    user["train"]["epochs"] = 1
    *parents, field = key
    functools.reduce(operator.getitem, parents, user)[field] = 10 ** 400
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    argv = {"train": ["--data", data, "--out", str(tmp_path / "x.ckpt")],
            "gen-data": ["--out", str(tmp_path / "gen")]}[command]
    assert main([command, "--config", str(bad)] + argv) == 1
    assert capsys.readouterr().err == (f"config error: config {bad}: {name} must be a finite "
                                       "number, got an integer of 401 digits\n")
    assert os.listdir(tmp_path) == ["bad.json"]


def test_integer_in_a_float_key_reads_as_that_float(workdir, tmp_path, capsys):
    # a contrast of 10**20 raised a TypeError from np.isfinite; as 1e20 it saturates
    # texture-b's images, so both runs stop at its first defect
    root, config, data = workdir
    outcomes = []
    for contrast in (10 ** 20, 1e20):
        user = json.loads(open(config).read())
        user["data"]["modalities"][1]["contrast"] = contrast
        path = tmp_path / "user.json"
        path.write_text(json.dumps(user), encoding="utf-8")
        out = tmp_path / "gen"
        code = main(["gen-data", "--config", str(path), "--out", str(out)])
        outcomes.append((code, capsys.readouterr().err, tree_bytes(out)))
        shutil.rmtree(out)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][:2] == (2, "error: defect vanished in texture-b sample 0\n")


def test_training_image_that_fails_to_load_mid_run_writes_nothing(workdir, tmp_path, capsys,
                                                                   monkeypatch):
    """A zero-shot set larger than one batch loads each step's images when it runs.

    An image cut short after the first step fails a later step: exit 2 with
    the reader's error, and neither the checkpoint nor the loss log written.
    """
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    rows = [json.loads(line) for line in (copy / "train.jsonl").read_text().splitlines()]
    image = copy / next(row["image"] for row in rows if row["modality"] != "texture-c")
    steps = []
    adam_step = objective.adam_step

    def step_then_truncate(*args, **kwargs):
        adam_step(*args, **kwargs)
        if not steps:
            image.write_bytes(image.read_bytes()[:-1])
        steps.append(len(steps) + 1)

    monkeypatch.setattr(objective, "adam_step", step_then_truncate)
    ckpt = tmp_path / "m.ckpt"
    assert main(["train", "--config", config, "--data", str(copy), "--out", str(ckpt),
                 "--mode", "zero-shot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {image}: ") and "Traceback" not in err
    assert steps and sorted(os.listdir(tmp_path)) == ["data"]


def _on_the_worker(monkeypatch, act):
    """Make a zero-shot step of 4 two graphs of 2; ``act`` gets the worker's first sample.

    ``act`` runs on the first sample of the first step's second graph, which
    the forked worker runs, before training starts: ``objective.train``
    takes each epoch's order from its seed.
    """
    train = objective.train

    def wrapped(backbone, params, samples, text_features, config, *args, **kwargs):
        act(samples[np.random.default_rng(config.seed).permutation(len(samples))[2]])
        return train(backbone, params, samples, text_features, config, *args, **kwargs)

    monkeypatch.setattr(objective, "SUB_BATCH", 2)
    monkeypatch.setattr(objective, "train", wrapped)


def test_non_finite_loss_in_a_later_graph_of_the_first_step_writes_nothing(
        workdir, tmp_path, capsys, monkeypatch):
    """A step of 4 runs as graphs of 2; only the loss of its second graph is NaN.

    That graph runs on the worker. The first graph's backward has run, but
    the step raises before its Adam update: exit 3 with the step named, and
    neither the checkpoint nor the loss log written. The NaN follows a
    sample, and the calls are logged to a file, because the worker has its
    own copy of any counter.
    """
    root, config, data = workdir
    marked = []
    holds_marked = [False]
    step_inputs, total_loss = objective._step_inputs, objective.total_loss

    def inputs(backbone, samples):
        holds_marked[0] = any(sample is marked[0] for sample in samples)
        return step_inputs(backbone, samples)

    def nan_for_the_marked_sample(*args, **kwargs):
        totals = total_loss(*args, **kwargs)
        return autograd.scale(totals, np.nan) if holds_marked[0] else totals

    log = tmp_path / "calls.txt"
    _on_the_worker(monkeypatch, marked.append)
    monkeypatch.setattr(objective, "_step_inputs", inputs)
    monkeypatch.setattr(objective, "total_loss",
                        logged(log, nan_for_the_marked_sample, lambda *a, **k: "loss"))
    monkeypatch.setattr(autograd, "backward",
                        logged(log, autograd.backward, lambda *a, **k: "backward"))
    monkeypatch.setattr(objective, "adam_step",
                        logged(log, objective.adam_step, lambda *a: "adam"))
    out = tmp_path / "out"
    out.mkdir()
    code = main(["train", "--config", config, "--data", data, "--out", str(out / "m.ckpt"),
                 "--mode", "zero-shot"])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numeric failure: non-finite loss at epoch 1, step 1\n"
    calls = read_lines(log)
    assert {name: calls.count(name) for name in ("loss", "backward", "adam")} == {
        "loss": 2, "backward": 1, "adam": 0}
    assert os.listdir(out) == []


def test_an_image_that_fails_to_load_on_the_worker_fails_as_in_one_process(
        workdir, tmp_path, capsys, monkeypatch):
    # the first step's second graph, which the worker runs, holds the cut image;
    # without os.fork the step runs here, and the error reads the same
    root, config, data = workdir
    outcomes = []
    for name in ("forked", "one_process"):
        copy = tmp_path / name / "data"
        shutil.copytree(data, copy)
        with monkeypatch.context() as patch:
            forks = count_forks(patch)
            if name == "one_process":
                patch.delattr(os, "fork")
            _on_the_worker(patch, lambda sample: Path(sample.image).write_bytes(
                Path(sample.image).read_bytes()[:-1]))
            code = main(["train", "--config", config, "--data", str(copy),
                         "--out", str(tmp_path / name / "m.ckpt"), "--mode", "zero-shot"])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {copy}") and "Traceback" not in err
        assert sorted(os.listdir(tmp_path / name)) == ["data"]
        assert len(forks) == (name == "forked")
        outcomes.append((code, err.replace(str(copy), "<data>")))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2


@pytest.mark.parametrize("end", ["return", "raise", "interrupt"])
def test_training_leaves_no_process_behind(workdir, tmp_path, capsys, monkeypatch, end):
    """No worker outlives ``train``, whether it returns, raises or is interrupted.

    A NaN in every graph raises in this process once the worker's reply to
    the step is in; a KeyboardInterrupt comes from the second Adam update.
    A failed run writes neither the checkpoint nor the loss log.
    """
    root, config, data = workdir
    monkeypatch.setattr(objective, "SUB_BATCH", 2)
    if end == "raise":
        total_loss = objective.total_loss
        monkeypatch.setattr(objective, "total_loss", lambda *args, **kwargs: autograd.scale(
            total_loss(*args, **kwargs), np.nan))
    elif end == "interrupt":
        adam_step = objective.adam_step

        def interrupted(named, grads, state, lr):
            adam_step(named, grads, state, lr)
            if state.step == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(objective, "adam_step", interrupted)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["train", "--config", config, "--data", data, "--out", str(out / "m.ckpt"),
            "--mode", "zero-shot"]
    if end == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == {"return": 0, "raise": 3}[end]
    capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(out)) == (["m.ckpt", "m.ckpt.loss.csv"] if end == "return"
                                       else [])


def _here_or_worker(caller):
    """A call-log line: "here" in the process ``caller``, "worker" in any other."""
    return lambda *args, **kwargs: "here" if os.getpid() == caller else "worker"


def test_a_nan_in_the_callers_graph_lets_the_workers_graph_finish(workdir, tmp_path, capsys,
                                                                  monkeypatch):
    """The first step's graph here has a NaN loss; the worker's graph still runs.

    A zero-shot step of 4 runs 2 samples here and 2 on the worker, one graph
    each. The worker's loss is slowed, so a kill at this process's error
    would stop it before its backward. ``train`` waits for the worker's
    reply, then raises: exit 3, nothing written, no child process left.
    """
    root, config, data = workdir
    caller, total_loss = os.getpid(), objective.total_loss

    def nan_here_slow_on_the_worker(*args, **kwargs):
        totals = total_loss(*args, **kwargs)
        if os.getpid() == caller:
            return autograd.scale(totals, np.nan)
        time.sleep(0.3)
        return totals

    log, where = tmp_path / "calls.txt", _here_or_worker(caller)
    monkeypatch.setattr(objective, "total_loss",
                        logged(log, nan_here_slow_on_the_worker, where))
    monkeypatch.setattr(autograd, "backward", logged(
        log, autograd.backward, lambda *a, **k: f"backward {where()}"))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["train", "--config", config, "--data", data, "--out", str(out / "m.ckpt"),
                 "--mode", "zero-shot"]) == 3
    assert capsys.readouterr().err == "numeric failure: non-finite loss at epoch 1, step 1\n"
    assert sorted(read_lines(log)) == ["backward worker", "here", "worker"]
    assert os.listdir(out) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def scoring_sets(tmp_path_factory):
    """``make(images)``: a texture-c dataset of that many test images, a model and its bank.

    Returns (config, data, ckpt, bank) paths; the checkpoint is untrained.
    """
    root = tmp_path_factory.mktemp("scoring")
    made = {}

    def make(images):
        if images not in made:
            base = root / str(images)
            base.mkdir()
            cfg = json.loads(json.dumps(CONFIG))
            cfg["data"]["modalities"] = cfg["data"]["modalities"][2:]
            cfg["data"]["test_normals"] = images // 2
            cfg["data"]["test_anomalies"] = images - images // 2
            (base / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            config, data, ckpt, bank = (str(base / name) for name in
                                        ("config.json", "data", "m.ckpt", "bank.bin"))
            flags = ["--config", config, "--data", data]
            assert main(["gen-data", "--config", config, "--out", data]) == 0
            assert main(["train", *flags, "--out", ckpt, "--epochs", "0"]) == 0
            assert main(["build-bank", *flags, "--ckpt", ckpt, "--out", bank]) == 0
            made[images] = config, data, ckpt, bank
        return made[images]

    return make


def _scoring_commands(config, data, ckpt, bank, out):
    """eval (with its CSV) and predict of the few-shot model, writing under ``out``."""
    flags = ["--config", config, "--data", data, "--ckpt", ckpt, "--bank", bank]
    return {"eval": ["eval", *flags, "--out", str(out / "report.json"),
                     "--csv", str(out / "report.csv")],
            "predict": ["predict", *flags, "--out-dir", str(out / "maps")]}


def _fail_to_load_when_scored(monkeypatch, index):
    """Cut the image of test sample ``index`` when scoring starts, before it is loaded."""
    score_samples = metrics.score_samples

    def cut_then_score(backbone, params, samples, *args, **kwargs):
        image = Path(samples[index].image)
        image.write_bytes(image.read_bytes()[:-1])
        return score_samples(backbone, params, samples, *args, **kwargs)

    monkeypatch.setattr(metrics, "score_samples", cut_then_score)


@pytest.mark.parametrize("images", [8, 16, 37, 100])
def test_eval_and_predict_write_the_same_bytes_with_and_without_fork(scoring_sets, tmp_path,
                                                                    capsys, monkeypatch,
                                                                    images):
    # 1 chunk scores in one process; 2, 5 and 13 chunks fork one worker per command
    config, data, ckpt, bank = scoring_sets(images)
    outputs = {}
    for name in ("forked", "one_process"):
        out = tmp_path / name
        with monkeypatch.context() as patch:
            forks = count_forks(patch)
            if name == "one_process":
                patch.delattr(os, "fork")
            for argv in _scoring_commands(config, data, ckpt, bank, out).values():
                assert main(argv) == 0
        assert len(forks) == (2 if name == "forked" and images > 8 else 0)
        outputs[name] = tree_bytes(out)
    capsys.readouterr()
    assert len(outputs["forked"]) == 2 + 2 * images + 1
    assert outputs["forked"] == outputs["one_process"]


def test_a_fork_that_fails_runs_gen_data_train_and_eval_here_with_the_same_bytes(
        scoring_sets, tmp_path, capsys, monkeypatch):
    """With ``os.fork`` raising EAGAIN, as under a process limit, each command runs here.

    gen-data, train and eval each try one fork, on their first split, and
    then run every split in this process, writing the bytes of the forked
    run. Before, each exited 2 on the ``BlockingIOError``.
    """
    config = scoring_sets(16)[0]
    outputs, tries = {}, {}
    for name in ("forked", "fork_fails"):
        out = tmp_path / name
        data, ckpt, bank = str(out / "data"), str(out / "m.ckpt"), str(out / "bank.bin")
        flags = ["--config", config, "--data", data]
        with monkeypatch.context() as patch:
            if name == "forked":
                tries[name] = count_forks(patch)
            else:
                tries[name] = []

                def failing_fork():
                    tries["fork_fails"].append(None)
                    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

                patch.setattr(os, "fork", failing_fork)
            for argv in (["gen-data", "--config", config, "--out", data],
                         ["train", *flags, "--out", ckpt],
                         ["build-bank", *flags, "--ckpt", ckpt, "--out", bank],
                         ["eval", *flags, "--ckpt", ckpt, "--bank", bank,
                          "--out", str(out / "report.json")]):
                assert main(argv) == 0, argv[0]
        outputs[name] = tree_bytes(out)
    capsys.readouterr()
    assert len(tries["forked"]) == len(tries["fork_fails"]) == 3
    assert {"m.ckpt", "m.ckpt.loss.csv", "report.json"} <= set(outputs["forked"])
    assert outputs["forked"] == outputs["fork_fails"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_an_image_that_fails_to_load_in_the_scoring_worker_fails_as_in_one_process(
        scoring_sets, tmp_path, capsys, monkeypatch, command):
    # 5 chunks: this process scores 2 and the worker 3; the worker's last
    # chunk holds the cut image, so predict writes the maps of the 4 chunks
    # before it, and eval writes nothing
    config, data, ckpt, bank = scoring_sets(37)
    outcomes = []
    for name in ("forked", "one_process"):
        copy = tmp_path / name / "data"
        shutil.copytree(data, copy)
        out = tmp_path / name / "out"
        with monkeypatch.context() as patch:
            forks = count_forks(patch)
            if name == "one_process":
                patch.delattr(os, "fork")
            _fail_to_load_when_scored(patch, 36)
            code = main(_scoring_commands(config, str(copy), ckpt, bank, out)[command])
        err = capsys.readouterr().err
        assert len(forks) == (name == "forked")
        assert err.startswith(f"error: {copy}") and "Traceback" not in err
        outcomes.append((code, err.replace(str(copy), "<data>"), sorted(tree_bytes(out))))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] == 2
    assert len(outcomes[0][2]) == (2 * 32 if command == "predict" else 0)


@pytest.mark.parametrize("end", ["return", "raise", "interrupt"])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_scoring_leaves_no_process_behind(scoring_sets, tmp_path, capsys, monkeypatch,
                                          command, end):
    """No scoring worker outlives eval or predict, however the command ends.

    The first image fails to load, and the error is raised once the worker
    has scored its half; or a KeyboardInterrupt comes from this process's
    first pair, and the worker is killed in its half.
    """
    config, data, ckpt, bank = scoring_sets(37)
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    forks = count_forks(monkeypatch)
    if end == "raise":
        _fail_to_load_when_scored(monkeypatch, 0)
    elif end == "interrupt":
        caller, bool_mask = os.getpid(), metrics.bool_mask

        def interrupted(mask):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return bool_mask(mask)

        monkeypatch.setattr(metrics, "bool_mask", interrupted)
    argv = _scoring_commands(config, str(copy), ckpt, bank, tmp_path / "out")[command]
    if end == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == {"return": 0, "raise": 2}[end]
    capsys.readouterr()
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_load_error_in_the_callers_half_lets_the_scoring_workers_half_finish(
        scoring_sets, tmp_path, capsys, monkeypatch):
    """The first image fails to load here; the worker still scores its half.

    5 chunks: 2 here and 3 on the worker, whose chunks are slowed, so a kill
    at this process's error would stop it in its first. ``eval`` waits for
    the worker's reply, then exits 2: nothing written, no child process left.
    """
    config, data, ckpt, bank = scoring_sets(37)
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    caller, score_batch = os.getpid(), metrics.score_batch

    def slow_on_the_worker(*args, **kwargs):
        if os.getpid() != caller:
            time.sleep(0.1)
        return score_batch(*args, **kwargs)

    log = tmp_path / "calls.txt"
    monkeypatch.setattr(metrics, "score_batch",
                        logged(log, slow_on_the_worker, _here_or_worker(caller)))
    _fail_to_load_when_scored(monkeypatch, 0)
    out = tmp_path / "out"
    assert main(_scoring_commands(config, str(copy), ckpt, bank, out)["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {copy}") and "Traceback" not in err
    assert read_lines(log) == ["worker"] * 3
    assert tree_bytes(out) == {}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_each_command_loads_the_manifests_once(workdir, tmp_path, capsys, monkeypatch):
    root, config, data = workdir
    paths = []
    original = datamod.load_manifest

    def counted(path, *args, **kwargs):
        paths.append(path)
        return original(path, *args, **kwargs)

    monkeypatch.setattr(datamod, "load_manifest", counted)
    ckpt, bank = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.bin")
    flags = ["--config", config, "--data", data]
    for argv in (["train", *flags, "--out", ckpt],
                 ["build-bank", *flags, "--ckpt", ckpt, "--out", bank],
                 ["eval", *flags, "--ckpt", ckpt, "--bank", bank],
                 ["predict", *flags, "--ckpt", ckpt, "--bank", bank,
                  "--out-dir", str(tmp_path / "pred")],
                 ["ablate", *flags, "--out", str(tmp_path / "ablation"), "--epochs", "1",
                  "--include-single"]):
        paths.clear()
        assert main(argv) == 0
        assert [os.path.basename(p) for p in paths] == ["train.jsonl", "test.jsonl"], argv[0]
    capsys.readouterr()


def _break_row(data, split, sample, kind):
    """Break ``sample`` of ``split``.jsonl in ``data``; returns a command's error on it.

    ``label`` writes a mask that contradicts the row's label, ``shape`` an
    image one column wider than its mask, and ``cut`` drops the mask's last
    byte. The expected text is that of the manifest check that ran before
    any command read a row, which named the manifest and line.
    """
    manifest = os.path.join(data, f"{split}.jsonl")
    lines = [json.loads(line)["image"] for line in open(manifest, encoding="utf-8")]
    where = f"{manifest}: line {lines.index(os.path.relpath(sample.image, data)) + 1}"
    mask = read_pgm(sample.mask)
    if kind == "label":
        datamod.write_pgm(sample.mask, np.full_like(mask, 255 * (1 - sample.label)))
        return f"error: {where}: label {sample.label} is inconsistent with the mask content\n"
    if kind == "shape":
        h, w = mask.shape
        datamod.write_pgm(sample.image, np.zeros((h, w + 1), np.uint8))
        return (f"error: {where}: mask shape {(h, w)} does not match image shape "
                f"{(h, w + 1)}\n")
    payload = Path(sample.mask).read_bytes()
    Path(sample.mask).write_bytes(payload[:-1])
    return (f"error: {sample.mask}: expected {mask.size} pixel bytes, found "
            f"{mask.size - 1} at byte {len(payload) - mask.size}\n")


def test_a_broken_row_that_no_command_reads_fails_none(workdir, tmp_path, capsys):
    """The texture-c commands never read a texture-a test row, so none checks it.

    Three texture-a test rows are broken three ways; before, each command
    checked every row of both manifests first and exited 2. Each output is
    that of the intact set.
    """
    root, config, data = workdir
    copy = str(tmp_path / "data")
    shutil.copytree(data, copy)
    out = tmp_path / "out"
    flags = ["--config", config, "--data", copy]
    model = ["--ckpt", str(out / "m.ckpt"), "--bank", str(out / "bank.bin")]
    commands = [["train", *flags, "--out", str(out / "m.ckpt")],
                ["build-bank", *flags, "--ckpt", str(out / "m.ckpt"),
                 "--out", str(out / "bank.bin")],
                ["eval", *flags, *model, "--out", str(out / "report.json")],
                ["predict", *flags, *model, "--out-dir", str(out / "maps")]]
    outputs = []
    for broken in (False, True):
        if broken:
            rows = [s for s in cli._manifests(copy)[1] if s.modality == "texture-a"]
            for sample, kind in zip(rows, ("label", "shape", "cut")):
                _break_row(copy, "test", sample, kind)
        for argv in commands:
            assert main(argv) == 0, argv[0]
        outputs.append(tree_bytes(out))
        shutil.rmtree(out)
    capsys.readouterr()
    assert outputs[0] == outputs[1] and len(outputs[0]) == 4 + 2 * 6 + 1


@pytest.mark.parametrize("kind", ["label", "shape", "cut"])
@pytest.mark.parametrize("command", ["train", "zero-shot train", "build-bank", "eval",
                                     "predict"])
def test_a_broken_row_that_a_command_reads_fails_it_as_before(
        workdir, scoring_sets, tmp_path, capsys, monkeypatch, command, kind):
    """A broken row that a command reads exits 2 with the manifest check's message.

    The row is checked when it is loaded: a few-shot train sample, a bank
    normal, a zero-shot training sample on a step that may run on the
    worker, or the last of 37 test images, which the scoring worker loads
    in its last chunk. Forked or with ``os.fork`` removed, the exit code,
    the message and what is written are the same. Nothing is written but
    ``predict``'s maps of the 4 chunks before the broken one.
    """
    if command == "zero-shot train":
        _, config, data = workdir
    else:
        config, data, ckpt, bank = scoring_sets(37)
    outcomes = []
    for name in ("forked", "one_process"):
        copy = str(tmp_path / name / "data")
        shutil.copytree(data, copy)
        cfg = json.loads(Path(config).read_text(encoding="utf-8"))
        train_set, normals, test = datamod.few_shot_split(
            *cli._manifests(copy), "texture-c", cfg["inference"]["k"], cfg["train"]["seed"])
        out = tmp_path / name / "out"
        flags = ["--config", config, "--data", copy]
        if command == "zero-shot train":
            sample = next(s for s in cli._manifests(copy)[0] if s.modality == "texture-a")
            split, argv = "train", ["train", *flags, "--mode", "zero-shot",
                                    "--out", str(out / "m.ckpt")]
        elif command == "train":
            split, sample, argv = "train", train_set[0], ["train", *flags,
                                                          "--out", str(out / "m.ckpt")]
        elif command == "build-bank":
            split, sample, argv = "train", normals[-1], [
                "build-bank", *flags, "--ckpt", ckpt, "--out", str(out / "bank.bin")]
        else:
            split, sample = "test", test[-1]
            argv = _scoring_commands(config, copy, ckpt, bank, out)[command]
        expected = _break_row(copy, split, sample, kind)
        with monkeypatch.context() as patch:
            if name == "one_process":
                patch.delattr(os, "fork")
            code = main(argv)
        err = capsys.readouterr().err
        assert (code, err) == (2, expected)
        outcomes.append((err.replace(copy, "<data>"), sorted(tree_bytes(out))))
    assert outcomes[0] == outcomes[1]
    assert len(outcomes[0][1]) == (2 * 32 if command == "predict" else 0)


@pytest.mark.parametrize("section, key, command", [
    ("train", "bogus", "train"), ("backbone", "dims", "train"), ("data", "sed", "gen-data"),
    ("model", "arhc", "train"), ("inference", "beta3", "eval"), (None, "trian", "train"),
    ("modality profile", "contrats", "gen-data"), ("inference", "normalize_few", "eval"),
    ("model", "branch_feed", "train"), ("model", "bottleneck", "train")])
def test_unknown_config_key_is_config_error(workdir, tmp_path, capsys, section, key, command):
    root, config, data = workdir
    user = json.loads(open(config).read())
    if section is None:
        user[key] = {}
    elif section == "modality profile":
        user["data"]["modalities"][1][key] = 0.5
    else:
        user[section][key] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    argv = {"train": ["--data", data, "--out", str(tmp_path / "x.ckpt")],
            "gen-data": ["--out", str(tmp_path / "gen")],
            "eval": ["--data", data, "--ckpt", str(tmp_path / "missing.ckpt")]}[command]
    assert main([command, "--config", str(bad)] + argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and repr(key) in err and "Traceback" not in err
    if section in CONFIG:
        assert repr(section) in err
    assert not os.path.exists(tmp_path / "x.ckpt") and not os.path.exists(tmp_path / "gen")


@pytest.mark.parametrize("section, key, value, command", [
    ("train", "lr", "fast", "train"), ("backbone", "dim", "64", "train"),
    ("data", "seed", "42", "gen-data"), ("train", "epochs", True, "train"),
    ("train", "levels", [1, "2"], "train")])
def test_mistyped_config_value_is_config_error(workdir, tmp_path, capsys, section, key, value,
                                               command):
    root, config, data = workdir
    user = json.loads(open(config).read())
    user.setdefault(section, {})[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    argv = {"train": ["--data", data, "--out", str(tmp_path / "x.ckpt")],
            "gen-data": ["--out", str(tmp_path / "gen")]}[command]
    assert main([command, "--config", str(bad)] + argv) == 1
    err = capsys.readouterr().err
    assert f"config error: config {bad}: {section}.{key}" in err and "Traceback" not in err
    assert not os.path.exists(tmp_path / "x.ckpt") and not os.path.exists(tmp_path / "gen")


@pytest.mark.parametrize("section, key, value, command", [
    ("backbone", "heads", 0, "train"), ("backbone", "heads", -2, "train"),
    ("backbone", "dim", 0, "train"), ("data", "defect_radius", [6], "gen-data"),
    ("data", "defect_count", [1], "gen-data"), ("data", "benign_count", [2, 1], "gen-data"),
    ("data", "benign_radius", [-3, 1], "gen-data"),
    ("data", "defect_count", [1, 2, 3], "gen-data"),
    ("data", "benign_radius", [1.5, 7.0], "gen-data")])
def test_invalid_config_value_is_config_error(workdir, tmp_path, capsys, section, key, value,
                                              command):
    root, config, data = workdir
    user = json.loads(open(config).read())
    user[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    argv = {"train": ["--data", data, "--out", str(tmp_path / "x.ckpt")],
            "gen-data": ["--out", str(tmp_path / "gen")]}[command]
    assert main([command, "--config", str(bad)] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not os.path.exists(tmp_path / "x.ckpt") and not os.path.exists(tmp_path / "gen")


# every flag of each subcommand: a setting flag maps to the config key it sets
FLAGS = {
    "gen-data": {"--config": None, "--out": None, "--seed": "data.seed"},
    "train": {"--config": None, "--data": None, "--out": None, "--loss-log": None,
              "--prompts": None, "--mode": "inference.mode", "--target": "inference.target",
              "--k": "inference.k", "--epochs": "train.epochs", "--lr": "train.lr",
              "--batch-size": "train.batch_size", "--seed": "train.seed",
              "--gamma": "train.gamma", "--tau": "train.tau", "--levels": "train.levels",
              "--arch": "model.arch", "--adapter-style": "model.adapter_style"},
    "build-bank": {"--config": None, "--data": None, "--ckpt": None, "--out": None,
                   "--target": "inference.target", "--k": "inference.k",
                   "--seed": "train.seed"},
    "predict": {"--config": None, "--ckpt": None, "--bank": None, "--data": None,
                "--manifest": None, "--out-dir": None, "--beta1": None, "--beta2": None,
                "--prompts": None, "--target": "inference.target", "--mode": "inference.mode"},
    "eval": {"--config": None, "--ckpt": None, "--bank": None, "--data": None,
             "--beta1": None, "--beta2": None, "--out": None, "--csv": None, "--prompts": None,
             "--target": "inference.target", "--mode": "inference.mode", "--k": "inference.k"},
    "ablate": {"--config": None, "--data": None, "--out": None, "--archs": None,
               "--include-single": None, "--prompts": None, "--target": "inference.target",
               "--mode": "inference.mode", "--k": "inference.k", "--epochs": "train.epochs",
               "--seed": "train.seed", "--levels": "train.levels"},
}
FLAG_CHOICES = {"--mode": ["zero-shot", "few-shot"], "--arch": ["adapter", "projector"],
                "--adapter-style": ["dual", "single"]}
# a flag's text and the typed value it puts in the config
FLAG_VALUES = {"--mode": ("zero-shot", "zero-shot"), "--target": ("texture-a", "texture-a"),
               "--k": ("3", 3), "--epochs": ("5", 5), "--lr": ("0.5", 0.5),
               "--batch-size": ("2", 2), "--seed": ("9", 9), "--gamma": ("0.25", 0.25),
               "--tau": ("0.5", 0.5), "--levels": ("1,2", [1, 2]),
               "--arch": ("projector", "projector"), "--adapter-style": ("single", "single")}


def required_args(command, tmp_path, data):
    """Each subcommand's required flags, with every output under tmp_path."""
    ckpt = str(tmp_path / "x.ckpt")
    return {"gen-data": ["--out", str(tmp_path / "gen")],
            "train": ["--data", data, "--out", ckpt],
            "build-bank": ["--data", data, "--ckpt", ckpt, "--out", str(tmp_path / "bank.bin")],
            "predict": ["--ckpt", ckpt, "--out-dir", str(tmp_path / "pred")],
            "eval": ["--data", data, "--ckpt", ckpt],
            "ablate": ["--data", data, "--out", str(tmp_path / "ablation")]}[command]


def test_each_command_takes_its_flags_with_their_choices():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(subparsers.choices) == sorted(FLAGS)
    for command, flags in FLAGS.items():
        actions = [a for a in subparsers.choices[command]._actions if "-h" not in a.option_strings]
        assert sorted(a.option_strings[0] for a in actions) == sorted(flags), command
        for action in actions:
            choices = list(action.choices) if action.choices else None
            assert choices == FLAG_CHOICES.get(action.option_strings[0]), command


@pytest.mark.parametrize("command, flag, key", [
    (command, flag, key) for command, flags in FLAGS.items()
    for flag, key in flags.items() if key])
def test_setting_flag_overrides_its_config_key(workdir, tmp_path, command, flag, key):
    root, config, data = workdir
    text, value = FLAG_VALUES[flag]
    argv = [command, "--config", config, *required_args(command, tmp_path, data)]
    section, name = key.split(".")
    assert cli._config(build_parser().parse_args(argv))[section].get(name) != value
    given = cli._config(build_parser().parse_args(argv + [flag, text]))[section][name]
    assert given == value and type(given) is type(value)


@pytest.mark.parametrize("command", sorted(FLAGS))
@pytest.mark.parametrize("section, key", [("inference", "mode"), ("model", "arch"),
                                          ("model", "adapter_style")])
def test_config_value_outside_its_choices_is_config_error(workdir, tmp_path, capsys, command,
                                                          section, key):
    root, config, data = workdir
    user = json.loads(open(config).read())
    user[section][key] = "zero-shoot"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    assert main([command, "--config", str(bad), *required_args(command, tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert f"config error: config {bad}: {section}.{key} must be one of" in err
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == ["bad.json"]


@pytest.mark.parametrize("command, flag, text", [
    ("train", "--lr", "fast"), ("eval", "--k", "2.5"), ("gen-data", "--seed", "x"),
    ("predict", "--mode", "zero-shoot")])
def test_setting_flag_of_the_wrong_type_is_usage_error(workdir, tmp_path, capsys, command,
                                                       flag, text):
    root, config, data = workdir
    argv = [command, "--config", config, flag, text, *required_args(command, tmp_path, data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}") and "Traceback" not in err
    assert os.listdir(tmp_path) == []



@pytest.mark.parametrize("command, flag, text", [
    ("train", "--lr", "inf"), ("train", "--gamma", "nan"), ("train", "--tau", "inf"),
    ("eval", "--beta1", "inf"), ("eval", "--beta2", "1e999"),
    ("predict", "--beta1", "1e999"), ("predict", "--beta2", "NaN")])
def test_non_finite_float_flag_is_usage_error(workdir, tmp_path, capsys, command, flag, text):
    # eval --beta1 inf reported AUC 0.5 / 0.5 with exit 0, predict wrote inf
    # scores, and train --tau inf wrote a checkpoint trained at a flat loss
    root, config, data = workdir
    argv = [command, "--config", config, flag, text, *required_args(command, tmp_path, data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {flag}: expected a finite number, "
                          f"got {text!r}")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command, section, key, flags, message", [
    ("train", "train", "seed", [], "train seed"),
    ("train", "model", "init_seed", [], "init seed"),
    ("gen-data", "data", "seed", [], "data seed"),
    ("gen-data", None, None, ["--seed", "-1"], "data seed"),
    ("build-bank", None, None, ["--seed", "-1"], "few-shot split seed")])
def test_negative_seed_is_config_error(workdir, tmp_path, capsys, command, section, key, flags,
                                       message):
    root, config, data = workdir
    user = json.loads(open(config).read())
    if section:
        user[section][key] = -1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(user), encoding="utf-8")
    if command == "build-bank":
        assert main(["train", "--config", str(config), "--data", data,
                     "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 0
        capsys.readouterr()
    argv = [command, "--config", str(config), *flags, *required_args(command, tmp_path, data)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"{message} must be nonnegative, got -1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "gen").exists() and not (tmp_path / "bank.bin").exists()


@pytest.mark.parametrize("argv", [["train", "--branch-feed", "cls"],
                                  ["eval", "--ckpt", "x.ckpt", "--pixel-per-image"]])
def test_deleted_flags_are_usage_errors(workdir, tmp_path, capsys, argv):
    root, config, data = workdir
    out = ["--out", str(tmp_path / "x.ckpt")] if argv[0] == "train" else []
    assert main(argv + ["--config", config, "--data", data] + out) == 1
    assert "usage error: unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("user, message", [
    ([1], "the file must be a JSON object"), ({"train": 3}, "'train' must be a JSON object"),
    ({"data": {"modalities": 5}}, "data.modalities must be a JSON list")])
def test_malformed_config_is_config_error(tmp_path, capsys, user, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user), encoding="utf-8")
    assert main(["gen-data", "--config", str(bad), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command, section, key, constant", [
    ("eval", "inference", "tau", "NaN"), ("train", "train", "lambda1", "NaN"),
    ("train", "train", "lr", "NaN"), ("gen-data", "data", "defect_delta", "NaN"),
    ("gen-data", "data", "defect_delta", "Infinity"),
    ("gen-data", "data", "defect_delta", "-Infinity"),
    ("gen-data", "data", "defect_delta", "1e999")])
def test_non_finite_number_in_a_config_file_is_config_error(workdir, tmp_path, capsys, command,
                                                            section, key, constant):
    """json.loads reads NaN, Infinity, -Infinity and 1e999; the config reader refuses them.

    Each NaN case exited 0 with wrong output before: a NaN inference tau made
    zero-shot eval report image AUC 1.0, a NaN lambda1 dropped the Dice term
    from the loss, a NaN lr wrote an all-NaN checkpoint, and a NaN
    defect_delta wrote images cast from NaN to uint8.
    """
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    if command == "eval":
        assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                     "--epochs", "0"]) == 0
    user = json.loads(open(config).read())
    user["train"]["epochs"] = 1
    user[section][key] = "@"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(user).replace('"@"', constant), encoding="utf-8")
    out = tmp_path / "out"
    args = {"gen-data": [], "train": ["--data", data],
            "eval": ["--data", data, "--ckpt", str(ckpt), "--mode", "zero-shot"]}[command]
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--out", str(out)] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {bad}: {constant} is not a finite number")
    assert not out.exists()


def test_nonpositive_train_tau_is_config_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    code = main(["train", "--config", config, "--data", data,
                 "--out", str(tmp_path / "x.ckpt"), "--tau", "0"])
    assert code == 1
    assert "temperature must be positive" in capsys.readouterr().err


def test_train_k_exceeding_pool_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    code = main(["train", "--config", config, "--data", data,
                 "--out", str(tmp_path / "x.ckpt"), "--k", "99"])
    assert code == 2
    assert "exceeds" in capsys.readouterr().err


def test_unusable_bank_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    bank = str(tmp_path / "bank.bin")
    for width, value, message in ((8, 0.25, "width 8, but the checkpoint's features "
                                   "have width 16"),
                                  (16, np.nan, "non-finite value")):
        rows = np.full((4, width), value, dtype=np.float32)
        save_bank(bank, MemoryBank([rows] * 4, [rows] * 4, file_sha256(ckpt)))
        for command in (["eval"], ["predict", "--out-dir", str(tmp_path / "pred")]):
            code = main(command + ["--config", config, "--data", data, "--ckpt", ckpt,
                                   "--bank", bank])
            err = capsys.readouterr().err
            assert code == 2
            assert message in err and "Traceback" not in err



def test_bank_of_another_checkpoint_is_data_error(workdir, tmp_path, capsys):
    # a bank paired with any checkpoint of its width scored against the wrong features
    root, config, data = workdir
    ckpts = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    banks = [tmp_path / "a.bank", tmp_path / "b.bank"]
    for epochs, ckpt, bank in zip(("0", "1"), ckpts, banks):
        assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                     "--epochs", epochs]) == 0
        assert main(["build-bank", "--config", config, "--data", data, "--ckpt", str(ckpt),
                     "--out", str(bank)]) == 0
    capsys.readouterr()
    for ckpt, bank in zip(ckpts, banks[::-1]):
        out, out_dir = tmp_path / "report.json", tmp_path / "pred"
        for command in (["eval", "--out", str(out)], ["predict", "--out-dir", str(out_dir)]):
            assert main(command + ["--config", config, "--data", data, "--ckpt", str(ckpt),
                                   "--bank", str(bank)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bank} was not built from {ckpt}")
        assert not out.exists() and not out_dir.exists()
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpts[1]),
                 "--bank", str(banks[1])]) == 0
    capsys.readouterr()


def test_checkpoint_alone_fixes_the_eval_report(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt, bank = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.bin")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt]) == 0
    assert main(["build-bank", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--out", bank]) == 0
    reports = []
    for model in ({}, {"arch": "projector", "adapter_style": "single", "init_seed": 3}):
        other = tmp_path / f"config{len(reports)}.json"
        other.write_text(json.dumps({**CONFIG, "model": model}), encoding="utf-8")
        report = tmp_path / f"report{len(reports)}.json"
        assert main(["eval", "--config", str(other), "--data", data, "--ckpt", ckpt,
                     "--bank", bank, "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_checkpoint_shape_off_its_dim_is_data_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    forge(ckpt, lambda header: header["backbone"].update(dim=32))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "has shape (16, 4), but dim 32 needs (32, 8)" in err and "Traceback" not in err


@pytest.mark.parametrize("field, value, message", [
    ("stages", 3, "exactly 4 stages"),
    ("blocks_per_stage", 0, "blocks_per_stage must be at least 1"),
    ("heads", 0, "heads must be at least 1")], ids=["stages", "blocks_per_stage", "heads"])
def test_checkpoint_header_field_out_of_range_is_data_error(workdir, tmp_path, capsys, field,
                                                            value, message):
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    forge(ckpt, lambda header: header["backbone"].update({field: value}))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: invalid header") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("image_size", 16 + 2 ** 24),
                                          ("blocks_per_stage", 1 + 2 ** 20)],
                         ids=["image_size", "blocks_per_stage"])
def test_checkpoint_header_of_a_huge_encoder_is_data_error(workdir, tmp_path, capsys, field,
                                                           value):
    # one high bit set in a field. Building that encoder raised a raw
    # MemoryError (exit 1) or went on allocating.
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    forge(ckpt, lambda header: header["backbone"].update({field: value}))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt),
                 "--mode", "zero-shot"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: invalid header: the encoder would hold ")
    assert "Traceback" not in err


def test_config_of_a_huge_encoder_is_config_error(workdir, tmp_path, capsys):
    root, config, data = workdir
    user = json.loads(Path(config).read_text(encoding="utf-8"))
    user["backbone"]["image_size"] += 2 ** 24
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(user), encoding="utf-8")
    assert main(["train", "--config", str(huge), "--data", data,
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the encoder would hold ") and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


# 400 blocks per stage at dim 16 hold 3.5 M values, under the value bound, but
# 25,600 tensors, which took seconds to build one by one
MANY_BLOCKS = 400


def test_checkpoint_header_of_an_encoder_of_many_blocks_fails_fast(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    forge(ckpt, lambda header: header["backbone"].update(blocks_per_stage=MANY_BLOCKS))
    started = time.perf_counter()
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt),
                 "--mode", "zero-shot"]) == 2
    assert time.perf_counter() - started < 0.5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: invalid header: the encoder would hold 25600 "
                          f"tensors, more than 4096")
    assert "Traceback" not in err


def test_config_of_an_encoder_of_many_blocks_fails_fast(workdir, tmp_path, capsys):
    root, config, data = workdir
    user = json.loads(Path(config).read_text(encoding="utf-8"))
    user["backbone"]["blocks_per_stage"] = MANY_BLOCKS
    many = tmp_path / "many.json"
    many.write_text(json.dumps(user), encoding="utf-8")
    started = time.perf_counter()
    assert main(["train", "--config", str(many), "--data", data,
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 1
    assert time.perf_counter() - started < 0.5
    err = capsys.readouterr().err
    assert err.startswith("config error: the encoder would hold 25600 tensors, more than 4096")
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("kind", [bool, float])
def test_manifest_label_of_another_json_type_is_data_error(workdir, tmp_path, capsys, kind):
    # true, 1.0, false and 0.0 compared equal to 1 and 0 and loaded as labels
    root, config, data = workdir
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    manifest = copy / "train.jsonl"
    lines = manifest.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[2])
    row["label"] = kind(row["label"])
    lines[2] = json.dumps(row)
    manifest.write_text("\n".join(lines), encoding="utf-8")
    assert main(["train", "--config", config, "--data", str(copy),
                 "--out", str(tmp_path / "m.ckpt"), "--epochs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: line 3: label must be the integer 0 or 1")
    assert "Traceback" not in err


def test_eval_k_must_match_the_bank(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt, bank = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.bin")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    assert main(["build-bank", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--out", bank]) == 0  # k=2 references of 16 rows
    argv = ["eval", "--config", config, "--data", data, "--ckpt", ckpt, "--bank", bank]
    assert main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    capsys.readouterr()
    assert main(argv + ["--k", "3", "--out", str(tmp_path / "k3.json")]) == 2
    err = capsys.readouterr().err
    assert "32 rows per level" in err and "make 48" in err
    assert not (tmp_path / "k3.json").exists()
    assert main(argv + ["--k", "2", "--out", str(tmp_path / "k2.json")]) == 0
    assert (tmp_path / "k2.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_predict_memory_does_not_grow_with_the_image_count(tmp_path, capsys):
    import tracemalloc

    from mvfa.data import DEFAULT_MODALITIES, SynthConfig, gen_dataset

    profile = [m for m in DEFAULT_MODALITIES if m.name == "texture-c"]
    train_manifest, test_manifest = gen_dataset(
        SynthConfig(modalities=tuple(profile), train_normals=4, train_anomalies=2,
                    test_normals=24, test_anomalies=24, seed=3), tmp_path / "data")
    lines = open(test_manifest).read().splitlines()
    assert len(lines) == 48
    first16 = tmp_path / "data" / "first16.jsonl"
    first16.write_text("\n".join(lines[:16]) + "\n", encoding="utf-8")
    ckpt, bank = str(tmp_path / "model.ckpt"), str(tmp_path / "bank.bin")
    data = str(tmp_path / "data")
    assert main(["train", "--data", data, "--out", ckpt, "--epochs", "0",
                 "--k", "2"]) == 0
    assert main(["build-bank", "--data", data, "--ckpt", ckpt, "--out", bank,
                 "--k", "2"]) == 0
    peaks = {}
    for name, manifest in (("16", first16), ("48", test_manifest)):
        argv = ["predict", "--ckpt", ckpt, "--bank", bank, "--manifest", str(manifest),
                "--out-dir", str(tmp_path / f"pred{name}")]
        main(argv)  # warm caches
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert len(os.listdir(tmp_path / "pred48")) == 2 * 48 + 1
    assert peaks["48"] - peaks["16"] <= 2 ** 20


def test_ablate_emits_per_level_and_ensemble_columns(workdir, tmp_path, capsys):
    root, config, data = workdir
    out_dir = str(tmp_path / "ablation")
    assert main(["ablate", "--config", config, "--data", data, "--out", out_dir,
                 "--epochs", "1"]) == 0
    capsys.readouterr()
    rows = json.load(open(os.path.join(out_dir, "ablation.json")))
    assert [row["arch"] for row in rows] == ["adapter", "projector"]
    for row in rows:
        assert "ensemble_image_auc" in row and "ensemble_pixel_auc" in row
        for level in range(1, 5):
            assert f"level{level}_image_auc" in row
            assert f"level{level}_pixel_auc" in row
    # the two runs differ only in the declared architecture flag
    a, b = rows[0]["config"], rows[1]["config"]
    assert a["model"]["arch"] == "adapter" and b["model"]["arch"] == "projector"
    a = {k: v for k, v in a["model"].items() if k != "arch"}
    b = {k: v for k, v in b["model"].items() if k != "arch"}
    assert a == b
    assert rows[0]["config"]["train"] == rows[1]["config"]["train"]
    csv_lines = open(os.path.join(out_dir, "ablation.csv")).read().strip().splitlines()
    assert csv_lines[0].startswith("arch,adapter_style,ensemble_image_auc")
    assert len(csv_lines) == 3


def test_ablate_rejects_a_bad_arch_before_training_any_row(workdir, tmp_path, capsys,
                                                          monkeypatch):
    root, config, data = workdir

    def never(*args, **kwargs):
        raise AssertionError("a row was trained")

    monkeypatch.setattr(cli.objective, "train", never)
    out_dir = tmp_path / "ablation"
    assert main(["ablate", "--config", config, "--data", data, "--out", str(out_dir),
                 "--archs", "adapter,bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "'bogus'" in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("mode", ["few-shot", "zero-shot"])
def test_ablate_row_matches_separate_commands(workdir, tmp_path, capsys, mode):
    root, config, data = workdir
    flags = ["--config", config, "--data", data, "--mode", mode]
    assert main(["ablate", *flags, "--out", str(tmp_path / "ablation"),
                 "--archs", "adapter"]) == 0
    row, = json.load(open(tmp_path / "ablation" / "ablation.json"))
    assert (row["arch"], row["adapter_style"]) == ("adapter", "dual")

    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", *flags, "--out", ckpt]) == 0
    eval_argv = ["eval", *flags, "--ckpt", ckpt, "--out", str(tmp_path / "report.json")]
    if mode == "few-shot":
        bank = str(tmp_path / "bank.bin")
        assert main(["build-bank", "--config", config, "--data", data, "--ckpt", ckpt,
                     "--out", bank]) == 0
        eval_argv += ["--bank", bank]
    assert main(eval_argv) == 0
    capsys.readouterr()
    report = json.load(open(tmp_path / "report.json"))
    assert row["ensemble_image_auc"] == report["image_auc"]
    assert row["ensemble_pixel_auc"] == report["pixel_auc"]
    assert [row[f"level{i}_image_auc"] for i in range(1, 5)] == report["per_level_image_auc"]
    assert [row[f"level{i}_pixel_auc"] for i in range(1, 5)] == report["per_level_pixel_auc"]


def test_readme_configuration_block_matches_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```")[0]
    documented = {}
    for section, key in re.findall(r'^  "(\w+)":|"(\w+)"\s*:', block, flags=re.M):
        if section:
            keys = documented[section] = set()
        else:
            keys.add(key)
    assert documented == {name: set(value) if isinstance(value, dict) else set()
                          for name, value in DEFAULT_CONFIG.items()}


@pytest.fixture
def mallopt_calls(monkeypatch):
    """The mallopt calls of a glibc system whose user set no malloc variable."""
    calls = []

    def mallopt(option, value):
        calls.append((option, value))
        return 1

    monkeypatch.setattr(worker.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(worker.os, "confstr", lambda name: "glibc 2.36")
    for name in list(os.environ):
        if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
            monkeypatch.delenv(name)
    return calls


def _no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_no_confstr, lambda name: None])
def test_malloc_options_are_not_set_without_glibc(mallopt_calls, monkeypatch, confstr):
    monkeypatch.setattr(worker.os, "confstr", confstr)
    worker.keep_freed_heap()
    assert mallopt_calls == []


@pytest.mark.parametrize("name", ["MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_",
                                  "GLIBC_TUNABLES"])
def test_malloc_options_yield_to_the_users_malloc_variables(mallopt_calls, monkeypatch,
                                                           name):
    monkeypatch.setenv(name, "0")
    worker.keep_freed_heap()
    assert mallopt_calls == []


def test_main_twice_sets_the_same_malloc_options(mallopt_calls, workdir, tmp_path, capsys):
    root, config, _ = workdir
    for run in range(2):
        assert main(["gen-data", "--config", config, "--out", str(tmp_path / str(run))]) == 0
    capsys.readouterr()
    assert mallopt_calls == [(worker.M_MMAP_THRESHOLD, 32 * 2 ** 20),
                             (worker.M_TRIM_THRESHOLD, 64 * 2 ** 20)] * 2


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="the malloc options are glibc's")
def test_zero_shot_train_does_not_refault_its_heap(tmp_path):
    # a 1-epoch seed-42 zero-shot train, 29 steps of 16: 91.3k minor faults
    # while glibc trimmed each freed step off the heap, 10.6k with the options set
    datamod.gen_dataset(datamod.SynthConfig(seed=42), tmp_path / "data")
    script = ("import resource, sys\n"
              "from mvfa.cli import main\n"
              f"code = main(['train', '--data', {str(tmp_path / 'data')!r}, '--out', "
              f"{str(tmp_path / 'm.ckpt')!r}, '--mode', 'zero-shot', '--epochs', '1'])\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n"
              "sys.exit(code)\n")
    env = {name: value for name, value in os.environ.items()
           if not (name.startswith("MALLOC_") or name == "GLIBC_TUNABLES")}
    env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, check=True)
    assert int(child.stdout.split()[-1]) < 91_300 // 2


@pytest.fixture(scope="module")
def reference_set(tmp_path_factory):
    """The seed-42 default set, an untrained checkpoint and its K=4 bank."""
    root = tmp_path_factory.mktemp("reference")
    data, ckpt, bank = (str(root / name) for name in ("data", "m.ckpt", "bank.bin"))
    assert main(["gen-data", "--out", data]) == 0
    assert main(["train", "--data", data, "--out", ckpt, "--epochs", "0"]) == 0
    assert main(["build-bank", "--data", data, "--ckpt", ckpt, "--out", bank]) == 0
    return data, ckpt, bank


def _traced_peak(argv):
    """The tracemalloc peak of a second run of a CLI command, after a warm one."""
    import tracemalloc

    assert main(argv) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_of_the_default_reference_set_peaks_below_4_5_mib(reference_set, tmp_path,
                                                                capsys):
    """A seed-42 few-shot eval of the 100 default-size texture-c test images.

    Pooling every test pixel in float64 for each pixel AUC peaked at 8.5 MiB
    here; counting the AUCs one chunk at a time left scoring as the peak,
    5.32 MiB: the chunk's raw stage outputs, the bank search's copies and
    the map each consumer kept while the next was made. 4.25 MiB measured
    once each is released after its last use; a stage-4 block of a chunk's
    forward pass sets the peak, 0.03 MiB above the bank search.
    """
    data, ckpt, bank = reference_set
    peak = _traced_peak(["eval", "--data", data, "--ckpt", ckpt, "--bank", bank,
                         "--out", str(tmp_path / "report.json")])
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"] == {"images": 100, "anomalous": 50, "with_masks": 100}
    assert peak <= 4.5 * 2 ** 20


def test_predict_of_the_default_reference_set_peaks_below_4_5_mib(reference_set, tmp_path,
                                                                   capsys):
    """A seed-42 few-shot predict of the 100 default-size texture-c test images.

    5.48 MiB measured while scoring kept the chunk's raw stage outputs and
    the bank search's copies, and the previous chunk's maps stayed bound
    while the next chunk was scored; 4.07 MiB once each is released after
    its last use, a stage-4 block of a chunk's forward pass being the peak.
    """
    data, ckpt, bank = reference_set
    out_dir = tmp_path / "maps"
    peak = _traced_peak(["predict", "--data", data, "--ckpt", ckpt, "--bank", bank,
                         "--out-dir", str(out_dir)])
    capsys.readouterr()
    assert len(os.listdir(out_dir)) == 2 * 100 + 1
    assert peak <= 4.5 * 2 ** 20


def test_rss_by_command_prints_one_line_per_command(workdir, capsys):
    import rss_by_command

    _, config, _ = workdir
    rss_by_command.main(["--passes", "1", "--config", config, "--epochs", "1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["pass", "command", "rss0_mib", "rss1_mib", "peak_mib"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["-", "gen-data"], ["1", "train"], ["1", "build-bank"], ["1", "eval"],
        ["1", "predict"]]
    for line in lines[1:]:
        before, after, peak = map(float, line.split()[2:])
        assert 0 < before <= after and peak > 0


def test_few_shot_train_of_the_default_reference_set_peaks_below_5_mib(tmp_path, capsys):
    """A seed-42 few-shot train of the 8 default-size reference samples, 50 epochs.

    Each step ran as one 8-sample graph in this process and peaked at 8.4 MiB
    here; halved by samples, this process runs 4 of them and the forked
    worker the other 4, which peaked at 5.2 MiB. 4.55 MiB measured once the
    walk frees each array after its last VJP and the focal term, the
    level-loss VJP and the block VJP free their temporaries early.
    """
    import tracemalloc

    data, ckpt = str(tmp_path / "data"), str(tmp_path / "m.ckpt")
    assert main(["gen-data", "--out", data]) == 0
    assert main(["train", "--data", data, "--out", ckpt, "--epochs", "1"]) == 0  # warm caches
    tracemalloc.start()
    try:
        assert main(["train", "--data", data, "--out", ckpt]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 5.0 * 2 ** 20


def test_each_command_opens_each_sample_file_once(reference_set, tmp_path, capsys,
                                                 monkeypatch):
    """Each reference command opens the PGMs of the rows it reads, each once.

    Few-shot ``train`` reads its 8 samples, ``build-bank`` the K=4 normals,
    and ``eval`` and ``predict`` the 100 texture-c test images, each an
    image and a mask. Before, each command first opened all 1,992 PGMs of
    the set to check both manifests, then its own rows again.
    """
    data, ckpt, bank = reference_set
    opened, os_open = [], os.open

    def counted(path, *args, **kwargs):
        if os.fspath(path).startswith(data + os.sep) and os.fspath(path).endswith(".pgm"):
            opened.append(os.fspath(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "open", counted)
    model = ["--ckpt", ckpt, "--bank", bank]
    for argv, files in ((["train", "--out", str(tmp_path / "m.ckpt"), "--epochs", "1"], 16),
                        (["build-bank", "--ckpt", ckpt, "--out", str(tmp_path / "b")], 8),
                        (["eval", *model], 200),
                        (["predict", *model, "--out-dir", str(tmp_path / "maps")], 200)):
        opened.clear()
        assert main([argv[0], "--data", data, *argv[1:]]) == 0, argv[0]
        assert len(opened) == len(set(opened)) == files, argv[0]
    capsys.readouterr()
