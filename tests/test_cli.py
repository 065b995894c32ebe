import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from test_adaptation import overflowing_checkpoint

from mvfa import cli
from mvfa import data as datamod
from mvfa.adaptation import init_params, load_checkpoint
from mvfa.cli import DEFAULT_CONFIG, build_parser, main
from mvfa.data import read_pgm
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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_gen_data_is_deterministic(workdir, tmp_path):
    root, config, _ = workdir
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "a")]) == 0
    assert main(["gen-data", "--config", config, "--out", str(tmp_path / "b")]) == 0
    a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


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


def test_predict_without_bank_fails_fast(workdir, tmp_path, capsys):
    root, config, data = workdir
    ckpt = str(tmp_path / "model.ckpt")
    assert main(["train", "--config", config, "--data", data, "--out", ckpt,
                 "--epochs", "0"]) == 0
    code = main(["predict", "--config", config, "--data", data, "--ckpt", ckpt,
                 "--out-dir", str(tmp_path / "pred"), "--beta2", "0.5"])
    assert code == 1
    assert "memory bank" in capsys.readouterr().err


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


@pytest.mark.parametrize("shape", [(65536,) * 4, (2 ** 31, 2 ** 31, 4)])
def test_overflowing_checkpoint_shape_is_data_error(workdir, tmp_path, capsys, shape):
    root, config, data = workdir
    bad = overflowing_checkpoint(tmp_path / "bad.ckpt", shape)
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(bad)]) == 2
    assert "unexpected end of file" in capsys.readouterr().err


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
    assert err.startswith("config error") and "'texture-b': base_freq must be" in err
    assert os.listdir(tmp_path) == ["bad.json"]


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
    assert err.startswith("config error") and f"'texture-b': {field} must be" in err
    assert os.listdir(out) == []


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
        save_bank(bank, MemoryBank([rows] * 4, [rows] * 4))
        for command in (["eval"], ["predict", "--out-dir", str(tmp_path / "pred")]):
            code = main(command + ["--config", config, "--data", data, "--ckpt", ckpt,
                                   "--bank", bank])
            err = capsys.readouterr().err
            assert code == 2
            assert message in err and "Traceback" not in err


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
    payload = bytearray(ckpt.read_bytes())
    payload[22:26] = (32).to_bytes(4, "little")  # the header's dim field: 16 -> 32
    ckpt.write_bytes(bytes(payload))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "has shape (16, 4), but dim 32 needs (32, 8)" in err and "Traceback" not in err


@pytest.mark.parametrize("offset, value, message", [
    (26, 3, "exactly 4 stages"), (30, 0, "blocks_per_stage must be at least 1"),
    (34, 0, "heads must be at least 1")])
def test_checkpoint_header_field_out_of_range_is_data_error(workdir, tmp_path, capsys, offset,
                                                            value, message):
    root, config, data = workdir
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--config", config, "--data", data, "--out", str(ckpt),
                 "--epochs", "0"]) == 0
    capsys.readouterr()
    payload = bytearray(ckpt.read_bytes())
    payload[offset:offset + 4] = value.to_bytes(4, "little")  # stages, blocks or heads
    ckpt.write_bytes(bytes(payload))
    assert main(["eval", "--config", config, "--data", data, "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: invalid header") and message in err
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
