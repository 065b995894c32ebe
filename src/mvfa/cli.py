"""Command-line entry points: gen-data, train, build-bank, predict, eval, ablate.

Every subcommand is deterministic given its config and seeds. Exit codes:
0 success, 1 usage or configuration error, 2 data or file-format error,
3 numeric failure. Settings come from an optional JSON config file whose
sections mirror the dataclasses (see README). A setting flag ``--name``
overrides the config key ``section.name`` and takes the same values: its
type is that of the key's default, and the keys in ``CHOICES`` accept only
the values listed there, in a config file as on the command line.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as datamod
from . import inference, metrics, objective, textbank
from .adaptation import init_params, load_checkpoint, save_checkpoint
from .backbone import BackboneConfig, init_backbone
from .errors import BankError, ConfigError, DataError, MVFAError, NumericError
from .fileio import write_text_atomic

DEFAULT_CONFIG = {
    "backbone": dataclasses.asdict(BackboneConfig()),
    "model": {"init_seed": 7, "arch": "adapter", "adapter_style": "dual"},
    "train": {"lr": 1e-3, "batch_size": 16, "epochs": 50, "seed": 42, "gamma": 0.1,
              "lambda1": 1.0, "lambda2": 1.0, "lambda3": 1.0, "tau": 0.07,
              "levels": [1, 2, 3, 4]},
    # scoring runs at a softer temperature than training: the raw-sum fusion
    # needs calmer similarity maps than the loss, which wants sharp gradients
    "inference": {"beta1": 0.5, "beta2": 0.5, "tau": 0.2, "k": 4,
                  "target": "texture-c", "mode": "few-shot"},
    "data": {},
    "text_seed": 0,
}

# the only values these keys accept, from a flag or a config file
CHOICES = {"inference.mode": ("zero-shot", "few-shot"),
           "model.arch": ("adapter", "projector"),
           "model.adapter_style": ("dual", "single")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _defaults(section):
    """Default values of a config section's keys (``data`` mirrors SynthConfig)."""
    if section == "data":
        return dataclasses.asdict(datamod.SynthConfig())
    return DEFAULT_CONFIG[section]


def _config(args):
    """The config file's settings, overridden by every setting flag given.

    Setting flags store their value under the dotted config key.
    """
    cfg = _load_config(args.config)
    for key, value in vars(args).items():
        if "." in key and value is not None:
            section, name = key.split(".")
            cfg[section][name] = value
    return cfg


def _load_config(path):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is None:
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    _check_keys(path, "the file", user, cfg)
    for section, value in user.items():
        if not isinstance(cfg[section], dict):
            _check_type(path, section, value, cfg[section])
            cfg[section] = value
            continue
        _check_section(path, section, value, _defaults(section))
        if section == "data":
            for index, profile in enumerate(value.get("modalities", [])):
                _check_section(path, f"data.modalities[{index}]", profile,
                               dataclasses.asdict(datamod.DEFAULT_MODALITIES[0]))
        cfg[section].update(value)
    return cfg


def _check_keys(path, where, given, known):
    """Reject a config object that is not a JSON object or has an unknown key."""
    if not isinstance(given, dict):
        raise ConfigError(f"config {path}: {where} must be a JSON object")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"config {path}: unknown key {unknown[0]!r} in {where}")


def _check_section(path, section, given, defaults):
    _check_keys(path, f"section {section!r}", given, defaults)
    for key, value in given.items():
        _check_type(path, f"{section}.{key}", value, defaults[key])


def _check_type(path, name, value, default):
    """Reject a value whose JSON type differs from that of its default.

    Booleans are not numbers, an integer is a valid float, and a list's
    items must match the first default item. A key in CHOICES takes only
    the values listed there.
    """
    kinds = [(bool, (bool,), "true or false"),
             (int, (int,), "an integer"),
             (float, (int, float), "a number"),
             (str, (str,), "a string"),
             ((list, tuple), (list,), "a JSON list")]
    for default_types, allowed, kind in kinds:
        if isinstance(default, default_types):
            break
    else:
        return
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        raise ConfigError(f"config {path}: {name} must be {kind}, got {value!r}")
    if isinstance(value, list) and default and isinstance(default[0], (int, float)):
        for index, item in enumerate(value):
            _check_type(path, f"{name}[{index}]", item, default[0])
    if name in CHOICES and value not in CHOICES[name]:
        raise ConfigError(f"config {path}: {name} must be one of "
                          f"{', '.join(CHOICES[name])}, got {value!r}")


def _prompt_set(args):
    if getattr(args, "prompts", None):
        return textbank.load_prompt_set(args.prompts)
    return textbank.default_prompt_set()


def _text_features(prompts, modalities, text_seed, dim):
    return {m: textbank.build_text_features(prompts, m, text_seed, dim).f_text
            for m in sorted(modalities)}


def _levels(text):
    """``--levels`` value: comma-separated level numbers; empty keeps the config's."""
    try:
        return [int(x) for x in text.split(",")] if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid levels {text!r}, expected e.g. 1,2") \
            from None


def _manifests(data_dir):
    """(train, test) samples of a dataset directory, every image and mask checked."""
    train_path = os.path.join(data_dir, "train.jsonl")
    test_path = os.path.join(data_dir, "test.jsonl")
    return (datamod.load_manifest(train_path), datamod.load_manifest(test_path))


def _load_model(ckpt):
    backbone_cfg, params = load_checkpoint(ckpt)
    return init_backbone(backbone_cfg), params


# The train -> bank -> score steps, shared by train/build-bank/eval/predict
# and by every ablate row so that a row reports what the separate commands would.
# Each command loads the manifests once and hands the samples to its steps.

def _train_config(cfg):
    """The train section, checked before any data is read."""
    train_cfg = objective.TrainConfig.from_dict(cfg["train"])
    weights = train_cfg.weights
    if not (weights.lambda1 or weights.lambda2 or weights.lambda3):
        raise ConfigError("lambda1, lambda2 and lambda3 are all 0, so the loss "
                          "reaches no trainable tensor")
    return train_cfg


def _train(cfg, train_cfg, manifests, prompts, loss_log=None):
    """Tune fresh adapters on the mode's split: (backbone, params, history, n_samples)."""
    inf, model = cfg["inference"], cfg["model"]
    train_samples, test_samples = manifests
    if inf["mode"] == "zero-shot":
        train_set, _ = datamod.zero_shot_split(train_samples, test_samples, inf["target"])
    else:
        train_set, _, _ = datamod.few_shot_split(train_samples, test_samples, inf["target"],
                                                 inf["k"], train_cfg.seed)
    backbone_cfg = BackboneConfig(**cfg["backbone"])
    text = _text_features(prompts, {s.modality for s in train_set} | {inf["target"]},
                          cfg["text_seed"], backbone_cfg.dim)
    backbone = init_backbone(backbone_cfg)
    params = init_params(backbone_cfg.dim, seed=model["init_seed"], gamma=train_cfg.gamma,
                         arch=model["arch"], adapter_style=model["adapter_style"],
                         text_features=np.concatenate([t.data for _, t in
                                                       sorted(text.items())]))
    history = objective.train(backbone, params, train_set, text, train_cfg,
                              loss_log_path=loss_log)
    return backbone, params, history, len(train_set)


def _bank(cfg, manifests, backbone, params):
    """Memory bank of the target's K normal references of the few-shot split."""
    inf = cfg["inference"]
    train_samples, test_samples = manifests
    _, normals, _ = datamod.few_shot_split(train_samples, test_samples, inf["target"],
                                           inf["k"], cfg["train"]["seed"])
    images = [datamod.load_sample(s).image for s in normals]
    return inference.build_memory_bank(images, backbone, params)


def _betas(cfg, have_bank, beta1=None, beta2=None):
    """Fusion weights: flags over config; zero-shot without a bank is text only."""
    inf = cfg["inference"]
    if not have_bank and beta2 is None and inf["mode"] == "zero-shot":
        return (1.0 if beta1 is None else beta1), 0.0
    beta1 = inf["beta1"] if beta1 is None else beta1
    beta2 = inf["beta2"] if beta2 is None else beta2
    if not have_bank and beta2 != 0:
        raise ConfigError("beta2 > 0 requires a memory bank; pass --bank or set --beta2 0")
    return beta1, beta2


def _evaluate(cfg, test_samples, prompts, backbone, params, bank, beta1, beta2):
    """Score the target's test samples and report their AUCs."""
    inf = cfg["inference"]
    samples = [s for s in test_samples if s.modality == inf["target"]]
    text = _text_features(prompts, {s.modality for s in samples}, cfg["text_seed"],
                          backbone.config.dim)
    return metrics.evaluate(backbone, params, samples, text, bank=bank, beta1=beta1,
                            beta2=beta2, tau=inf["tau"])


def cmd_gen_data(args):
    synth = datamod.SynthConfig.from_dict(_config(args)["data"])
    train_manifest, test_manifest = datamod.gen_dataset(synth, args.out)
    print(f"wrote {train_manifest}")
    print(f"wrote {test_manifest}")
    return 0


def cmd_train(args):
    cfg = _config(args)
    loss_log = args.loss_log or (args.out + ".loss.csv")
    train_cfg = _train_config(cfg)
    prompts = _prompt_set(args)
    backbone, params, history, n_samples = _train(cfg, train_cfg, _manifests(args.data),
                                                  prompts, loss_log)
    save_checkpoint(args.out, backbone.config, params)
    if history:
        print(f"trained {len(history)} epochs on {n_samples} samples; "
              f"loss {history[0]:.4f} -> {history[-1]:.4f}")
    else:
        print("trained 0 epochs; checkpoint equals initialization")
    print(f"wrote {args.out}")
    print(f"wrote {loss_log}")
    return 0


def cmd_build_bank(args):
    cfg = _config(args)
    backbone, params = _load_model(args.ckpt)
    bank = _bank(cfg, _manifests(args.data), backbone, params)
    inference.save_bank(args.out, bank)
    print(f"wrote {args.out} ({cfg['inference']['k']} references, "
          f"{bank.cls[0].shape[0]} rows per level)")
    return 0


def cmd_predict(args):
    cfg = _config(args)
    inf = cfg["inference"]
    backbone, params = _load_model(args.ckpt)
    bank = inference.load_bank(args.bank) if args.bank else None
    beta1, beta2 = _betas(cfg, bank is not None, args.beta1, args.beta2)

    if args.manifest:
        samples = datamod.load_manifest(args.manifest)
    elif args.data:
        _, test_samples = _manifests(args.data)
        samples = [s for s in test_samples if s.modality == inf["target"]]
    else:
        raise ConfigError("predict needs --manifest or --data")
    if not samples:
        raise ConfigError("no samples selected for prediction")
    # each output is named after its image, so two images of one name would collide
    owners = {}
    for sample in samples:
        stem = os.path.splitext(os.path.basename(sample.image))[0]
        if owners.setdefault(stem, sample) is not sample:
            raise DataError(f"{owners[stem].image} and {sample.image} would both write "
                            f"{stem}.map; predict needs images with distinct file names")

    text = _text_features(_prompt_set(args), {s.modality for s in samples},
                          cfg["text_seed"], backbone.config.dim)
    os.makedirs(args.out_dir, exist_ok=True)
    lines = ["image,modality,label,c_pred,c_zero,c_few"]
    for sample, result in metrics.score_samples(backbone, params, samples, text,
                                                bank=bank, beta1=beta1, beta2=beta2,
                                                tau=inf["tau"]):
        stem = os.path.splitext(os.path.basename(sample.path))[0]
        inference.save_map(os.path.join(args.out_dir, stem + ".map"), result.s_pred)
        datamod.write_pgm(os.path.join(args.out_dir, stem + "_heat.pgm"),
                          inference.map_to_u8(result.s_pred))
        lines.append(",".join(metrics.csv_value(v) for v in (
            sample.path, sample.modality, sample.label, result.c_pred, result.c_zero,
            result.c_few)))
    scores_path = os.path.join(args.out_dir, "scores.csv")
    write_text_atomic(scores_path, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} maps and {scores_path}")
    return 0


def _check_bank_k(bank, k, rows_per_image):
    """Reject a bank whose rows per level are not K references' worth."""
    for store in bank.cls + bank.seg:
        if store.shape[0] != k * rows_per_image:
            raise BankError(f"the bank has {store.shape[0]} rows per level, but --k {k} "
                            f"references of {rows_per_image} rows per image make "
                            f"{k * rows_per_image}")


def cmd_eval(args):
    cfg = _config(args)
    backbone, params = _load_model(args.ckpt)
    bank = inference.load_bank(args.bank) if args.bank else None
    k_flag = vars(args)["inference.k"]
    if bank is not None and k_flag is not None:
        _check_bank_k(bank, k_flag, backbone.config.grid_count)
    beta1, beta2 = _betas(cfg, bank is not None, args.beta1, args.beta2)
    prompts = _prompt_set(args)
    _, test_samples = _manifests(args.data)
    report = _evaluate(cfg, test_samples, prompts, backbone, params, bank, beta1, beta2)
    metrics.write_report(report, json_path=args.out, csv_path=args.csv)
    sys.stdout.write(report.to_json())
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _run_ablation_row(cfg, train_cfg, manifests, prompts):
    """Train, build the bank (few-shot) and evaluate one row's config."""
    backbone, params, _, _ = _train(cfg, train_cfg, manifests, prompts)
    bank = (_bank(cfg, manifests, backbone, params)
            if cfg["inference"]["mode"] == "few-shot" else None)
    return _evaluate(cfg, manifests[1], prompts, backbone, params, bank,
                     *_betas(cfg, bank is not None))


ABLATE_COLUMNS = ("arch", "adapter_style", "ensemble_image_auc", "ensemble_pixel_auc",
                  "level1_image_auc", "level2_image_auc", "level3_image_auc",
                  "level4_image_auc", "level1_pixel_auc", "level2_pixel_auc",
                  "level3_pixel_auc", "level4_pixel_auc")


def cmd_ablate(args):
    cfg = _config(args)
    train_cfg = _train_config(cfg)
    prompts = _prompt_set(args)
    manifests = _manifests(args.data)

    archs = [a.strip() for a in args.archs.split(",")] if args.archs else \
        ["adapter", "projector"]
    for arch in archs:
        if arch not in CHOICES["model.arch"]:
            raise ConfigError(f"--archs: each must be one of "
                              f"{', '.join(CHOICES['model.arch'])}, got {arch!r}")
    rows = []
    for arch in archs:
        styles = ["dual", "single"] if (arch == "adapter" and args.include_single) \
            else [cfg["model"]["adapter_style"] if arch == "adapter" else "dual"]
        for style in styles:
            echo = copy.deepcopy(cfg)
            echo["model"]["arch"] = arch
            echo["model"]["adapter_style"] = style
            report = _run_ablation_row(echo, train_cfg, manifests, prompts)
            row = {"arch": arch, "adapter_style": style, "config": echo,
                   "ensemble_image_auc": report.image_auc,
                   "ensemble_pixel_auc": report.pixel_auc}
            for i in range(4):
                row[f"level{i + 1}_image_auc"] = report.per_level_image_auc[i]
                row[f"level{i + 1}_pixel_auc"] = (
                    report.per_level_pixel_auc[i] if report.per_level_pixel_auc
                    else None)
            rows.append(row)

    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "ablation.json")
    write_text_atomic(json_path, json.dumps(rows, indent=2, sort_keys=True) + "\n")

    csv_lines = [",".join(ABLATE_COLUMNS)]
    csv_lines += [",".join(metrics.csv_value(row[c]) for c in ABLATE_COLUMNS) for row in rows]
    csv_path = os.path.join(args.out, "ablation.csv")
    write_text_atomic(csv_path, "\n".join(csv_lines) + "\n")

    print("\n".join(csv_lines))
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    return 0


def build_parser():
    parser = _Parser(prog="mvfa", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, settings):
        """Subparser with --config and one flag per setting key: --field sets section.field."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        for key in settings:
            section, field = key.split(".")
            default = _defaults(section)[field]
            p.add_argument("--" + field.replace("_", "-"), dest=key, choices=CHOICES.get(key),
                           type=_levels if isinstance(default, list) else type(default))
        p.set_defaults(func=func)
        return p

    p = command("gen-data", cmd_gen_data, "generate the synthetic dataset", ["data.seed"])
    p.add_argument("--out", required=True)

    p = command("train", cmd_train, "train adapters and write a checkpoint",
                ["inference.mode", "inference.target", "inference.k", "train.epochs",
                 "train.lr", "train.batch_size", "train.seed", "train.gamma", "train.tau",
                 "train.levels", "model.arch", "model.adapter_style"])
    p.add_argument("--data", required=True, help="directory with train/test manifests")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-log", help="loss CSV path (default: <out>.loss.csv)")
    p.add_argument("--prompts", help="prompt pattern file")

    p = command("build-bank", cmd_build_bank, "build a memory bank from normal references",
                ["inference.target", "inference.k", "train.seed"])
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)

    p = command("predict", cmd_predict, "score images, writing maps and a score CSV",
                ["inference.target", "inference.mode"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bank")
    p.add_argument("--data", help="dataset directory (uses its test manifest)")
    p.add_argument("--manifest", help="explicit manifest of images to score")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--prompts")

    p = command("eval", cmd_eval, "evaluate a checkpoint, writing a report",
                ["inference.target", "inference.mode", "inference.k"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bank")
    p.add_argument("--data", required=True)
    p.add_argument("--beta1", type=float)
    p.add_argument("--beta2", type=float)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="one-line report CSV path")
    p.add_argument("--prompts")

    p = command("ablate", cmd_ablate, "sweep architectures, reporting per-level AUCs",
                ["inference.target", "inference.mode", "inference.k", "train.epochs",
                 "train.seed", "train.levels"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory for the tables")
    p.add_argument("--archs", help="comma-separated subset of adapter,projector")
    p.add_argument("--include-single", action="store_true",
                   help="add a single-adapter row")
    p.add_argument("--prompts")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MVFAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
