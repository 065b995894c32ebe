"""Command-line entry points: gen-data, train, build-bank, predict, eval, ablate.

Every subcommand is deterministic given its config and seeds. Exit codes:
0 success, 1 usage or configuration error, 2 data or file-format error,
3 numeric failure. Each command resolves its settings once into a
``RunConfig``: the defaults, then an optional JSON config file whose
sections mirror the dataclasses (see README), then the setting flags. A
setting flag ``--name`` overrides the config key ``section.name`` and takes
the same values: its type is that of the key's default, and the keys in
``CHOICES`` accept only the values listed there, in a config file as on the
command line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys

import numpy as np

from . import data as datamod
from . import inference, metrics, objective, textbank
from .adaptation import init_params, load_checkpoint, save_checkpoint
from .backbone import BackboneConfig, init_backbone
from .errors import BankError, ConfigError, DataError, MVFAError, NumericError
from .fileio import file_sha256, parse_json, read_text, write_text_atomic
from .worker import keep_freed_heap


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    """The adapted model that ``train`` and ``ablate`` build."""

    init_seed: int = 7
    arch: str = "adapter"
    adapter_style: str = "dual"


@dataclasses.dataclass(frozen=True)
class InferenceConfig:
    """The target modality, the split and the scoring of a command."""

    beta1: float = 0.5
    beta2: float = 0.5
    # scoring runs at a softer temperature than training: the raw-sum fusion
    # needs calmer similarity maps than the loss, which wants sharp gradients
    tau: float = 0.2
    k: int = 4
    target: str = "texture-c"
    mode: str = "few-shot"


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One command's settings, each section the object the library takes."""

    backbone: BackboneConfig
    model: ModelConfig
    train: objective.TrainConfig
    inference: InferenceConfig
    data: datamod.SynthConfig
    text_seed: int


# Every config key and its default; the default fixes the key's JSON type,
# and a setting flag --name takes the values of the key section.name
DEFAULTS = RunConfig(BackboneConfig(), ModelConfig(), objective.TrainConfig(seed=42),
                     InferenceConfig(), datamod.SynthConfig(), text_seed=0)

# the only values these keys accept, from a flag or a config file
CHOICES = {"inference.mode": ("zero-shot", "few-shot"),
           "model.arch": ("adapter", "projector"),
           "model.adapter_style": ("dual", "single")}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _as_json(run):
    """The settings in a config file's shape: a JSON object per section.

    The train section holds the loss weights as keys of its own, where
    ``TrainConfig`` nests them in ``weights``.
    """
    settings = dataclasses.asdict(run)
    train = settings["train"] = {}
    for name, value in dataclasses.asdict(run.train).items():
        train.update(value if name == "weights" else {name: value})
    return settings


def _resolve(args):
    """The command's settings: the defaults, the config file over them, the flags over both.

    The whole file is checked, and every section built by its own class,
    which checks its values, before the command reads anything else.
    Setting flags store their value under the dotted config key.
    """
    settings = _as_json(DEFAULTS)
    if args.config:
        try:
            text = read_text(args.config, ConfigError)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        given = parse_json(text, ConfigError, f"config {args.config}")
        _check(args.config, "", given, settings)
        settings.update({key: {**settings[key], **value} if isinstance(value, dict) else value
                         for key, value in given.items()})
    for key, value in vars(args).items():
        if "." in key and value is not None:
            section, name = key.split(".")
            settings[section][name] = value
    run = RunConfig(BackboneConfig(**settings["backbone"]), ModelConfig(**settings["model"]),
                    objective.TrainConfig.from_dict(settings["train"]),
                    InferenceConfig(**settings["inference"]),
                    datamod.SynthConfig.from_dict(settings["data"]), settings["text_seed"])
    if not any(dataclasses.astuple(run.train.weights)):
        raise ConfigError("lambda1, lambda2 and lambda3 are all 0, so the loss "
                          "reaches no trainable tensor")
    return run


def _check(path, name, value, default):
    """Reject a config value whose JSON type differs from that of its default.

    An object takes only its default's keys. Booleans are not numbers, an
    integer is a valid float if a float holds it, and a list's items must
    match the first default item. A key in CHOICES takes only the values
    listed there.
    """
    if isinstance(default, dict):
        where = f"section {name!r}" if name else "the file"
        if not isinstance(value, dict):
            raise ConfigError(f"config {path}: {where} must be a JSON object")
        unknown = sorted(set(value) - set(default))
        if unknown:
            raise ConfigError(f"config {path}: unknown key {unknown[0]!r} in {where}")
        for key, item in value.items():
            _check(path, f"{name}.{key}" if name else key, item, default[key])
        return
    kinds = [(bool, (bool,), "true or false"),
             (int, (int,), "an integer"),
             (float, (int, float), "a number"),
             (str, (str,), "a string"),
             ((list, tuple), (list,), "a JSON list")]
    allowed, kind = next((allowed, kind) for default_types, allowed, kind in kinds
                         if isinstance(default, default_types))
    if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
        raise ConfigError(f"config {path}: {name} must be {kind}, got {value!r}")
    if isinstance(value, int) and isinstance(default, float):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"config {path}: {name} must be a finite number, got an "
                              f"integer of {len(str(abs(value)))} digits") from None
    if isinstance(value, list) and default:
        for index, item in enumerate(value):
            _check(path, f"{name}[{index}]", item, default[0])
    if name in CHOICES and value not in CHOICES[name]:
        raise ConfigError(f"config {path}: {name} must be one of "
                          f"{', '.join(CHOICES[name])}, got {value!r}")


def _prompt_set(args):
    prompts = getattr(args, "prompts", None)
    return textbank.load_prompt_set(prompts) if prompts else textbank.default_prompt_set()


def _text_features(prompts, modalities, text_seed, dim):
    """Each modality's text features, in name order."""
    return {m: textbank.build_text_features(prompts, m, text_seed, dim).f_text
            for m in sorted(modalities)}


def _levels(text):
    """``--levels`` value: comma-separated level numbers; empty keeps the config's."""
    try:
        return [int(x) for x in text.split(",")] if text else None
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid levels {text!r}, expected e.g. 1,2") \
            from None


def _finite_float(text):
    """A float flag's value; NaN and infinities (1e999 reads as inf) are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _manifest(data_dir, split):
    """The samples of a dataset directory's ``split`` manifest, parsed only.

    No image or mask is opened here: ``load_sample`` checks each row when
    a command reads it.
    """
    return datamod.load_manifest(os.path.join(data_dir, f"{split}.jsonl"))


def _target_samples(test_samples, target):
    """The target's test samples; a target the test manifest lacks is a data error."""
    datamod._require_modality(test_samples, target, "test manifest")
    return [s for s in test_samples if s.modality == target]


def _load_model(ckpt):
    backbone_cfg, params = load_checkpoint(ckpt)
    return init_backbone(backbone_cfg), params


def _load_bank(path, ckpt):
    """The bank at ``path``, refused unless it was built from the checkpoint file ``ckpt``."""
    bank = inference.load_bank(path)
    if bank.checkpoint != file_sha256(ckpt):
        raise BankError(f"{path} was not built from {ckpt}; run build-bank with --ckpt {ckpt}")
    return bank


# The train -> bank -> score steps, shared by train/build-bank/eval/predict
# and by every ablate row so that a row reports what the separate commands would.
# Each command parses the manifests it reads once and hands the samples to its steps.

def _train(run, train_samples, test_samples, prompts, loss_log=None):
    """Tune fresh adapters on the mode's split: (backbone, params, history, n_samples).

    Only a zero-shot split reads ``test_samples``, to check the target there.
    """
    inf, train_cfg, model = run.inference, run.train, run.model
    if inf.mode == "zero-shot":
        train_set, _ = datamod.zero_shot_split(train_samples, test_samples, inf.target)
    else:
        train_set, _, _ = datamod.few_shot_split(train_samples, test_samples, inf.target,
                                                 inf.k, train_cfg.seed)
    mask_free = sorted({s.modality for s in train_set if s.mask is None})
    if mask_free and not train_cfg.weights.lambda3:
        raise ConfigError(f"lambda3 is 0, but training modality {', '.join(mask_free)} has "
                          "no masks, so a step of its samples reaches no trainable tensor")
    text = _text_features(prompts, {s.modality for s in train_set} | {inf.target},
                          run.text_seed, run.backbone.dim)
    backbone = init_backbone(run.backbone)
    params = init_params(run.backbone.dim, seed=model.init_seed, gamma=train_cfg.gamma,
                         arch=model.arch, adapter_style=model.adapter_style,
                         text_features=np.concatenate([t.data for t in text.values()]))
    history = objective.train(backbone, params, train_set, text, train_cfg,
                              loss_log_path=loss_log)
    return backbone, params, history, len(train_set)


def _bank(run, train_samples, backbone, params):
    """Memory bank of the target's K normal references of the few-shot split."""
    inf = run.inference
    _, normals, _ = datamod.few_shot_split(train_samples, [], inf.target, inf.k, run.train.seed)
    images = [datamod.load_sample(s).image for s in normals]
    return inference.build_memory_bank(images, backbone, params)


def _betas(run, have_bank, beta1=None, beta2=None):
    """Fusion weights: flags over config; zero-shot without a bank is text only."""
    if not have_bank and beta2 is None and run.inference.mode == "zero-shot":
        return (1.0 if beta1 is None else beta1), 0.0
    beta1 = run.inference.beta1 if beta1 is None else beta1
    beta2 = run.inference.beta2 if beta2 is None else beta2
    if not have_bank and beta2 != 0:
        raise ConfigError("beta2 > 0 requires a memory bank; pass --bank or set --beta2 0")
    return beta1, beta2


def _evaluate(run, test_samples, prompts, backbone, params, bank, beta1, beta2):
    """Score the target's test samples and report their AUCs."""
    samples = _target_samples(test_samples, run.inference.target)
    text = _text_features(prompts, {run.inference.target}, run.text_seed, backbone.config.dim)
    return metrics.evaluate(backbone, params, samples, text, bank=bank, beta1=beta1,
                            beta2=beta2, tau=run.inference.tau)


def cmd_gen_data(args):
    train_manifest, test_manifest = datamod.gen_dataset(_resolve(args).data, args.out)
    print(f"wrote {train_manifest}")
    print(f"wrote {test_manifest}")
    return 0


def cmd_train(args):
    run = _resolve(args)
    loss_log = args.loss_log or (args.out + ".loss.csv")
    prompts = _prompt_set(args)
    train_samples = _manifest(args.data, "train")
    test_samples = _manifest(args.data, "test") if run.inference.mode == "zero-shot" else []
    backbone, params, history, n_samples = _train(run, train_samples, test_samples, prompts,
                                                  loss_log)
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
    seed = vars(args)["train.seed"]
    if seed is not None and seed < 0:  # build-bank's --seed seeds only its few-shot split
        raise ConfigError(f"few-shot split seed must be nonnegative, got {seed}")
    run = _resolve(args)
    backbone, params = _load_model(args.ckpt)
    bank = _bank(run, _manifest(args.data, "train"), backbone, params)
    bank.checkpoint = file_sha256(args.ckpt)
    inference.save_bank(args.out, bank)
    print(f"wrote {args.out} ({run.inference.k} references, "
          f"{bank.cls[0].shape[0]} rows per level)")
    return 0


def cmd_predict(args):
    run = _resolve(args)
    backbone, params = _load_model(args.ckpt)
    bank = _load_bank(args.bank, args.ckpt) if args.bank else None
    beta1, beta2 = _betas(run, bank is not None, args.beta1, args.beta2)

    if args.manifest:
        samples = datamod.load_manifest(args.manifest)
    elif args.data:
        samples = _target_samples(_manifest(args.data, "test"), run.inference.target)
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
                          run.text_seed, backbone.config.dim)
    # csv's minimal quoting: only a field with a comma, quote or newline is
    # quoted, so every other row keeps its bytes
    table = io.StringIO()
    rows = csv.writer(table, lineterminator="\n")
    rows.writerow(("image", "modality", "label", "c_pred", "c_zero", "c_few"))
    pairs = metrics.score_samples(backbone, params, samples, text, bank=bank, beta1=beta1,
                                  beta2=beta2, tau=run.inference.tau)
    # each chunk's fused maps are upsampled together, once per level and branch
    while chunk := list(itertools.islice(pairs, inference.CHUNK)):
        s_preds = inference.fused_mean([result for _, result in chunk], beta1, beta2)
        for (sample, result), s_pred in zip(chunk, s_preds):
            stem = os.path.splitext(os.path.basename(sample.path))[0]
            inference.save_map(os.path.join(args.out_dir, stem + ".map"), s_pred)
            datamod.write_pgm(os.path.join(args.out_dir, stem + "_heat.pgm"),
                              inference.map_to_u8(s_pred))
            rows.writerow([metrics.csv_value(v) for v in (
                sample.path, sample.modality, sample.label, result.c_pred, result.c_zero,
                result.c_few)])
        del chunk, s_preds, s_pred  # freed before the next chunk is scored
    scores_path = os.path.join(args.out_dir, "scores.csv")
    write_text_atomic(scores_path, table.getvalue())
    print(f"wrote {len(samples)} maps and {scores_path}")
    return 0


def _check_bank_k(bank, k, rows_per_image):
    """Reject a bank whose rows per level are not K references' worth."""
    for store in bank.cls + bank.seg:
        if store.shape[0] != k * rows_per_image:
            raise BankError(f"the bank has {store.shape[0]} rows per level, but --k {k} "
                            f"references of {rows_per_image} rows per image make "
                            f"{k * rows_per_image}")


def cmd_eval(args):
    run = _resolve(args)
    backbone, params = _load_model(args.ckpt)
    bank = _load_bank(args.bank, args.ckpt) if args.bank else None
    k_flag = vars(args)["inference.k"]
    if bank is not None and k_flag is not None:
        _check_bank_k(bank, k_flag, backbone.config.grid_count)
    beta1, beta2 = _betas(run, bank is not None, args.beta1, args.beta2)
    prompts = _prompt_set(args)
    report = _evaluate(run, _manifest(args.data, "test"), prompts, backbone, params, bank,
                       beta1, beta2)
    metrics.write_report(report, json_path=args.out, csv_path=args.csv)
    sys.stdout.write(report.to_json())
    if args.out:
        print(f"wrote {args.out}")
    return 0


ABLATE_COLUMNS = ("arch", "adapter_style", "ensemble_image_auc", "ensemble_pixel_auc",
                  "level1_image_auc", "level2_image_auc", "level3_image_auc",
                  "level4_image_auc", "level1_pixel_auc", "level2_pixel_auc",
                  "level3_pixel_auc", "level4_pixel_auc")


def cmd_ablate(args):
    run = _resolve(args)
    prompts = _prompt_set(args)
    archs = [a.strip() for a in args.archs.split(",")] if args.archs else \
        ["adapter", "projector"]
    for arch in archs:
        if arch not in CHOICES["model.arch"]:
            raise ConfigError(f"--archs: each must be one of "
                              f"{', '.join(CHOICES['model.arch'])}, got {arch!r}")
    train_samples, test_samples = _manifest(args.data, "train"), _manifest(args.data, "test")
    # each row echoes its settings, but of the data section only what differs
    # from the defaults
    defaults = _as_json(DEFAULTS)["data"]
    data = {key: value for key, value in _as_json(run)["data"].items() if value != defaults[key]}
    rows = []
    for arch in archs:
        styles = ["dual", "single"] if (arch == "adapter" and args.include_single) \
            else [run.model.adapter_style if arch == "adapter" else "dual"]
        for style in styles:
            row_run = dataclasses.replace(run, model=dataclasses.replace(
                run.model, arch=arch, adapter_style=style))
            # train, build the bank (few-shot) and evaluate, as the separate commands do
            backbone, params, _, _ = _train(row_run, train_samples, test_samples, prompts)
            bank = (_bank(row_run, train_samples, backbone, params)
                    if run.inference.mode == "few-shot" else None)
            report = _evaluate(row_run, test_samples, prompts, backbone, params, bank,
                               *_betas(row_run, bank is not None))
            row = {"arch": arch, "adapter_style": style,
                   "config": {**_as_json(row_run), "data": data},
                   "ensemble_image_auc": report.image_auc,
                   "ensemble_pixel_auc": report.pixel_auc}
            pixel_aucs = report.per_level_pixel_auc or [None] * 4
            for i in range(4):
                row[f"level{i + 1}_image_auc"] = report.per_level_image_auc[i]
                row[f"level{i + 1}_pixel_auc"] = pixel_aucs[i]
            rows.append(row)

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
    defaults = _as_json(DEFAULTS)

    def command(name, func, summary, settings):
        """Subparser with --config and one flag per setting key: --field sets section.field."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON config file")
        for key in settings:
            section, field = key.split(".")
            default = defaults[section][field]
            kind = {tuple: _levels, float: _finite_float}.get(type(default), type(default))
            p.add_argument("--" + field.replace("_", "-"), dest=key, choices=CHOICES.get(key),
                           type=kind)
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
    given = p.add_mutually_exclusive_group()
    given.add_argument("--data", help="dataset directory (uses its test manifest)")
    given.add_argument("--manifest", help="explicit manifest of images to score")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--beta1", type=_finite_float)
    p.add_argument("--beta2", type=_finite_float)
    p.add_argument("--prompts")

    p = command("eval", cmd_eval, "evaluate a checkpoint, writing a report",
                ["inference.target", "inference.mode", "inference.k"])
    p.add_argument("--ckpt", required=True)
    p.add_argument("--bank")
    p.add_argument("--data", required=True)
    p.add_argument("--beta1", type=_finite_float)
    p.add_argument("--beta2", type=_finite_float)
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
    keep_freed_heap()
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
