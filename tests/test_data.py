import dataclasses
import json
import os
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from calllog import count_forks

from mvfa import data as datamod
from mvfa import fileio
from mvfa.data import (DEFAULT_MODALITIES, LoadedSample, ModalityProfile, Sample, SynthConfig,
                       _synth_sample, bool_mask, few_shot_split, gen_dataset, load_chunks,
                       load_manifest, load_sample, read_pgm, write_pgm, zero_shot_split)
from mvfa.errors import ConfigError, DataError, FormatError, ManifestError, MVFAError


def small_config(**kw):
    defaults = dict(
        modalities=(ModalityProfile("texture-a", 3.0, 0.5, 0.03),
                    ModalityProfile("texture-b", 7.0, 0.45, 0.05),
                    ModalityProfile("texture-c", 12.0, 0.4, 0.04)),
        image_size=32, train_normals=4, train_anomalies=3,
        test_normals=2, test_anomalies=2, seed=9)
    defaults.update(kw)
    return SynthConfig(**defaults)


# -- PGM ------------------------------------------------------------------------

def test_pgm_round_trip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, (8, 8), dtype=np.uint8)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    assert np.array_equal(read_pgm(path), image)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n8 8\n255\n")
    write_pgm(tmp_path / "img2.pgm", read_pgm(path))
    assert (tmp_path / "img2.pgm").read_bytes() == raw


def test_pgm_header_parses_dimensions(tmp_path):
    path = tmp_path / "wide.pgm"
    payload = b"P5\n64 64\n255\n" + bytes(64 * 64)
    path.write_bytes(payload)
    assert read_pgm(path).shape == (64, 64)


def test_pgm_rejects_wrong_maxval(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError, match="maxval"):
        read_pgm(path)


def test_pgm_malformed_names_byte_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(FormatError, match="byte 0"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
    with pytest.raises(FormatError, match="byte 11"):
        read_pgm(path)


@pytest.mark.parametrize("dims", [b"+4 4", b"0_4 4", b"4 +4", b"4 \xd9\xa4"])
def test_pgm_dimensions_are_ascii_digits_only(tmp_path, dims):
    # int() reads "+4" and "0_4" as 4, so these read as a 4x4 image before
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(16))
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: dimensions are not integers at byte 3")):
        read_pgm(path)


def test_write_pgm_requires_u8(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float32))


def test_atomic_write_makes_the_parent_replaces_the_file_and_leaves_no_temp(tmp_path,
                                                                           monkeypatch):
    path = tmp_path / "a" / "b" / "x.pgm"
    fileio.write_bytes_atomic(path, b"first")
    # a temp file a crashed process of the same pid left under the next name is skipped
    serial = next(fileio._temp_serial) + 1
    stale = path.parent / f".tmp-{os.getpid()}-{serial}-x.pgm"
    stale.write_bytes(b"stale")
    fileio.write_bytes_atomic(path, b"second")
    assert path.read_bytes() == b"second" and stale.read_bytes() == b"stale"
    assert sorted(p.name for p in path.parent.iterdir()) == [stale.name, "x.pgm"]
    assert path.stat().st_mode & 0o777 == 0o600

    def fails(*_):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(fileio.os, "replace", fails)
    with pytest.raises(OSError, match="No space"):
        fileio.write_bytes_atomic(path, b"third")
    assert path.read_bytes() == b"second"
    assert sorted(p.name for p in path.parent.iterdir()) == [stale.name, "x.pgm"]


# -- generation -----------------------------------------------------------------

def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_remove_temp_files_deletes_only_the_temp_files_of_that_process(tmp_path):
    os.close(fileio._create_temp(tmp_path, "x.pgm")[1])
    # another pid, a pid that begins with this one's digits, and a finished file
    others = [".tmp-1-0-x.pgm", f".tmp-{os.getpid()}0-0-x.pgm", "x.pgm"]
    for name in others:
        (tmp_path / name).touch()
    fileio.remove_temp_files([tmp_path], os.getpid())
    assert sorted(os.listdir(tmp_path)) == sorted(others)


def test_generation_is_byte_deterministic(tmp_path):
    cfg = small_config()
    gen_dataset(cfg, tmp_path / "one")
    gen_dataset(cfg, tmp_path / "two")
    a, b = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "two")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


def test_generation_is_byte_identical_under_frequent_thread_switches(tmp_path):
    """A 1 µs switch interval changes no byte: generation runs on no thread of its own."""
    cfg = small_config()
    gen_dataset(cfg, tmp_path / "reference")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gen_dataset(cfg, tmp_path / "switched")
    finally:
        sys.setswitchinterval(interval)
    assert tree_bytes(tmp_path / "switched") == tree_bytes(tmp_path / "reference")


def test_forked_generation_writes_the_tree_of_one_process(tmp_path, monkeypatch):
    cfg = small_config()
    forks = count_forks(monkeypatch)
    gen_dataset(cfg, tmp_path / "forked")
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    gen_dataset(cfg, tmp_path / "serial")
    assert tree_bytes(tmp_path / "forked") == tree_bytes(tmp_path / "serial")


def _no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_generation_raises_the_workers_write_error_and_reaps_it(tmp_path, monkeypatch):
    """The last write fails, in the worker's half, and reaches the caller unchanged.

    No manifest is written and no child process is left.
    """
    real = datamod.write_bytes_atomic

    def last_fails(path, payload):
        if path.endswith(os.path.join("texture-c", "test", "anom_0001_mask.pgm")):
            raise OSError(5, f"Input/output error in process {os.getpid()}", path)
        real(path, payload)

    monkeypatch.setattr(datamod, "write_bytes_atomic", last_fails)
    forks = count_forks(monkeypatch)
    with pytest.raises(OSError) as raised:
        gen_dataset(small_config(), tmp_path)
    assert type(raised.value) is OSError and raised.value.errno == 5
    assert raised.value.strerror == f"Input/output error in process {forks[0]}"
    assert not (tmp_path / "train.jsonl").exists()
    assert not [path for path in tmp_path.rglob(".tmp-*")]
    _no_child_is_left()


def test_an_error_in_the_callers_half_lets_the_workers_half_finish(tmp_path, monkeypatch):
    """A failed run leaves the same files every time, not those a kill cut short.

    The first sample fails in this process; the worker's half is still
    written in full, and the earlier error is the one raised.
    """
    parent, real = os.getpid(), datamod._synth_sample

    def first_fails(*args):
        if os.getpid() == parent:
            raise DataError("the first sample failed")
        return real(*args)

    monkeypatch.setattr(datamod, "_synth_sample", first_fails)
    trees = []
    for run in ("one", "two"):
        with pytest.raises(DataError, match="the first sample failed"):
            gen_dataset(small_config(), tmp_path / run)
        trees.append(tree_bytes(tmp_path / run))
    assert trees[0] == trees[1]
    assert len(trees[0]) == 2 * (3 * (4 + 3 + 2 + 2) // 2)
    assert os.path.join("texture-c", "test", "anom_0001_mask.pgm") in trees[0]
    _no_child_is_left()


def test_interrupted_generation_leaves_no_child_or_temp_file(tmp_path, monkeypatch):
    """A Ctrl-C in this process's half kills the worker in the middle of a write.

    The worker stops once it has made its first write's temp file, where a
    kill inside ``write_bytes_atomic`` would leave one; it must be deleted.
    """
    parent, stuck, out = os.getpid(), tmp_path / "stuck", tmp_path / "data"
    real_write, real_synth, calls = datamod.write_bytes_atomic, datamod._synth_sample, []

    def stuck_in_the_worker(path, payload):
        if os.getpid() != parent:
            fileio._create_temp(*os.path.split(path))
            stuck.touch()
            time.sleep(60)
        real_write(path, payload)

    def interrupted(*args):
        calls.append(args)
        if len(calls) == 10:
            deadline = time.monotonic() + 30
            while not stuck.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyboardInterrupt
        return real_synth(*args)

    monkeypatch.setattr(datamod, "write_bytes_atomic", stuck_in_the_worker)
    monkeypatch.setattr(datamod, "_synth_sample", interrupted)
    with pytest.raises(KeyboardInterrupt):
        gen_dataset(small_config(), out)
    assert stuck.exists()
    _no_child_is_left()
    assert not (out / "train.jsonl").exists()
    written = [path for path in out.rglob("*") if path.is_file()]
    assert written and not [path for path in written if path.name.startswith(".tmp-")]
    assert all(read_pgm(path).shape == (32, 32) for path in written)


def test_generated_masks_and_labels(tmp_path):
    cfg = small_config()
    train_manifest, test_manifest = gen_dataset(cfg, tmp_path)
    samples = load_manifest(train_manifest) + load_manifest(test_manifest)
    assert len(samples) == 3 * (4 + 3 + 2 + 2)
    for sample in samples:
        mask = read_pgm(sample.mask)
        image = read_pgm(sample.image)
        assert mask.shape == image.shape
        assert (mask > 0).any() == bool(sample.label)


def test_defect_contrast_inside_mask_exceeds_outside():
    cfg = small_config()
    for modality_index in range(3):
        for index in range(cfg.train_anomalies):
            image, mask = _synth_sample(cfg, modality_index, 0, True, index)
            base, _ = _synth_sample_base(cfg, modality_index, 0, index)
            diff = np.abs(image.astype(np.int16) - base.astype(np.int16))
            assert diff[mask].mean() > diff[~mask].mean()


def _synth_sample_base(cfg, modality_index, split_code, index):
    """Replay the anomaly stream up to the defect insertion to get its base."""
    from mvfa.data import _rng, synth_normal_field
    rng = _rng(cfg.seed, modality_index, split_code, 1, index)
    profile = cfg.modalities[modality_index]
    from mvfa.data import quantize
    return quantize(synth_normal_field(rng, cfg.image_size, profile)), rng


def test_mask_free_modality_withholds_masks(tmp_path):
    cfg = small_config(modalities=(
        ModalityProfile("texture-a", 3.0, 0.5, 0.03),
        ModalityProfile("labels-only", 7.0, 0.45, 0.05, masks=False)))
    train_manifest, _ = gen_dataset(cfg, tmp_path)
    samples = load_manifest(train_manifest)
    by_mod = {m: [s for s in samples if s.modality == m]
              for m in ("texture-a", "labels-only")}
    assert all(s.mask is not None for s in by_mod["texture-a"])
    assert all(s.mask is None for s in by_mod["labels-only"])
    loaded = load_sample(by_mod["labels-only"][0])
    assert loaded.mask is None


def test_synth_config_validation():
    with pytest.raises(ConfigError):
        small_config(train_normals=0)
    with pytest.raises(ConfigError):
        small_config(defect_radius=(5.0, 2.0))



@pytest.mark.parametrize("base_freq", [0.0, -3.0, float("nan"), float("inf"), "7",
                                       pytest.param(10 ** 400, id="int-beyond-float")])
def test_modality_profile_rejects_a_base_freq_that_is_not_positive_and_finite(base_freq):
    with pytest.raises(ConfigError, match="'texture-a': base_freq must be a finite"):
        ModalityProfile("texture-a", base_freq, 0.5, 0.03)


@pytest.mark.parametrize("field", ["contrast", "noise"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "0.5",
                                   pytest.param(10 ** 400, id="int-beyond-float")])
def test_modality_profile_rejects_a_contrast_or_noise_that_is_not_finite(field, value):
    given = {"contrast": 0.5, "noise": 0.03, field: value}
    with pytest.raises(ConfigError, match=f"'texture-a': {field} must be a finite number"):
        ModalityProfile("texture-a", 3.0, **given)


@pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../escaped", "a\0b", None,
                                  *([f"a{os.altsep}b"] if os.altsep else [])])
def test_modality_profile_rejects_a_name_that_is_not_one_directory(name):
    with pytest.raises(ConfigError, match="modality name must be a file name other than"):
        ModalityProfile(name, 3.0, 0.5, 0.03)


def test_synth_config_rejects_two_profiles_of_one_name():
    twin = ModalityProfile("texture-a", 5.0, 0.2, 0.01)
    with pytest.raises(ConfigError, match=r"modality names must differ, got \['texture-a', "
                                          r"'texture-b', 'texture-c', 'texture-a'\]"):
        small_config(modalities=small_config().modalities + (twin,))


def test_an_integer_a_float_holds_is_a_finite_setting():
    # np.isfinite raised a TypeError for an integer beyond int64
    assert ModalityProfile("texture-a", 10 ** 20, 10 ** 20, 10 ** 20).contrast == 10 ** 20
    assert SynthConfig(defect_delta=10 ** 20, benign_delta=10 ** 20).defect_delta == 10 ** 20
    for name in ("defect_delta", "benign_delta"):
        with pytest.raises(ConfigError, match=f"{name} must be a finite number"):
            SynthConfig(**{name: 10 ** 400})


# -- manifests -----------------------------------------------------------------

def test_manifest_errors_name_the_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"image": "a.pgm", "label": 0, "mask": null, "modality": "x"}\n'
                    'not json\n', encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2"):
        load_manifest(path)
    path.write_text('{"image": "a.pgm", "label": 3, "mask": null, "modality": "x"}\n',
                    encoding="utf-8")
    with pytest.raises(ManifestError, match="line 1"):
        load_manifest(path)
    path.write_text('{"image": "a.pgm", "label": 0, "modality": "x"}\n',
                    encoding="utf-8")
    with pytest.raises(ManifestError, match="mask"):
        load_manifest(path)


@pytest.mark.parametrize("line, message", [
    ('{"image": 5, "label": 0, "mask": null, "modality": "x"}', "image must be a path"),
    ('{"image": "a.pgm", "label": 0, "mask": ["a"], "modality": "x"}', "image must be a path"),
    ('{"image": null, "label": 0, "mask": null, "modality": "x"}', "image must be a path"),
    ('["a.pgm", 0, null, "x"]', "expected a JSON object"),
    ('5', "expected a JSON object"),
])
def test_manifest_rows_of_another_json_type_name_the_line(tmp_path, line, message):
    path = tmp_path / "m.jsonl"
    path.write_text('{"image": "a.pgm", "label": 0, "mask": null, "modality": "x"}\n'
                    + line + "\n", encoding="utf-8")
    with pytest.raises(ManifestError, match=f"line 2: {message}"):
        load_manifest(path)


# one value of each JSON type: what a mutated manifest field becomes
JSON_VALUES = (5, 2.5, True, None, "x", [], ["a.pgm"], {}, {"image": "a.pgm"})


def _mutated_manifests(rows, rng, draws):
    """(line number, payload) of seeded one-row mutations of a manifest's rows."""
    for draw in range(draws):
        index = int(rng.integers(len(rows)))
        row = dict(rows[index])
        key = sorted(row)[int(rng.integers(len(row)))]
        kind = draw % 3
        if kind == 0:    # one field of one row replaced by a value of another type
            others = [v for v in JSON_VALUES if type(v) is not type(row[key])]
            row[key] = others[int(rng.integers(len(others)))]
        elif kind == 1:  # a key dropped
            del row[key]
        lines = [json.dumps(r).encode() for r in rows]
        lines[index] = json.dumps(row).encode()
        if kind == 2:    # one byte of the row replaced by a byte that is not UTF-8
            at = int(rng.integers(len(lines[index])))
            lines[index] = (lines[index][:at] + bytes([int(rng.integers(0x80, 0x100))])
                            + lines[index][at + 1:])
        yield index + 1, b"\n".join(lines) + b"\n"


def test_manifest_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every mutated manifest loads or raises an MVFAError naming the line.

    Each of 240 draws mutates one row of a generated manifest: one field
    replaced by a JSON value of another type, one key dropped, or one byte
    replaced by a byte that is not UTF-8. Two defects of the reader are
    among the mutants this catches: a path of another JSON type
    (``"image": 5``, ``"mask": ["a"]``) reached ``os.path.join`` and raised a
    raw ``TypeError``, and a byte that is not UTF-8 raised a raw
    ``UnicodeDecodeError``. Reading the files stays under 2 MiB of traced
    memory.
    """
    train_manifest, _ = gen_dataset(small_config(
        modalities=small_config().modalities[:1], train_normals=2, train_anomalies=2),
        tmp_path)
    rows = [json.loads(line) for line in open(train_manifest, encoding="utf-8")]
    path = tmp_path / "mutated.jsonl"
    outcomes = {"loaded": 0, "raised": 0}
    tracemalloc.start()
    try:
        for lineno, payload in _mutated_manifests(rows, np.random.default_rng(2026), 240):
            path.write_bytes(payload)
            try:
                load_manifest(path)
                outcomes["loaded"] += 1
            except MVFAError as exc:
                assert str(exc).startswith(f"{path}: line {lineno}: "), exc
                outcomes["raised"] += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcomes["loaded"] > 0 and outcomes["raised"] > 160, outcomes
    assert peak < 2 * 2 ** 20


def test_manifest_label_mask_consistency(tmp_path):
    """A row's label and mask are checked when it is loaded, naming its line.

    ``load_manifest`` only parses the row, so it opens neither file.
    """
    image = np.zeros((4, 4), dtype=np.uint8)
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[1, 1] = 255
    write_pgm(tmp_path / "img.pgm", image)
    write_pgm(tmp_path / "mask.pgm", mask)
    write_pgm(tmp_path / "wide.pgm", np.zeros((4, 5), dtype=np.uint8))
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "img.pgm", "label": 0,
                                "mask": "mask.pgm", "modality": "x"}) + "\n",
                    encoding="utf-8")
    (sample,) = load_manifest(path)
    with pytest.raises(ManifestError, match=re.escape(
            f"{path}: line 1: label 0 is inconsistent with the mask content")):
        load_sample(sample)
    path.write_text(json.dumps({"image": "img.pgm", "label": 1,
                                "mask": "mask.pgm", "modality": "x"}) + "\n"
                    + json.dumps({"image": "wide.pgm", "label": 1,
                                  "mask": "mask.pgm", "modality": "x"}) + "\n",
                    encoding="utf-8")
    good, wide = load_manifest(path)
    assert load_sample(good).mask.sum() == 1
    with pytest.raises(ManifestError, match=re.escape(
            f"{path}: line 2: mask shape (4, 4) does not match image shape (4, 5)")):
        load_sample(wide)


def test_sample_row_is_outside_equality_and_hash(tmp_path):
    row = ("a.pgm", 1, "a_mask.pgm", "x")
    assert Sample(*row, "m.jsonl", 1) == Sample(*row, "n.jsonl", 9) == Sample(*row)
    assert len({Sample(*row, "m.jsonl", 1), Sample(*row)}) == 1


def test_a_sample_made_without_a_manifest_is_named_by_its_image(tmp_path):
    write_pgm(tmp_path / "img.pgm", np.zeros((4, 4), dtype=np.uint8))
    write_pgm(tmp_path / "mask.pgm", np.zeros((4, 4), dtype=np.uint8))
    sample = Sample(str(tmp_path / "img.pgm"), 1, str(tmp_path / "mask.pgm"), "x")
    with pytest.raises(ManifestError, match=re.escape(
            f"{sample.image}: label 1 is inconsistent with the mask content")):
        load_sample(sample)


# -- splits ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    train_manifest, test_manifest = gen_dataset(small_config(), root)
    return load_manifest(train_manifest), load_manifest(test_manifest)


def test_load_chunks_loads_each_chunk_in_order(dataset):
    _, samples = dataset
    given = list(samples[:5])
    given[2] = load_sample(given[2])  # a loaded sample passes through as it is
    chunks = list(load_chunks(given, 2))
    assert [len(chunk) for chunk in chunks] == [2, 2, 1]
    flat = [s for chunk in chunks for s in chunk]
    assert flat[2] is given[2]
    for sample, loaded in zip(samples[:5], flat):
        assert isinstance(loaded, LoadedSample)
        assert loaded.path == sample.image
        assert np.array_equal(loaded.image, load_sample(sample).image)
    # a chunk is read only when it is reached
    missing = dataclasses.replace(given[0], image=given[0].image + ".missing")
    chunks = load_chunks(given[:2] + [missing], 2)
    assert len(next(chunks)) == 2
    with pytest.raises(FileNotFoundError):
        next(chunks)


@pytest.mark.parametrize("mask", [np.array([[0.0, 1.0]], dtype=np.float32),
                                  np.array([[0, 255]], dtype=np.uint8) // 255,
                                  np.array([[False, True]])])
def test_bool_mask_keeps_zero_and_one(mask):
    flags = bool_mask(mask)
    assert flags.dtype == bool and flags.tolist() == [[False, True]]


@pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
def test_bool_mask_rejects_other_values(value):
    assert bool_mask(None) is None
    with pytest.raises(DataError, match="only the values 0 and 1"):
        bool_mask(np.array([[0.0, value]], dtype=np.float32))


def test_zero_shot_split_filters_target(dataset):
    train_samples, test_samples = dataset
    train, test = zero_shot_split(train_samples, test_samples, "texture-c")
    assert {s.modality for s in train} == {"texture-a", "texture-b"}
    assert {s.modality for s in test} == {"texture-c"}
    with pytest.raises(ManifestError, match="unknown modality"):
        zero_shot_split(train_samples, test_samples, "missing")


def test_few_shot_split_is_seeded_and_consistent(dataset):
    train_samples, test_samples = dataset
    one = few_shot_split(train_samples, test_samples, "texture-b", 2, seed=5)
    two = few_shot_split(train_samples, test_samples, "texture-b", 2, seed=5)
    assert [s.image for s in one[0]] == [s.image for s in two[0]]
    assert [s.image for s in one[1]] == [s.image for s in two[1]]
    other = few_shot_split(train_samples, test_samples, "texture-b", 2, seed=6)
    assert [s.image for s in one[0]] != [s.image for s in other[0]] or True
    train, bank, test = one
    assert len(train) == 4 and len(bank) == 2
    assert all(s.label == 1 for s in train[:2])
    assert all(s.label == 0 for s in train[2:])
    assert all(s.label == 0 for s in bank)
    assert {s.modality for s in test} == {"texture-b"}


def test_few_shot_split_k_exceeding_pool_errors(dataset):
    train_samples, test_samples = dataset
    with pytest.raises(DataError, match="exceeds"):
        few_shot_split(train_samples, test_samples, "texture-a", 99, seed=0)
    with pytest.raises(ConfigError):
        few_shot_split(train_samples, test_samples, "texture-a", 0, seed=0)


def test_no_test_image_leaks_into_training_or_bank(dataset):
    train_samples, test_samples = dataset
    train, bank, test = few_shot_split(train_samples, test_samples, "texture-a", 2,
                                       seed=1)
    test_paths = {s.image for s in test}
    assert test_paths
    assert not test_paths & {s.image for s in train}
    assert not test_paths & {s.image for s in bank}
    ztrain, ztest = zero_shot_split(train_samples, test_samples, "texture-a")
    assert not {s.image for s in ztest} & {s.image for s in ztrain}
