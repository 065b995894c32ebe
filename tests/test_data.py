import dataclasses
import json
import os

import numpy as np
import pytest

from mvfa.data import (DEFAULT_MODALITIES, LoadedSample, ModalityProfile, SynthConfig,
                       _synth_sample, bool_mask, few_shot_split, gen_dataset, load_chunks,
                       load_manifest, load_sample, read_pgm, write_pgm, zero_shot_split)
from mvfa.errors import ConfigError, DataError, FormatError, ManifestError


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


def test_write_pgm_requires_u8(tmp_path):
    with pytest.raises(FormatError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float32))


# -- generation -----------------------------------------------------------------

def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            path = os.path.join(base, name)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_generation_is_byte_deterministic(tmp_path):
    cfg = small_config()
    gen_dataset(cfg, tmp_path / "one")
    gen_dataset(cfg, tmp_path / "two")
    a, b = tree_bytes(tmp_path / "one"), tree_bytes(tmp_path / "two")
    assert a.keys() == b.keys()
    assert all(a[k] == b[k] for k in a)


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



@pytest.mark.parametrize("base_freq", [0.0, -3.0, float("nan"), float("inf"), "7"])
def test_modality_profile_rejects_a_base_freq_that_is_not_positive_and_finite(base_freq):
    with pytest.raises(ConfigError, match="'texture-a': base_freq must be a finite"):
        ModalityProfile("texture-a", base_freq, 0.5, 0.03)


@pytest.mark.parametrize("field", ["contrast", "noise"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "0.5"])
def test_modality_profile_rejects_a_contrast_or_noise_that_is_not_finite(field, value):
    given = {"contrast": 0.5, "noise": 0.03, field: value}
    with pytest.raises(ConfigError, match=f"'texture-a': {field} must be a finite number"):
        ModalityProfile("texture-a", 3.0, **given)


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


def test_manifest_label_mask_consistency(tmp_path):
    image = np.zeros((4, 4), dtype=np.uint8)
    mask = np.zeros((4, 4), dtype=np.uint8)
    mask[1, 1] = 255
    write_pgm(tmp_path / "img.pgm", image)
    write_pgm(tmp_path / "mask.pgm", mask)
    path = tmp_path / "m.jsonl"
    path.write_text(json.dumps({"image": "img.pgm", "label": 0,
                                "mask": "mask.pgm", "modality": "x"}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ManifestError, match="inconsistent"):
        load_manifest(path)
    path.write_text(json.dumps({"image": "img.pgm", "label": 1,
                                "mask": "mask.pgm", "modality": "x"}) + "\n",
                    encoding="utf-8")
    assert len(load_manifest(path)) == 1


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
