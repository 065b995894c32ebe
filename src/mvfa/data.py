"""Synthetic multi-texture defect data, PGM image I/O, manifests and splits.

Normal images are band-limited seeded noise with a per-modality spectral
profile; anomalous images add elliptical blobs or strokes whose support
becomes the ground-truth mask. Everything is a pure function of the
config, so regenerating a dataset reproduces it byte for byte. Samples are
listed in JSON-lines manifests (keys: image, mask, label, modality) with
paths relative to the manifest file; generation writes separate train and
test manifests so no test image can leak into training or the memory
bank. Generation halves its samples with ``worker.halves``, as training
and scoring do.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, FormatError, ManifestError
from .fileio import (parse_json, read_bytes, read_text, remove_temp_files,
                     write_bytes_atomic, write_text_atomic)
from .worker import halves


# -- PGM ----------------------------------------------------------------------

def write_pgm(path, image):
    """Write an 8-bit grayscale image as binary PGM (P5, maxval 255)."""
    write_bytes_atomic(path, _pgm_bytes(image))


def _pgm_bytes(image):
    """The binary PGM file of a 2-D uint8 array."""
    arr = np.asarray(image)
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise FormatError(f"write_pgm: expected a 2-D uint8 array, got "
                          f"{arr.dtype} shape {arr.shape}")
    h, w = arr.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()


def read_pgm(path):
    """Read a binary PGM written by :func:`write_pgm`; strict P5/255 only.

    The width and height are ASCII digits only: ``int`` alone would also
    take a sign or underscores (``+4``, ``0_4``).
    """
    payload = read_bytes(path)

    def fail(offset, message):
        raise FormatError(f"{path}: {message} at byte {offset}")

    if not payload.startswith(b"P5\n"):
        fail(0, "expected magic 'P5'")
    dims_end = payload.find(b"\n", 3)
    if dims_end < 0:
        fail(3, "unterminated dimensions line")
    parts = payload[3:dims_end].split()
    if len(parts) != 2:
        fail(3, "expected '<width> <height>'")
    if not (parts[0].isdigit() and parts[1].isdigit()):
        fail(3, "dimensions are not integers")
    w, h = int(parts[0]), int(parts[1])
    if w <= 0 or h <= 0:
        fail(3, "dimensions must be positive")
    maxval_end = payload.find(b"\n", dims_end + 1)
    if maxval_end < 0:
        fail(dims_end + 1, "unterminated maxval line")
    if payload[dims_end + 1:maxval_end] != b"255":
        fail(dims_end + 1, "maxval must be 255")
    found = len(payload) - maxval_end - 1
    if found != w * h:
        fail(maxval_end + 1, f"expected {w * h} pixel bytes, found {found}")
    return np.frombuffer(payload, np.uint8, w * h, maxval_end + 1).reshape(h, w)


# -- synthetic generation -----------------------------------------------------

def _finite(value):
    """Whether ``value`` is a number that converts to a finite float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass(frozen=True)
class ModalityProfile:
    """Spectral texture profile; masks=False withholds segmentation masks.

    Defects in a modality share one intensity polarity (dark or bright
    lesions), the way a given imaging modality renders its pathology.
    """

    name: str
    base_freq: float
    contrast: float
    noise: float
    polarity: int = -1
    masks: bool = True

    def __post_init__(self):
        # the name is a directory of the dataset: it must name one entry inside it
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or (
                {"/", os.sep, os.altsep, "\0"} & set(self.name)):
            raise ConfigError(f"modality name must be a file name other than '.' and '..', "
                              f"with no path separator or NUL, got {self.name!r}")
        if self.polarity not in (-1, 1):
            raise ConfigError(f"polarity must be -1 or 1, got {self.polarity}")
        # 0 or NaN would make a NaN spectrum, which becomes garbage pixels
        if not (_finite(self.base_freq) and self.base_freq > 0):
            raise ConfigError(f"modality {self.name!r}: base_freq must be a finite "
                              f"number above 0, got {self.base_freq!r}")
        # NaN or inf would write earlier modalities before failing as a data error
        for name in ("contrast", "noise"):
            value = getattr(self, name)
            if not _finite(value):
                raise ConfigError(f"modality {self.name!r}: {name} must be a finite "
                                  f"number, got {value!r}")


DEFAULT_MODALITIES = (
    ModalityProfile("texture-a", base_freq=3.0, contrast=0.50, noise=0.03, polarity=-1),
    ModalityProfile("texture-b", base_freq=7.0, contrast=0.40, noise=0.04, polarity=-1),
    ModalityProfile("texture-c", base_freq=12.0, contrast=0.10, noise=0.015, polarity=-1),
)


@dataclass(frozen=True)
class SynthConfig:
    modalities: tuple = DEFAULT_MODALITIES
    image_size: int = 64
    defect_count: tuple = (1, 3)
    defect_radius: tuple = (6.0, 10.0)
    defect_delta: float = 0.6
    benign_count: tuple = (0, 1)
    benign_radius: tuple = (6.0, 10.0)
    benign_delta: float = 0.6
    train_normals: int = 200
    train_anomalies: int = 32
    test_normals: int = 50
    test_anomalies: int = 50
    seed: int = 42

    def __post_init__(self):
        counts = (self.train_normals, self.train_anomalies,
                  self.test_normals, self.test_anomalies)
        if min(counts) < 1:
            raise ConfigError("all sample counts must be at least 1")
        if self.image_size < 8:
            raise ConfigError("image_size must be at least 8")
        if not self.modalities:
            raise ConfigError("need at least one modality profile")
        names = [profile.name for profile in self.modalities]
        if len(set(names)) < len(names):  # two profiles would write the same files
            raise ConfigError(f"modality names must differ, got {names}")
        if self.seed < 0:
            raise ConfigError(f"data seed must be nonnegative, got {self.seed}")
        self._check_range("defect_count", lambda low: low >= 1)
        self._check_range("benign_count", lambda low: low >= 0)
        for name in ("defect_radius", "benign_radius"):
            self._check_range(name, lambda low: low > 0)
            high = getattr(self, name)[1]
            if 2 * (high + 1) >= self.image_size:
                raise ConfigError(f"{name.replace('_', ' ')} {high} leaves no room "
                                  f"in a {self.image_size}px image")
        # a NaN delta makes NaN pixels, which the uint8 cast turns into garbage
        for name in ("defect_delta", "benign_delta"):
            value = getattr(self, name)
            if not _finite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")

    def _check_range(self, name, low_is_valid):
        """Reject a range that is not two ordered values with a valid low end."""
        value = getattr(self, name)
        if len(value) != 2 or not value[0] <= value[1] or not low_is_valid(value[0]):
            raise ConfigError(f"bad {name.replace('_', ' ')} range {list(value)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        raw = dict(raw)
        if "modalities" in raw:
            try:
                raw["modalities"] = tuple(ModalityProfile(**m) for m in raw["modalities"])
            except TypeError:  # a profile that lacks a key without a default
                raise ConfigError("each modality profile needs name, base_freq, contrast "
                                  "and noise") from None
        for key in ("defect_count", "defect_radius", "benign_count", "benign_radius"):
            if key in raw:
                raw[key] = tuple(raw[key])
        return cls(**raw)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


@functools.lru_cache(maxsize=16)
def _spectral_envelope(size, base_freq):
    """Gaussian low-pass weights over the rfft2 frequencies of a size x size field."""
    fy = np.fft.fftfreq(size)[:, None] * size
    fx = np.fft.rfftfreq(size)[None, :] * size
    radius = np.sqrt(fy * fy + fx * fx)
    envelope = np.exp(-0.5 * (radius / base_freq) ** 2)
    envelope.flags.writeable = False
    return envelope


@functools.lru_cache(maxsize=4)
def _pixel_grid(size):
    """Row and column index of every pixel of a size x size image."""
    grid = np.mgrid[0:size, 0:size]
    grid.flags.writeable = False
    return grid


def synth_normal_field(rng, size, profile: ModalityProfile):
    """Band-limited noise texture in [0, 1] with the profile's spectrum."""
    white = rng.standard_normal((size, size))
    spectrum = np.fft.rfft2(white)
    spectrum *= _spectral_envelope(size, profile.base_freq)
    field = np.fft.irfft2(spectrum, s=(size, size))
    field = (field - field.mean()) / (field.std() + 1e-12)
    image = 0.5 + 0.5 * profile.contrast * field
    image += profile.noise * rng.standard_normal((size, size))
    return np.clip(image, 0.0, 1.0)


def _ellipse_support(size, rng, radius_range):
    """Boolean support of one random rotated ellipse (thin ones look like strokes)."""
    rx = rng.uniform(*radius_range)
    ry = rx * rng.uniform(0.25, 1.0)
    theta = rng.uniform(0.0, np.pi)
    margin = radius_range[1] + 1.0
    cy = rng.uniform(margin, size - margin)
    cx = rng.uniform(margin, size - margin)
    yy, xx = _pixel_grid(size)
    dy, dx = yy - cy, xx - cx
    u = np.cos(theta) * dx + np.sin(theta) * dy
    v = -np.sin(theta) * dx + np.cos(theta) * dy
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def _add_blobs(rng, image, counts, radii, delta, polarity):
    """Overlay a random number of random ellipses; returns (image, union of supports)."""
    out = image.copy()
    union = np.zeros(image.shape, dtype=bool)
    for _ in range(int(rng.integers(counts[0], counts[1] + 1))):
        support = _ellipse_support(image.shape[0], rng, radii)
        out[support] += float(polarity) * delta * rng.uniform(0.75, 1.0)
        union |= support
    return np.clip(out, 0.0, 1.0), union


def quantize(image):
    return np.round(np.asarray(image) * 255.0).astype(np.uint8)


def _synth_sample(config, modality_index, split_code, anomalous, index):
    """One sample's (image, mask): a texture with benign blobs and defect-slot blobs.

    Benign blobs are normal anatomy, present in every image and drawn with
    the opposite polarity to the modality's defects. A handful of reference
    images cannot cover their variety, so memory distance alone misreads
    them, while their consistent polarity keeps them recognizable as
    harmless. Normal samples draw the same number of defect-slot blobs with
    the benign polarity and an empty mask, so the two classes share one
    structure-count and saliency distribution and differ only in polarity,
    which a nearest-reference comparison cannot see.
    """
    profile = config.modalities[modality_index]
    rng = _rng(config.seed, modality_index, split_code, int(anomalous), index)
    base = synth_normal_field(rng, config.image_size, profile)
    base, _ = _add_blobs(rng, base, config.benign_count, config.benign_radius,
                         config.benign_delta, -profile.polarity)
    polarity = profile.polarity if anomalous else -profile.polarity
    slotted, mask = _add_blobs(rng, base, config.defect_count, config.defect_radius,
                               config.defect_delta, polarity)
    image = quantize(slotted)
    if not anomalous:
        return image, np.zeros(base.shape, dtype=bool)
    change = np.abs(image.astype(np.int16) - quantize(base).astype(np.int16))
    if change[mask].mean() <= change[~mask].mean():
        raise DataError(f"defect vanished in {profile.name} sample {index}")
    return image, mask


def gen_dataset(config: SynthConfig, out_dir):
    """Write images, masks and the train/test manifests; fully deterministic.

    Each sample's job and manifest row is planned, and every directory
    made, first. Then the jobs are halved (``worker.halves``): this process
    synthesizes and writes the first ceil(n/2) samples, and the worker the
    rest. Each file is a function of its sample alone, so the bytes do not
    depend on the split. The manifests are written last, once both halves
    have succeeded, so a manifest only ever lists files that exist; on any
    error neither is written. A worker killed in the middle of a write
    leaves its temp file, which is deleted once the worker is reaped.

    Returns (train_manifest_path, test_manifest_path).
    """
    out_dir = os.fspath(out_dir)
    jobs, manifests, directories = [], {"train": [], "test": []}, []
    for split_code, split in enumerate(("train", "test")):
        counts = getattr(config, f"{split}_normals"), getattr(config, f"{split}_anomalies")
        for modality_index, profile in enumerate(config.modalities):
            directories.append(os.path.join(out_dir, profile.name, split))
            os.makedirs(directories[-1], exist_ok=True)
            for kind, total in zip(("normal", "anom"), counts):
                for index in range(total):
                    stem = f"{profile.name}/{split}/{kind}_{index:04d}"
                    row = {"image": f"{stem}.pgm",
                           "mask": f"{stem}_mask.pgm" if profile.masks else None,
                           "label": int(kind == "anom"), "modality": profile.name}
                    jobs.append(((modality_index, split_code, kind == "anom", index), row))
                    manifests[split].append(row)

    def write(part):
        for key, row in part:
            image, mask = _synth_sample(config, *key)
            write_bytes_atomic(os.path.join(out_dir, row["image"]), _pgm_bytes(image))
            if row["mask"] is not None:
                write_bytes_atomic(os.path.join(out_dir, row["mask"]),
                                   _pgm_bytes(mask.astype(np.uint8) * 255))
        return ()  # no results: the files are the output

    halved = None
    try:
        with halves(write) as halved:
            list(halved(jobs, (len(jobs) + 1) // 2))
    except BaseException:
        if halved is not None and halved.pid is not None:
            remove_temp_files(directories, halved.pid)
        raise
    paths = tuple(os.path.join(out_dir, f"{split}.jsonl") for split in manifests)
    for path, rows in zip(paths, manifests.values()):
        write_text_atomic(path, "".join(json.dumps(row) + "\n" for row in rows))
    return paths


# -- manifests and splits -----------------------------------------------------

@dataclass(frozen=True, slots=True)
class Sample:
    """A manifest row, with the image and mask paths made absolute.

    ``manifest`` and ``line`` name the row in the errors of
    :func:`load_sample`; they take no part in equality or the hash. Slots
    and one manifest path shared by every row keep a row near 110 bytes on
    CPython 3.11; a "<manifest>: line N" string per row doubled that and
    lifted the seed-42 commands' peak RSS by 0.15-0.28 MiB.
    """

    image: str
    label: int
    mask: str | None
    modality: str
    manifest: str | None = field(default=None, compare=False)
    line: int | None = field(default=None, compare=False)


@dataclass
class LoadedSample:
    image: np.ndarray          # float32 in [-1, 1], zero-centered
    label: int
    mask: np.ndarray | None    # float32 in {0, 1}
    modality: str
    path: str


def load_manifest(path):
    """Parse a JSON-lines manifest into samples with absolute paths.

    Only the JSON is read and checked here, naming the offending line; no
    image or mask is opened. :func:`load_sample` checks each row against
    its files when a caller reads it, so a row never read is never checked.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(path)))
    samples = []
    for lineno, line in enumerate(read_text(path, ManifestError).split("\n"), start=1):
        if not line.strip():
            continue
        row = parse_json(line, ManifestError, f"{path}: line {lineno}")
        if not isinstance(row, dict):
            raise ManifestError(f"{path}: line {lineno}: expected a JSON object")
        try:
            image, label = row["image"], row["label"]
            mask, modality = row["mask"], row["modality"]
        except KeyError as exc:
            raise ManifestError(f"{path}: line {lineno}: missing key {exc}") from None
        if type(label) is not int or label not in (0, 1):  # a bool is an int too
            raise ManifestError(f"{path}: line {lineno}: label must be the integer 0 or 1")
        if not isinstance(modality, str) or not modality:
            raise ManifestError(f"{path}: line {lineno}: modality must be a "
                                f"nonempty string")
        if not isinstance(image, str) or not isinstance(mask, (str, type(None))):
            raise ManifestError(f"{path}: line {lineno}: image must be a path string "
                                f"and mask a path string or null")
        mask = os.path.join(base, mask) if mask is not None else None
        samples.append(Sample(os.path.join(base, image), label, mask, modality, path, lineno))
    return samples


def load_sample(sample: Sample) -> LoadedSample:
    """Read a sample's mask and image, checking its row against them.

    The mask must have the image's shape, and the label must be 1 exactly
    when the mask has a positive pixel; otherwise a ``ManifestError``
    names the row (its manifest and line, or its image path for a sample
    made without them). This is the one reader of a sample's files.
    """
    mask = None if sample.mask is None else read_pgm(sample.mask)
    pixels = read_pgm(sample.image)
    if mask is not None:
        where = f"{sample.manifest}: line {sample.line}" if sample.manifest else sample.image
        if mask.shape != pixels.shape:
            raise ManifestError(f"{where}: mask shape {mask.shape} "
                                f"does not match image shape {pixels.shape}")
        if mask.any() != bool(sample.label):
            raise ManifestError(f"{where}: label {sample.label} is "
                                f"inconsistent with the mask content")
        mask = (mask > 0).astype(np.float32)
    # centered pixels keep patch features from sharing one dominant
    # brightness direction, which would crush cosine contrast downstream
    image = pixels.astype(np.float32) / 255.0 * 2.0 - 1.0
    return LoadedSample(image, sample.label, mask, sample.modality, sample.image)


def load_samples(samples):
    return [load_sample(s) for s in samples]


def bool_mask(mask):
    """A pixel mask as one bool per pixel, or None for None.

    A mask holds only 0 and 1 (see :class:`LoadedSample`); any other value
    is a ``DataError``, not a label rounded one way or the other.
    """
    if mask is None:
        return None
    flags = np.asarray(mask) != 0
    if not np.array_equal(flags, mask):
        raise DataError("a pixel mask must hold only the values 0 and 1")
    return flags


def load_chunks(samples, size):
    """Yield the samples as lists of at most ``size`` loaded samples, in order.

    A :class:`LoadedSample` passes through as it is, and a manifest
    :class:`Sample` is read only when its chunk is reached, so a caller
    that keeps only what it needs of each chunk holds one chunk of images
    at a time.
    """
    remaining = iter(samples)
    while chunk := list(itertools.islice(remaining, size)):
        yield [s if isinstance(s, LoadedSample) else load_sample(s) for s in chunk]


def _require_modality(samples, target, where):
    known = sorted({s.modality for s in samples})
    if target not in known:
        raise ManifestError(f"unknown modality {target!r} in {where}; "
                            f"available: {known}")


def zero_shot_split(train_samples, test_samples, target):
    """Leave-one-out: train on every other modality, test on the target."""
    _require_modality(test_samples, target, "test manifest")
    train = [s for s in train_samples if s.modality != target]
    test = [s for s in test_samples if s.modality == target]
    if not train:
        raise DataError("zero-shot split left an empty training set")
    return train, test


def few_shot_split(train_samples, test_samples, target, k, seed):
    """Pick k anomalous plus k normal target samples; the normals feed the bank.

    Returns (train, bank_normals, test). The selection is seeded and
    independent of manifest ordering.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if seed < 0:
        raise ConfigError(f"few-shot split seed must be nonnegative, got {seed}")
    _require_modality(train_samples, target, "train manifest")
    pool_pos = sorted((s for s in train_samples if s.modality == target and s.label == 1),
                      key=lambda s: s.image)
    pool_neg = sorted((s for s in train_samples if s.modality == target and s.label == 0),
                      key=lambda s: s.image)
    if k > len(pool_pos) or k > len(pool_neg):
        raise DataError(f"k={k} exceeds the available labeled samples "
                        f"({len(pool_pos)} anomalous, {len(pool_neg)} normal)")
    rng = _rng(seed, len(pool_pos), len(pool_neg))
    chosen_pos = [pool_pos[i] for i in sorted(rng.choice(len(pool_pos), k, replace=False))]
    chosen_neg = [pool_neg[i] for i in sorted(rng.choice(len(pool_neg), k, replace=False))]
    test = [s for s in test_samples if s.modality == target]
    return chosen_pos + chosen_neg, chosen_neg, test
