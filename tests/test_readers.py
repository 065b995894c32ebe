"""Seeded mutation tests of the binary and config readers.

Each reader gets a valid file, then draws of that file mutated the same
four ways: truncated at a random byte, 1-3 bits flipped in the first 200
bytes, one byte set to a random value, or ``ff ff ff 7f`` (the largest
signed 32-bit integer) written over 4 bytes. Every draw must load or raise
an ``MVFAError``, and reading all of them stays under a tracemalloc bound,
so a forged length or size field cannot make a reader allocate without end.
A checkpoint or config draw that loads must also hold only finite numbers.

The artifact containers (checkpoint, bank, map) end in a SHA-256, so they
are mutated in two modes. A raw mutant must load if and only if its bytes
equal the original's, and otherwise raise ``FormatError``. A re-sealed
mutant mutates the bytes before the digest and appends a valid digest
(``forge.seal``), so it reaches the header and tensor checks behind it.
"""

import argparse
import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from forge import seal, v1_bank, v1_checkpoint, v1_map

from mvfa import cli
from mvfa.adaptation import init_params, load_checkpoint, save_checkpoint
from mvfa.backbone import MAX_ENCODER_VALUES, BackboneConfig, init_backbone
from mvfa.data import read_pgm, write_pgm
from mvfa.errors import ConfigError, FormatError, MVFAError
from mvfa.inference import MemoryBank, load_bank, load_map, save_bank, save_map

# an encoder of MAX_ENCODER_VALUES values, most of them in its position
# table, traces 68 MiB while it is built
ENCODER_PEAK = 80 * 2 ** 20


def _mutants(payload, rng, draws):
    """Seeded mutations of the bytes ``payload``, one kind after another."""
    for draw in range(draws):
        data = bytearray(payload)
        kind = draw % 4
        if kind == 0:    # truncated
            del data[int(rng.integers(len(data))):]
        elif kind == 1:  # 1-3 bits flipped in the first 200 bytes
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(min(len(data), 200)))] ^= 1 << int(rng.integers(8))
        elif kind == 2:  # one byte set to a random value
            data[int(rng.integers(len(data)))] = int(rng.integers(256))
        else:            # the largest signed 32-bit integer written over 4 bytes
            at = int(rng.integers(len(data) - 3))
            data[at:at + 4] = b"\xff\xff\xff\x7f"
        yield bytes(data)


def _read_mutants(path, payload, draws, read, extra=(), resealed=False):
    """Write each mutant of ``payload``, then each payload of ``extra``, to ``path``
    and ``read`` it.

    ``resealed`` mutates a container's bytes before its digest and seals
    each mutant. Returns the number of draws that loaded, the type and
    message of each error raised, and the traced peak in bytes.
    """
    loaded, errors = 0, []
    mutants = (map(seal, _mutants(payload[:-32], np.random.default_rng(2026), draws))
               if resealed else _mutants(payload, np.random.default_rng(2026), draws))
    tracemalloc.start()
    try:
        for mutant in itertools.chain(mutants, extra):
            path.write_bytes(mutant)
            try:
                read(path)
                loaded += 1
            except MVFAError as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return loaded, errors, peak


def _checkpoint(path):
    save_checkpoint(path, BackboneConfig(), init_params(BackboneConfig().dim, seed=7))


def _bank(path):
    rng = np.random.default_rng(5)
    stores = [rng.standard_normal((3, 8)).astype(np.float32) for _ in range(8)]
    save_bank(path, MemoryBank(stores[:4], stores[4:], "ab" * 32))


def _map(path):
    save_map(path, np.random.default_rng(7).uniform(size=(12, 16)))


CONTAINERS = {"checkpoint": (_checkpoint, load_checkpoint, v1_checkpoint),
              "bank": (_bank, load_bank, v1_bank),
              "map": (_map, load_map, v1_map)}


@pytest.mark.parametrize("kind", sorted(CONTAINERS))
def test_raw_mutant_of_a_container_loads_only_when_unchanged(tmp_path, kind):
    """A draw loads if and only if it equals the file, else raises FormatError, in under 1 MiB.

    Before the digest, 188 of 400 mutated checkpoints and 187 of 400 banks
    loaded without an error: a flip that left a value finite read as
    another weight or row.
    """
    write, read, _ = CONTAINERS[kind]
    path = tmp_path / kind
    write(path)
    payload = path.read_bytes()
    unchanged = sum(m == payload for m in _mutants(payload, np.random.default_rng(2026), 200))
    loaded, errors, peak = _read_mutants(path, payload, 200, read,
                                         extra=[payload, payload[:-1], payload + b"\0"])
    assert loaded == unchanged + 1 and len(errors) == 202 - unchanged, (loaded, errors)
    assert all(e.startswith("FormatError: ") for e in errors), errors
    assert peak < 2 ** 20


@pytest.mark.parametrize("kind, command", [("checkpoint", "train"), ("bank", "build-bank"),
                                           ("map", "predict")])
def test_version_1_container_names_the_command_that_rewrites_it(tmp_path, kind, command):
    _, read, v1 = CONTAINERS[kind]
    path = tmp_path / kind
    path.write_bytes(v1())
    with pytest.raises(FormatError, match=rf"a version 1 {kind} file, which this version "
                                          rf"cannot read; re-run `mvfa {command}`"):
        read(path)


def test_checkpoint_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every re-sealed checkpoint mutant loads, and builds its encoder, or raises an MVFAError.

    A draw whose header gives another encoder than the original (a seed
    alone gives the same shapes) also builds that encoder, which must stay
    under the bound that any encoder of ``MAX_ENCODER_VALUES`` values meets.
    The version-1 reader had two defects that such mutants caught. A tensor
    name that is not UTF-8 raised a raw ``UnicodeDecodeError``. And the
    header admitted any encoder: one flipped bit, image_size 64 -> 64 +
    2**24, asked numpy for 32 TiB and raised a raw ``MemoryError``, and a
    high bit of blocks_per_stage allocated block after block without end.
    A draw that loads must hold only finite values: ``ff ff ff 7f`` over
    tensor data is a NaN, and a checkpoint with a NaN or inf value scored
    every image NaN and evaluated to AUC 1.0 (NaNs rank in input order).
    """
    config = BackboneConfig()
    path = tmp_path / "model.ckpt"
    _checkpoint(path)

    def read(path):
        header, params = load_checkpoint(path)
        assert np.isfinite(params.gamma) and all(
            np.isfinite(tensor.data).all() for _, tensor in params.named_tensors())
        if dataclasses.replace(header, seed=config.seed) != config:
            init_backbone(header)

    loaded, errors, peak = _read_mutants(path, path.read_bytes(), 200, read, resealed=True)
    assert loaded > 40 and len(errors) > 100, (loaded, errors)
    assert peak < ENCODER_PEAK


def test_largest_encoder_builds_under_the_mutation_bound():
    """The widest position table the limit admits builds under ENCODER_PEAK.

    A position table value costs more to build than a block weight, so an
    encoder of mostly position table is the costliest one admitted.
    """
    config = BackboneConfig(image_size=2892, patch_size=4, dim=8, blocks_per_stage=1,
                            heads=2)  # 4,184,232 values
    with pytest.raises(ConfigError, match=f"4195808 values, more than {MAX_ENCODER_VALUES}"):
        dataclasses.replace(config, image_size=2896)
    tracemalloc.start()
    try:
        init_backbone(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ENCODER_PEAK


def test_bank_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every re-sealed mutant of a bank loads or raises an MVFAError, in under 1 MiB."""
    path = tmp_path / "bank.bin"
    _bank(path)
    loaded, errors, peak = _read_mutants(path, path.read_bytes(), 160, load_bank,
                                         resealed=True)
    assert loaded > 40 and len(errors) > 40, (loaded, errors)
    assert peak < 2 ** 20


def test_pgm_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every mutated PGM loads or raises an MVFAError, in under 1 MiB."""
    path = tmp_path / "image.pgm"
    write_pgm(path, np.random.default_rng(6).integers(0, 256, (12, 16), dtype=np.uint8))
    loaded, errors, peak = _read_mutants(path, path.read_bytes(), 160, read_pgm)
    assert loaded > 40 and len(errors) > 40, (loaded, errors)
    assert peak < 2 ** 20


def test_map_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every re-sealed mutant of an anomaly map loads or raises an MVFAError, in under 1 MiB."""
    path = tmp_path / "map.bin"
    _map(path)
    loaded, errors, peak = _read_mutants(path, path.read_bytes(), 160, load_map,
                                         resealed=True)
    assert loaded > 40 and len(errors) > 40, (loaded, errors)
    assert peak < 2 ** 20


def _finite(value):
    """Whether every float in a loaded JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def test_config_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every mutated config file loads or raises an MVFAError.

    Loading means what a command does with the file before it reads any
    data: resolve it over the defaults into a ``RunConfig``, which builds
    every section. A draw that changes the encoder also builds it, and a
    draw that loads must hold only finite numbers. Besides the byte
    mutations, 30 draws write ``NaN``, ``Infinity`` or ``-Infinity``, which
    ``json.loads`` accepts, over one number. These defects are mutants it
    catches: the config reader accepted those constants, so a NaN inference
    tau made zero-shot eval report image AUC 1.0, a NaN lambda1 dropped the
    Dice term, a NaN lr wrote an all-NaN checkpoint and a NaN defect_delta
    wrote images cast from NaN to uint8, each with exit 0.
    """
    full = cli._as_json(cli.DEFAULTS)
    path = tmp_path / "config.json"

    def read(path):
        run = cli._resolve(argparse.Namespace(config=path))
        assert _finite(dataclasses.asdict(run))
        if run.backbone != cli.DEFAULTS.backbone:
            init_backbone(run.backbone)

    payload = json.dumps(full, indent=1).encode()
    # each number value: after ": " or on a list line of its own
    numbers = [m.span() for m in re.finditer(rb"(?<=[ \n])-?[0-9][0-9.eE+-]*(?=[,\n])",
                                             payload)]
    rng = np.random.default_rng(2027)
    constants = []
    for draw in range(30):
        start, end = numbers[int(rng.integers(len(numbers)))]
        constant = (b"NaN", b"Infinity", b"-Infinity")[draw % 3]
        constants.append(payload[:start] + constant + payload[end:])
    loaded, errors, peak = _read_mutants(path, payload, 160, read, constants)
    assert len(errors) > 100, (loaded, errors)
    assert sum("is not a finite number" in e for e in errors) == 30, errors
    assert peak < ENCODER_PEAK
