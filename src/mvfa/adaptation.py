"""Residual bottleneck adapters, the final-stage projector, and checkpoints.

Levels 1..3 carry a pair of two-layer bottleneck adapters (one tuned for
image-level classification, one for pixel-level segmentation) that are
mixed residually into the frozen features; the mixed features are fed
forward into the next encoder stage, so all levels train jointly. Level 4
maps the final encoder output through a pair of square projections. These
tensors are the only trainable state.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .backbone import BackboneConfig, FrozenBackbone
from .errors import ConfigError, FormatError, ShapeError
from .fileio import Reader, write_bytes_atomic

CHECKPOINT_MAGIC = b"MVFA-CKPT\0"
CHECKPOINT_VERSION = 1

ARCH_ADAPTER = "adapter"
ARCH_PROJECTOR = "projector"
STYLE_DUAL = "dual"
STYLE_SINGLE = "single"


@dataclass
class AdaptedFeatures:
    """Per-level classification/segmentation features, levels 1..4."""

    cls: list
    seg: list


class MVFAParams:
    """The trainable state: three dual adapters plus the level-4 projector.

    ``arch`` switches between the default adapter architecture and the
    ablation variant with isolated per-level projectors (no feed-forward of
    adapted features). ``adapter_style`` single gives each level one adapter
    for both branches. Adapters are ``dim // 4`` wide.

    The constructor is the one place that names and orders the tensors of
    each layout. It asks ``tensor(name, kind, shape)`` for each tensor in
    canonical order, where ``kind`` is "down", "up" or "projection"; seeded
    initialization and checkpoint loading are two such callbacks, so a
    checkpoint's names and shapes fix the model. Code reaches each tensor
    by that name: ``params["adapter1.cls.down"]``, ``params["level3.cls"]``.
    """

    def __init__(self, dim, gamma, arch, adapter_style, tensor):
        if not 0.0 <= gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
        if arch not in (ARCH_ADAPTER, ARCH_PROJECTOR):
            raise ConfigError(f"unknown architecture {arch!r}")
        if adapter_style not in (STYLE_DUAL, STYLE_SINGLE):
            raise ConfigError(f"unknown adapter style {adapter_style!r}")
        self.gamma = float(gamma)
        self.arch = arch
        self.adapter_style = adapter_style
        self._named = {}
        width = dim // 4

        def take(name, kind, shape):
            self._named[name] = tensor(name, kind, shape)

        if arch == ARCH_PROJECTOR:
            projections = [f"level{i}" for i in range(1, 5)]
        else:
            projections = ["projector"]
            for i in range(1, 4):
                for role in (".cls", ".seg") if adapter_style == STYLE_DUAL else ("",):
                    take(f"adapter{i}{role}.down", "down", (dim, width))
                    take(f"adapter{i}{role}.up", "up", (width, dim))
        for prefix in projections:
            take(f"{prefix}.cls", "projection", (dim, dim))
            take(f"{prefix}.seg", "projection", (dim, dim))

    def __getitem__(self, name):
        return self._named[name]

    def named_tensors(self):
        """Canonical (name, tensor) list."""
        return list(self._named.items())

    def tensors(self):
        return list(self._named.values())


def init_params(dim, seed=0, gamma=0.1, arch=ARCH_ADAPTER, adapter_style=STYLE_DUAL,
                dtype=np.float32, text_features=None) -> MVFAParams:
    """Seeded initialization of the trainable tensors, drawn in canonical order.

    Adapter down-projections start random at 1/sqrt(dim) scale and
    up-projections start at zero, so an untrained adapter contributes
    nothing and the mixed features equal (1 - gamma) times the frozen
    ones. Projections are random at 1/sqrt(dim) scale (a zero projector
    would produce unnormalizable all-zero rows). ``dim`` must be at least
    4, so that the ``dim // 4`` adapter width is not zero.

    When ``text_features`` (the 2 x dim text matrix) is given, projection
    columns are orthogonalized against the text rows, so every projected
    feature starts with zero similarity to both rows: the model begins
    calibrated instead of confidently wrong, which matters at small step
    budgets.
    """
    if dim < 4:
        raise ConfigError(f"dim must be at least 4 for a dim // 4 adapter width, got {dim}")
    if seed < 0:
        raise ConfigError(f"init seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)

    text_complement = None
    if text_features is not None:
        rows = (text_features.data if isinstance(text_features, Tensor)
                else np.asarray(text_features)).astype(np.float64)
        basis, _ = np.linalg.qr(rows.T)
        text_complement = np.eye(dim) - basis @ basis.T

    def draw(name, kind, shape):
        if kind == "up":
            return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)
        w = (rng.standard_normal(shape) / np.sqrt(dim)).astype(dtype)
        if kind == "projection" and text_complement is not None:
            w = (w.astype(np.float64) @ text_complement).astype(dtype)
        return Tensor(w, requires_grad=True)

    return MVFAParams(dim, gamma, arch, adapter_style, draw)


def apply_adapter(f: Tensor, down: Tensor, up: Tensor) -> Tensor:
    """Bottleneck transform relu(f @ down) @ up."""
    return ag.matmul(ag.relu(ag.matmul(f, down)), up)


def residual_mix(f: Tensor, adapted: Tensor, gamma) -> Tensor:
    """gamma * adapted + (1 - gamma) * f, as two nodes.

    rest = (1 - gamma) * f, then the mix adapted * gamma + rest over
    ``(adapted, rest)``: the op-by-op chain's operations, passing back its
    gradients in its order, so the bits are kept. rest stays a node so that
    f's gradient arrives once per use, as through the chain. Neither VJP
    reads an array: the graph keeps the mix's output, and rest's array is
    released once the mix has read it.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError(f"gamma must lie in [0, 1], got {gamma}")
    if f.shape != adapted.shape:
        raise ShapeError(f"residual_mix: shapes {f.shape} and {adapted.shape} differ")
    return _mix((adapted,), f, gamma)


def _mix(adapted, f, gamma):
    """:func:`residual_mix` of one tensor, or of the mean (a + b) * 0.5 of a pair."""
    gamma, pair = float(gamma), len(adapted) == 2
    rest = ag.scale(f, 1.0 - gamma)
    mean = (adapted[0].data + adapted[1].data) * 0.5 if pair else adapted[0].data
    out = ag.record(mean * gamma + rest.data, "residual_mix", adapted + (rest,),
                    lambda g: (g * gamma * 0.5 if pair else g * gamma,) * len(adapted) + (g,))
    ag.release(rest)
    return out


def adapt_forward(backbone: FrozenBackbone, params: MVFAParams, image, *, stage1=None):
    """Run the encoder with adapters installed between its stages.

    ``image`` is one image, giving (N, d) features, or a list of B images,
    giving (B, N, d). Returns the AdaptedFeatures and the tuple of the four
    raw stage outputs, each taken before any mixing. In adapter mode
    levels 1..3 produce residually mixed cls/seg features and the next
    stage receives the residual mix of their mean; level 4 is the projector
    applied to the final features. In projector mode the encoder runs
    untouched and every level gets its own isolated projection pair.

    A level's adapters are three nodes each (down, ReLU, up), and its cls
    mix, seg mix and next-stage input, which mixes the adapters' mean, two
    each (:func:`residual_mix`). The graph keeps the down product (the
    ReLU's VJP reads its sign), the ReLU output (the up product's VJP reads
    it) and the mix outputs; each up product's output is released once the
    level's mixes have read it.

    ``stage1`` is internal: the training loop passes the stage-1 output it
    computed once for its images, which depends on no trainable tensor.
    The embedding and stage 1 are then skipped and ``image`` is not read,
    so the loop passes None.
    """
    gamma, single = params.gamma, params.adapter_style == STYLE_SINGLE
    x = backbone.run_stage(0, backbone.embed(image)) if stage1 is None else stage1
    raw, cls, seg = [], [], []

    def adapted(prefix):
        return apply_adapter(x, params[f"{prefix}.down"], params[f"{prefix}.up"])

    for level in range(1, 4):
        raw.append(x)
        if params.arch == ARCH_ADAPTER:
            cls_adapted = adapted(f"adapter{level}" + ("" if single else ".cls"))
            seg_adapted = cls_adapted if single else adapted(f"adapter{level}.seg")
            cls.append(_mix((cls_adapted,), x, gamma))
            seg.append(_mix((seg_adapted,), x, gamma))
            x = _mix((cls_adapted, seg_adapted), x, gamma)
            ag.release(cls_adapted, seg_adapted)
        x = backbone.run_stage(level, x)
    raw.append(x)
    projected = (zip(raw, [f"level{i}" for i in range(1, 5)])
                 if params.arch == ARCH_PROJECTOR else [(x, "projector")])
    for f, prefix in projected:
        cls.append(ag.matmul(f, params[f"{prefix}.cls"]))
        seg.append(ag.matmul(f, params[f"{prefix}.seg"]))
    return AdaptedFeatures(cls, seg), tuple(raw)


def text_probabilities(f, f_text, tau):
    """Row softmax of the cosine logits of ``f`` against the two text rows.

    Both operands are row-normalized and their product is scaled by 1/tau;
    column 1 is each row's anomaly probability. ``f`` is (N, d) or a
    (B, N, d) batch, and ``f_text`` is (2, d) or one (B, 2, d) pair of rows
    per sample. Returns the (..., N, 2) probabilities and a function mapping
    their gradient to the gradient of ``f``; the operations and their order
    are those of an op-by-op graph of the same formula, so both give the
    same bits. The function keeps ``f``, the row norms, the text rows and
    the probabilities, and recomputes the unit rows f / norms, with their
    bits, instead of keeping a copy of ``f``'s size.
    """
    _check_tau(tau)
    scale = float(1.0 / tau)
    fn, norms = ag.unit_rows(f)
    tn, _ = ag.unit_rows(f_text)
    probs = ag.row_softmax((fn @ tn.swapaxes(-1, -2)) * scale)

    def vjp(g):
        return ag.unit_rows_vjp((ag.row_softmax_vjp(g, probs) * scale) @ tn, f / norms, norms)

    return probs, vjp


def _check_tau(tau):
    if tau <= 0:
        raise ConfigError(f"temperature must be positive, got {tau}")


# -- checkpoint format -------------------------------------------------------
#
# magic "MVFA-CKPT\0", u32 version, u32 x 6 backbone config fields
# (image_size, patch_size, dim, stages, blocks_per_stage, heads), u64 seed,
# u32 tensor count, then per tensor: u16 name length, UTF-8 name, u8 rank,
# u32 dims, 32-bit little-endian values. The trainable tensors plus a
# rank-0 "gamma" entry are stored; the layout is recovered from the tensor
# names, and every shape must be the one the layout gives for dim.

def save_checkpoint(path, config: BackboneConfig, params: MVFAParams):
    entries = params.named_tensors() + [("gamma", Tensor(np.float32(params.gamma)))]
    chunks = [CHECKPOINT_MAGIC,
              struct.pack("<I", CHECKPOINT_VERSION),
              struct.pack("<6IQ", config.image_size, config.patch_size, config.dim,
                          config.stages, config.blocks_per_stage, config.heads,
                          config.seed),
              struct.pack("<I", len(entries))]
    for name, tensor in entries:
        raw = name.encode("utf-8")
        arr = np.asarray(tensor.data, dtype="<f4")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    write_bytes_atomic(path, b"".join(chunks))


def _read_entries(reader: Reader):
    count = reader.u32()
    entries = {}
    for _ in range(count):
        name = reader.take(reader.u16()).decode("utf-8")
        rank = reader.u8()
        shape = tuple(reader.u32() for _ in range(rank))
        # Python ints: a numpy product wraps in int64 and can read 0 values
        n = math.prod(shape)
        values = np.frombuffer(reader.take(4 * n), dtype="<f4").reshape(shape)
        entries[name] = values.astype(np.float32)
    return entries


def load_checkpoint(path):
    """Read a checkpoint back into (BackboneConfig, MVFAParams).

    The tensor names give the layout; every tensor must have the shape its
    layout gives for the checkpoint's ``dim``.
    """
    with open(path, "rb") as fh:
        reader = Reader(fh.read(), str(path))
    reader.expect(CHECKPOINT_MAGIC)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        reader.fail(f"unsupported version {version}")
    image_size, patch_size, dim, stages, blocks, heads = (
        reader.u32() for _ in range(6))
    seed = reader.u64()
    try:
        config = BackboneConfig(image_size=image_size, patch_size=patch_size, dim=dim,
                                stages=stages, blocks_per_stage=blocks, heads=heads,
                                seed=seed)
    except ConfigError as exc:
        raise FormatError(f"{path}: invalid header: {exc}") from None
    entries = _read_entries(reader)
    reader.done()

    if "gamma" not in entries:
        raise FormatError(f"{path}: missing gamma entry")
    gamma = float(entries.pop("gamma"))

    def stored(name, kind, shape):
        if name not in entries:
            raise FormatError(f"{path}: missing tensor {name!r}")
        value = entries.pop(name)
        if value.shape != shape:
            raise FormatError(f"{path}: tensor {name!r} has shape {value.shape}, "
                              f"but dim {dim} needs {shape}")
        return Tensor(value, requires_grad=True)

    if any(name.startswith("level") for name in entries):
        arch, style = ARCH_PROJECTOR, STYLE_DUAL
    else:
        arch = ARCH_ADAPTER
        style = STYLE_DUAL if "adapter1.cls.down" in entries else STYLE_SINGLE
    params = MVFAParams(dim, gamma, arch, style, stored)
    if entries:
        raise FormatError(f"{path}: unexpected tensors {sorted(entries)}")
    return config, params
