"""Two-branch test-time scoring: text comparison, memory bank, fusion.

The zero-shot branch scores each level's features against the text rows
and averages the four levels; the few-shot branch measures cosine distance
to the nearest row of a per-level memory bank built from normal reference
images. Both produce an image score and per-level scores on the patch
grid, combined linearly with weights (beta1, beta2) by :func:`blend`; a
result keeps the branches' grids and weights, and :func:`fused_maps`
upsamples each level of a few results once and fuses both the mean map
and every level's map from them; :func:`fused_mean` keeps only the mean,
which ``predict`` writes for each chunk of CHUNK images.
Both branches score a chunk of images at once, one call per level and
role on the chunk's stacked rows, and cut each image's result from its own
rows; every step is per row or per image, so an image's bits do not depend
on the chunk it is scored in, or on the process (``metrics.score_samples``
halves a test set by chunks). A bank is
built with BLAS on one thread.

What a chunk holds: each of its (CHUNK * N, d) float32 arrays is 128 KiB
at the defaults (64 tokens of width 64). The forward pass peaks in a
stage-4 block with the three earlier raw stage outputs, the six level-1..3
mixes and the block's own arrays; ``score_batch`` then drops the raw stage
outputs, and both branches run with the eight feature arrays (1 MiB) held.
A level's search holds the unit queries, the (CHUNK * N, bank rows) GEMM
product and its shortlist, frees the product before it gathers the
shortlisted pairs, and multiplies them in place. The seed-42 reference
``eval`` and ``predict`` each peak in a stage-4 block of a chunk's forward
pass, at 4.25 and 4.07 MiB traced in the calling process, below the
few-shot ``train``'s 4.54. A bank and an anomaly map are each saved as
one ``fileio`` container; a bank's header records the SHA-256 of the
checkpoint it was built from, so a command can refuse another pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .adaptation import AdaptedFeatures, adapt_forward, text_probabilities
from .autograd import no_grad
from .errors import BankError, ConfigError, ContractError, FormatError
from .fileio import read_tensors, write_tensors
from .worker import one_blas_thread

# images loaded, scored and upsampled per batch: it bounds what scoring and
# evaluation hold at once, and a batch gives each image the bits it gets alone
CHUNK = 8


@dataclass
class MemoryBank:
    """Per-level stores of unit-norm cls/seg rows from normal references."""

    cls: list  # 4 arrays, each (rows, d) float32
    seg: list
    checkpoint: str | None = None  # hex SHA-256 of the checkpoint file, None from memory


@dataclass(frozen=True)
class AnomalyResult:
    """One image's fused score, each branch's scores and grids, and the weights.

    ``grids_zero`` and ``grids_few`` hold each level's seg scores on the
    patch grid: zero-shot anomaly probabilities and few-shot distances. The
    full-resolution maps are upsampled from them when read. The few-shot
    fields are None when the image was scored without a bank.
    """

    c_pred: float
    c_zero: float
    c_levels_zero: np.ndarray         # (4,) float64
    grids_zero: np.ndarray            # (4, N)
    c_few: float | None
    c_levels_few: np.ndarray | None
    grids_few: np.ndarray | None
    beta1: float
    beta2: float
    out_hw: tuple

    @property
    def s_pred(self):
        """(h, w) fused map: the blend of the branches' mean maps."""
        return fused_mean([self], self.beta1, self.beta2)[0]

    @property
    def s_levels_zero(self):
        """(4, h, w) zero-shot per-level maps."""
        return grid_maps(self.grids_zero, self.out_hw)

    @property
    def s_levels_few(self):
        """(4, h, w) few-shot per-level maps; None without a bank."""
        return None if self.grids_few is None else grid_maps(self.grids_few, self.out_hw)


def grid_maps(grids, out_hw):
    """Float64 (..., h, w) maps of (..., N) square-grid scores.

    The upsample runs in the grids' dtype and its result is cast.
    """
    side = int(np.sqrt(grids.shape[-1]))
    maps = ag.upsample(grids.reshape(grids.shape[:-1] + (side, side)), out_hw)
    return maps.astype(np.float64)


def blend(beta1, zero, beta2, few):
    """The fusion rule: beta1 * zero, plus beta2 * few when ``few`` is not None."""
    if few is None:
        return beta1 * zero
    return beta1 * zero + beta2 * few


def _blend_over(beta1, zero, beta2, few):
    """:func:`blend` with its bits, written over ``zero`` and ``few``: no temporaries."""
    zero *= beta1
    if few is not None:
        few *= beta2
        zero += few
    return zero


def fused_maps(results, beta1, beta2):
    """Yield the fused float64 (images, h, w) maps of a few ``results``.

    The four levels' maps come first, in order, then the blend of the
    branches' means over the levels. Each branch's level maps are upsampled
    once, one level at a time, and feed both. A mean adds the levels one at
    a time to +0.0, as ``np.mean`` does, and divides by their count: it
    keeps the bits of ``s_levels_zero.mean(axis=0)`` without holding four
    maps per image. A level's maps are added to the sums first and then
    blended in place, so past a level only the running sums are kept; a
    caller that passes at most CHUNK results and drops each map before it
    asks for the next holds one chunk's maps at a time: the sums, a level's
    maps and one upsample's temporaries.
    """
    out_hw = results[0].out_hw
    branches = ("grids_zero",) if results[0].grids_few is None else ("grids_zero", "grids_few")
    sums = {}
    for level in range(4):
        maps = {grids: grid_maps(np.stack([getattr(r, grids)[level] for r in results]), out_hw)
                for grids in branches}
        for grids, level_map in maps.items():
            if level == 0:
                # np.mean's sum starts at +0.0: a sum of -0.0 is +0.0
                sums[grids] = level_map + 0.0
            else:
                sums[grids] += level_map
        del level_map
        yield _blend_over(beta1, maps.pop("grids_zero"), beta2, maps.pop("grids_few", None))
    for total in sums.values():
        total /= 4
    yield _blend_over(beta1, sums.pop("grids_zero"), beta2, sums.pop("grids_few", None))


def fused_mean(results, beta1, beta2):
    """The last map of :func:`fused_maps`: the fused (images, h, w) mean maps.

    The level maps before it are dropped as they come, each before the next
    is made.
    """
    maps = fused_maps(results, beta1, beta2)
    for _ in range(4):
        next(maps)
    return next(maps)


def build_memory_bank(normal_images, backbone, params) -> MemoryBank:
    """Collect normalized per-level features from normal reference images.

    BLAS runs on one thread meanwhile (``worker.one_blas_thread``).
    """
    if not normal_images:
        raise BankError("memory bank needs at least one normal reference image")
    with no_grad(), one_blas_thread():
        features = adapt_forward(backbone, params, list(normal_images))[0]

    def stores(levels):
        return [np.concatenate([ag.unit_rows(rows.astype(np.float32))[0]
                                for rows in level.data]) for level in levels]

    return MemoryBank(stores(features.cls), stores(features.seg))


def _branch_scores(cls, seg):
    """Each level's (B, N) cls and seg scores as (c_levels (B, 4) float64, grids (B, 4, N))."""
    c_levels = np.stack([level.max(axis=1) for level in cls], axis=1).astype(np.float64)
    return c_levels, np.stack(seg, axis=1)


def zero_shot(features, f_texts, tau):
    """Per-level text-similarity anomaly scores of a chunk of B images.

    ``features`` holds each level's (B * N, d) rows and ``f_texts`` is the
    (B, 2, d) text pairs. The rows are viewed as (B, N, d), so the product
    is one (N, d) @ (d, 2) per image. Returns (c_levels (B, 4), grids (B, 4, N)).
    """
    def probabilities(rows):
        stacked = rows.reshape(len(f_texts), -1, rows.shape[-1])
        return text_probabilities(stacked, f_texts, tau)[0][..., 1]

    return _branch_scores([probabilities(rows) for rows in features.cls],
                          [probabilities(rows) for rows in features.seg])


def _min_cosine_distances(queries, store):
    """Distance 1 - max cosine of each query row against every store row.

    One GEMM ``q @ store.T`` shortlists, for each query, the rows whose
    approximate similarity lies within a rigorous error bound of that query's
    best; only those pairs are recomputed as an elementwise product reduced
    over the contiguous feature axis, which reproduces a per-pair
    (u * v).sum() bit for bit.

    The result is exact. Any summation order of a length-d dot product, the
    BLAS kernel's and numpy's pairwise reduction alike, lies within
    gamma_d * sum|q_i s_i| <= gamma_d * |q| * |s| of the exact value, with
    gamma_d = d*u / (1 - d*u) for unit roundoff u = eps/2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1), plus at most d times the smallest
    subnormal when products underflow. So the row that wins the elementwise
    search is at most 2 * 2 * gamma_d * |q| * max|s| (plus the underflow
    terms) below the GEMM maximum and is always shortlisted. The slack uses
    the store's actual norms, is computed in float64 and rounded up. A query
    whose bound is not finite (non-finite input, or products that could
    overflow) shortlists every row, so NaN and inf propagate as in an
    exhaustive search. The temporaries are queries x rows plus d values per
    shortlisted pair, not queries x rows x d.
    """
    q, _ = ag.unit_rows(queries)
    approx = q @ store.T
    finfo = np.finfo(approx.dtype)
    d, u = q.shape[1], finfo.eps / 2
    gamma = d * u / (1 - d * u)
    bound = (np.sqrt(np.square(q, dtype=np.float64).sum(axis=1))
             * np.sqrt(np.square(store, dtype=np.float64).sum(axis=1)).max())
    slack = (4 * gamma * bound + 4 * d * finfo.smallest_subnormal) * (1 + 1e-6)
    with np.errstate(invalid="ignore"):  # inf - inf where the bound is not finite
        floor = np.nextafter((approx.max(axis=1) - slack).astype(approx.dtype), -np.inf)
    shortlist = approx >= floor[:, None]
    del approx
    shortlist[~(bound * (1 + 2 * gamma) < finfo.max)] = True
    qi, ri = np.divmod(np.flatnonzero(shortlist), store.shape[0])
    del shortlist
    pairs = q[qi]
    sims = np.multiply(pairs, store[ri], out=pairs).sum(axis=1)
    return 1.0 - np.maximum.reduceat(sims, np.searchsorted(qi, np.arange(q.shape[0])))


def few_shot(features, bank: MemoryBank, images):
    """Nearest-bank-row cosine distances, position agnostic, per level.

    ``features`` holds each level's (images * N, d) rows. The search is
    exact per query, so searching a chunk's rows at once changes no bit.
    Returns (c_levels (images, 4), grids (images, 4, N)).
    """
    if bank is None or any(store.size == 0 for store in bank.cls + bank.seg):
        raise BankError("few-shot scoring requires a non-empty memory bank")
    for rows, store in zip(features.cls + features.seg, bank.cls + bank.seg):
        if store.shape[1] != rows.shape[1]:
            raise BankError(f"memory bank rows have width {store.shape[1]}, but the "
                            f"checkpoint's features have width {rows.shape[1]}")

    def distances(rows, store):
        return _min_cosine_distances(rows.astype(np.float32, copy=False),
                                     store).reshape(images, -1)

    return _branch_scores([distances(*pair) for pair in zip(features.cls, bank.cls)],
                          [distances(*pair) for pair in zip(features.seg, bank.seg)])


def score_batch(backbone, params, images, f_texts, bank=None, beta1=0.5, beta2=0.5,
                tau=0.07) -> list:
    """Two-branch scoring of a list of images, with one text pair per image.

    One adapted forward pass runs the whole list, and each branch then scores
    every level's stacked (images * N, d) rows at once. The weights are
    checked once, after the branches, and one :func:`blend` fuses every
    image score; each image's result is cut from its own rows.
    """
    if len(images) != len(f_texts):
        raise ContractError(f"score_batch: {len(images)} images but "
                            f"{len(f_texts)} text features")
    if not images:
        return []
    out_hw = (backbone.config.image_size, backbone.config.image_size)
    with no_grad():
        features = adapt_forward(backbone, params, list(images))[0]

    def stacked(levels):
        return [level.data.reshape(-1, level.data.shape[-1]) for level in levels]

    rows = AdaptedFeatures(stacked(features.cls), stacked(features.seg))
    c_levels_zero, grids_zero = zero_shot(rows, np.stack([f.data for f in f_texts]), tau)
    if bank is None:
        c_levels_few = grids_few = c_few = [None] * len(images)
    else:
        c_levels_few, grids_few = few_shot(rows, bank, len(images))
        c_few = c_levels_few.mean(axis=1)
    if not (0 <= beta1 < np.inf and 0 <= beta2 < np.inf):
        raise ConfigError(f"fusion weights must be nonnegative and finite, got {beta1} "
                          f"and {beta2}")
    if bank is None and beta2 != 0:
        raise BankError("beta2 > 0 requires a memory bank")
    c_zero = c_levels_zero.mean(axis=1)
    c_pred = blend(beta1, c_zero, beta2, None if bank is None else c_few)
    return [AnomalyResult(float(p), float(z), lz, gz, None if f is None else float(f), lf, gf,
                          beta1, beta2, out_hw)
            for p, z, lz, gz, f, lf, gf in zip(c_pred, c_zero, c_levels_zero, grids_zero,
                                               c_few, c_levels_few, grids_few)]


def score_image(backbone, params, image, f_text, bank=None, beta1=0.5, beta2=0.5,
                tau=0.07) -> AnomalyResult:
    """Full two-branch scoring of one image: a batch of one."""
    return score_batch(backbone, params, [image], [f_text], bank, beta1, beta2, tau)[0]


# -- bank and map files: fileio containers -------------------------------------

_STORE_NAMES = [f"level{level}.{role}" for level in range(1, 5) for role in ("cls", "seg")]


def save_bank(path, bank: MemoryBank):
    """Write a ``bank`` container: each level's cls then seg rows, and the checkpoint digest."""
    stores = [store for level in zip(bank.cls, bank.seg) for store in level]
    write_tensors(path, "bank", {"checkpoint": bank.checkpoint}, zip(_STORE_NAMES, stores))


def load_bank(path) -> MemoryBank:
    header, tensors = read_tensors(path, "bank")
    checkpoint = header.get("checkpoint")
    if (set(header) != {"checkpoint"} or not isinstance(checkpoint, (str, type(None)))
            or list(tensors) != _STORE_NAMES or any(t.ndim != 2 for t in tensors.values())):
        raise FormatError(f"{path}: a bank holds a checkpoint digest and, per level, "
                          f"one matrix of cls rows and one of seg rows")
    stores = list(tensors.values())
    return MemoryBank(stores[0::2], stores[1::2], checkpoint)


def save_map(path, scores):
    """Write an (h, w) score map as a ``map`` container."""
    write_tensors(path, "map", {}, [("map", scores)])


def load_map(path):
    header, tensors = read_tensors(path, "map")
    if header or list(tensors) != ["map"] or tensors["map"].ndim != 2:
        raise FormatError(f"{path}: a map holds one (h, w) tensor")
    return tensors["map"]


def map_to_u8(scores):
    """Min-max scale a score map into 8-bit for PGM rendering."""
    arr = np.asarray(scores, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)
