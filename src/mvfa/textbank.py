"""Two-tier prompt expansion and the deterministic stub text encoder.

State-level patterns describe a normal or damaged object via an "[o]"
placeholder; template-level patterns wrap a state via "[c]". Words written
as alternates ("a/the/one") expand to one pattern per choice. Each
polarity's expanded prompts are embedded with a hash-seeded stub encoder
and averaged into one unit row, giving a fixed 2 x d text matrix with
row 0 = normal, row 1 = abnormal.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .errors import FormatError, NormalizationError, PromptError
from .fileio import read_text

DEFAULT_NORMAL_STATES = [
    "[o]",
    "flawless [o]",
    "perfect [o]",
    "unblemished [o]",
    "[o] without flaw",
    "[o] without defect",
    "[o] without damage",
]

DEFAULT_ABNORMAL_STATES = [
    "damaged [o]",
    "[o] with flaw",
    "[o] with defect",
    "[o] with damage",
]

DEFAULT_TEMPLATES = [
    "a photo of a/the/one [c].",
    "a photo of a/the cool [c].",
    "a photo of a/the small [c].",
    "a photo of a/the large [c].",
    "a bright photo of a/the [c].",
    "a dark photo of a/the [c].",
    "a blurry photo of a/the [c].",
    "a bad photo of a/the [c].",
    "a good photo of a/the [c].",
    "a cropped photo of a/the [c].",
    "a close-up photo of a/the [c].",
    "a photo of my [c].",
    "a low resolution photo of a/the [c].",
    "a black and white photo of a/the [c].",
    "a jpeg corrupted photo of a/the [c].",
    "there is a/the [c] in the scene.",
    "this is a/the/one [c] in the scene.",
]


# prompts one prompt set may expand to, both polarities together; the
# default set makes 385
MAX_PROMPTS = 100_000


def _check_placeholder(pattern, placeholder):
    if pattern.count(placeholder) != 1:
        raise PromptError(f"pattern {pattern!r} must contain {placeholder} exactly once")


@dataclass
class PromptSet:
    normal_states: list = field(default_factory=lambda: list(DEFAULT_NORMAL_STATES))
    abnormal_states: list = field(default_factory=lambda: list(DEFAULT_ABNORMAL_STATES))
    templates: list = field(default_factory=lambda: list(DEFAULT_TEMPLATES))

    def __post_init__(self):
        if not self.normal_states or not self.abnormal_states:
            raise PromptError("need at least one state pattern per polarity")
        if not self.templates:
            raise PromptError("need at least one template pattern")
        for pattern in self.normal_states + self.abnormal_states:
            _check_placeholder(pattern, "[o]")
        for pattern in self.templates:
            _check_placeholder(pattern, "[c]")


@dataclass
class TextFeatures:
    """2 x d matrix of averaged prompt embeddings; row 0 normal, row 1 abnormal."""

    f_text: Tensor


def default_prompt_set() -> PromptSet:
    return PromptSet()


def load_prompt_set(path) -> PromptSet:
    """Read patterns from a text file: one per line, prefixed '- ', '+ ' or 'T '."""
    normal, abnormal, templates = [], [], []
    for lineno, line in enumerate(read_text(path, FormatError).split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("- "):
            normal.append(line[2:])
        elif line.startswith("+ "):
            abnormal.append(line[2:])
        elif line.startswith("T "):
            templates.append(line[2:])
        else:
            raise FormatError(f"{path}: line {lineno} must start with '- ', '+ ' or 'T '")
    return PromptSet(normal, abnormal, templates)


def _alternatives(word):
    return word.split("/") if "/" in word and "[" not in word else [word]


def _variant_count(pattern):
    return math.prod(len(_alternatives(word)) for word in pattern.split(" "))


def _check_prompt_count(count, what):
    """Refuse an expansion larger than MAX_PROMPTS before building any of it."""
    if count > MAX_PROMPTS:
        raise PromptError(f"{what} expand to {count} prompts, more than {MAX_PROMPTS}")


def expand_template(pattern):
    """Expand alternate words: 'a photo of a/the [c].' gives two patterns."""
    _check_prompt_count(_variant_count(pattern), f"the alternates of {pattern!r}")
    options = [[]]
    for word in pattern.split(" "):
        options = [prefix + [choice] for prefix in options for choice in _alternatives(word)]
    return [" ".join(words) for words in options]


def expand_prompts(prompts: PromptSet, object_name):
    """Substitute the object into every state, then states into templates.

    Returns (normal, abnormal) prompt string lists with
    len = states-per-polarity x expanded-template count. The count is
    checked against MAX_PROMPTS before anything is expanded.
    """
    if not object_name or not str(object_name).strip():
        raise PromptError("object name must be a nonempty string")
    n_states = len(prompts.normal_states) + len(prompts.abnormal_states)
    _check_prompt_count(n_states * sum(_variant_count(t) for t in prompts.templates),
                        f"{len(prompts.templates)} templates and {n_states} states")
    expanded = [variant for t in prompts.templates for variant in expand_template(t)]

    def fill(states):
        return [template.replace("[c]", state.replace("[o]", object_name))
                for state in states for template in expanded]

    return fill(prompts.normal_states), fill(prompts.abnormal_states)


@functools.lru_cache(maxsize=4096)
def _token_draw(key, d):
    """One token's read-only draw, made once: prompt sets repeat a few dozen tokens."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    draw = np.random.default_rng(int.from_bytes(digest[:8], "little")).standard_normal(d)
    draw.flags.writeable = False
    return draw


def encode_text_stub(text, seed, d, dtype=np.float32) -> Tensor:
    """Deterministic 1 x d embedding: sum of hash-seeded draws per token.

    Tokens are whitespace-separated; each token hashes to an independent
    generator stream, so prompts sharing tokens get correlated vectors.
    """
    tokens = str(text).split()
    if not tokens:
        raise PromptError("cannot encode an empty string")
    acc = np.zeros(d, dtype=np.float64)
    for token in tokens:
        acc += _token_draw(f"{seed}\x1f{token}", d)
    norm = np.linalg.norm(acc)
    if norm == 0:
        raise NormalizationError(f"embedding of {text!r} has zero norm")
    return Tensor((acc / norm).reshape(1, d).astype(dtype))


def build_text_features(prompts: PromptSet, object_name, seed, d,
                        dtype=np.float32) -> TextFeatures:
    """Average the per-polarity prompt embeddings into two unit rows.

    The mean accumulates in 64-bit so reordering the prompt list moves the
    result by no more than float association noise.
    """
    normal, abnormal = expand_prompts(prompts, object_name)

    def polarity_row(prompt_list):
        acc = np.zeros(d, dtype=np.float64)
        for prompt in prompt_list:
            acc += encode_text_stub(prompt, seed, d, dtype=np.float64).data.reshape(-1)
        mean = acc / len(prompt_list)
        norm = np.linalg.norm(mean)
        if norm == 0:
            raise NormalizationError("averaged prompt embedding has zero norm")
        return mean / norm

    row_normal = polarity_row(normal)
    row_abnormal = polarity_row(abnormal)
    if np.array_equal(row_normal, row_abnormal):
        raise PromptError("normal and abnormal prompts produced identical embeddings")
    return TextFeatures(Tensor(np.stack([row_normal, row_abnormal]).astype(dtype)))
