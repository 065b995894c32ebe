import tracemalloc

import numpy as np
import pytest

from mvfa import textbank
from mvfa.errors import FormatError, MVFAError, PromptError
from mvfa.textbank import (DEFAULT_TEMPLATES, PromptSet, build_text_features,
                           default_prompt_set, encode_text_stub, expand_prompts,
                           expand_template, load_prompt_set)


def test_basic_substitution():
    prompts = PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                        templates=["a photo of a [c]."])
    normal, abnormal = expand_prompts(prompts, "brain")
    assert normal == ["a photo of a brain."]
    assert abnormal == ["a photo of a damaged brain."]


def test_alternates_expand_one_string_each():
    assert expand_template("a photo of a/the [c].") == [
        "a photo of a [c].", "a photo of the [c]."]
    assert expand_template("a photo of a/the/one [c].") == [
        "a photo of a [c].", "a photo of the [c].", "a photo of one [c]."]


def count_expansions_oracle(template):
    """Independent count: product of per-word alternate counts."""
    total = 1
    for word in template.split(" "):
        if "/" in word and "[" not in word:
            total *= len(word.split("/"))
    return total


def test_default_prompt_counts_match_counting_oracle():
    prompts = default_prompt_set()
    expanded_templates = sum(count_expansions_oracle(t) for t in DEFAULT_TEMPLATES)
    normal, abnormal = expand_prompts(prompts, "texture-a")
    assert len(normal) == 7 * expanded_templates
    assert len(abnormal) == 4 * expanded_templates
    assert len(set(normal)) == len(normal)  # all distinct


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_expansion_past_max_prompts_raises_before_expanding():
    # nine words of eight alternates: 8**9 (1.3e8) variants of one template
    huge = "a/b/c/d/e/f/g/h " * 9 + "[c]"
    prompts = PromptSet(["[o]"], ["damaged [o]"], [huge])

    def expand_both():
        with pytest.raises(PromptError, match="expand to 134217728 prompts, more than"):
            expand_template(huge)
        with pytest.raises(PromptError, match="1 templates and 2 states expand to "
                                              "268435456 prompts, more than 100000"):
            expand_prompts(prompts, "texture-a")

    assert _traced_peak(expand_both) < 2 ** 20
    normal, abnormal = expand_prompts(default_prompt_set(), "texture-a")
    assert (len(normal), len(abnormal)) == (245, 140)
    # 2**4 * 5**5 = 50,000 variants: two states reach the bound, a third passes it
    edge = "a/b " * 4 + "a/b/c/d/e " * 5 + "[c]"
    assert textbank.MAX_PROMPTS == 100_000
    normal, abnormal = expand_prompts(PromptSet(["[o]"], ["damaged [o]"], [edge]), "x")
    assert len(normal) + len(abnormal) == textbank.MAX_PROMPTS
    with pytest.raises(PromptError, match="150000 prompts"):
        expand_prompts(PromptSet(["[o]", "flawless [o]"], ["damaged [o]"], [edge]), "x")


PROMPT_FILE = ("- [o]\n- flawless [o]\n+ damaged [o]\n+ [o] with flaw\n"
               "T a photo of a/the [c].\nT a bright photo of a/the/one [c].\n")
PREFIXES = ("- ", "+ ", "T ", "* ", "-", "t ", "  ", "T\t", "")


def _mutated_prompt_files(rng, draws):
    """Seeded one-line mutations of PROMPT_FILE, as bytes."""
    for draw in range(draws):
        lines = PROMPT_FILE.split("\n")[:-1]
        index = int(rng.integers(len(lines)))
        prefix, body = lines[index][:2], lines[index][2:]
        kind = draw % 4
        if kind == 0:    # the prefix replaced by another, valid or not
            prefix = PREFIXES[int(rng.integers(len(PREFIXES)))]
        elif kind == 1:  # a placeholder added, dropped or swapped for the other
            body = (body + " [o]", body + " [c]", body.replace("[o]", ""),
                    body.replace("[c]", ""), body.replace("[o]", "[c]"),
                    body.replace("[c]", "[o]"))[int(rng.integers(6))]
        elif kind == 2:  # a template of up to nine words of up to 12 alternates
            prefix, words = "T ", int(rng.integers(1, 10))
            alternates = "/".join("w%d" % i for i in range(int(rng.integers(2, 13))))
            body = " ".join([alternates] * words) + " [c]"
        lines[index] = prefix + body
        payload = ("\n".join(lines) + "\n").encode()
        if kind == 3:    # one byte replaced by a byte that is not UTF-8
            at = int(rng.integers(len(payload)))
            payload = payload[:at] + bytes([int(rng.integers(0x80, 0x100))]) + payload[at + 1:]
        yield payload


def test_prompt_file_reader_fails_typed_on_seeded_mutations(tmp_path):
    """Every mutated prompt file loads and expands, or raises an MVFAError.

    Each of 100 draws changes one line of a valid prompt file: its prefix,
    its placeholders, its words (one template of up to nine words of up to
    12 alternates each) or one byte (not UTF-8). The mutants this catches
    include a template whose alternates multiply past ``MAX_PROMPTS``: it
    was expanded in full, and nine words of eight alternates raised an
    untyped ``MemoryError`` under a 2 GB address-space limit. Reading and
    expanding stay under 32 MiB of traced memory; the largest expansion
    that passes holds ``MAX_PROMPTS`` prompts.
    """
    path = tmp_path / "prompts.txt"
    outcomes = {"loaded": 0, "raised": 0}

    def load_all():
        for payload in _mutated_prompt_files(np.random.default_rng(2026), 100):
            path.write_bytes(payload)
            try:
                expand_prompts(load_prompt_set(path), "texture-a")
                outcomes["loaded"] += 1
            except MVFAError:
                outcomes["raised"] += 1

    assert _traced_peak(load_all) < 32 * 2 ** 20
    assert outcomes["loaded"] > 10 and outcomes["raised"] > 50, outcomes


def test_prompt_set_validates_placeholders():
    with pytest.raises(PromptError):
        PromptSet(normal_states=["flawless"], abnormal_states=["damaged [o]"],
                  templates=["a [c]."])
    with pytest.raises(PromptError):
        PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                  templates=["a photo."])
    with pytest.raises(PromptError):
        PromptSet(normal_states=[], abnormal_states=["damaged [o]"],
                  templates=["a [c]."])


def test_expand_requires_object_name():
    with pytest.raises(PromptError):
        expand_prompts(default_prompt_set(), "")


def test_stub_encoder_is_deterministic_and_unit_norm():
    a = encode_text_stub("damaged brain", seed=0, d=32)
    b = encode_text_stub("damaged brain", seed=0, d=32)
    assert np.array_equal(a.data, b.data)
    assert a.shape == (1, 32)
    assert np.linalg.norm(a.data) == pytest.approx(1.0, abs=1e-6)
    c = encode_text_stub("damaged brain", seed=1, d=32)
    assert not np.array_equal(a.data, c.data)


def test_stub_encoder_token_overlap_raises_cosine():
    d, seed = 64, 0
    base = encode_text_stub("a photo of a brain.", seed, d).data.reshape(-1)
    related = encode_text_stub("a photo of a damaged brain.", seed, d).data.reshape(-1)
    rng = np.random.default_rng(123)
    random_tokens = " ".join(f"tok{rng.integers(1_000_000)}" for _ in range(20))
    unrelated = encode_text_stub(random_tokens, seed, d).data.reshape(-1)
    assert float(base @ related) > float(base @ unrelated)


def test_single_prompt_mean_is_identity():
    prompts = PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                        templates=["a [c]."])
    features = build_text_features(prompts, "brain", seed=0, d=32)
    direct = encode_text_stub("a brain.", seed=0, d=32)
    assert np.allclose(features.f_text.data[0], direct.data.reshape(-1), atol=1e-6)


def test_duplicated_prompts_do_not_move_the_mean():
    one = PromptSet(normal_states=["[o]"], abnormal_states=["damaged [o]"],
                    templates=["a [c]."])
    doubled = PromptSet(normal_states=["[o]", "[o]"],
                        abnormal_states=["damaged [o]", "damaged [o]"],
                        templates=["a [c]."])
    a = build_text_features(one, "brain", seed=0, d=32).f_text.data
    b = build_text_features(doubled, "brain", seed=0, d=32).f_text.data
    assert np.allclose(a, b, atol=1e-7)


def test_full_prompt_set_rows_differ():
    features = build_text_features(default_prompt_set(), "texture-b", seed=0, d=64)
    rows = features.f_text.data
    assert rows.shape == (2, 64)
    assert np.linalg.norm(rows[0]) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(rows[1]) == pytest.approx(1.0, abs=1e-6)
    assert float(rows[0] @ rows[1]) < 1.0 - 1e-6


def test_permutation_invariance_of_text_features():
    prompts = default_prompt_set()
    shuffled = PromptSet(normal_states=list(reversed(prompts.normal_states)),
                         abnormal_states=list(reversed(prompts.abnormal_states)),
                         templates=list(reversed(prompts.templates)))
    a = build_text_features(prompts, "organ", seed=3, d=48).f_text.data
    b = build_text_features(shuffled, "organ", seed=3, d=48).f_text.data
    assert np.abs(a - b).max() <= 1e-6


def test_determinism_of_text_features():
    a = build_text_features(default_prompt_set(), "texture-a", seed=7, d=32).f_text.data
    b = build_text_features(default_prompt_set(), "texture-a", seed=7, d=32).f_text.data
    assert np.array_equal(a, b)


def test_text_features_are_bitwise_equal_with_token_cache_cold_and_warm(monkeypatch):
    def build():
        return build_text_features(default_prompt_set(), "texture-b", seed=5, d=48).f_text.data

    textbank._token_draw.cache_clear()
    cold = build()
    warm = build()
    assert textbank._token_draw.cache_info().hits > 0
    with pytest.raises(ValueError):
        textbank._token_draw("5\x1fphoto", 48)[0] = 0.0
    monkeypatch.setattr(textbank, "_token_draw", textbank._token_draw.__wrapped__)
    uncached = build()
    assert cold.tobytes() == warm.tobytes() == uncached.tobytes()


def test_prompt_file_round_trip(tmp_path):
    path = tmp_path / "prompts.txt"
    path.write_text("- [o]\n- flawless [o]\n+ damaged [o]\n\nT a photo of a/the [c].\n",
                    encoding="utf-8")
    prompts = load_prompt_set(path)
    assert prompts.normal_states == ["[o]", "flawless [o]"]
    assert prompts.abnormal_states == ["damaged [o]"]
    assert prompts.templates == ["a photo of a/the [c]."]


def test_prompt_file_rejects_unknown_prefix(tmp_path):
    path = tmp_path / "prompts.txt"
    path.write_text("x what\n", encoding="utf-8")
    with pytest.raises(FormatError, match="line 1"):
        load_prompt_set(path)


def test_encode_rejects_empty():
    with pytest.raises(PromptError):
        encode_text_stub("   ", seed=0, d=8)
