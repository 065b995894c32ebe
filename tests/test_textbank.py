import numpy as np
import pytest

from mvfa import textbank
from mvfa.errors import FormatError, PromptError
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
