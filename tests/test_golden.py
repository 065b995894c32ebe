"""The CLI pipeline's output bytes equal the recording of this environment."""

import pytest
from golden import environment_key, load_recordings, run_pipeline


def test_pipeline_outputs_match_golden_digests(tmp_path):
    key = environment_key()
    expected = load_recordings().get(key)
    if expected is None:
        pytest.skip(f"no golden digests recorded for {key!r}; "
                    f"run python tests/golden.py --record")
    actual = run_pipeline(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, f"{len(changed)} outputs changed: {changed[:10]}"
