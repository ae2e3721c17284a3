import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    # Under filterwarnings = ["error"], a warning raised while hypothesis
    # reports a failing example must not turn the report into an
    # INTERNALERROR that stops the whole test run.
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_small(x):
            assert x < 5

        def test_after():
            pass
    """))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout
