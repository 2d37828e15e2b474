import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"


def test_failing_property_test_is_reported_not_an_internal_error(tmp_path):
    # hypothesis explains a failing example through libcst, whose import
    # warns; under "error" alone that aborted the run with exit code 3
    (tmp_path / "test_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
