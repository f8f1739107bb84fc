"""The repository's pytest configuration reports failures instead of crashing.

``filterwarnings = ["error"]`` turns every warning into an error, including
warnings that a plugin raises while it reports a failed test.  These tests
run pytest on small test files under that configuration, in a subprocess.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FILES = {
    # Falsified by hypothesis: the report must show the example.
    "test_a_falsified.py": (
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "\n"
        "@given(st.integers())\n"
        "@settings(database=None, derandomize=True)\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    ),
    # Any other warning is still an error.
    "test_b_warns.py": (
        "import warnings\n"
        "\n"
        "\n"
        "def test_warns():\n"
        '    warnings.warn("deprecated here", DeprecationWarning)\n'
    ),
    # A file collected after the failures still runs.
    "test_c_passes.py": "def test_passes():\n    pass\n",
}


def test_falsified_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            *sorted(FILES),
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "Falsifying example" in output
    assert "2 failed, 1 passed" in output
