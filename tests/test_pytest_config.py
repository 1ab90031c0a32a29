"""The repository's pytest settings keep a failing property a plain failure.

Every warning is an error here, and hypothesis imports more modules while it
reports a failing property; a warning raised by one of those imports must
not abort the run, which would lose the failure's report and every later
test.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_failing_property(n):
    assert n < 10


def test_passing():
    pass
'''


def test_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out[-4000:]
    assert "1 failed, 1 passed" in proc.stdout, out[-4000:]
