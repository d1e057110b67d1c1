"""The experiment scripts report bad arguments as argparse errors."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, message", [
    ("run_bv_pipeline.py", ["--corr", "0000110000"],
     "error: correlated error must be MASK:PROB, got '0000110000'"),
    ("run_bv_pipeline.py", ["--corr", "0000110000:x"], "error: bad probability in '0000110000:x'"),
    ("run_qaoa_pipeline.py", ["--vertices", "1"], "error: self-loop at vertex 0"),
    ("run_qaoa_pipeline.py", ["--vertices", "30", "--trials", "10"],
     "error: brute-force c_min is limited to 26 vertices (got 30)"),
], ids=["corr-without-prob", "corr-bad-prob", "one-vertex", "thirty-vertices"])
def test_usage_errors_exit_2_without_a_traceback(script, args, message):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr
