"""The experiment scripts report bad arguments as argparse errors, and the
QAOA script runs the brute-force C_min search once."""

import argparse
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import hamrec.qaoa_cost

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


def test_qaoa_script_brute_forces_c_min_once(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "run_qaoa_pipeline", ROOT / "scripts" / "run_qaoa_pipeline.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    real = hamrec.qaoa_cost.c_min

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(script, "c_min", counted)
    monkeypatch.setattr(hamrec.qaoa_cost, "c_min", counted)
    script.run(argparse.Namespace(vertices=8, flip=0.06, trials=1024, seed=7))
    assert "cost ratio" in capsys.readouterr().out
    assert len(calls) == 1
