"""What one call of hamrec loads, and where the process freezes its heap.

``import hamrec`` loads no submodule: each public name is imported from
its module on first use. A command line call loads only the modules its
command needs, and a usage error, ``--help`` or ``--version`` loads no
numpy. ``cli.run``, the process entry point, freezes the heap before the
interpreter exits; ``cli.main``, which callers also run in-process, never
does.
"""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

import hamrec
from hamrec import cli

ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(hamrec.__file__).parents[1])}

# Runs ``python -m hamrec ARGS...`` as ``python -c PROBE REPORT ARGS...``.
# At exit, after hamrec's own exit, an atexit handler writes to REPORT the
# hamrec modules loaded, whether numpy was, and whether the heap was frozen.
PROBE = """
import atexit, gc, json, runpy, sys

def report(path=sys.argv[1]):
    with open(path, "w") as fh:
        json.dump({"modules": sorted(m for m in sys.modules if m.split(".")[0] == "hamrec"),
                   "numpy": "numpy" in sys.modules, "frozen": gc.get_freeze_count() > 0}, fh)

atexit.register(report)
sys.argv = ["hamrec", *sys.argv[2:]]
runpy.run_module("hamrec", run_name="__main__", alter_sys=True)
"""


def _probe(tmp_path, argv):
    """(exit code, the PROBE report) of ``python -m hamrec`` with ``argv`` in ``tmp_path``."""
    report = tmp_path / "probe.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(report), *argv], cwd=tmp_path,
                          env=ENV, capture_output=True, check=False)
    return proc.returncode, json.loads(report.read_text())


def _fresh(code):
    """The stdout of ``python -c code`` in a fresh interpreter."""
    return subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, check=True).stdout


def _modules(*names):
    return sorted(["hamrec", "hamrec.cli", *(f"hamrec.{n}" for n in names)])


# (id, command line in a directory holding counts.json and graph.json, exit
# code, the hamrec modules loaded besides the package and cli, whether numpy is).
LOADED_ROWS = [
    ("usage-error", "bogus", 1, (), False),
    ("help", "--help", 0, (), False),
    ("version", "--version", 0, (), False),
    # The output rules run before the work and without numpy, so they cannot live in core.
    ("missing-output-directory", "synth --key 01 --output missing/x.json", 1, (), False),
    ("reconstruct", "reconstruct --input counts.json --output out.json --report report.json",
     0, ("analysis", "core", "reconstruct"), True),
    ("spectrum", "spectrum --input counts.json --correct 01", 0, ("analysis", "core"), True),
    ("ehd", "ehd --input counts.json --correct 01", 0, ("analysis", "core"), True),
    ("metrics", "metrics --input counts.json --correct 01", 0, ("core", "metrics"), True),
    ("qaoa", "qaoa --graph graph.json --counts counts.json", 0, ("core", "qaoa_cost"), True),
    ("synth", "synth --key 01 --trials 8 --output out.json", 0, ("core", "synth"), True),
]


@pytest.mark.parametrize("command,code,modules,numpy", [row[1:] for row in LOADED_ROWS],
                         ids=[row[0] for row in LOADED_ROWS])
def test_a_call_loads_only_its_commands_modules(tmp_path, command, code, modules, numpy):
    (tmp_path / "counts.json").write_text('{"01": 3, "10": 1}')
    (tmp_path / "graph.json").write_text('{"n": 2, "edges": [[0, 1]]}')
    assert _probe(tmp_path, command.split()) == (
        code, {"modules": _modules(*modules), "numpy": numpy, "frozen": True})


def test_import_hamrec_loads_no_submodule_and_no_numpy():
    loaded = _fresh("import sys, hamrec; print(sorted(m for m in sys.modules "
                    "if m.split('.')[0] in ('hamrec', 'numpy')))")
    assert loaded == "['hamrec']\n"


def test_every_public_name_is_the_object_its_module_defines():
    for name in hamrec.__all__:
        value = getattr(hamrec, name)
        home = "hamrec" if name in ("ParseError", "UsageError") else f"hamrec.{hamrec._EXPORTS[name]}"
        assert getattr(sys.modules[home], name) is value, name
        # A function or class is defined there, not imported from another module.
        assert getattr(value, "__module__", home) == home, name
    assert set(hamrec.__all__) <= set(dir(hamrec))


def test_the_errors_have_one_home():
    assert hamrec.core.UsageError is hamrec.UsageError
    assert hamrec.core.ParseError is hamrec.ParseError
    assert issubclass(hamrec.CapabilityError, hamrec.UsageError)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'hamrec' has no attribute 'no_such_name'"):
        hamrec.no_such_name  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hamrec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hamrec.__all__)


def test_main_in_process_leaves_the_heap_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    assert cli.main(["synth", "--key", "01", "--trials", "8", "--output",
                     str(tmp_path / "out.json")]) == 0
    assert gc.get_freeze_count() == before


def test_cli_module_as_a_program_is_the_package_entry_point():
    def version(module):
        proc = subprocess.run([sys.executable, "-m", module, "--version"], env=ENV,
                              capture_output=True, text=True, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    assert version("hamrec.cli") == version("hamrec") == (0, "hamrec 0.1.0\n", "")
