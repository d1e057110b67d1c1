import contextlib
import errno
import io
import json
import logging
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamrec.core
import hamrec.qaoa_cost
from hamrec import hammer, load_distribution, merit_report
from hamrec import UsageError
from hamrec.cli import _json_text, main

COUNTS = {"1010101010": 800, "1010100010": 150, "1110101010": 50}


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(COUNTS))
    return path


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


def _files(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.fixture
def run_cli(tmp_path, monkeypatch, capsys):
    """``run(argv, stdin=None, entry="main")``: (exit code, stdout, stderr) of
    ``cli.main`` or ``python -m hamrec`` in ``tmp_path``, which it leaves as it
    was. ``stdin`` is the bytes on standard input; None leaves main's as they are."""
    monkeypatch.chdir(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(hamrec.__file__).parents[1])}

    def run(argv, stdin=None, entry="main"):
        before = _files(tmp_path)
        if entry == "main":
            if stdin is not None:
                # A text layer that decodes any byte: stdin must be read as bytes.
                monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin), "latin-1"))
            code = main(argv)
            out, err = capsys.readouterr()
        else:
            proc = subprocess.run([sys.executable, "-m", "hamrec", *argv], input=stdin or b"",
                                  capture_output=True, env=env, check=False)
            code, out, err = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        assert _files(tmp_path) == before
        return code, out, err

    return run


def _through_main_and_python_m(rows):
    """Each ``(id, *values)`` row through ``cli.main``, then through ``python -m hamrec``."""
    return ([pytest.param(*values, "main", id=id_) for id_, *values in rows]
            + [pytest.param(*values, "python -m", id=f"{id_}-python-m") for id_, *values in rows])


# Usage errors: (id, command line, the message after "hamrec: error: ",
# whether argparse's usage follows it).
USAGE_ROWS = _through_main_and_python_m([
    ("no-subcommand", "", "a subcommand is required", True),
    ("unknown-subcommand", "bogus", "argument COMMAND: invalid choice: 'bogus' (choose from "
     "'reconstruct', 'spectrum', 'ehd', 'metrics', 'qaoa', 'synth')", True),
    ("bad-int", "synth --seed x", "argument --seed: invalid int value: 'x'", True),
    ("option-like-value", "qaoa --graph g --counts c --cmin -inf",
     "argument --cmin: expected one argument", True),
    ("unknown-flag", "synth --key 01 --bogus", "unrecognized arguments: --bogus", True),
    ("missing-required-flag", "reconstruct", "the following arguments are required: --input",
     True),
    ("empty-report", "reconstruct --input - --report ''", "output path must not be empty", False),
    ("empty-output", "synth --key 01 --output ''", "output path must not be empty", False),
    ("report-beside-stdout", "reconstruct --input - --report -",
     "output paths name the same file: -, -", False),
    ("output-is-a-directory", "synth --key 01 --output .", "output path not writable: .", False),
    ("bad-corr-format", "synth --key 10 --corr nope",
     "correlated error must be MASK:PROB, got 'nope'", False),
    ("bad-corr-probability", "synth --key 10 --corr 10:x", "bad probability in '10:x'", False),
    ("corr-width-mismatch", "synth --key 10 --corr 111:0.5",
     "mask width 3 does not match program width 2", False),
    ("bad-flip", "synth --key 10 --flip 1.5",
     "per_bit_flip must be a number in [0, 1), got 1.5", False),
    ("metrics-without-input", "metrics --correct 1",
     "metrics needs --input, or --before and --after", False),
    ("metrics-input-and-before", "metrics --input a.json --before b.json --after b.json "
     "--correct 1", "use either --input or both --before and --after", False),
    ("metrics-without-input-missing-reference", "metrics --correct 1 --reference missing.json",
     "metrics needs --input, or --before and --after", False),
    ("metrics-input-and-before-missing-reference", "metrics --input a.json --before b.json "
     "--after b.json --correct 1 --reference missing.json",
     "use either --input or both --before and --after", False),
    ("qaoa-cmin-before-files", "qaoa --graph missing.json --counts missing.json --cmin nan",
     "C_min must be finite and non-zero for a cost ratio, got nan (an edgeless graph has C_min 0)",
     False),
    ("metrics-before-and-after-from-stdin", "metrics --before - --after - --correct 1",
     "only one input can be read from stdin: --before, --after", False),
]) + [
    # Through cli.main only: a python -m row pays a full interpreter start.
    pytest.param("metrics --input - --reference - --correct 1",
                 "only one input can be read from stdin: --input, --reference", False, "main",
                 id="metrics-input-and-reference-from-stdin"),
    pytest.param("qaoa --graph - --counts -",
                 "only one input can be read from stdin: --graph, --counts", False, "main",
                 id="qaoa-graph-and-counts-from-stdin"),
    pytest.param("synth --key 01 --trials 2305843009213693952 --output out.json",
                 "out of memory", False, "main", id="trials-beyond-any-array"),
]

# Bad distributions: (id, the bytes of the input, the message after
# "hamrec: error: <path or stdin>: "). Every reader exits 2 on each.
BAD_INPUTS = [
    ("empty-map", b"{}", "no outcome has a positive weight"),
    ("list", b"[]", "expected a map of bitstrings to weights"),
    ("number", b"5", "expected a map of bitstrings to weights"),
    ("null", b"null", "expected a map of bitstrings to weights"),
    ("string", b'"x"', "expected a map of bitstrings to weights"),
    ("zero-counts", b'{"01": 0, "10": 0}', "no outcome has a positive weight"),
    ("zero-probabilities", b'{"01": 0.0}', "no outcome has a positive weight"),
    ("bad-key", b'{"01": 1, "0b": 1}', "outcome '0b' contains non-binary characters"),
    ("negative-weight", b'{"01": 1, "10": -1}', "negative weight -1 for outcome '10'"),
    ("nan-weight", b'{"01": 1, "10": NaN}', "non-finite weight nan for outcome '10'"),
    ("sum-1.5", b'{"01": 0.5, "10": 1.0}', "probabilities sum to 1.5, expected 1 +- 1e-09"),
    ("ragged-width", b'{"01": 1, "011": 2}', "outcome '011' has width 3, expected 2"),
    ("repeated-key", b'{"01": 1, "01": 5, "10": 2}', "key '01' appears more than once"),
    ("empty-key", b'{"01": 1, "": 1}', "outcome must be a non-empty bitstring, got ''"),
    ("bool-weight", b'{"01": true}', "weight for outcome '01' is not a number: True"),
    ("string-weight", b'{"01": "1"}', "weight for outcome '01' is not a number: '1'"),
    ("not-json", b"not json", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    # A file is read as bytes, as stdin is: "\r\n" counts two characters in both.
    ("crlf", b'{\r\n"01": 1,\r\n"10": x}',
     "invalid JSON: Expecting value: line 3 column 7 (char 19)"),
    ("non-utf8", b'{"01": 1, "\xff": 2}',
     "invalid JSON: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
]

# Every option that reads a distribution from a file, the bad one at in.json;
# good.json and graph.json hold the valid inputs beside it. The ninth reader,
# "reconstruct --input -", gets the same bytes on stdin.
FILE_READERS = [
    ("reconstruct", "reconstruct --input in.json --output out.json --report report.json"),
    ("ehd", "ehd --input in.json --correct 01"),
    ("spectrum", "spectrum --input in.json --correct 01"),
    ("metrics-input", "metrics --input in.json --correct 01"),
    ("metrics-reference", "metrics --input good.json --reference in.json --correct 01"),
    ("metrics-before", "metrics --before in.json --after good.json --correct 01"),
    ("metrics-after", "metrics --before good.json --after in.json --correct 01"),
    ("qaoa", "qaoa --graph graph.json --counts in.json"),
]

BAD_INPUT_ROWS = [
    pytest.param(command, data, 2, f"in.json: {message}", "main", id=f"{name}-{reader}")
    for reader, command in FILE_READERS
    for name, data, message in BAD_INPUTS
] + [
    pytest.param(command, None, 1, "[Errno 2] No such file or directory: 'in.json'", "main",
                 id=f"missing-file-{reader}")
    for reader, command in FILE_READERS
] + [
    # Two faults: metrics reads its inputs in flag order, so --input's is the one reported.
    pytest.param("metrics --input in.json --reference missing.json --correct 01", b"not json", 2,
                 "in.json: invalid JSON: Expecting value: line 1 column 1 (char 0)", "main",
                 id="metrics-input-read-before-reference"),
] + _through_main_and_python_m([
    (f"{name}-reconstruct-stdin", "reconstruct --input -", data, 2, f"stdin: {message}")
    for name, data, message in BAD_INPUTS
])


class TestTopLevel:
    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "hamrec" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["reconstruct", "--help"]) == 0

    @pytest.mark.parametrize("command,message,usage,entry", USAGE_ROWS)
    def test_argparse_errors_start_with_prefix(self, run_cli, command, message, usage, entry):
        # argparse's own failures follow the contract of every other usage
        # error: exit 1, nothing on stdout, one exact line; argparse adds
        # the usage after it.
        code, out, err = run_cli(shlex.split(command), entry=entry)
        first, *rest = err.splitlines()
        assert (code, out, first) == (1, "", f"hamrec: error: {message}")
        assert rest[0].startswith("usage: hamrec ") if usage else rest == []

    @pytest.mark.parametrize("target,value,command,message", [
        ("sys.stdin", None, "reconstruct --input -", "stdin is closed"),
        ("sys.stdout", None, "synth --key 01", "stdout is closed"),
        # A process run as root writes past the mode bits: only a patch makes "." unwritable.
        ("os.access", lambda path, mode: False, "synth --key 01 --output new.json",
         "output directory not writable: ."),
    ], ids=["closed-stdin", "closed-stdout", "unwritable-directory"])
    def test_usage_errors_from_the_environment(self, run_cli, monkeypatch, target, value,
                                               command, message):
        with monkeypatch.context() as patch:  # undone before capsys restores sys.stdout
            patch.setattr(target, value)
            assert run_cli(command.split()) == (1, "", f"hamrec: error: {message}\n")

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hamrec", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "hamrec" in proc.stdout


class TestBadDistributions:
    @pytest.mark.parametrize("command,data,code,message,entry", BAD_INPUT_ROWS)
    def test_one_exact_error_and_no_output(self, run_cli, tmp_path, command, data, code,
                                           message, entry):
        (tmp_path / "good.json").write_text('{"01": 3, "10": 1}')
        (tmp_path / "graph.json").write_text('{"n": 2, "edges": [[0, 1]]}')
        if data is not None:  # on stdin as well, for "--input -"
            (tmp_path / "in.json").write_bytes(data)
        assert run_cli(command.split(), data, entry) == (code, "", f"hamrec: error: {message}\n")


def _fail_second_write(monkeypatch) -> list:
    """Make the second file that ``core`` opens for writing fail with ENOSPC;
    returns the list of the files opened for writing."""
    writes = []

    def failing_open(file, mode="r", *args, **kwargs):
        if "w" in mode:
            writes.append(file)
            if len(writes) == 2:
                os.close(file)
                raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(hamrec.core, "open", failing_open, raising=False)
    return writes


class TestReconstructCommand:
    def test_writes_normalized_output_and_report(self, tmp_path, counts_file, capsys):
        out = tmp_path / "dist.json"
        report = tmp_path / "report.json"
        code = main(
            ["reconstruct", "--input", str(counts_file), "--output", str(out),
             "--report", str(report)]
        )
        assert code == 0
        dist = load_distribution(out)
        assert dist.kind == "probabilities"
        assert abs(sum(dist.entries.values()) - 1.0) <= 1e-9
        rep = json.loads(report.read_text())
        n = len(COUNTS)
        assert rep["pair_evaluations_step1"] == n * n
        assert rep["pair_evaluations_step3"] == n * n
        assert rep["normalization_steps"] == n
        assert len(rep["chs"]) == len(rep["weights"]) == 5
        assert rep["wall_time_s"] >= 0.0

    def test_report_is_the_library_report_and_wall_time(self, tmp_path, counts_file):
        report = tmp_path / "report.json"
        assert main(["reconstruct", "--input", str(counts_file), "--report", str(report)]) == 0
        written = json.loads(report.read_text())
        d = load_distribution(counts_file)
        rep = hammer(d)
        assert list(written.items()) == list({
            "width": d.width,
            "n_outcomes": len(d),
            "chs": rep.chs.values.tolist(),
            "weights": rep.weights.values.tolist(),
            "pair_evaluations_step1": rep.pair_evaluations_step1,
            "pair_evaluations_step3": rep.pair_evaluations_step3,
            "normalization_steps": rep.normalization_steps,
            "pairs_computed": rep.pairs_computed,
            "wall_time_s": written["wall_time_s"],
        }.items())
        assert report.read_text() == _json_text({**rep.to_json_obj(),
                                                 "wall_time_s": written["wall_time_s"]})

    def test_report_with_infinite_weight_writes_nothing(self, tmp_path, capsys):
        # CHS[1] = 1e-323 makes W[1] = inf, which the report cannot hold.
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"0000": 1.0, "0011": 5e-324, "0111": 5e-324}))
        out, report = tmp_path / "out.json", tmp_path / "report.json"
        argv = ["reconstruct", "--input", str(src), "--output", str(out)]
        assert main([*argv, "--report", str(report)]) == 1
        assert "result cannot be written as JSON" in capsys.readouterr().err
        assert not out.exists() and not report.exists()
        assert main(argv) == 0
        assert load_distribution(out).entries["0000"] == 1.0

    def test_verbose_logs_on_every_call(self, counts_file, capsys):
        assert main(["reconstruct", "--input", str(counts_file)]) == 0
        capsys.readouterr()
        assert main(["reconstruct", "-v", "--input", str(counts_file)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[:2] for line in lines] == [["INFO", "loaded"],
                                                        ["INFO", "reconstructed"]]
        assert not logging.getLogger("hamrec").handlers

    def test_stdout_when_no_output_given(self, counts_file, capsys):
        assert main(["reconstruct", "--input", str(counts_file)]) == 0
        payload = read_json(capsys)
        assert abs(sum(payload.values()) - 1.0) <= 1e-9

    def test_stdin_input(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO(json.dumps(COUNTS).encode()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["reconstruct", "--input", "-"]) == 0
        assert set(read_json(capsys)) == set(COUNTS)

    @pytest.mark.parametrize("via_symlink", [False, True])
    def test_output_and_report_on_one_file_rejected(self, tmp_path, counts_file, capsys,
                                                    monkeypatch, via_symlink):
        out = tmp_path / "out.json"
        report = out
        if via_symlink:
            report = tmp_path / "link.json"
            report.symlink_to(out)
        before = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr("hamrec.reconstruct.hammer", lambda d: pytest.fail("hammer ran"))
        code = main(
            ["reconstruct", "--input", str(counts_file), "--output", str(out),
             "--report", str(report)]
        )
        assert code == 1
        assert "same file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not out.exists()

    @pytest.mark.parametrize("outputs", [["--report", "-"], ["--output", "-", "--report", "-"]],
                             ids=["default-output", "explicit-output"])
    def test_two_outputs_on_stdout_rejected(self, counts_file, capsys, monkeypatch, outputs):
        # Two JSON texts in one stream are not JSON: stdout counts as one file.
        monkeypatch.setattr("hamrec.reconstruct.hammer", lambda d: pytest.fail("hammer ran"))
        assert main(["reconstruct", "--input", str(counts_file), *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hamrec: error: output paths name the same file: -, -\n"

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        # The message names the input as it was given, here an absolute path.
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["reconstruct", "--input", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"hamrec: error: {bad}: invalid JSON: Expecting value: line 1 column 1 (char 0)\n")

    def test_no_partial_output_on_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        out = tmp_path / "dist.json"
        assert main(["reconstruct", "--input", str(bad), "--output", str(out)]) == 2
        assert not out.exists()

    def test_unwritable_report_blocks_output_write(self, tmp_path, counts_file, capsys):
        out = tmp_path / "dist.json"
        report = tmp_path / "missing-dir" / "report.json"
        code = main(
            ["reconstruct", "--input", str(counts_file), "--output", str(out),
             "--report", str(report)]
        )
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_second_write_leaves_no_output(self, tmp_path, counts_file, capsys,
                                                  monkeypatch, existing):
        out = tmp_path / "dist.json"
        report = tmp_path / "report.json"
        if existing:
            out.write_text("old output\n")
            report.write_text("old report\n")
        before = {p.name: p.read_text() for p in tmp_path.iterdir()}
        writes = _fail_second_write(monkeypatch)
        code = main(
            ["reconstruct", "--input", str(counts_file), "--output", str(out),
             "--report", str(report)]
        )
        assert code == 1
        assert len(writes) == 2
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


class TestOutputs:
    """One writer, core.write_files, for files and stdout alike."""

    def test_stdout_is_written_after_every_file(self, tmp_path, capsys, monkeypatch):
        # "-" comes first in the map, and is still written last.
        monkeypatch.chdir(tmp_path)
        texts = {"-": "to stdout\n", "a.json": "a\n", "b.json": "b\n"}
        hamrec.core.write_files(texts)
        assert capsys.readouterr().out == "to stdout\n"
        assert _files(tmp_path) == {"a.json": b"a\n", "b.json": b"b\n"}
        writes = _fail_second_write(monkeypatch)
        with pytest.raises(OSError, match="No space left"):
            hamrec.core.write_files({**texts, "a.json": "new a\n", "b.json": "new b\n"})
        assert len(writes) == 2
        assert capsys.readouterr().out == ""
        assert _files(tmp_path) == {"a.json": b"a\n", "b.json": b"b\n"}

    def test_dangling_output_link_fails_before_the_work(self, tmp_path, capsys, monkeypatch):
        # The writer writes where a link resolves, so the check looks there too.
        missing = pathlib.Path(os.path.realpath(tmp_path)) / "missing"
        link = tmp_path / "out.json"
        link.symlink_to(missing / "x.json")
        monkeypatch.setattr("hamrec.synth.sample_noisy", lambda *a: pytest.fail("sampled"))
        assert main(["synth", "--key", "0101", "--trials", "10", "--output", str(link)]) == 1
        assert capsys.readouterr() == ("", f"hamrec: error: output directory does not exist: "
                                           f"{missing}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert link.is_symlink() and not missing.exists()

    @pytest.mark.parametrize("through_link", [False, True], ids=["direct", "link"])
    def test_existing_output_in_unwritable_directory_fails_before_the_work(
            self, tmp_path, capsys, monkeypatch, through_link):
        # The writer stages its temporary file beside where the output
        # resolves, so that directory must be writable even when the file is.
        locked = tmp_path / "locked"
        locked.mkdir()
        (locked / "out.json").write_text("old\n")
        output = locked / "out.json"
        if through_link:
            output = tmp_path / "link.json"
            output.symlink_to(locked / "out.json")
        before = {p.relative_to(tmp_path): p.read_bytes()
                  for p in tmp_path.rglob("*") if p.is_file()}
        denied, access = os.path.realpath(locked), os.access
        monkeypatch.setattr("os.access",
                            lambda path, mode: os.path.realpath(path) != denied
                            and access(path, mode))
        monkeypatch.setattr("hamrec.synth.sample_noisy", lambda *a: pytest.fail("sampled"))
        assert main(["synth", "--key", "0101", "--trials", "10", "--output", str(output)]) == 1
        shown = denied if through_link else locked
        assert capsys.readouterr() == ("", f"hamrec: error: output directory not writable: "
                                           f"{shown}\n")
        assert {p.relative_to(tmp_path): p.read_bytes()
                for p in tmp_path.rglob("*") if p.is_file()} == before


class TestSpectrumCommand:
    def test_json_payload(self, counts_file, capsys):
        assert main(
            ["spectrum", "--input", str(counts_file), "--correct", "1010101010"]
        ) == 0
        payload = read_json(capsys)
        assert payload[0]["d"] == 0
        assert payload[0]["outcomes"][0][0] == "1010101010"
        assert len(payload) == 11

    def test_csv_payload(self, counts_file, capsys):
        assert main(
            ["spectrum", "--input", str(counts_file), "--correct", "1010101010", "--csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,bitstring,probability"
        assert len(lines) == 1 + len(COUNTS)

    def test_comma_separated_correct(self, counts_file, capsys):
        code = main(
            ["spectrum", "--input", str(counts_file),
             "--correct", "1010101010,1110101010"]
        )
        assert code == 0
        payload = read_json(capsys)
        assert len(payload[0]["outcomes"]) == 2


class TestEhdCommand:
    def test_normalized_and_raw(self, counts_file, capsys):
        assert main(["ehd", "--input", str(counts_file), "--correct", "1010101010"]) == 0
        norm = read_json(capsys)
        assert norm["mode"] == "normalized"
        assert main(
            ["ehd", "--input", str(counts_file), "--correct", "1010101010",
             "--mode", "raw"]
        ) == 0
        raw = read_json(capsys)
        assert raw["ehd"] == pytest.approx(norm["ehd"] * 200 / 1000)

    def test_bad_mode_is_usage_error(self, counts_file):
        assert main(
            ["ehd", "--input", str(counts_file), "--correct", "1", "--mode", "median"]
        ) == 1


class TestMetricsCommand:
    def test_single_distribution(self, counts_file, capsys):
        assert main(
            ["metrics", "--input", str(counts_file), "--correct", "1010101010"]
        ) == 0
        payload = read_json(capsys)
        assert payload["pst"] == pytest.approx(0.8)
        assert payload["ist"] == pytest.approx(800 / 150)
        assert payload["ist_infinite"] is False

    def test_with_reference_tvd(self, tmp_path, counts_file, capsys):
        ref = tmp_path / "ideal.json"
        ref.write_text(json.dumps({"1010101010": 1.0}))
        assert main(
            ["metrics", "--input", str(counts_file), "--correct", "1010101010",
             "--reference", str(ref)]
        ) == 0
        assert read_json(capsys)["tvd"] == pytest.approx(0.2)

    def test_before_after_ratios(self, tmp_path, counts_file, capsys):
        after = tmp_path / "after.json"
        after.write_text(json.dumps({"1010101010": 0.9, "1010100010": 0.1}))
        ref = tmp_path / "ideal.json"
        ref.write_text(json.dumps({"1010101010": 1.0}))
        assert main(
            ["metrics", "--before", str(counts_file), "--after", str(after),
             "--correct", "1010101010", "--reference", str(ref)]
        ) == 0
        payload = read_json(capsys)
        assert payload["pst_ratio"] == pytest.approx(0.9 / 0.8)
        assert payload["ist_ratio"] == pytest.approx(9 / (800 / 150))
        assert payload["before"]["tvd"] == pytest.approx(0.2)
        assert payload["after"]["tvd"] == pytest.approx(0.1)
        assert payload["tvd_ratio"] == payload["before"]["tvd"] / payload["after"]["tvd"]

    def test_overflowing_ratios_are_null(self, tmp_path, capsys):
        before = tmp_path / "before.json"
        before.write_text(json.dumps({"01": 1.0, "10": 5e-324}))
        after = tmp_path / "after.json"
        after.write_text(json.dumps({"01": 0.5, "10": 0.5}))
        assert main(
            ["metrics", "--before", str(before), "--after", str(after), "--correct", "10"]
        ) == 0
        payload = read_json(capsys)
        assert payload["pst_ratio"] is None  # 0.5 / 5e-324 overflows
        assert payload["ist_ratio"] is None

    def test_infinite_ist_ratio_is_null(self, tmp_path, capsys):
        delta = tmp_path / "delta.json"
        delta.write_text(json.dumps({"11": 4}))
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({"11": 3, "00": 1}))
        assert main(
            ["metrics", "--before", str(mixed), "--after", str(delta), "--correct", "11"]
        ) == 0
        payload = read_json(capsys)
        assert payload["after"]["ist_infinite"] is True
        assert payload["ist_ratio"] is None


class TestQaoaCommand:
    @pytest.fixture
    def graph_file(self, tmp_path):
        path = tmp_path / "tri.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        return path

    @pytest.fixture
    def uniform_file(self, tmp_path):
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps({format(v, "03b"): 1 for v in range(8)}))
        return path

    def test_repeated_key_in_graph_is_data_error(self, tmp_path, uniform_file, capsys):
        graph = tmp_path / "dup.json"
        graph.write_text('{"n": 3, "edges": [[0, 1]], "n": 2}')
        assert main(["qaoa", "--graph", str(graph), "--counts", str(uniform_file)]) == 2
        assert capsys.readouterr().err == (
            f"hamrec: error: {graph}: key 'n' appears more than once\n")

    def test_width_checked_before_brute_force(self, tmp_path, graph_file, capsys, monkeypatch):
        counts = tmp_path / "two_bits.json"
        counts.write_text(json.dumps({"01": 3, "10": 1}))
        monkeypatch.setattr("hamrec.qaoa_cost.c_min", lambda g: pytest.fail("c_min ran"))
        assert main(["qaoa", "--graph", str(graph_file), "--counts", str(counts)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "hamrec: error: width mismatch: distribution 2, graph 3\n"
        assert captured.out == ""

    def test_costs_computed_once(self, graph_file, uniform_file, capsys, monkeypatch):
        calls = []
        real = hamrec.qaoa_cost._costs

        def counted(g, codes, width):
            calls.append(len(codes))
            return real(g, codes, width)

        monkeypatch.setattr(hamrec.qaoa_cost, "_costs", counted)
        assert main(["qaoa", "--graph", str(graph_file), "--counts", str(uniform_file),
                     "--cmin", "-1"]) == 0
        assert read_json(capsys)["c_min"] == -1.0
        assert calls == [8]

    def test_uniform_cost_ratio_zero(self, graph_file, uniform_file, capsys):
        assert main(
            ["qaoa", "--graph", str(graph_file), "--counts", str(uniform_file)]
        ) == 0
        payload = read_json(capsys)
        assert payload["c_min"] == -1.0
        assert payload["c_exp"] == pytest.approx(0.0, abs=1e-12)
        assert payload["cr"] == pytest.approx(0.0, abs=1e-12)
        assert payload["curve"][-1][1] == pytest.approx(1.0, abs=1e-9)

    def test_cmin_override(self, graph_file, uniform_file, capsys):
        assert main(
            ["qaoa", "--graph", str(graph_file), "--counts", str(uniform_file),
             "--cmin", "-2.0"]
        ) == 0
        assert read_json(capsys)["c_min"] == -2.0

    def test_csv_curve(self, graph_file, uniform_file, capsys):
        assert main(
            ["qaoa", "--graph", str(graph_file), "--counts", str(uniform_file), "--csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "ratio,cumulative_probability"

    def test_bad_graph_is_data_error(self, tmp_path, uniform_file):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps({"n": 2, "edges": [[0, 0]]}))
        assert main(["qaoa", "--graph", str(bad), "--counts", str(uniform_file)]) == 2


class TestSynthCommand:
    def test_writes_counts(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(
            ["synth", "--key", "1010", "--flip", "0.05", "--trials", "512",
             "--seed", "7", "--output", str(out)]
        )
        assert code == 0
        d = load_distribution(out)
        assert d.kind == "counts"
        assert d.total() == 512

    def test_stdout_default_and_determinism(self, capsys):
        args = ["synth", "--key", "1010", "--flip", "0.05", "--trials", "256",
                "--seed", "3"]
        assert main(args) == 0
        first = read_json(capsys)
        assert main(args) == 0
        assert read_json(capsys) == first


class TestPipelineEquivalence:
    def test_cli_matches_library(self, tmp_path, capsys):
        counts = tmp_path / "c.json"
        dist = tmp_path / "d.json"
        assert main(
            ["synth", "--key", "1010101010", "--flip", "0.02",
             "--corr", "0000010000:0.2", "--trials", "8192", "--seed", "13",
             "--output", str(counts)]
        ) == 0
        assert main(
            ["reconstruct", "--input", str(counts), "--output", str(dist)]
        ) == 0
        assert main(
            ["metrics", "--input", str(dist), "--correct", "1010101010"]
        ) == 0
        cli_metrics = read_json(capsys)
        lib = merit_report(hammer(load_distribution(counts)).output, {"1010101010"})
        assert cli_metrics["pst"] == pytest.approx(lib.pst, abs=1e-15)
        assert cli_metrics["ist"] == pytest.approx(lib.ist, abs=1e-15)


class TestStrictOutputs:
    @pytest.fixture
    def inputs(self, tmp_path):
        graph = tmp_path / "ring.json"
        graph.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({"011": 3, "101": 1}))
        return graph, counts

    @pytest.mark.parametrize("cmin", ["nan", "inf", "-inf", "0"])
    def test_cmin_must_be_finite_and_non_zero(self, inputs, capsys, cmin):
        graph, counts = inputs
        code = main(["qaoa", "--graph", str(graph), "--counts", str(counts), f"--cmin={cmin}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("hamrec: error:")

    def test_edgeless_graph_needs_cmin(self, tmp_path, inputs, capsys):
        graph = tmp_path / "edgeless.json"
        graph.write_text(json.dumps({"n": 3, "edges": []}))
        assert main(["qaoa", "--graph", str(graph), "--counts", str(inputs[1])]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "hamrec: error: C_min must be finite and non-zero for a cost ratio, got 0.0")

    def test_out_of_memory_is_exit_1(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr("hamrec.synth.sample_noisy", exhausted)
        assert main(["synth", "--key", "0101"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hamrec: error: out of memory\n"

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["synth", "--key", "0101", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hamrec: error:")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_output_never_holds_nan_or_infinity(self, capsys, value):
        with pytest.raises(UsageError, match="JSON"):
            _json_text({"cr": value})
        assert capsys.readouterr().out == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# Flag values, written as ``--flag=value`` so that argparse never takes a
# negative value for an option.
FLAG_FLOATS = st.sampled_from([0.0, 0.02, 0.5, 1.0, -0.1, 1.5]) | st.floats(0, 1) | st.floats()
WEIGHT_TEXTS = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "1e308", "-1", "0", "0.5", "5e-324",
    str(2 ** 63), str(10 ** 30), "true", '"1"', "null",
])


@st.composite
def bitstrings(draw, width):
    return format(draw(st.integers(min_value=0, max_value=2 ** width - 1)), f"0{width}b")


@st.composite
def distribution_texts(draw, width):
    """JSON text of a counts map, a probability map or a map of wild weights."""
    keys = draw(st.lists(bitstrings(width), min_size=1, max_size=6, unique=True))
    if draw(st.integers(min_value=0, max_value=3)) == 0:  # maybe a ragged key
        keys.append(draw(bitstrings(draw(st.integers(min_value=1, max_value=130)))))
    kind = draw(st.sampled_from(["counts", "probabilities", "wild"]))
    if kind == "counts":
        values = [str(draw(st.integers(min_value=0, max_value=10 ** 6))) for _ in keys]
    elif kind == "probabilities":
        raw = [draw(st.floats(min_value=1e-3, max_value=1.0)) for _ in keys]
        values = [repr(v / sum(raw)) for v in raw]
    else:
        values = [draw(WEIGHT_TEXTS | st.floats().map(repr)) for _ in keys]
    return "{" + ", ".join(f'"{k}": {v}' for k, v in zip(keys, values)) + "}"


@st.composite
def graph_texts(draw, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    weight = st.sampled_from(["1", "-2.5", "0.5"]) | st.floats(-9, 9).map(repr) | WEIGHT_TEXTS
    weights = [draw(weight) for _ in edges]
    items = ", ".join(f"[{u}, {v}, {w}]" for (u, v), w in zip(edges, weights))
    return f'{{"n": {n}, "edges": [{items}]}}'


OUTPUTS = ("out.json", "report.json")


@st.composite
def cli_calls(draw):
    """(argv, {file name: text}) for one invocation of any subcommand.

    File names in ``argv`` are relative to the directory the files are
    written to; the names in ``OUTPUTS`` are the command's outputs.
    """
    command = draw(st.sampled_from(["synth", "reconstruct", "spectrum", "ehd", "metrics", "qaoa"]))
    width = draw(st.integers(min_value=1, max_value=8) | st.integers(min_value=1, max_value=130))
    files = {"in.json": draw(distribution_texts(width))}
    correct = [f"--correct={draw(bitstrings(width))}"]
    if command == "synth":
        files = {}
        argv = ["synth", f"--key={draw(bitstrings(width))}",
                f"--flip={draw(FLAG_FLOATS)}",
                f"--trials={draw(st.integers(min_value=-2, max_value=300))}",
                f"--seed={draw(st.integers(min_value=-2, max_value=2 ** 70))}"]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mask = draw(bitstrings(draw(st.sampled_from([width, width + 1]))))
            argv.append(f"--corr={mask}:{draw(FLAG_FLOATS)}")
    elif command == "reconstruct":
        argv = ["reconstruct", "--input=in.json"]
        if draw(st.booleans()):
            argv.append("--report=report.json")
    elif command == "spectrum":
        argv = ["spectrum", "--input=in.json", *correct] + draw(st.sampled_from([[], ["--csv"]]))
    elif command == "ehd":
        mode = draw(st.sampled_from(["normalized", "raw"]))
        argv = ["ehd", "--input=in.json", *correct, f"--mode={mode}"]
    elif command == "metrics":
        if draw(st.booleans()):
            files["after.json"] = draw(distribution_texts(width))
            argv = ["metrics", "--before=in.json", "--after=after.json", *correct]
        else:
            argv = ["metrics", "--input=in.json", *correct]
        if draw(st.booleans()):
            files["ref.json"] = draw(distribution_texts(width))
            argv.append("--reference=ref.json")
    else:
        n = draw(st.just(width) | st.integers(min_value=1, max_value=8))
        files["graph.json"] = draw(graph_texts(n))
        argv = ["qaoa", "--graph=graph.json", "--counts=in.json"]
        if n > 12 or draw(st.booleans()):  # no brute-force c_min above 12 vertices
            argv.append(f"--cmin={draw(st.sampled_from([-1.0, -3.5]) | FLAG_FLOATS)}")
        if draw(st.booleans()):
            argv.append("--csv")
    if draw(st.booleans()):
        argv.append("--output=out.json")
    return argv, files


class TestCliContract:
    """Every subcommand, on generated flags and files: an exit code of 0, 1
    or 2, a ``hamrec: error:`` message or nothing on stderr, and strict
    JSON in every JSON output."""

    @settings(max_examples=300)
    @given(cli_calls())
    def test_exit_codes_messages_and_strict_json(self, call):
        argv, files = call
        with tempfile.TemporaryDirectory() as name:
            tmp = pathlib.Path(name)
            for file, text in files.items():
                (tmp / file).write_text(text, encoding="utf-8")
            argv = [a.replace("=", f"={tmp}{os.sep}", 1) if a.endswith(".json") else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = [(tmp / file).read_text(encoding="utf-8") for file in OUTPUTS if (tmp / file).exists()]
        assert code in (0, 1, 2)
        assert err.getvalue() == "" or err.getvalue().startswith("hamrec: error:")
        if code != 0:
            assert out.getvalue() == "" and not written
            return
        if "--csv" not in argv:  # a CSV output is not JSON
            for text in filter(None, [*written, out.getvalue()]):
                json.loads(text, parse_constant=_reject_constant)
