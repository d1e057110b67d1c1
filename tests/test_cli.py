import contextlib
import errno
import io
import json
import logging
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamrec.core
from hamrec import hammer, load_distribution, merit_report
from hamrec import UsageError
from hamrec.cli import _emit_json, main

COUNTS = {"1010101010": 800, "1010100010": 150, "1110101010": 50}


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(COUNTS))
    return path


def read_json(capsys):
    return json.loads(capsys.readouterr().out)


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

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["synth", "--seed", "x"],
        ["qaoa", "--graph", "g", "--counts", "c", "--cmin", "-inf"],
        ["synth", "--key", "01", "--bogus"],
    ], ids=["no-subcommand", "unknown-subcommand", "bad-int", "option-like-value",
            "unknown-flag"])
    def test_argparse_errors_start_with_prefix(self, argv, capsys):
        # argparse's own failures follow the contract of every other one:
        # exit 1, nothing on stdout, the message first and the usage after.
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("hamrec: error: ")
        assert "usage:" in captured.err

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hamrec", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "hamrec" in proc.stdout


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
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(COUNTS)))
        assert main(["reconstruct", "--input", "-"]) == 0
        assert set(read_json(capsys)) == set(COUNTS)

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["reconstruct", "--input", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["reconstruct", "--input", str(bad)]) == 2

    def test_inconsistent_widths_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"01": 1, "011": 2}))
        assert main(["reconstruct", "--input", str(bad)]) == 2

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"01": 1, "\xff": 2}')
        assert main(["reconstruct", "--input", str(bad)]) == 2
        assert "bad.json: invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["not json", '{"01": 1, "011": 2}'])
    def test_stdin_errors_name_stdin(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["reconstruct", "--input", "-"]) == 2
        assert capsys.readouterr().err.startswith("hamrec: error: stdin: ")

    def test_repeated_key_on_stdin_is_data_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO('{"01": 1, "01": 5, "10": 2}'))
        assert main(["reconstruct", "--input", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "hamrec: error: stdin: key '01' appears more than once\n"

    @pytest.mark.parametrize("via_symlink", [False, True])
    def test_output_and_report_on_one_file_rejected(self, tmp_path, counts_file, capsys,
                                                    monkeypatch, via_symlink):
        out = tmp_path / "out.json"
        report = out
        if via_symlink:
            report = tmp_path / "link.json"
            report.symlink_to(out)
        before = sorted(p.name for p in tmp_path.iterdir())
        monkeypatch.setattr("hamrec.cli.hammer", lambda d: pytest.fail("hammer ran"))
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
        monkeypatch.setattr("hamrec.cli.hammer", lambda d: pytest.fail("hammer ran"))
        assert main(["reconstruct", "--input", str(counts_file), *outputs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hamrec: error: output paths name the same file: -, -\n"

    def test_missing_required_flag(self, capsys):
        assert main(["reconstruct"]) == 1

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

    @pytest.mark.parametrize("argv", [
        ["reconstruct", "--input", "counts.json", "--report", ""],
        ["synth", "--key", "01", "--output", ""],
    ], ids=["empty-report", "empty-output"])
    def test_empty_output_path_rejected_before_any_work(self, tmp_path, counts_file, capsys,
                                                        monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hamrec: error: output path must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_second_write_leaves_no_output(self, tmp_path, counts_file, capsys,
                                                  monkeypatch, existing):
        out = tmp_path / "dist.json"
        report = tmp_path / "report.json"
        if existing:
            out.write_text("old output\n")
            report.write_text("old report\n")
        before = {p.name: p.read_text() for p in tmp_path.iterdir()}
        writes = []

        def failing_open(file, mode="r", *args, **kwargs):
            if "w" in mode:
                writes.append(file)
                if len(writes) == 2:
                    os.close(file)
                    raise OSError(errno.ENOSPC, "No space left on device")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(hamrec.core, "open", failing_open, raising=False)
        code = main(
            ["reconstruct", "--input", str(counts_file), "--output", str(out),
             "--report", str(report)]
        )
        assert code == 1
        assert len(writes) == 2
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_text() for p in tmp_path.iterdir()} == before


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
        assert main(
            ["metrics", "--before", str(counts_file), "--after", str(after),
             "--correct", "1010101010"]
        ) == 0
        payload = read_json(capsys)
        assert payload["pst_ratio"] == pytest.approx(0.9 / 0.8)
        assert payload["ist_ratio"] == pytest.approx(9 / (800 / 150))
        assert "before" in payload and "after" in payload

    def test_input_and_before_conflict(self, counts_file, tmp_path):
        other = tmp_path / "o.json"
        other.write_text(json.dumps({"1010101010": 1.0}))
        assert main(
            ["metrics", "--input", str(counts_file), "--before", str(other),
             "--after", str(other), "--correct", "1"]
        ) == 1

    def test_needs_some_input(self):
        assert main(["metrics", "--correct", "1"]) == 1

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

    def test_bad_corr_format(self, capsys):
        assert main(["synth", "--key", "10", "--corr", "nope"]) == 1

    def test_corr_width_mismatch(self, capsys):
        assert main(["synth", "--key", "10", "--corr", "111:0.5"]) == 1

    def test_bad_flip(self, capsys):
        assert main(["synth", "--key", "10", "--flip", "1.5"]) == 1


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
        monkeypatch.setattr("hamrec.cli.sample_noisy", exhausted)
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
            _emit_json({"cr": value}, None)
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
