import errno
import io
import json
import os
import subprocess
import sys

import pytest

import hamrec.core
from hamrec import hammer, load_distribution, merit_report
from hamrec.cli import main

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
