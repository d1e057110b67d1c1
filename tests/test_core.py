import dataclasses
import json
import math
import numbers
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hamrec.core
from hamrec import (
    CutGraph,
    Distribution,
    NoiseModel,
    ParseError,
    UsageError,
    WeightVector,
    as_probabilities,
    build_spectrum,
    chs_for_outcome,
    chs_length,
    cost_ratio,
    ehd,
    expected_cost,
    from_counts,
    global_chs,
    hamming_distance,
    hammer,
    ist,
    load_distribution,
    merit_report,
    min_distance_to_set,
    neighborhood_score,
    normalize,
    pst,
    qaoa_report,
    quality_curve,
    sample_noisy,
    save_distribution,
    tvd,
)
from hamrec.core import (
    _Packed,
    distribution_from_json_obj,
    distribution_to_json,
    pack_bits,
    pack_outcomes,
    pairwise_distances,
    sort_rows,
    write_files,
)
from conftest import random_distribution
from oracles import hd


def bitstrings(width):
    return st.text(alphabet="01", min_size=width, max_size=width)


@st.composite
def equal_width_pair(draw, max_width=130):
    w = draw(st.integers(min_value=1, max_value=max_width))
    return draw(bitstrings(w)), draw(bitstrings(w))


class TestHammingDistance:
    def test_examples(self):
        assert hamming_distance("111", "101") == 1
        assert hamming_distance("0000", "1111") == 4
        assert hamming_distance("10", "10") == 0

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            hamming_distance("10", "101")

    def test_non_binary(self):
        with pytest.raises(UsageError):
            hamming_distance("1012", "1010")
        with pytest.raises(UsageError):
            hamming_distance("", "")

    @given(equal_width_pair())
    def test_matches_oracle_and_symmetry(self, pair):
        x, y = pair
        assert hamming_distance(x, y) == hd(x, y)
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, x) == 0

    @given(equal_width_pair(max_width=24))
    def test_triangle_inequality(self, pair):
        x, y = pair
        rng = random.Random(hash((x, y)) & 0xFFFF)
        z = "".join(rng.choice("01") for _ in x)
        assert hamming_distance(x, y) <= hamming_distance(x, z) + hamming_distance(z, y)


class TestMinDistanceToSet:
    def test_examples(self):
        assert min_distance_to_set("010", {"111", "000"}) == 1
        assert min_distance_to_set("0110", {"0000", "1111"}) == 2
        assert min_distance_to_set("111", {"111"}) == 0

    def test_empty_reference(self):
        with pytest.raises(UsageError):
            min_distance_to_set("010", set())


class TestDistribution:
    def test_zero_entries_dropped(self):
        d = Distribution(width=3, entries={"101": 0, "111": 5})
        assert len(d) == 1
        assert d.entries == {"111": 5}

    @pytest.mark.parametrize("entries, kind", [
        ({}, "counts"),
        ({}, "probabilities"),
        ({"00": 0, "11": 0}, "counts"),
        ({"00": 0.0}, "probabilities"),
        (_Packed(np.zeros((0, 1), dtype=np.uint64), np.zeros(0, dtype=np.int64)), "counts"),
        (_Packed(np.zeros((0, 1), dtype=np.uint64), np.zeros(0)), "probabilities"),
    ], ids=["empty-counts", "empty-probabilities", "zero-counts", "zero-probabilities",
            "empty-packed-counts", "empty-packed-probabilities"])
    def test_holds_an_outcome(self, entries, kind):
        with pytest.raises(UsageError, match="^no outcome has a positive weight$"):
            Distribution(2, entries, kind=kind)

    def test_entries_are_required(self):
        with pytest.raises(TypeError):
            Distribution(3)

    def test_canonical_order(self):
        d = Distribution(width=2, entries={"11": 1, "00": 2, "10": 3})
        assert d.outcomes() == ["00", "10", "11"]

    def test_negative_weight_rejected(self):
        with pytest.raises(UsageError):
            Distribution(width=2, entries={"00": -1})

    def test_wrong_width_key_rejected(self):
        with pytest.raises(UsageError):
            Distribution(width=3, entries={"10": 1})

    def test_bad_kind_rejected(self):
        with pytest.raises(UsageError):
            Distribution(width=2, entries={"00": 1}, kind="weights")

    def test_probability_sum_enforced(self):
        # The tolerance is PROB_SUM_TOL = 1e-9: 5e-9 off 1 fails, 5e-10 passes.
        for off_by in (-0.3, 5e-9):
            with pytest.raises(UsageError, match="probabilities sum to"):
                Distribution(2, {"00": 0.5, "11": 0.5 + off_by}, kind="probabilities")
        for off_by in (0.0, 5e-10):
            Distribution(2, {"00": 0.5, "11": 0.5 + off_by}, kind="probabilities")

    def test_counts_total_is_exact_int(self):
        d = Distribution(width=2, entries={"00": 3, "11": 4})
        assert d.total() == 7
        assert isinstance(d.total(), int)

    def test_a_failed_build_drops_the_entries_memo(self):
        d = Distribution(2, {"00": 1, "11": 3})
        first = d.entries
        assert d.entries is first
        with pytest.raises(UsageError):
            Distribution(2, {"00": -1})
        assert d.entries is not first
        assert d.entries == first

    def test_probability_lookup_defaults_to_zero(self):
        d = Distribution(width=2, entries={"00": 1.0}, kind="probabilities")
        assert d.probability("00") == 1.0
        assert d.probability("11") == 0.0


class TestFromCounts:
    def test_basic(self):
        d = from_counts({"01": 2, "10": 0, "11": 5})
        assert d.kind == "counts"
        assert d.entries == {"01": 2, "11": 5}

    @pytest.mark.parametrize(
        "raw",
        [
            {"01": 1.5},
            {"01": True},
            {"01": -2},
            {"0a": 1},
            {"01": 1, "011": 2},
            {},
            {1: 1},
        ],
    )
    def test_rejects_malformed(self, raw):
        with pytest.raises(ParseError):
            from_counts(raw)


# Malformed maps, each rejected by the validator in Distribution and so by
# every parser built on it.
MALFORMED = {
    "non-string key": {"01": 1, 2: 1},
    "ragged widths": {"01": 1, "011": 1},
    "non-binary key": {"01": 1, "0b": 1},
    "bool weight": {"01": True},
    "numpy bool weight": {"01": np.True_},
    "str weight": {"01": "x"},
    "nan weight": {"01": float("nan")},
    "+inf weight": {"01": float("inf")},
    "-inf weight": {"01": float("-inf")},
    "negative weight": {"01": -1},
    "non-integer count": {"00": 1.5, "01": 2},
    "list of pairs": [("01", 1)],
}


class TestOneValidator:
    @pytest.mark.parametrize("raw", MALFORMED.values(), ids=MALFORMED)
    def test_entry_points_reject_alike(self, raw):
        for kind in ("counts", "probabilities"):
            with pytest.raises(UsageError):
                Distribution(2, raw, kind=kind)
        with pytest.raises(ParseError):
            from_counts(raw)
        with pytest.raises(ParseError):
            distribution_from_json_obj(raw)

    def test_counts_agree_and_stay_int(self):
        raw = {"10": 3, "01": 1, "11": 0}
        direct = Distribution(2, raw)
        numpy_counts = {"10": np.int64(3), "01": np.uint8(1), "11": np.uint8(0)}
        for parsed in (from_counts(raw), from_counts(numpy_counts),
                       distribution_from_json_obj(raw)):
            assert parsed == direct
            assert list(parsed.entries) == ["01", "10"]
            assert all(type(v) is int for v in parsed.entries.values())

    def test_probabilities_agree_and_are_float(self):
        raw = {"10": 0.25, "01": 0.75, "11": 0}
        direct = Distribution(2, raw, kind="probabilities")
        for d in (direct, distribution_from_json_obj(raw),
                  Distribution(2, {"01": 1}, kind="probabilities")):
            assert d.kind == "probabilities"
            assert all(type(v) is float for v in d.entries.values())
        assert distribution_from_json_obj(raw) == direct


class TestNormalize:
    def test_counts_divided_by_exact_total(self):
        d = from_counts({"00": 2000, "11": 23000})
        p = normalize(d)
        assert p.kind == "probabilities"
        assert p.entries["00"] == 2000 / 25000 == 0.08

    def test_idempotent_and_identity_on_probabilities(self):
        p = normalize(from_counts({"0": 1, "1": 3}))
        assert normalize(p) is p
        assert as_probabilities(p) is p

    @pytest.mark.parametrize("parse, raw, message", [
        (from_counts, {"00": 0}, "no outcome has a positive weight"),
        (from_counts, {}, "no outcome has a positive weight"),
        (distribution_from_json_obj, {"00": 0}, "no outcome has a positive weight"),
        (distribution_from_json_obj, {}, "no outcome has a positive weight"),
        (distribution_from_json_obj, [], "expected a map of bitstrings to weights"),
    ], ids=["counts-all-zero", "counts-empty", "json-all-zero", "json-empty", "json-list"])
    def test_empty_rejected(self, parse, raw, message):
        with pytest.raises(ParseError) as excinfo:
            parse(raw)  # all-zero collapses to empty: one rule, one message
        assert str(excinfo.value) == message


class TestPackedKernels:
    @given(st.integers(min_value=1, max_value=130), st.integers(min_value=0, max_value=10_000))
    def test_pairwise_matches_string_oracle(self, width, seed):
        rng = random.Random(seed)
        strings = [
            "".join(rng.choice("01") for _ in range(width)) for _ in range(rng.randint(1, 8))
        ]
        codes = pack_outcomes(strings, width)
        dist = pairwise_distances(codes, codes)
        for i, x in enumerate(strings):
            for j, y in enumerate(strings):
                assert int(dist[i, j]) == hd(x, y)

    def test_multiword_path(self):
        a = "1" * 70
        b = "1" * 64 + "0" * 6
        codes = pack_outcomes([a, b], 70)
        assert int(pairwise_distances(codes, codes)[0, 1]) == 6


class TestSortRows:
    @pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
    @given(data=st.data())
    def test_matches_numpy_unique(self, width, data):
        # Patterns a few flips apart from one base, so that rows often
        # differ in a single word only.
        base = np.array([c == "1" for c in data.draw(bitstrings(width))])
        edges = sorted({0, 62, 63, 64, 65, width - 1} & set(range(width)))
        flips = st.sets(st.integers(0, width - 1) | st.sampled_from(edges), max_size=2)
        patterns = [base ^ np.isin(np.arange(width), list(f))
                    for f in data.draw(st.lists(flips, min_size=1, max_size=5))]
        rows = data.draw(st.lists(st.sampled_from(patterns), max_size=20))
        bits = np.array(rows, dtype=bool).reshape(-1, width)
        codes = pack_bits(bits)
        order, first = sort_rows(codes)
        distinct, counts = np.unique(bits, axis=0, return_counts=True)
        np.testing.assert_array_equal(codes[order[first]], pack_bits(distinct))
        np.testing.assert_array_equal(np.diff(np.flatnonzero(first), append=len(rows)), counts)
        np.testing.assert_array_equal(codes[order], np.repeat(pack_bits(distinct), counts, axis=0))
        # Stable: equal rows keep their input order.
        assert all(a < b for a, b, new in zip(order, order[1:], first[1:]) if not new)

    @pytest.mark.parametrize("words", [1, 3])
    def test_empty(self, words):
        order, first = sort_rows(np.zeros((0, words), dtype=np.uint64))
        assert order.shape == first.shape == (0,)


class TestJsonInterchange:
    def test_all_ints_are_counts(self):
        d = distribution_from_json_obj({"01": 3, "10": 1})
        assert d.kind == "counts"

    def test_any_float_means_probabilities(self):
        d = distribution_from_json_obj({"01": 0.25, "10": 0.75})
        assert d.kind == "probabilities"
        mixed = distribution_from_json_obj({"01": 0, "10": 1.0})
        assert mixed.kind == "probabilities"

    def test_probability_sum_checked(self):
        with pytest.raises(ParseError):
            distribution_from_json_obj({"01": 0.25, "10": 0.25})

    @pytest.mark.parametrize("obj", [{}, [], {"01": "x"}, {"01": True}, {"01": -0.5}, {"0b": 1.0},
                                     {"01": 10**400, "10": 0.5}, {"01": 0.0, "10": 0.0}])
    def test_rejects_malformed(self, obj):
        with pytest.raises(ParseError):
            distribution_from_json_obj(obj)

    def test_save_load_roundtrip(self, tmp_path):
        d = from_counts({"0101": 7, "1111": 1})
        path = tmp_path / "counts.json"
        save_distribution(d, path)
        again = load_distribution(path)
        assert again.kind == "counts"
        assert again.entries == {"0101": 7, "1111": 1}
        raw = json.loads(path.read_text())
        assert all(isinstance(v, int) for v in raw.values())

    def test_save_writes_through_symlink(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        save_distribution(from_counts({"01": 2}), link)
        assert link.is_symlink()
        assert json.loads(target.read_text()) == {"01": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_load_reports_path_on_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="bad.json"):
            load_distribution(path)

    def test_load_rejects_a_repeated_key(self, tmp_path):
        # json.loads keeps the last value of a repeated key; a histogram
        # that lists an outcome twice is malformed, not a count of 5.
        path = tmp_path / "dup.json"
        path.write_text('{"01": 1, "10": 2, "01": 5, "10": 3}')
        with pytest.raises(ParseError, match=r"dup\.json: key '01' appears more than once"):
            load_distribution(path)

    def test_save_preserves_canonical_order(self, tmp_path):
        d = Distribution(width=2, entries={"11": 0.5, "00": 0.5}, kind="probabilities")
        path = tmp_path / "p.json"
        save_distribution(d, path)
        assert list(json.loads(path.read_text())) == ["00", "11"]

    def test_save_to_dash_writes_stdout(self, tmp_path, monkeypatch, capsys):
        # "-" is stdout for the writer, as it is stdin for load_distribution.
        monkeypatch.chdir(tmp_path)
        d = from_counts({"0101": 7, "1111": 1})
        save_distribution(d, "-")
        assert capsys.readouterr().out == distribution_to_json(d)
        assert list(tmp_path.iterdir()) == []

    def test_save_to_a_closed_stdout_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with monkeypatch.context() as patch:  # undone before capsys restores sys.stdout
            patch.setattr("sys.stdout", None)
            with pytest.raises(UsageError, match="^stdout is closed$"):
                save_distribution(from_counts({"01": 2}), "-")
        assert list(tmp_path.iterdir()) == []


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestOutputRules:
    # The library's writers refuse what the CLI refuses, with its messages,
    # before they stage a file in the output's directory or its parent.
    @pytest.mark.parametrize("write,message", [
        (lambda: save_distribution(from_counts({"01": 2}), ""), "output path must not be empty"),
        (lambda: save_distribution(from_counts({"01": 2}), "."), "output path not writable: ."),
        (lambda: save_distribution(from_counts({"01": 2}), pathlib.Path("missing/x.json")),
         "output directory does not exist: missing"),
        (lambda: write_files({pathlib.Path("a.json"): "1\n", "./a.json": "2\n"}),
         "output paths name the same file: a.json, ./a.json"),
    ], ids=["empty", "directory", "missing-directory", "same-file"])
    def test_writers_check_outputs_like_the_cli(self, tmp_path, monkeypatch, write, message):
        work = tmp_path / "work"
        work.mkdir()
        (work / "keep.json").write_text("old\n")
        monkeypatch.chdir(work)
        before = _tree(tmp_path)
        with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
            write()
        assert _tree(tmp_path) == before


class TestPackedAgainstNumpyPopcount:
    def test_bitwise_count_dtype_assumption(self):
        # np.bitwise_count returns uint8; the multi-word kernel widens to
        # uint16 before summing. Guard the assumption explicitly.
        x = np.array([np.uint64(2**64 - 1)])
        assert int(np.bitwise_count(x)[0]) == 64


def reference_entries(width, entries, kind):
    """The per-key validator that the array checks replaced, kept as the
    reference, with the int64 bound on counts."""
    cleaned = {}
    for key, weight in entries.items():
        if not isinstance(key, str) or not key:
            raise UsageError(f"outcome must be a non-empty bitstring, got {key!r}")
        if not set(key) <= {"0", "1"}:
            raise UsageError(f"outcome {key!r} contains non-binary characters")
        if len(key) != width:
            raise UsageError(f"outcome {key!r} has width {len(key)}, expected {width}")
        if isinstance(weight, bool) or not isinstance(weight, numbers.Real):
            raise UsageError(f"weight for outcome {key!r} is not a number: {weight!r}")
        if kind == "counts":
            if not isinstance(weight, numbers.Integral):
                raise UsageError(f"count for outcome {key!r} is not an integer: {weight!r}")
            weight = int(weight)
            if weight >= 2**63:
                raise UsageError(f"count {weight!r} for outcome {key!r} is 2**63 or more")
        else:
            try:
                weight = float(weight)
            except OverflowError:
                weight = math.inf
            if not math.isfinite(weight):
                raise UsageError(f"non-finite weight {weight!r} for outcome {key!r}")
        if weight < 0:
            raise UsageError(f"negative weight {weight!r} for outcome {key!r}")
        if weight > 0:
            cleaned[key] = weight
    return {k: cleaned[k] for k in sorted(cleaned)}


VALIDATOR_WIDTHS = [1, 8, 63, 64, 65, 130]
BAD_KEYS = ["int", "bytes", "wide", "narrow", "digit 2", "non-ascii"]
BAD_WEIGHTS = {
    "counts": [True, "1", float("nan"), -1, 1.5, 2**63, np.float64(2.0)],
    "probabilities": [False, "0.5", float("nan"), float("inf"), -float("inf"), -0.25, 10**400],
}


def bad_key(kind, key):
    return {"int": 5, "bytes": key.encode(), "wide": key + "0", "narrow": key[1:],
            "digit 2": "2" + key[1:], "non-ascii": "é" + key[1:]}[kind]


@st.composite
def valid_maps(draw):
    """A map accepted by the validator, in random insertion order, with zero
    weights, numpy integer counts and ints in probability maps."""
    width = draw(st.sampled_from(VALIDATOR_WIDTHS))
    kind = draw(st.sampled_from(["counts", "probabilities"]))
    n = draw(st.integers(1, min(12, 2**width)))
    keys = draw(st.lists(st.text("01", min_size=width, max_size=width),
                         min_size=n, max_size=n, unique=True))
    counts = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    if sum(counts) == 0:
        counts[0] = 1
    if kind == "counts":
        wrap = draw(st.lists(st.sampled_from([int, np.int64, np.uint8, np.int32]),
                             min_size=n, max_size=n))
        weights = [w(c) for w, c in zip(wrap, counts)]
    else:
        total = sum(counts)
        weights = [0 if c == 0 else 1 if c == total else c / total for c in counts]
    return width, kind, dict(zip(keys, weights))


class TestArrayValidator:
    @given(valid_maps(), st.randoms(use_true_random=False))
    def test_matches_reference_loop(self, case, rng):
        width, kind, raw = case
        want = reference_entries(width, raw, kind)
        d = Distribution(width, raw, kind=kind)
        assert list(d.entries.items()) == list(want.items())
        assert [type(v) for v in d.entries.values()] == [type(v) for v in want.values()]
        assert d.outcomes() == list(want)
        assert d.codes.flags.writeable is False and d.weights.flags.writeable is False
        items = list(raw.items())
        rng.shuffle(items)
        assert Distribution(width, dict(items), kind=kind) == d
        assert Distribution(np.int64(width), want, kind=kind) == d
        other = "counts" if kind == "probabilities" else "probabilities"
        assert (normalize(d) == d) == (kind == "probabilities")
        assert d != Distribution(width + 1, {"0" * (width + 1): 1}, kind=other)
        if len(want) > 1:
            fewer = dict(list(want.items())[1:])
            total = sum(fewer.values())
            if kind == "probabilities":
                fewer = {k: v / total for k, v in fewer.items()}
            assert d != Distribution(width, fewer, kind=kind)

    @given(valid_maps(), st.data())
    def test_bad_entries_raise_as_the_reference(self, case, data):
        width, kind, raw = case
        items = list(raw.items())
        good_key, good_weight = items[0]
        for _ in range(data.draw(st.integers(1, 2))):
            if data.draw(st.booleans()):
                key = bad_key(data.draw(st.sampled_from(BAD_KEYS)), good_key)
                items.insert(data.draw(st.integers(0, len(items))), (key, good_weight))
            else:
                at = data.draw(st.integers(0, len(items) - 1))
                items[at] = (items[at][0], data.draw(st.sampled_from(BAD_WEIGHTS[kind])))
        bad = dict(items)
        with pytest.raises(UsageError) as want:
            reference_entries(width, bad, kind)
        with pytest.raises(UsageError) as got:
            Distribution(width, bad, kind=kind)
        assert str(got.value) == str(want.value)

    def test_count_bounds(self):
        assert Distribution(1, {"0": 2**63 - 1}).total() == 2**63 - 1
        for raw in ({"0": 2**63}, {"0": 2**62, "1": 2**62}, {"0": np.uint64(2**63)}):
            with pytest.raises(UsageError, match="2\\*\\*63"):
                Distribution(1, raw)
            with pytest.raises(ParseError, match="2\\*\\*63"):
                from_counts(raw)
        with pytest.raises(ParseError, match="2\\*\\*63"):
            distribution_from_json_obj({"00": 10**400, "01": 1})
        with pytest.raises(UsageError):
            hammer(Distribution(2, {"00": 10**400, "01": 1}))

    def test_probability_sum_beyond_float_range(self):
        # Finite weights whose sum overflows fail the sum check, without a
        # numpy overflow warning.
        with pytest.raises(UsageError, match="sum to inf"):
            Distribution(1, {"0": 1e308, "1": 1e308}, kind="probabilities")
        with pytest.raises(ParseError, match="sum to inf"):
            distribution_from_json_obj({"0": 1e308, "1": 1e308})

    @pytest.mark.parametrize("width", ["2", 2.0, True, 0, -1, None])
    def test_width_must_be_a_positive_integer(self, width):
        with pytest.raises(UsageError, match="width"):
            Distribution(width, {"01": 1})

    def test_immutable(self):
        d = Distribution(2, {"01": 1})
        with pytest.raises(AttributeError):
            d.width = 3
        with pytest.raises(ValueError):
            d.weights[0] = 5


class TestJsonWriter:
    @given(st.integers(1, 130), st.data())
    def test_text_matches_json_module(self, width, data):
        n = data.draw(st.integers(1, 6))
        keys = data.draw(st.lists(st.text("01", min_size=width, max_size=width),
                                  min_size=n, max_size=n, unique=True))
        if data.draw(st.booleans()):
            values = data.draw(st.lists(st.sampled_from([1, 7, 2**40, 2**62]),
                                        min_size=n, max_size=n))
            assume(sum(values) < 2**63)
            d = Distribution(width, dict(zip(keys, values)), kind="counts")
        else:
            values = data.draw(st.lists(st.sampled_from([5e-324, 1e-300, 1e-17, 0.1, 0.25]),
                                        min_size=n, max_size=n))
            values[-1] = 1.0 - math.fsum(values[:-1])
            assume(values[-1] >= 0)  # five draws of 0.25 or 0.1 can pass 1
            d = Distribution(width, dict(zip(keys, values)), kind="probabilities")
        assert distribution_to_json(d) == json.dumps(d.entries, indent=2) + "\n"

    @pytest.mark.parametrize("width", [64, 65, 130])
    def test_wide_round_trips(self, tmp_path, width):
        rng = random.Random(width)
        keys = {"".join(rng.choice("01") for _ in range(width)) for _ in range(20)}
        keys |= {"0" * width, "1" * width}
        counts = from_counts({k: rng.randint(1, 9) for k in keys})
        for d in (counts, normalize(counts)):
            path = tmp_path / f"{d.kind}.json"
            save_distribution(d, path)
            assert load_distribution(path) == d
            assert list(json.loads(path.read_text())) == sorted(keys)


def _ordered_counts(width, size=300, seed=0):
    """{bitstring: count} for ``size`` distinct outcomes, in ascending key order."""
    rng = random.Random(seed)
    codes = set()
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    return {format(c, f"0{width}b"): rng.randint(1, 50) for c in sorted(codes)}


class TestOrderedInput:
    """Input in any order builds one distribution; what the library derives
    from a built distribution is not sorted again."""

    @pytest.mark.parametrize("width", [24, 70])
    def test_ascending_and_shuffled_maps_build_equal_distributions(self, width):
        counts = _ordered_counts(width)
        items = list(counts.items())
        random.Random(width).shuffle(items)
        ordered, shuffled = from_counts(counts), from_counts(dict(items))
        assert ordered == shuffled
        assert ordered.outcomes() == list(counts)
        assert normalize(ordered) == normalize(shuffled)

    def test_ordered_distributions_need_no_sort(self, monkeypatch):
        def no_sort(codes):
            raise AssertionError("sort_rows ran")

        d = from_counts(_ordered_counts(24))
        monkeypatch.setattr(hamrec.core, "sort_rows", no_sort)
        hammer(normalize(d))
        hammer(d)

    def test_adjacent_duplicate_still_rejected(self):
        codes = pack_outcomes(["0001", "0010", "0010", "0100"], 4)
        with pytest.raises(UsageError, match="more than once"):
            Distribution(4, _Packed(codes, np.array([1, 2, 3, 4])))

    def test_caller_arrays_stay_writeable_and_unshared(self):
        codes = pack_outcomes(["0001", "0010", "0100"], 4)
        weights = np.array([0.25, 0.25, 0.5])
        d = Distribution(4, _Packed(codes, weights), kind="probabilities")
        assert codes.flags.writeable and weights.flags.writeable
        codes[0] = codes[2]
        weights[:] = 0.0
        assert d.entries == {"0001": 0.25, "0010": 0.25, "0100": 0.5}

    def test_nan_in_ascending_input_names_first_bad_entry(self):
        codes = pack_outcomes(["0001", "0010", "0100", "1000"], 4)
        weights = np.array([0.5, np.nan, 0.5, np.nan])
        with pytest.raises(UsageError, match="non-finite weight nan for outcome '0010'"):
            Distribution(4, _Packed(codes, weights), kind="probabilities")


def _plain(value):
    """A result as nested tuples of plain values, so ``==`` compares it exactly."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return tuple(_plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    return value


# Every public function that takes a distribution, called on ``d`` and, where
# it takes two, on a probability distribution ``q`` in either place. ``ref``
# is a set of outcomes and ``g`` a graph, both of d's width. The writers
# (``save_distribution``) are left out: they keep the kind they are given.
_TAKE_A_DISTRIBUTION = {
    "normalize": lambda d, q, ref, g: normalize(d),
    "build_spectrum": lambda d, q, ref, g: build_spectrum(d, ref),
    "chs_for_outcome": lambda d, q, ref, g: chs_for_outcome(d, min(ref)),
    "global_chs": lambda d, q, ref, g: global_chs(d),
    "ehd": lambda d, q, ref, g: (ehd(d, ref), ehd(d, ref, mode="raw")),
    "pst": lambda d, q, ref, g: pst(d, ref),
    "ist": lambda d, q, ref, g: ist(d, ref),
    "tvd": lambda d, q, ref, g: (tvd(d, q), tvd(q, d)),
    "merit_report": lambda d, q, ref, g: (merit_report(d, ref, q), merit_report(q, ref, d)),
    "expected_cost": lambda d, q, ref, g: expected_cost(g, d),
    "cost_ratio": lambda d, q, ref, g: cost_ratio(g, d),
    "quality_curve": lambda d, q, ref, g: quality_curve(g, d),
    "qaoa_report": lambda d, q, ref, g: qaoa_report(g, d),
    "hammer": lambda d, q, ref, g: hammer(d),
    "neighborhood_score": lambda d, q, ref, g: [
        neighborhood_score(d, x, WeightVector(d.width, np.ones(chs_length(d.width))))
        for x in d.outcomes()],
    "sample_noisy": lambda d, q, ref, g: sample_noisy(d, NoiseModel(0.1, seed=7), 256),
}


class TestEntryRule:
    """Every function that takes a distribution accepts counts: its result on
    counts is exactly its result on their normalization."""

    @pytest.mark.parametrize("name", list(_TAKE_A_DISTRIBUTION))
    @given(st.integers(min_value=0, max_value=10**6))
    def test_counts_give_the_result_of_their_probabilities(self, name, seed):
        rng = random.Random(seed)
        width = rng.randint(2, 8)
        counts = random_distribution(rng, width, rng.randint(1, 20), kind="counts")
        q = random_distribution(rng, width, rng.randint(1, 20))
        ref = set(rng.sample(counts.outcomes(), rng.randint(1, len(counts))))
        g = CutGraph(width, tuple((i, i + 1, 1.0) for i in range(width - 1)))
        call = _TAKE_A_DISTRIBUTION[name]
        assert _plain(call(counts, q, ref, g)) == _plain(call(normalize(counts), q, ref, g))
