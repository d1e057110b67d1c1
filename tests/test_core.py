import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamrec import (
    Distribution,
    ParseError,
    UsageError,
    as_probabilities,
    from_counts,
    hamming_distance,
    load_distribution,
    min_distance_to_set,
    normalize,
    save_distribution,
)
from hamrec.core import (
    distribution_from_json_obj,
    pack_outcomes,
    pairwise_distances,
)
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
        with pytest.raises(UsageError):
            Distribution(width=2, entries={"00": 0.5, "11": 0.2}, kind="probabilities")
        Distribution(width=2, entries={"00": 0.5, "11": 0.5}, kind="probabilities")

    def test_counts_total_is_exact_int(self):
        d = Distribution(width=2, entries={"00": 3, "11": 4})
        assert d.total() == 7
        assert isinstance(d.total(), int)

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
    "str weight": {"01": "x"},
    "nan weight": {"01": float("nan")},
    "negative weight": {"01": -1},
    "non-integer count": {"00": 1.5, "01": 2},
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
        numpy_counts = {k: np.int64(v) for k, v in raw.items()}
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

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            from_counts({"00": 0})  # all-zero collapses to empty


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

    def test_save_preserves_canonical_order(self, tmp_path):
        d = Distribution(width=2, entries={"11": 0.5, "00": 0.5}, kind="probabilities")
        path = tmp_path / "p.json"
        save_distribution(d, path)
        assert list(json.loads(path.read_text())) == ["00", "11"]


class TestPackedAgainstNumpyPopcount:
    def test_bitwise_count_dtype_assumption(self):
        # np.bitwise_count returns uint8; the multi-word kernel widens to
        # uint16 before summing. Guard the assumption explicitly.
        x = np.array([np.uint64(2**64 - 1)])
        assert int(np.bitwise_count(x)[0]) == 64
