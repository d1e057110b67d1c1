import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamrec import (
    ChsVector,
    Distribution,
    UsageError,
    build_spectrum,
    chs_for_outcome,
    chs_length,
    ehd,
    from_counts,
    global_chs,
    max_neighbor_distance,
    normalize,
    spectrum_to_csv,
    spectrum_to_json_obj,
    uniform_ehd_closed_form,
)
from conftest import random_distribution
from oracles import chs_for_outcome_oracle, ehd_oracle, global_chs_oracle

FOUR_OUTCOME = Distribution(
    width=3,
    entries={"111": 0.3, "011": 0.25, "101": 0.25, "000": 0.2},
    kind="probabilities",
)


class TestBinGeometry:
    @pytest.mark.parametrize(
        "width,bins,dmax",
        [(1, 1, 0), (2, 1, 0), (3, 2, 1), (9, 5, 4), (10, 5, 4), (24, 12, 11)],
    )
    def test_lengths(self, width, bins, dmax):
        assert chs_length(width) == bins
        assert max_neighbor_distance(width) == dmax
        # d < width/2 strictly, so dmax itself must satisfy it and dmax+1 not
        assert dmax < width / 2 <= dmax + 1

    def test_chs_vector_shape_enforced(self):
        with pytest.raises(UsageError):
            ChsVector(width=3, values=np.zeros(3))
        with pytest.raises(UsageError):
            ChsVector(width=3, values=np.array([1.0, -0.1]))
        with pytest.raises(UsageError, match="non-negative"):
            ChsVector(width=4, values=np.array([np.nan, 1.0]))


class TestSpectrum:
    def test_example_bins(self):
        d = Distribution(3, {"111": 0.6, "011": 0.3, "000": 0.1}, kind="probabilities")
        spec = build_spectrum(d, {"111"})
        assert spec.bins[0] == (("111", 0.6),)
        assert spec.bins[1] == (("011", 0.3),)
        assert spec.bins[2] == ()
        assert spec.bins[3] == (("000", 0.1),)

    def test_delta_all_in_bin_zero(self):
        d = Distribution(4, {"1010": 1.0}, kind="probabilities")
        spec = build_spectrum(d, {"1010"})
        assert spec.bins[0] == (("1010", 1.0),)
        assert spec.total_probability() == 1.0

    def test_min_distance_rule(self):
        d = Distribution(3, {"010": 1.0}, kind="probabilities")
        spec = build_spectrum(d, {"111", "000"})
        assert spec.bins[1] == (("010", 1.0),)

    def test_empty_reference_rejected(self):
        with pytest.raises(UsageError):
            build_spectrum(FOUR_OUTCOME, set())

    def test_reference_width_checked(self):
        with pytest.raises(UsageError):
            build_spectrum(FOUR_OUTCOME, {"01"})

    @given(st.integers(min_value=0, max_value=5000))
    def test_conservation_and_membership(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 20))
        refs = {x for x in list(d.entries)[: rng.randint(1, len(d))]}
        if not refs:
            refs = {next(iter(d.entries))}
        spec = build_spectrum(d, refs)
        assert abs(spec.total_probability() - 1.0) <= 1e-12
        seen = set()
        for k, bucket in enumerate(spec.bins):
            for x, p in bucket:
                assert x not in seen
                seen.add(x)
                assert min(sum(a != b for a, b in zip(x, r)) for r in refs) == k
        assert seen == set(d.entries)

    def test_bins_sorted_by_descending_probability(self):
        d = Distribution(
            3,
            {"011": 0.1, "101": 0.3, "110": 0.2, "111": 0.4},
            kind="probabilities",
        )
        spec = build_spectrum(d, {"111"})
        probs = [p for _, p in spec.bins[1]]
        assert probs == sorted(probs, reverse=True)


class TestChsForOutcome:
    def test_hand_traced_example(self):
        vec = chs_for_outcome(FOUR_OUTCOME, "111")
        assert vec.values.tolist() == pytest.approx([0.3, 0.5], abs=1e-15)

    def test_delta(self):
        d = Distribution(5, {"00000": 1.0}, kind="probabilities")
        assert chs_for_outcome(d, "00000").values.tolist() == [1.0, 0.0, 0.0]

    def test_isolated_probe_is_all_zero(self):
        d = Distribution(6, {"000000": 1.0}, kind="probabilities")
        vec = chs_for_outcome(d, "111111")
        assert vec.values.tolist() == [0.0, 0.0, 0.0]

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            chs_for_outcome(FOUR_OUTCOME, "0101")

    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        d = random_distribution(rng, width, rng.randint(1, 24))
        x = rng.choice(list(d.entries))
        vec = chs_for_outcome(d, x)
        assert vec.values.tolist() == pytest.approx(
            chs_for_outcome_oracle(d.entries, x, width), abs=1e-12
        )


class TestGlobalChs:
    def test_hand_traced_example(self):
        vec = global_chs(FOUR_OUTCOME)
        assert vec.values.tolist() == pytest.approx([1.0, 1.1], abs=1e-15)
        assert vec.pair_evaluations == 16

    def test_delta(self):
        d = Distribution(4, {"0000": 1.0}, kind="probabilities")
        assert global_chs(d).values.tolist() == [1.0, 0.0]

    def test_distance_at_half_width_excluded(self):
        d = Distribution(2, {"00": 0.5, "11": 0.5}, kind="probabilities")
        assert global_chs(d).values.tolist() == [1.0]

    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 12)
        d = random_distribution(rng, width, rng.randint(1, 24))
        vec = global_chs(d)
        assert vec.values.tolist() == pytest.approx(
            global_chs_oracle(d.entries, width), abs=1e-12
        )

    @given(st.integers(min_value=0, max_value=2000))
    def test_is_sum_of_per_outcome_vectors(self, seed):
        # Linearity: the aggregate vector is the plain (unweighted) sum of
        # the per-outcome vectors over the support.
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 16))
        total = np.zeros(chs_length(width))
        for x in d.entries:
            total += chs_for_outcome(d, x).values
        assert total.tolist() == pytest.approx(global_chs(d).values.tolist(), abs=1e-12)


class TestEhd:
    def test_error_free_is_zero(self):
        d = Distribution(4, {"1111": 1.0}, kind="probabilities")
        assert ehd(d, {"1111"}) == 0.0

    def test_hand_computed_example(self):
        d = Distribution(3, {"111": 0.5, "110": 0.25, "000": 0.25}, kind="probabilities")
        assert ehd(d, {"111"}) == pytest.approx(2.0, abs=1e-15)
        assert ehd(d, {"111"}, mode="raw") == pytest.approx(1.0, abs=1e-15)

    def test_uniform_closed_form(self):
        for n in (4, 6, 8):
            entries = {format(v, f"0{n}b"): 1 for v in range(2 ** n)}
            d = normalize(from_counts(entries))
            assert ehd(d, {"0" * n}) == pytest.approx(uniform_ehd_closed_form(n), abs=1e-9)
        assert uniform_ehd_closed_form(4) == pytest.approx(32 / 15)

    def test_bad_mode(self):
        with pytest.raises(UsageError):
            ehd(FOUR_OUTCOME, {"111"}, mode="median")

    @given(st.integers(min_value=0, max_value=5000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 20))
        refs = set(list(d.entries)[: rng.randint(1, len(d))])
        for mode, normalized in (("normalized", True), ("raw", False)):
            assert ehd(d, refs, mode=mode) == pytest.approx(
                ehd_oracle(d.entries, refs, normalized), abs=1e-12
            )

    @given(st.integers(min_value=0, max_value=2000))
    def test_invariant_under_bit_permutation(self, seed):
        rng = random.Random(seed)
        width = rng.randint(2, 10)
        d = random_distribution(rng, width, rng.randint(2, 16))
        refs = {next(iter(d.entries))}
        perm = list(range(width))
        rng.shuffle(perm)
        remap = lambda s: "".join(s[i] for i in perm)
        d2 = Distribution(
            width, {remap(k): v for k, v in d.entries.items()}, kind="probabilities"
        )
        assert ehd(d2, {remap(r) for r in refs}) == pytest.approx(ehd(d, refs), abs=1e-12)


class TestExports:
    def test_json_shape(self):
        spec = build_spectrum(FOUR_OUTCOME, {"111"})
        obj = spectrum_to_json_obj(spec)
        assert [row["d"] for row in obj] == [0, 1, 2, 3]
        assert obj[0]["outcomes"] == [["111", 0.3]]
        assert obj[1]["outcomes"] == [["011", 0.25], ["101", 0.25]]

    def test_csv_shape(self):
        spec = build_spectrum(FOUR_OUTCOME, {"111"})
        lines = spectrum_to_csv(spec).strip().split("\n")
        assert lines[0] == "d,bitstring,probability"
        assert lines[1] == "0,111,0.3"
        assert len(lines) == 1 + len(FOUR_OUTCOME)
