import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamrec import Distribution, UsageError, from_counts, ist, merit_report, pst, tvd
from conftest import random_distribution
from oracles import tvd_oracle


class TestPst:
    def test_correct_mass_summed(self):
        d = Distribution(2, {"11": 0.6, "00": 0.3, "01": 0.1}, kind="probabilities")
        assert pst(d, {"11"}) == 0.6
        assert pst(d, {"11", "00"}) == pytest.approx(0.9)

    def test_all_mass_correct(self):
        assert pst(Distribution(2, {"11": 1.0}, kind="probabilities"), {"11"}) == 1.0

    def test_no_correct_outcome_observed(self):
        assert pst(Distribution(2, {"00": 1.0}, kind="probabilities"), {"11"}) == 0.0

    def test_counts_normalized_internally(self):
        assert pst(from_counts({"11": 2000, "00": 23000}), {"11"}) == 0.08

    def test_empty_correct_set_rejected(self):
        with pytest.raises(UsageError):
            pst(Distribution(2, {"11": 1.0}, kind="probabilities"), set())

    def test_correct_width_checked(self):
        with pytest.raises(UsageError):
            pst(Distribution(2, {"11": 1.0}, kind="probabilities"), {"111"})

    @given(st.integers(min_value=0, max_value=3000))
    def test_correct_plus_incorrect_is_one(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 8)
        d = random_distribution(rng, width, rng.randint(1, 16))
        correct = set(list(d.entries)[: rng.randint(1, len(d))])
        incorrect_mass = sum(v for k, v in d.entries.items() if k not in correct)
        assert pst(d, correct) + incorrect_mass == pytest.approx(1.0, abs=1e-12)


class TestIst:
    def test_small_correct_over_dominant_incorrect(self):
        d = Distribution(2, {"11": 0.08, "00": 0.2, "01": 0.72}, kind="probabilities")
        assert ist(d, {"11"}) == pytest.approx(0.08 / 0.72)

    def test_balanced_pair(self):
        d = Distribution(2, {"11": 0.5, "00": 0.5}, kind="probabilities")
        assert ist(d, {"11"}) == 1.0

    def test_delta_on_correct_is_infinite(self):
        assert ist(Distribution(2, {"11": 1.0}, kind="probabilities"), {"11"}) == math.inf

    def test_zero_when_correct_unobserved(self):
        assert ist(Distribution(2, {"00": 1.0}, kind="probabilities"), {"11"}) == 0.0

    def test_multiple_correct_uses_best_of_each(self):
        d = Distribution(
            2, {"11": 0.3, "10": 0.25, "00": 0.4, "01": 0.05}, kind="probabilities"
        )
        # best correct 0.3 vs best incorrect 0.4
        assert ist(d, {"11", "10"}) == pytest.approx(0.3 / 0.4)

    def test_empty_distribution_rejected(self):
        with pytest.raises(UsageError):
            ist(Distribution(2, {}, kind="probabilities"), {"11"})

    @given(st.integers(min_value=0, max_value=3000))
    def test_above_one_iff_argmax_correct(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 8)
        d = random_distribution(rng, width, rng.randint(2, 16))
        correct = set(list(d.entries)[: rng.randint(1, len(d) - 1)])
        value = ist(d, correct)
        argmax = max(d.entries, key=lambda k: d.entries[k])
        if value > 1.0:
            assert argmax in correct
        if value < 1.0:
            assert argmax not in correct


class TestTvd:
    def test_identical_is_zero(self):
        d = Distribution(2, {"01": 0.5, "10": 0.5}, kind="probabilities")
        assert tvd(d, d) == 0.0

    def test_disjoint_supports(self):
        p = Distribution(2, {"00": 1.0}, kind="probabilities")
        q = Distribution(2, {"11": 1.0}, kind="probabilities")
        assert tvd(p, q) == 1.0

    def test_direct_formula(self):
        p = Distribution(1, {"0": 0.5, "1": 0.5}, kind="probabilities")
        q = Distribution(1, {"0": 1.0}, kind="probabilities")
        assert tvd(p, q) == 0.5

    def test_width_mismatch(self):
        p = Distribution(1, {"0": 1.0}, kind="probabilities")
        q = Distribution(2, {"00": 1.0}, kind="probabilities")
        with pytest.raises(UsageError):
            tvd(p, q)

    @given(st.integers(min_value=0, max_value=3000))
    def test_metric_axioms_and_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 6)
        p = random_distribution(rng, width, rng.randint(1, 10))
        q = random_distribution(rng, width, rng.randint(1, 10))
        r = random_distribution(rng, width, rng.randint(1, 10))
        d_pq = tvd(p, q)
        assert d_pq == pytest.approx(tvd_oracle(p.entries, q.entries), abs=1e-12)
        assert d_pq == tvd(q, p)
        assert 0.0 <= d_pq <= 1.0 + 1e-12
        assert tvd(p, p) == 0.0
        assert d_pq <= tvd(p, r) + tvd(r, q) + 1e-12


class TestMeritReport:
    def test_tvd_optional(self):
        d = Distribution(2, {"11": 0.75, "00": 0.25}, kind="probabilities")
        rep = merit_report(d, {"11"})
        assert rep.tvd is None
        assert rep.to_json_obj() == {"pst": 0.75, "ist": 3.0, "ist_infinite": False}

    def test_with_reference(self):
        d = Distribution(2, {"11": 0.6, "00": 0.4}, kind="probabilities")
        ref = Distribution(2, {"11": 1.0}, kind="probabilities")
        rep = merit_report(d, {"11"}, reference=ref)
        assert rep.tvd == pytest.approx(0.4)

    def test_infinite_ist_serialization(self):
        d = Distribution(2, {"11": 1.0}, kind="probabilities")
        obj = merit_report(d, {"11"}).to_json_obj()
        assert obj["ist"] is None
        assert obj["ist_infinite"] is True

    def test_counts_accepted(self):
        rep = merit_report(from_counts({"11": 3, "00": 1}), {"11"})
        assert rep.pst == 0.75
