import json
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamrec import (
    ChsVector,
    Distribution,
    UsageError,
    from_counts,
    global_chs,
    hammer,
    neighborhood_score,
    normalize,
    weights_from_chs,
)
from conftest import random_distribution
from oracles import hammer_oracle, score_oracle

DATA = pathlib.Path(__file__).parent / "data"

FOUR_OUTCOME = Distribution(
    width=3,
    entries={"111": 0.3, "011": 0.25, "101": 0.25, "000": 0.2},
    kind="probabilities",
)


class TestWeights:
    def test_reciprocal_of_hand_traced_chs(self):
        w = weights_from_chs(global_chs(FOUR_OUTCOME))
        assert w.values.tolist() == pytest.approx([1.0, 1 / 1.1], abs=1e-15)

    def test_zero_guard(self):
        w = weights_from_chs(ChsVector(width=4, values=np.array([0.0, 2.0])))
        assert w.values.tolist() == [0.0, 0.5]

    def test_shape_validation(self):
        with pytest.raises(UsageError):
            weights_from_chs(ChsVector(width=4, values=np.array([1.0])))


class TestNeighborhoodScore:
    def test_hand_traced_examples(self):
        weights = weights_from_chs(global_chs(FOUR_OUTCOME))
        assert neighborhood_score(FOUR_OUTCOME, "111", weights) == pytest.approx(
            0.3 + (1 / 1.1) * 0.5, abs=1e-15
        )
        # "011"'s only near neighbor "111" has higher probability: filtered.
        assert neighborhood_score(FOUR_OUTCOME, "011", weights) == pytest.approx(0.25)

    def test_outcome_must_be_in_support(self):
        weights = weights_from_chs(global_chs(FOUR_OUTCOME))
        with pytest.raises(UsageError):
            neighborhood_score(FOUR_OUTCOME, "010", weights)

    @given(st.integers(min_value=0, max_value=3000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 20))
        weights = weights_from_chs(global_chs(d))
        x = rng.choice(list(d.entries))
        assert neighborhood_score(d, x, weights) == pytest.approx(
            score_oracle(d.entries, x, weights.values.tolist(), width), abs=1e-12
        )


class TestHammer:
    def test_hand_trace_regression(self):
        out = hammer(FOUR_OUTCOME).output
        expected = {"111": 0.5784, "011": 0.1597, "101": 0.1597, "000": 0.1022}
        for k, v in expected.items():
            assert out.entries[k] == pytest.approx(v, abs=1e-4)

    def test_golden_file(self):
        golden = json.loads((DATA / "hand_trace_golden.json").read_text())
        src = json.loads((DATA / "bv3_example.json").read_text())
        out = hammer(Distribution(3, src, kind="probabilities")).output
        for k, v in golden.items():
            assert out.entries[k] == pytest.approx(v, abs=1e-12)

    def test_counters_and_vector_lengths(self):
        rep = hammer(FOUR_OUTCOME)
        assert rep.pair_evaluations_step1 == 16
        assert rep.pair_evaluations_step3 == 16
        assert rep.normalization_steps == 4
        assert rep.chs.values.shape == (2,)
        assert rep.weights.values.shape == (2,)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            hammer(Distribution(width=2, entries={}, kind="probabilities"))

    def test_degenerate_single_bit(self):
        # width 1 keeps no neighbor bins beyond d=0, so the update squares
        # each probability before renormalizing.
        d = Distribution(1, {"0": 0.25, "1": 0.75}, kind="probabilities")
        out = hammer(d).output
        assert out.entries["1"] == pytest.approx(0.75 ** 2 / (0.25 ** 2 + 0.75 ** 2))

    def test_counts_and_probabilities_give_identical_output(self):
        counts = from_counts({"111": 30, "011": 25, "101": 25, "000": 20})
        a = hammer(counts).output
        b = hammer(normalize(counts)).output
        assert a.entries == b.entries  # bit-identical, not just approximate

    def test_output_is_normalized_and_support_preserved(self):
        rep = hammer(from_counts({"0101": 5, "1010": 3, "0111": 9}))
        assert rep.output.kind == "probabilities"
        assert abs(sum(rep.output.entries.values()) - 1.0) <= 1e-9
        assert set(rep.output.entries) == {"0101", "1010", "0111"}

    def test_underflowing_outcome_is_kept(self):
        # 1e-320 * its score underflows to 0; the outcome stays in the
        # support at the smallest subnormal.
        d = Distribution(2, {"00": 1e-320, "01": 1 - 1e-320}, kind="probabilities")
        out = hammer(d).output.entries
        assert out == {"00": np.finfo(float).smallest_subnormal, "01": 1.0}

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.dictionaries(
                    st.integers(min_value=0, max_value=2 ** width - 1),
                    st.floats(min_value=0.0, max_value=300.0),
                    min_size=1,
                    max_size=24,
                ),
            )
        )
    )
    def test_extreme_dynamic_range_matches_oracle(self, case):
        width, exponents = case
        raw = {format(k, f"0{width}b"): 10.0 ** -e for k, e in exponents.items()}
        total = sum(raw.values())
        d = Distribution(width, {k: v / total for k, v in raw.items()}, kind="probabilities")
        out = hammer(d).output.entries
        expected = hammer_oracle(d.entries, width)
        assert out.keys() == d.entries.keys() == expected.keys()
        for k, v in expected.items():
            assert abs(out[k] - v) <= 1e-12

    def test_amplifies_neighborhood_rich_outcome(self):
        # Two equal-probability outcomes; one has strictly lower-probability
        # neighbors inside the cutoff, the other is isolated. The rich one
        # must come out strictly ahead.
        d = Distribution(
            8,
            {
                "00000000": 0.3,
                "11111111": 0.3,
                "10000000": 0.1,
                "01000000": 0.1,
                "00110000": 0.1,
                "00000111": 0.1,
            },
            kind="probabilities",
        )
        out = hammer(d).output
        assert out.entries["00000000"] > out.entries["11111111"]

    @given(st.integers(min_value=0, max_value=3000))
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 24))
        out = hammer(d).output
        expected = hammer_oracle(d.entries, width)
        assert set(out.entries) == set(expected)
        for k, v in expected.items():
            assert out.entries[k] == pytest.approx(v, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2000))
    def test_permutation_equivariance(self, seed):
        rng = random.Random(seed)
        width = rng.randint(2, 10)
        d = random_distribution(rng, width, rng.randint(1, 16))
        perm = list(range(width))
        rng.shuffle(perm)
        remap = lambda s: "".join(s[i] for i in perm)
        permuted = Distribution(
            width, {remap(k): v for k, v in d.entries.items()}, kind="probabilities"
        )
        out = hammer(d).output
        out_p = hammer(permuted).output
        for k, v in out.entries.items():
            assert out_p.entries[remap(k)] == pytest.approx(v, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2000))
    def test_complement_equivariance(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 10)
        d = random_distribution(rng, width, rng.randint(1, 16))
        flip = lambda s: "".join("1" if c == "0" else "0" for c in s)
        flipped = Distribution(
            width, {flip(k): v for k, v in d.entries.items()}, kind="probabilities"
        )
        out = hammer(d).output
        out_f = hammer(flipped).output
        for k, v in out.entries.items():
            assert out_f.entries[flip(k)] == pytest.approx(v, abs=1e-12)
