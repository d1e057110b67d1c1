import json
import pathlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamrec import (
    ChsVector,
    Distribution,
    UsageError,
    WeightVector,
    from_counts,
    global_chs,
    hammer,
    neighborhood_score,
    normalize,
    weights_from_chs,
)
from hamrec.core import _Packed
from conftest import random_distribution
from oracles import hammer_oracle, score_oracle

DATA = pathlib.Path(__file__).parent / "data"

# A tied pair of the smallest subnormal at distance 1: CHS[1] is subnormal.
SUBNORMAL_TIES = {"0000": 1.0, "0011": 5e-324, "0111": 5e-324}

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

    def test_infinite_weight_makes_an_infinite_score(self):
        # W[1] = 1 / CHS[1] = 1 / 5e-309 is inf, and 0011 is a lighter
        # neighbor of 0111 at distance 1: the paper's score p + W[1] * 2e-309
        # is inf, where hammer divides the mass by CHS[1].
        d = Distribution(4, {"0000": 1.0, "0011": 2e-309, "0111": 3e-309},
                         kind="probabilities")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = weights_from_chs(global_chs(d))
            assert neighborhood_score(d, "0111", weights) == np.inf
            assert score_oracle(d.entries, "0111", weights.values.tolist(), 4) == np.inf
            assert hammer(d).output.entries["0111"] == 1.2e-309


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

    def test_subnormal_chs_bin_matches_oracle(self):
        # CHS[1] = 1e-323, so W[1] = 1/CHS[1] is inf; the tied pair at
        # distance 1 adds nothing to either score, which must not be NaN.
        d = Distribution(4, SUBNORMAL_TIES, kind="probabilities")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or 0 * inf on the way
            rep = hammer(d)
        assert rep.weights.values[1] == np.inf
        tiny = np.finfo(float).smallest_subnormal
        expected = {k: max(v, tiny) for k, v in hammer_oracle(d.entries, 4).items()}
        assert rep.output.entries == expected == {"0000": 1.0, "0011": tiny, "0111": tiny}

    def test_subnormal_chs_bin_with_a_lighter_neighbour(self):
        # 0111 scores 3e-309 + 2e-309 / 5e-309, so its output is 0.4 * 3e-309;
        # the oracle's 1/CHS[1] * 2e-309 is inf * 2e-309 there, NaN after
        # normalizing.
        d = Distribution(4, {"0000": 1.0, "0011": 2e-309, "0111": 3e-309},
                         kind="probabilities")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = hammer(d).output.entries
        tiny = np.finfo(float).smallest_subnormal
        assert out == {"0000": 1.0, "0011": tiny, "0111": 1.2e-309}

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


@st.composite
def counts_or_probabilities(draw):
    """(width, {bitstring: weight}, kind) at widths 1-130. Probabilities are
    10**-e normalised, e up to 323, so subnormal inputs and outputs that
    hammer floors at the smallest subnormal both occur."""
    width = draw(st.integers(min_value=1, max_value=130))
    codes = draw(st.sets(st.integers(min_value=0, max_value=2 ** width - 1),
                         min_size=1, max_size=16))
    keys = [format(c, f"0{width}b") for c in codes]
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(min_value=0, max_value=10**6),
                               min_size=len(keys), max_size=len(keys)))
        return width, dict(zip(keys, [1, *counts[1:]])), "counts"
    exponents = draw(st.lists(st.integers(min_value=0, max_value=323),
                              min_size=len(keys), max_size=len(keys)))
    raw = [10.0 ** -e for e in [0, *exponents[1:]]]
    total = sum(raw)
    return width, {k: v / total for k, v in zip(keys, raw)}, "probabilities"


class TestDerivedValues:
    """What normalize and hammer derive from a checked distribution is
    built without a second check, on the input's own codes, and is never
    looser than what the checked constructors build from the same arrays."""

    @staticmethod
    def assert_as_if_checked(derived, source):
        assert derived.codes is source.codes
        assert not derived.codes.flags.writeable and not derived.weights.flags.writeable
        checked = Distribution(derived.width, _Packed(derived.codes.copy(), derived.weights.copy()),
                               derived.kind)
        assert derived == checked
        assert derived.weights.dtype == checked.weights.dtype
        assert derived.weights.tobytes() == checked.weights.tobytes()

    @given(counts_or_probabilities())
    @example((2, {"00": 1e-320, "01": 1 - 1e-320}, "probabilities"))  # the underflow floor
    @example((4, SUBNORMAL_TIES, "probabilities"))
    @example((130, {"1" * 130: 2**62, "0" * 130: 2**62 - 1}, "counts"))
    def test_never_looser_than_checked(self, case):
        width, entries, kind = case
        d = Distribution(width, entries, kind=kind)
        self.assert_as_if_checked(normalize(d), d)
        rep = hammer(d)
        self.assert_as_if_checked(rep.output, d)
        chs = ChsVector(width=width, values=rep.chs.values.copy(),
                        pair_evaluations=rep.chs.pair_evaluations)
        weights = WeightVector(width=width, values=rep.weights.values.copy())
        for derived, checked in ((rep.chs, chs), (rep.weights, weights)):
            assert type(derived) is type(checked) and derived.width == checked.width
            assert derived.values.dtype == checked.values.dtype
            assert derived.values.tobytes() == checked.values.tobytes()
        assert rep.chs.pair_evaluations == chs.pair_evaluations == len(d) ** 2
