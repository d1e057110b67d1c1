import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hamrec.synth
from hamrec import (
    BV10_KEY,
    BV10_TOP_ERROR,
    Distribution,
    NoiseModel,
    UsageError,
    bv10_profile,
    ehd,
    hamming_distance,
    ideal_bv,
    ist,
    normalize,
    pst,
    sample_noisy,
)


class TestIdealBv:
    def test_delta_on_key(self):
        assert ideal_bv("1111").entries == {"1111": 1.0}
        assert ideal_bv("0").entries == {"0": 1.0}
        d = ideal_bv(BV10_KEY)
        assert d.kind == "probabilities"
        assert d.width == 10

    def test_rejects_bad_key(self):
        with pytest.raises(UsageError):
            ideal_bv("10a0")
        with pytest.raises(UsageError):
            ideal_bv("")


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(UsageError):
            NoiseModel(per_bit_flip=1.0)
        with pytest.raises(UsageError):
            NoiseModel(per_bit_flip=-0.1)
        with pytest.raises(UsageError):
            NoiseModel(correlated_errors=(("01", 0.6), ("10", 0.6)))
        with pytest.raises(UsageError):
            NoiseModel(correlated_errors=(("0x", 0.5),))
        with pytest.raises(UsageError):
            NoiseModel(correlated_errors=(("01", 1.5),))
        NoiseModel(per_bit_flip=0.02, correlated_errors=(("01", 0.5), ("10", 0.5)))


class TestNoiseModelInputTypes:
    @pytest.mark.parametrize("kwargs", [
        {"per_bit_flip": "0.1"},
        {"per_bit_flip": True},
        {"correlated_errors": (("01", "0.1"),)},
        {"correlated_errors": (("01", True),)},
        {"correlated_errors": None},
        {"correlated_errors": 5},
        {"correlated_errors": (("01",),)},
        {"correlated_errors": ("01",)},  # the string unpacks as ("0", "1")
        {"correlated_errors": (("01", 0.1, 0.2),)},
    ], ids=["str-flip", "bool-flip", "str-q", "bool-q", "none", "int", "one-item",
            "bare-string", "three-items"])
    def test_wrong_types_are_usage_errors(self, kwargs):
        with pytest.raises(UsageError):
            NoiseModel(**kwargs)

    def test_any_sequence_of_pairs_is_stored_as_a_tuple(self):
        pairs = [("01", 0.25), ("10", np.float64(0.5))]
        assert NoiseModel(correlated_errors=pairs).correlated_errors == tuple(pairs)
        once = NoiseModel(correlated_errors=iter(pairs), seed=3)
        assert once.correlated_errors == tuple(pairs)
        model = NoiseModel(correlated_errors=tuple(pairs), seed=3)
        assert sample_noisy(ideal_bv("00"), once, 100) == sample_noisy(ideal_bv("00"), model, 100)
        NoiseModel(per_bit_flip=np.float32(0.125))  # numpy reals are numbers


class TestSampleNoisy:
    def test_noise_free_stays_on_support(self):
        out = sample_noisy(ideal_bv("1011"), NoiseModel(seed=1), trials=500)
        assert out.entries == {"1011": 500}
        assert out.kind == "counts"

    def test_total_equals_trials(self):
        model = NoiseModel(per_bit_flip=0.1, seed=3)
        out = sample_noisy(ideal_bv("101"), model, trials=4097)
        assert out.total() == 4097

    def test_same_seed_identical(self):
        model = NoiseModel(per_bit_flip=0.05, correlated_errors=(("0011", 0.1),), seed=9)
        a = sample_noisy(ideal_bv("1100"), model, trials=2048)
        b = sample_noisy(ideal_bv("1100"), model, trials=2048)
        assert a.entries == b.entries

    def test_different_seeds_differ(self):
        a = sample_noisy(ideal_bv("1100"), NoiseModel(per_bit_flip=0.1, seed=1), 2048)
        b = sample_noisy(ideal_bv("1100"), NoiseModel(per_bit_flip=0.1, seed=2), 2048)
        assert a.entries != b.entries

    def test_correlated_mask_fraction_converges(self):
        q = 0.2
        trials = 32768
        model = NoiseModel(correlated_errors=(("0101", q),), seed=11)
        out = sample_noisy(ideal_bv("1111"), model, trials)
        observed = out.entries.get("1010", 0) / trials
        sigma = math.sqrt(q * (1 - q) / trials)
        assert abs(observed - q) <= 3 * sigma

    def test_mean_hamming_distance_matches_flip_rate(self):
        key = "0" * 12
        p = 0.08
        trials = 32768
        out = sample_noisy(ideal_bv(key), NoiseModel(per_bit_flip=p, seed=5), trials)
        mean_hd = (
            sum(hamming_distance(x, key) * c for x, c in out.entries.items()) / trials
        )
        n = len(key)
        sigma = math.sqrt(n * p * (1 - p) / trials)
        assert abs(mean_hd - n * p) <= 3 * sigma

    def test_width_mismatch_rejected(self):
        with pytest.raises(UsageError):
            sample_noisy(ideal_bv("11"), NoiseModel(correlated_errors=(("111", 0.1),)), 10)

    def test_trials_positive(self):
        with pytest.raises(UsageError):
            sample_noisy(ideal_bv("11"), NoiseModel(), 0)

    def test_multi_outcome_ideal(self):
        ideal = Distribution(2, {"00": 0.5, "11": 0.5}, kind="probabilities")
        out = sample_noisy(ideal, NoiseModel(seed=2), trials=1000)
        assert set(out.entries) == {"00", "11"}
        assert out.total() == 1000

    def test_ehd_contrast_between_flip_regimes(self):
        # Under heavy symmetric flipping the error mass drifts toward n/2;
        # under light flipping it hugs the key. Qualitative contrast only.
        key = "0" * 10
        light = sample_noisy(ideal_bv(key), NoiseModel(per_bit_flip=0.02, seed=7), 8192)
        heavy = sample_noisy(ideal_bv(key), NoiseModel(per_bit_flip=0.45, seed=7), 8192)
        e_light = ehd(normalize(light), {key})
        e_heavy = ehd(normalize(heavy), {key})
        assert e_light < 2.0
        assert e_heavy > 4.0
        assert e_heavy > e_light


def reference_sample(ideal, model, trials):
    """The per-trial string loop that ``sample_noisy`` replaced."""
    probs_dist = normalize(ideal)
    outcomes = probs_dist.outcomes()
    cum = np.cumsum([probs_dist.entries[x] for x in outcomes])
    rng = np.random.Generator(np.random.PCG64(model.seed))
    u_base = rng.random(trials)
    u_category = rng.random(trials)
    u_bits = rng.random((trials, ideal.width))
    base_idx = np.minimum(np.searchsorted(cum, u_base, side="right"), len(outcomes) - 1)
    mask_edges = np.cumsum([q for _, q in model.correlated_errors])
    category = np.searchsorted(mask_edges, u_category, side="right")
    n_masks = len(model.correlated_errors)
    counts = Counter()
    for t in range(trials):
        x = outcomes[base_idx[t]]
        if category[t] < n_masks:
            mask = model.correlated_errors[category[t]][0]
            x = "".join("1" if a != b else "0" for a, b in zip(x, mask))
        elif model.per_bit_flip > 0.0:
            flips = u_bits[t] < model.per_bit_flip
            if flips.any():
                x = "".join(("1" if c == "0" else "0") if f else c for c, f in zip(x, flips))
        counts[x] += 1
    return Distribution(width=ideal.width, entries=dict(counts), kind="counts")


@st.composite
def sampler_cases(draw):
    """(ideal, model, trials, rows per chunk) over widths around byte and word edges."""
    width = draw(st.sampled_from([1, 8, 9, 64, 65, 130]))
    bitstring = st.integers(min_value=0, max_value=2 ** width - 1).map(
        lambda c: format(c, f"0{width}b"))
    keys = draw(st.lists(bitstring, min_size=1, max_size=6, unique=True))
    weights = draw(st.lists(st.integers(min_value=1, max_value=100),
                            min_size=len(keys), max_size=len(keys)))
    ideal = Distribution(width, dict(zip(keys, weights)), kind="counts")
    if draw(st.booleans()):
        ideal = normalize(ideal)
    n_masks = draw(st.integers(min_value=0, max_value=3))
    masks = draw(st.lists(bitstring, min_size=n_masks, max_size=n_masks))
    qs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=n_masks, max_size=n_masks))
    model = NoiseModel(
        per_bit_flip=draw(st.sampled_from([0.0, 0.02, 0.5])),
        correlated_errors=tuple(zip(masks, qs)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 32)),
    )
    rows = draw(st.sampled_from([2, 5, 64]))
    trials = draw(st.sampled_from([1, rows - 1, rows, rows + 1]))
    return ideal, model, trials, rows


@given(sampler_cases())
def test_matches_per_trial_reference(case):
    ideal, model, trials, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.synth, "SAMPLE_BLOCK_ELEMENTS", rows * ideal.width)
        out = sample_noisy(ideal, model, trials)
    expected = reference_sample(ideal, model, trials)
    assert list(out.entries.items()) == list(expected.entries.items())
    assert all(type(v) is int for v in out.entries.values())


class TestBv10Profile:
    def test_headline_anchors_exact(self):
        d = bv10_profile()
        assert pst(d, {BV10_KEY}) == 0.08
        assert ist(d, {BV10_KEY}) == 0.4

    def test_sums_to_one(self):
        d = bv10_profile()
        assert sum(d.entries.values()) == pytest.approx(1.0, abs=1e-9)

    def test_shape(self):
        d = bv10_profile()
        assert d.width == 10
        assert d.entries[BV10_KEY] == 0.08
        assert d.entries[BV10_TOP_ERROR] == pytest.approx(0.2)
        assert hamming_distance(BV10_KEY, BV10_TOP_ERROR) == 1
        tail = {k: v for k, v in d.entries.items() if k not in (BV10_KEY, BV10_TOP_ERROR)}
        assert tail
        assert all(v < 0.08 for v in tail.values())
        # tail outcomes never flip bit 6, the dominant error's own position
        assert all(k[6] == BV10_KEY[6] for k in tail)

    def test_seeded_and_deterministic(self):
        assert bv10_profile(5).entries == bv10_profile(5).entries
        assert bv10_profile(1).entries != bv10_profile(2).entries
        # anchors hold across seeds
        for seed in range(10):
            d = bv10_profile(seed)
            assert pst(d, {BV10_KEY}) == 0.08
            assert ist(d, {BV10_KEY}) == 0.4


class TestIntegerArguments:
    @pytest.mark.parametrize("seed", [True, 1.5, -1, "3"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(UsageError, match="seed"):
            NoiseModel(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        model = NoiseModel(per_bit_flip=0.1, seed=np.int64(5))
        assert sample_noisy(ideal_bv("0110"), model, 64) == sample_noisy(
            ideal_bv("0110"), NoiseModel(per_bit_flip=0.1, seed=5), 64)

    @pytest.mark.parametrize("trials", [True, 2.5, 0, -3])
    def test_trials_must_be_an_integer_of_at_least_one(self, trials):
        with pytest.raises(UsageError, match="trials"):
            sample_noisy(ideal_bv("11"), NoiseModel(), trials)


CLUSTERED_KEY = "101101001110010110100101"
CLUSTERED_MODEL = NoiseModel(0.08, (("000000001100000000000000", 0.05),), seed=2024)
WIDE_KEY = "10" * 35
WIDE_MODEL = NoiseModel(0.03, (("0" * 60 + "1" * 10, 0.1), ("1" * 5 + "0" * 65, 0.05)), seed=7)


class TestSamplerChunks:
    def test_peak_memory_is_a_small_multiple_of_the_code_rows(self):
        # 2**18 one-word rows take 2 MB; per-trial doubles or indices would
        # add 2 MB each on top of the chunk temporaries.
        sample_noisy(ideal_bv(CLUSTERED_KEY), CLUSTERED_MODEL, 2 ** 8)  # warm caches
        tracemalloc.start()
        try:
            sample_noisy(ideal_bv(CLUSTERED_KEY), CLUSTERED_MODEL, 2 ** 18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    @pytest.mark.parametrize("key, model", [(CLUSTERED_KEY, CLUSTERED_MODEL), (WIDE_KEY, WIDE_MODEL)])
    def test_chunk_size_does_not_change_the_output(self, key, model):
        width = len(key)
        outputs = []
        for elements in (1, 7, 3 * width + 1, 2 ** 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(hamrec.synth, "SAMPLE_BLOCK_ELEMENTS", elements)
                outputs.append(list(sample_noisy(ideal_bv(key), model, 4097).entries.items()))
        assert len(outputs[0]) > 1
        assert all(out == outputs[0] for out in outputs[1:])

    def test_one_word_rows_are_counted_without_a_row_sort(self):
        trials = 2 ** 14
        lexsort_rows = []
        np_lexsort = np.lexsort

        def recording_lexsort(keys, *args, **kwargs):
            lexsort_rows.append(len(keys[0]))
            return np_lexsort(keys, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hamrec.synth, "sort_rows", lambda codes: pytest.fail("sort_rows ran"))
            mp.setattr(np, "lexsort", recording_lexsort)
            out = sample_noisy(ideal_bv(BV10_KEY), NoiseModel(0.02, (("0000110000", 0.2),), 3), trials)
        assert out.total() == trials
        assert max(lexsort_rows, default=0) <= len(out)  # only the support is sorted

    @pytest.mark.parametrize("key, model", [(CLUSTERED_KEY, CLUSTERED_MODEL), (WIDE_KEY, WIDE_MODEL)])
    def test_xor_of_the_key_moves_every_outcome(self, key, model):
        # The draws do not depend on the key, so XORing it by m XORs every
        # sampled outcome by m and leaves every count as it was.
        m = "".join("1" if i % 3 == 0 else "0" for i in range(len(key)))

        def xor(x):
            return "".join("1" if a != b else "0" for a, b in zip(x, m))

        base = sample_noisy(ideal_bv(key), model, 2 ** 18)
        moved = sample_noisy(ideal_bv(xor(key)), model, 2 ** 18)
        expected = Distribution(len(key), {xor(x): c for x, c in base.entries.items()}, kind="counts")
        assert moved == expected
        assert len(moved) > 100
