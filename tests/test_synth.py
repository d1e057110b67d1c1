import math
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
