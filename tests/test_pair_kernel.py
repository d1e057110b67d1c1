"""Properties of the shared pair pass behind ``hammer`` and ``global_chs``.

The pass sorts outcomes by probability and computes only the lower
triangle of the pair matrix in row blocks, so the cases that matter are
tie groups (including ones cut by block boundaries), multi-word widths,
and the order in which entries were inserted.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hamrec.analysis
from hamrec import (
    Distribution,
    ParseError,
    UsageError,
    from_counts,
    global_chs,
    hammer,
    normalize,
)
from hamrec.cli import main
from hamrec.analysis import pair_histograms
from hamrec.core import distribution_from_json_obj, pack_outcomes
from oracles import global_chs_oracle, hammer_oracle

TOL = 1e-12
WIDTHS = st.integers(min_value=1, max_value=12) | st.sampled_from([63, 64, 65, 130])


@st.composite
def count_maps(draw, max_size=24):
    """{bitstring: count} maps; about half draw every count from 2-3 values."""
    width = draw(WIDTHS)
    size = draw(st.integers(min_value=1, max_value=min(max_size, 2 ** width)))
    codes = draw(st.lists(st.integers(min_value=0, max_value=2 ** width - 1),
                          min_size=size, max_size=size, unique=True))
    if draw(st.booleans()):
        levels = draw(st.lists(st.integers(min_value=1, max_value=50),
                               min_size=2, max_size=3, unique=True))
        counts = st.sampled_from(levels)
    else:
        counts = st.integers(min_value=1, max_value=10_000)
    return width, {format(c, f"0{width}b"): draw(counts) for c in codes}


def assert_matches_oracles(width, counts):
    d = from_counts(counts)
    out = hammer(d).output.entries
    expected = hammer_oracle(dict(counts), width)
    assert out.keys() == expected.keys()
    for k, v in expected.items():
        assert abs(out[k] - v) <= TOL
    p = normalize(d)
    # CHS entries grow with N (entry 0 is 1, the others up to N - 1), so
    # they are compared relative to their size as well.
    chs = global_chs(p).values.tolist()
    assert chs == pytest.approx(global_chs_oracle(p.entries, width), rel=TOL, abs=TOL)


@given(count_maps())
def test_hammer_and_global_chs_match_oracles(case):
    assert_matches_oracles(*case)


@pytest.mark.parametrize("budget", [1, 7, 64])
@given(case=count_maps())
def test_small_blocks_match_oracles(budget, case):
    # Blocks of one or a few rows cut the tie groups at block boundaries;
    # supports of fewer than ``budget`` pairs are binned as one square.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", budget)
        assert_matches_oracles(*case)


def test_blocks_on_both_sides_of_the_row_switch(monkeypatch):
    # At a quarter of the default budget the first 255 outcomes (65 025
    # pairs) are binned as one square and the first 256 row by row, in one
    # block; the blocks of all 700 end at columns 256, 414, 536, 638, 700.
    monkeypatch.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", 1 << 16)
    rng = random.Random(7)
    keys = set()
    while len(keys) < 700:
        keys.add(format(rng.getrandbits(16), "016b"))
    items = [(k, rng.choice([2, 3, 5])) for k in sorted(keys)]
    # The work done is the sum of rows x columns over the blocks.
    for n, pairs in ((255, 255 * 255), (256, 256 * 256), (700, 304_816)):
        counts = dict(items[:n])
        assert_matches_oracles(16, counts)
        assert hammer(from_counts(counts)).pairs_computed == pairs


@given(count_maps())
def test_second_run_is_bit_identical(case):
    width, counts = case
    first, second = hammer(from_counts(counts)), hammer(from_counts(counts))
    assert first.output.entries == second.output.entries
    assert first.chs.values.tolist() == second.chs.values.tolist()


@given(count_maps(), st.randoms(use_true_random=False))
def test_insertion_order_does_not_matter(case, rng):
    width, counts = case
    items = list(counts.items())
    rng.shuffle(items)
    assert hammer(from_counts(dict(items))).output.entries == hammer(from_counts(counts)).output.entries


@pytest.mark.parametrize("budget", [1, 7, 1 << 18])
@given(case=count_maps(max_size=64))
def test_pairs_computed_between_triangle_and_square(budget, case):
    width, counts = case
    n = len(counts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", budget)
        rep = hammer(from_counts(counts))
    assert n * (n + 1) // 2 <= rep.pairs_computed <= n * n
    assert rep.pair_evaluations_step1 == rep.pair_evaluations_step3 == n * n
    assert rep.normalization_steps == n


@st.composite
def tied_count_maps(draw):
    """(width, {bitstring: count}, budget) with 2-6 light count levels and a
    tail of distinct heavy counts.

    The light levels come first in the sorted order, in few tie groups,
    so their blocks are binned by (tie group, distance); each tail count
    is a group of its own, so the last block has more groups than half its
    columns hold and falls back to binning by column.
    """
    width = draw(st.sampled_from([*range(4, 17), 65, 130]))
    size = min(draw(st.integers(min_value=100, max_value=400)), 2 ** width)
    codes = draw(st.lists(st.integers(min_value=0, max_value=2 ** width - 1),
                          min_size=size, max_size=size, unique=True))
    levels = draw(st.lists(st.integers(min_value=1, max_value=50),
                           min_size=2, max_size=6, unique=True))
    n_tail = size // (width + 1) + 1
    n_tail = draw(st.integers(min_value=n_tail, max_value=max(n_tail, size // 4)))
    light = draw(st.lists(st.sampled_from(levels), min_size=size - n_tail, max_size=size - n_tail))
    heavy = draw(st.lists(st.integers(min_value=100, max_value=10_000),
                          min_size=n_tail, max_size=n_tail, unique=True))
    counts = {format(c, f"0{width}b"): k for c, k in zip(codes, light + heavy)}
    return width, counts, draw(st.sampled_from([1, 64, 1 << 10]))


def _multi_word_crossing():
    # One row per block: the rows of the 300 outcomes of count 1 and the 20
    # of count 2 are binned by (tie group, distance) from the 132nd row on,
    # and the rows of the ten distinct heavy counts by column.
    rng = random.Random(11)
    keys = set()
    while len(keys) < 330:
        keys.add(format(rng.getrandbits(65), "065b"))
    counts = [1] * 300 + [2] * 20 + list(range(100, 110))
    return 65, dict(zip(sorted(keys), counts)), 1


@settings(max_examples=20)
@example(_multi_word_crossing())
@given(tied_count_maps())
def test_tie_group_and_column_blocks_match_oracles(case):
    width, counts, budget = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", budget)
        assert_matches_oracles(width, counts)


def test_one_large_tie_group_across_many_blocks(monkeypatch):
    rng = random.Random(5)
    keys = {format(rng.getrandbits(20), "020b") for _ in range(300)}
    counts = {k: rng.choice([1, 1, 1, 2]) for k in keys}
    monkeypatch.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", 1000)
    assert_matches_oracles(20, counts)


class TestWeightValidation:
    """Weights that would break the probability sort are rejected up front."""

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_distribution_rejects_non_finite(self, weight):
        for kind in ("counts", "probabilities"):
            with pytest.raises(UsageError):
                Distribution(2, {"00": weight, "01": 0.5}, kind=kind)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_parsers_reject_non_finite(self, weight):
        with pytest.raises(ParseError):
            from_counts({"00": weight, "01": 1})
        with pytest.raises(ParseError):
            distribution_from_json_obj({"00": weight, "01": 0.5, "11": 0.5})

    def test_reconstruct_cli_exits_2_on_nan(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"00": NaN, "01": 0.5, "11": 0.5}')
        assert main(["reconstruct", "--input", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_numpy_integer_counts_accepted(self):
        d = from_counts({"01": np.int64(3), "10": np.uint8(2)})
        assert d.entries == {"01": 3, "10": 2}
        assert all(type(v) is int for v in d.entries.values())

    @pytest.mark.parametrize("value", [True, np.True_])
    def test_bool_counts_still_rejected(self, value):
        with pytest.raises(ParseError):
            from_counts({"01": value})


def test_cli_report_states_pairs_computed(tmp_path):
    counts = {"000": 5, "011": 3, "101": 3, "111": 9}
    src, report = tmp_path / "counts.json", tmp_path / "report.json"
    src.write_text(json.dumps(counts))
    assert main(["reconstruct", "--input", str(src), "--output", str(tmp_path / "out.json"),
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["pairs_computed"] == hammer(from_counts(counts)).pairs_computed
    assert 10 <= rep["pairs_computed"] <= 16


LANE_WIDTHS = [24, 31, 32, 33]


@st.composite
def lane_count_maps(draw):
    """{bitstring: count} maps at widths on both sides of the 32-bit lane.

    One outcome sets the first and the last column. About half are 150-220
    outcomes of two counts, whose blocks ending after column 136 hold few
    enough tie groups to be binned by (tie group, distance); the rest are
    up to 24 outcomes of distinct counts.
    """
    width = draw(st.sampled_from(LANE_WIDTHS))
    tied = draw(st.booleans())
    size = draw(st.integers(min_value=150, max_value=220) if tied
                else st.integers(min_value=1, max_value=24))
    codes = draw(st.lists(st.integers(min_value=0, max_value=2 ** width - 1),
                          min_size=size, max_size=size, unique=True))
    edges = (1 << (width - 1)) | 1
    if edges not in codes:
        codes[0] = edges
    if tied:
        levels = draw(st.lists(st.integers(min_value=1, max_value=50),
                               min_size=2, max_size=2, unique=True))
        counts = draw(st.lists(st.sampled_from(levels), min_size=size, max_size=size))
    else:
        counts = draw(st.lists(st.integers(min_value=1, max_value=10_000),
                               min_size=size, max_size=size, unique=True))
    return width, {format(c, f"0{width}b"): k for c, k in zip(codes, counts)}


@settings(max_examples=15)
@pytest.mark.parametrize("budget", [hamrec.analysis.PAIR_BLOCK_ELEMENTS, 1, 1 << 10])
@given(case=lane_count_maps())
def test_lane_boundary_widths_match_oracles(budget, case):
    # The default budget bins every drawn support as one square; the small
    # ones send it through the row blocks, by column and by tie group.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", budget)
        assert_matches_oracles(*case)


@pytest.mark.parametrize("width", LANE_WIDTHS)
def test_lane_boundary_widths_reach_both_block_paths(width, monkeypatch):
    # Under a budget of 2**10 the 200 outcomes of two counts are binned by
    # column in the blocks ending before column 136 and by (tie group,
    # distance) after it.
    rng = random.Random(width)
    codes = {(1 << (width - 1)) | 1}
    while len(codes) < 200:
        codes.add(rng.getrandbits(width))
    counts = {format(c, f"0{width}b"): rng.choice([3, 8]) for c in sorted(codes)}
    grouped_starts = []
    bin_by_tie_group = hamrec.analysis._bin_by_tie_group

    def spy(dist, start, *args):
        grouped_starts.append(start)
        return bin_by_tie_group(dist, start, *args)

    monkeypatch.setattr(hamrec.analysis, "_bin_by_tie_group", spy)
    monkeypatch.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", 1 << 10)
    assert_matches_oracles(width, counts)
    assert grouped_starts and 0 not in grouped_starts


@pytest.mark.parametrize("tied", [False, True])
def test_zero_columns_leave_the_near_bins_unchanged(tied):
    # 16 zero columns leave every code's word, and so every distance, as it
    # was, but take the codes from uint32 lanes (width 24) to uint64 ones
    # (width 40). With distinct weights both widths bin by column, in the
    # same order; tied counts may take a different path at each width.
    rng = np.random.default_rng(2000)
    values = rng.choice(2 ** 24, size=2000, replace=False)
    strings = [format(int(v), "024b") for v in values]
    weights = rng.integers(1, 4, size=2000) if tied else rng.permutation(2000) + 1.0
    probs = weights / weights.sum()
    narrow = pair_histograms(pack_outcomes(strings, 24), probs, 24)
    wide = pair_histograms(pack_outcomes([s + "0" * 16 for s in strings], 40), probs, 40)
    assert narrow.pairs_computed == wide.pairs_computed < 2000 ** 2
    assert wide.chs[:12].tolist() == pytest.approx(narrow.chs.tolist(), rel=TOL, abs=TOL)
    if tied:
        np.testing.assert_allclose(wide.lighter[:, :12], narrow.lighter, rtol=TOL, atol=TOL)
    else:
        assert np.array_equal(wide.lighter[:, :12], narrow.lighter)


@st.composite
def masked_supports(draw):
    """(width, {code: count}, mask): 1500-3000 outcomes of tied or distinct
    counts, enough for the row-block paths to run without a patched budget."""
    width = draw(st.sampled_from([24, 32, 33, 70]))
    size = draw(st.integers(min_value=1500, max_value=3000))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    codes = set()
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    if draw(st.booleans()):
        counts = [rng.choice([1, 2, 3, 5]) for _ in codes]
    else:
        counts = rng.sample(range(1, 10 * size), size)
    mask = draw(st.integers(min_value=0, max_value=2 ** width - 1))
    return width, dict(zip(sorted(codes), counts)), mask


@settings(max_examples=12)
@given(masked_supports())
def test_hammer_commutes_with_xor_masks(case):
    # XOR with a fixed mask keeps every Hamming distance, but reorders the
    # codes, and so the ties and the order of every sum.
    width, counts, mask = case
    key = f"0{width}b"
    plain = hammer(from_counts({format(c, key): k for c, k in counts.items()}))
    masked = hammer(from_counts({format(c ^ mask, key): k for c, k in counts.items()}))
    out, out_masked = plain.output.entries, masked.output.entries
    for c in counts:
        assert abs(out_masked[format(c ^ mask, key)] - out[format(c, key)]) <= TOL
    assert masked.chs.values.tolist() == pytest.approx(plain.chs.values.tolist(), rel=TOL, abs=TOL)
    for name in ("pair_evaluations_step1", "pair_evaluations_step3", "normalization_steps",
                 "pairs_computed"):
        assert getattr(masked, name) == getattr(plain, name)


def test_pass_allocates_little_beyond_lighter():
    # The pass's own buffers (the XOR scratch, the distances and one row)
    # must stay within 2 MB beside the N x 12 float64 lighter matrix.
    n = 4096
    rng = np.random.default_rng(n)
    values = rng.choice(2 ** 24, n, replace=False)
    codes = pack_outcomes([format(int(v), "024b") for v in values], 24)
    probs = (rng.permutation(n) + 1.0) / (n * (n + 1) / 2)
    pair_histograms(codes, probs, 24)  # warm caches
    tracemalloc.start()
    try:
        pair_histograms(codes, probs, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * 12 * 8 + 2e6


def _square_limit_case(width, tied, size=511):
    rng = random.Random(width * 2 + tied)
    codes = set()
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    strings = [format(c, f"0{width}b") for c in sorted(codes)]
    if tied:
        weights = np.array([rng.choice([2, 3, 7]) for _ in strings], dtype=float)
    else:
        weights = np.array(rng.sample(range(1, 100 * size), size), dtype=float)
    return pack_outcomes(strings, width), weights / weights.sum()


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("width", [10, 24, 70])
def test_largest_square_matches_the_row_blocks(width, tied, monkeypatch):
    # 511 outcomes are the largest support binned as one square; under a
    # budget of 1 the same input goes through the row blocks (and, with
    # tied counts, the tie-group path once the blocks are wide enough).
    codes, probs = _square_limit_case(width, tied)
    square = pair_histograms(codes, probs, width)
    assert square.pairs_computed == 511 * 511
    monkeypatch.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", 1)
    blocks = pair_histograms(codes, probs, width)
    assert square.chs.tolist() == pytest.approx(blocks.chs.tolist(), rel=TOL, abs=TOL)
    np.testing.assert_allclose(square.lighter, blocks.lighter, rtol=TOL, atol=TOL)


def test_multi_word_square_matches_oracles():
    rng = random.Random(70)
    codes = set()
    while len(codes) < 200:
        codes.add(rng.getrandbits(70))
    assert_matches_oracles(70, {format(c, "070b"): rng.choice([1, 2, 3, rng.randint(4, 99)])
                                for c in sorted(codes)})


@st.composite
def symmetry_supports(draw):
    """(width, {code: count}) at widths 10, 24, 33 and 70, tied or distinct
    counts: up to 511 outcomes, binned as one square, or 1500-3000 (all
    1024 codes at width 10), binned in row blocks by column or tie group."""
    width = draw(st.sampled_from([10, 24, 33, 70]))
    size = draw(st.integers(min_value=1, max_value=511) | st.integers(min_value=1500, max_value=3000))
    size = min(size, 2 ** width)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    codes = set()
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    if draw(st.booleans()):
        counts = [rng.choice([1, 2, 3, 5]) for _ in codes]
    else:
        counts = rng.sample(range(1, 10 * size), size)
    return width, dict(zip(sorted(codes), counts))


@settings(max_examples=12)
@given(symmetry_supports(), st.data())
def test_hammer_commutes_with_bit_permutations(case, data):
    # Moving bit positions keeps every Hamming distance, but reorders the
    # codes, and so the square's rows, the ties and the order of every sum.
    width, counts = case
    perm = data.draw(st.permutations(range(width)))
    strings = {format(c, f"0{width}b"): k for c, k in counts.items()}
    moved = {s: "".join(s[i] for i in perm) for s in strings}
    plain = hammer(from_counts(strings))
    permuted = hammer(from_counts({moved[s]: k for s, k in strings.items()}))
    out, out_permuted = plain.output.entries, permuted.output.entries
    for s in strings:
        assert abs(out_permuted[moved[s]] - out[s]) <= TOL
    assert permuted.chs.values.tolist() == pytest.approx(plain.chs.values.tolist(), rel=TOL, abs=TOL)
    for name in ("pair_evaluations_step1", "pair_evaluations_step3", "normalization_steps",
                 "pairs_computed"):
        assert getattr(permuted, name) == getattr(plain, name)


@settings(max_examples=12)
@given(symmetry_supports(), st.data())
def test_scaled_counts_give_bit_identical_outputs(case, data):
    # k * c and k * total are exact in float64 below 2**53, so every
    # normalized probability, and everything computed from it, is the same.
    width, counts = case
    k = data.draw(st.integers(min_value=2, max_value=(2 ** 53 - 1) // sum(counts.values())))
    strings = {format(c, f"0{width}b"): n for c, n in counts.items()}
    plain = hammer(from_counts(strings))
    scaled = hammer(from_counts({s: k * n for s, n in strings.items()}))
    assert scaled.output == plain.output
    assert scaled.chs.values.tolist() == plain.chs.values.tolist()
    assert scaled.pairs_computed == plain.pairs_computed


@st.composite
def any_width_supports(draw):
    """(width, {code: count}, mask, perm) at a width of 1-130 bits: up to
    511 outcomes of distinct counts or of 1-3 tied levels, an XOR mask and
    a permutation of the bit positions."""
    width = draw(st.integers(min_value=1, max_value=130))
    size = min(draw(st.integers(min_value=1, max_value=511)), 2 ** width)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    codes = set()
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    if draw(st.booleans()):
        levels = [1, 2, 3][:draw(st.integers(min_value=1, max_value=3))]
        counts = [rng.choice(levels) for _ in codes]
    else:
        counts = rng.sample(range(1, 10 * size), size)
    perm = list(range(width))
    rng.shuffle(perm)
    return width, dict(zip(sorted(codes), counts)), rng.getrandbits(width), perm


def _wide_tie_groups():
    # 400 outcomes of three counts at width 60: under a budget of 1 << 10
    # every block that ends at column 366 or later is binned by tie group.
    rng = random.Random(60)
    codes = set()
    while len(codes) < 400:
        codes.add(rng.getrandbits(60))
    perm = list(range(60))
    rng.shuffle(perm)
    counts = {c: rng.choice([1, 2, 3]) for c in sorted(codes)}
    return 60, counts, rng.getrandbits(60), perm


@settings(max_examples=40)
@pytest.mark.parametrize("budget", [hamrec.analysis.PAIR_BLOCK_ELEMENTS, 1 << 10])
@example(case=_wide_tie_groups())
@given(case=any_width_supports())
def test_xor_and_bit_permutations_at_any_width(budget, case):
    # Both maps keep every Hamming distance. The default budget bins every
    # support here as one square; 1 << 10 sends those of more than 32
    # outcomes through the row blocks, and wide blocks of few tie groups
    # through the tie-group path.
    width, counts, mask, perm = case
    key = f"0{width}b"
    strings = {format(c, key): k for c, k in counts.items()}
    moves = (lambda s: format(int(s, 2) ^ mask, key), lambda s: "".join(s[i] for i in perm))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", budget)
        out = hammer(from_counts(strings)).output.entries
        chs = global_chs(normalize(from_counts(strings))).values.tolist()
        for move in moves:
            moved = from_counts({move(s): k for s, k in strings.items()})
            out_moved = hammer(moved).output.entries
            for s in strings:
                assert abs(out_moved[move(s)] - out[s]) <= TOL
            moved_chs = global_chs(normalize(moved)).values.tolist()
            assert moved_chs == pytest.approx(chs, rel=TOL, abs=TOL)
