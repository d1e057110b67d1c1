"""Properties of the shared pair pass behind ``hammer`` and ``global_chs``.

The pass sorts outcomes by probability and bins the pairs in one of three
ways: a support of fewer than ``PAIR_BLOCK_ELEMENTS`` pairs as one square,
a larger one in row blocks of the lower triangle, each block by column or
by (tie group, distance). The properties and the boundary cases take
their inputs from one builder, :func:`make_support`, which one strategy,
:func:`supports`, draws from, together with the budget that picks the
path. Two properties cover what the pass
computes: it matches the brute-force oracles, and it commutes with XOR
masks and bit permutations, which keep every Hamming distance but reorder
the codes, the ties and every sum. Each property runs over the whole
generator and again over the slices of it that hold the hard cases:
small budgets, the lane widths, tie groups with a heavy tail, and pinned
budgets for the equivariance. The deterministic tests pin the boundaries
between the paths, and the distance types and memory at widths of 193 to
65536 bits.
"""

import contextlib
import json
import random
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hamrec.analysis
from hamrec import (
    Distribution,
    NoiseModel,
    ParseError,
    UsageError,
    from_counts,
    global_chs,
    hamming_distance,
    hammer,
    ideal_bv,
    normalize,
    sample_noisy,
)
from hamrec.cli import main
from hamrec.analysis import pair_histograms
from hamrec.core import distribution_from_json_obj, pack_outcomes
from oracles import global_chs_oracle, hammer_oracle

TOL = 1e-12
DEFAULT_BUDGET = hamrec.analysis.PAIR_BLOCK_ELEMENTS
COUNTERS = ("pair_evaluations_step1", "pair_evaluations_step3", "normalization_steps",
            "pairs_computed")
LANE_WIDTHS = [24, 31, 32, 33]
WIDTHS = (st.integers(min_value=1, max_value=12)
          | st.sampled_from([*LANE_WIDTHS, 60, 63, 64, 65, 70, 130]))
SHAPES = ["distinct", "tied", "tail", "probabilities"]


class Support(NamedTuple):
    width: int
    entries: dict
    kind: str
    budget: int


def make_support(width, size, shape="distinct", levels=2, seed=0, budget=DEFAULT_BUDGET):
    """``size`` distinct ``width``-bit outcomes (all of them when 2**width
    is fewer), one of which sets the first and the last column.

    Their weights take one of four shapes: ``distinct`` counts; counts of
    ``levels`` ``tied`` values; a ``tail``, ``levels`` light tied counts
    and enough distinct heavy ones that the last block is binned by
    column; or normalized float ``probabilities``.
    """
    rng = random.Random(seed)
    size = min(size, 2 ** width)
    codes = {(1 << (width - 1)) | 1}
    while len(codes) < size:
        codes.add(rng.getrandbits(width))
    keys = [format(c, f"0{width}b") for c in sorted(codes)]
    if shape == "probabilities":
        raw = [rng.uniform(0.01, 5.0) for _ in keys]
        probs = {k: v / sum(raw) for k, v in zip(keys, raw)}
        return Support(width, probs, "probabilities", budget)
    if shape == "distinct":
        counts = rng.sample(range(1, 10 * size), size)
    else:
        light = rng.sample(range(1, 51), levels)
        heavy = size // (width + 1) + 1 if shape == "tail" else 0
        counts = [rng.choice(light) for _ in range(size - heavy)]
        counts += rng.sample(range(100, 10_000), heavy)
        rng.shuffle(counts)
    return Support(width, dict(zip(keys, counts)), "counts", budget)


@st.composite
def supports(draw, large=False, widths=WIDTHS, shapes=SHAPES):
    """A :class:`Support` at a width of 1-12 bits or at a lane or word edge
    (or one drawn from ``widths``), of a weight shape from ``shapes``.

    Sizes are up to 511 outcomes, the most the default budget bins as one
    square, spread evenly over their powers of two so that the oracles
    stay affordable; ``large`` adds 1500-3000, which the default budget
    sends through the row blocks. The small budgets 1, 7, 64 and 2**10
    send every support, or those of more than 2, 7 or 31 outcomes, through
    the row blocks, and wide blocks of few tie groups through the
    tie-group path.
    """
    width = draw(widths)
    shape = draw(st.sampled_from(shapes))
    levels = draw(st.integers(min_value=2, max_value=6) if shape == "tail"
                  else st.integers(min_value=1, max_value=3))
    octave = draw(st.integers(min_value=0, max_value=8))
    sizes = st.integers(min_value=2 ** octave, max_value=2 ** (octave + 1) - 1)
    if large:
        sizes |= st.integers(min_value=1500, max_value=3000)
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    budget = draw(st.sampled_from([DEFAULT_BUDGET, 1, 7, 64, 1 << 10]))
    return make_support(width, draw(sizes), shape, levels, seed, budget)


@contextlib.contextmanager
def block_budget(case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", case.budget)
        yield


def run_hammer(case, entries=None):
    """``hammer`` on ``entries`` (the case's own by default) under the case's budget."""
    with block_budget(case):
        return hammer(Distribution(case.width, case.entries if entries is None else entries,
                                   case.kind))


def assert_matches_oracles(case):
    d = Distribution(case.width, case.entries, case.kind)
    p = normalize(d)
    with block_budget(case):
        out = hammer(d).output.entries
        chs = global_chs(p).values.tolist()
    expected = hammer_oracle(case.entries, case.width)
    assert out.keys() == expected.keys()
    for k, v in expected.items():
        assert abs(out[k] - v) <= TOL
    # CHS entries grow with N (entry 0 is 1, the others up to N - 1), so
    # they are compared relative to their size as well.
    assert chs == pytest.approx(global_chs_oracle(p.entries, case.width), rel=TOL, abs=TOL)


@settings(max_examples=60)
@given(supports())
def test_hammer_and_global_chs_match_oracles(case):
    assert_matches_oracles(case)


@settings(max_examples=15)
@pytest.mark.parametrize("budget", [1, 7, 64])
@given(case=supports())
def test_small_blocks_match_oracles(budget, case):
    # Blocks of one or a few rows cut the tie groups at block boundaries;
    # supports of fewer than ``budget`` pairs are binned as one square.
    assert_matches_oracles(case._replace(budget=budget))


@settings(max_examples=20)
@given(supports(shapes=["tail"]))
def test_tie_group_and_column_blocks_match_oracles(case):
    # The light levels come first in the sorted order, in few tie groups,
    # so their blocks are binned by (tie group, distance); each tail count
    # is a group of its own, so the last block has more groups than half
    # its columns hold and falls back to binning by column.
    assert_matches_oracles(case)


@settings(max_examples=15)
@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 1, 1 << 10])
@given(case=supports(widths=st.sampled_from(LANE_WIDTHS)))
def test_lane_boundary_widths_match_oracles(budget, case):
    # The default budget bins every drawn support as one square; the small
    # ones send it through the row blocks, by column and by tie group.
    assert_matches_oracles(case._replace(budget=budget))


def test_multi_word_square_matches_oracles():
    # Two uint64 words a code; the default budget bins the 200 outcomes as one square.
    assert_matches_oracles(make_support(70, 200, "tied", levels=3, seed=70))


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 1])
@pytest.mark.parametrize("width", [193, 255, 256, 257, 1024])
def test_wide_lanes_match_oracles(width, budget):
    # Widths of 256 bits and more need distances wider than uint8: under the
    # default budget the square path holds them, under a budget of 1 the row
    # blocks' buffer. The complement of the first outcome puts one pair at
    # the full distance, the width.
    case = make_support(width, 40, "tied", levels=3, seed=width, budget=budget)
    first = next(iter(case.entries))
    complement = first.translate(str.maketrans("01", "10"))
    assert_matches_oracles(case._replace(entries={**case.entries, complement: 7}))


def test_distances_beyond_uint16():
    zeros, ones = "0" * 65536, "1" * 65536
    assert hamming_distance(zeros, ones) == 65536
    chs = global_chs(Distribution(65536, {zeros: 1, ones: 1})).values
    assert chs[0] == 1.0 and not chs[1:].any()


def test_lighter_keeps_only_the_reachable_distances():
    # Every outcome lies within r of the lightest one, so no pair is
    # farther apart than 2r and lighter needs no more columns than 2r + 1.
    width, r = 1024, 5
    rng = np.random.default_rng(width)
    center = rng.integers(0, 2, width)
    entries = {"".join(map(str, center)): 1}
    while len(entries) < 600:
        bits = center.copy()
        bits[rng.choice(width, rng.integers(1, r + 1), replace=False)] ^= 1
        entries["".join(map(str, bits))] = int(rng.integers(2, 50))
    p = normalize(Distribution(width, entries))
    pairs = pair_histograms(p.codes, p.weights, width)
    assert pairs.lighter.shape == (600, 2 * r + 1)
    assert pairs.chs.shape == (width // 2,) and not pairs.chs[2 * r + 1:].any()


def test_wide_hammer_allocates_little():
    # At 1024 bits lighter holds only the columns a pair can reach, not
    # ceil(1024 / 2) = 512 of them.
    key = "".join(np.random.default_rng(1024).choice(["0", "1"], 1024))
    d = sample_noisy(ideal_bv(key), NoiseModel(1 / 1024, (), 1), 4096)
    assert len(d) == 1911
    tracemalloc.start()
    try:
        hammer(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6


MASKS = st.just(-1) | st.integers(min_value=0, max_value=2 ** 130 - 1)
PERMUTATIONS = st.permutations(range(130))


def xor_move(width, mask):
    # The mask is cut to the width, so -1 is the all-ones complement.
    key = f"0{width}b"
    mask &= (1 << width) - 1
    return lambda s: format(int(s, 2) ^ mask, key)


def permutation_move(width, perm):
    # The positions of a permutation of 130 that are below the width are a
    # permutation of the width's.
    perm = [i for i in perm if i < width]
    return lambda s: "".join(s[i] for i in perm)


def assert_commutes(case, *moves):
    """Each move maps ``hammer``'s output onto that of the moved input and
    leaves the CHS and the four counters as they were."""
    plain = run_hammer(case)
    out = plain.output.entries
    for move in moves:
        moved = run_hammer(case, {move(s): w for s, w in case.entries.items()})
        out_moved = moved.output.entries
        for s, v in out.items():
            assert abs(out_moved[move(s)] - v) <= TOL
        assert moved.chs.values.tolist() == pytest.approx(plain.chs.values.tolist(),
                                                          rel=TOL, abs=TOL)
        for name in COUNTERS:
            assert getattr(moved, name) == getattr(plain, name)


@settings(max_examples=15)
@example(case=make_support(33, 2000, "tied", seed=33), mask=-1)
@given(case=supports(large=True), mask=MASKS)
def test_hammer_commutes_with_xor_masks(case, mask):
    assert_commutes(case, xor_move(case.width, mask))


@settings(max_examples=15)
@given(case=supports(large=True), perm=PERMUTATIONS)
def test_hammer_commutes_with_bit_permutations(case, perm):
    assert_commutes(case, permutation_move(case.width, perm))


@settings(max_examples=12)
@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 1 << 10])
@example(case=make_support(60, 400, "tied", levels=3, seed=60), mask=-1,
         perm=list(range(129, -1, -1)))
@given(case=supports(), mask=MASKS, perm=PERMUTATIONS)
def test_xor_and_bit_permutations_at_any_width(budget, case, mask, perm):
    # The default budget bins every support here as one square; 1 << 10
    # sends those of more than 32 outcomes through the row blocks. The
    # example's 400 outcomes of three counts at 60 bits are then binned by
    # tie group in every block that ends at column 366 or later.
    assert_commutes(case._replace(budget=budget), xor_move(case.width, mask),
                    permutation_move(case.width, perm))


def test_blocks_on_both_sides_of_the_row_switch():
    # At a quarter of the default budget 255 outcomes (65 025 pairs) are
    # binned as one square and 256 row by row, in one block; the blocks of
    # 700 end at columns 256, 414, 536, 638, 700. The work done is the sum
    # of rows x columns over the blocks.
    for n, pairs in ((255, 255 * 255), (256, 256 * 256), (700, 304_816)):
        case = make_support(16, n, "tied", levels=3, seed=7, budget=1 << 16)
        assert_matches_oracles(case)
        assert run_hammer(case).pairs_computed == pairs


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("width", [10, 24, 70])
def test_largest_square_matches_the_row_blocks(width, tied, monkeypatch):
    # 511 outcomes are the largest support binned as one square; under a
    # budget of 1 the same input goes through the row blocks (and, with
    # tied counts, the tie-group path once the blocks are wide enough).
    case = make_support(width, 511, "tied" if tied else "distinct", levels=3, seed=width)
    p = normalize(Distribution(width, case.entries))
    square = pair_histograms(p.codes, p.weights, width)
    assert square.pairs_computed == 511 * 511
    monkeypatch.setattr(hamrec.analysis, "PAIR_BLOCK_ELEMENTS", 1)
    blocks = pair_histograms(p.codes, p.weights, width)
    assert square.chs.tolist() == pytest.approx(blocks.chs.tolist(), rel=TOL, abs=TOL)
    np.testing.assert_allclose(square.lighter, blocks.lighter, rtol=TOL, atol=TOL)


@pytest.mark.parametrize("case", [
    *(make_support(width, 200, "tied", seed=width, budget=1 << 10) for width in (24, 31, 32, 33)),
    make_support(65, 330, "tail", seed=11, budget=1),
], ids=["24", "31", "32", "33", "65-crossing"])
def test_lane_boundary_widths_reach_both_block_paths(case, monkeypatch):
    # A block is binned by tie group when its columns hold few groups:
    # groups * (width + 1) <= columns // 2. So the first, narrow blocks go
    # by column, and the path switches as the blocks widen and the heavier
    # group begins: column, tie group, column, tie group for the 200
    # outcomes of two counts under a budget of 2**10, and for the 324
    # light outcomes of two counts at 65 bits under a budget of 1 (one row
    # per block), whose six distinct heavy counts then go by column.
    grouped_starts = []
    bin_by_tie_group = hamrec.analysis._bin_by_tie_group

    def spy(dist, start, *args):
        grouped_starts.append(start)
        return bin_by_tie_group(dist, start, *args)

    monkeypatch.setattr(hamrec.analysis, "_bin_by_tie_group", spy)
    assert_matches_oracles(case)
    assert grouped_starts and 0 not in grouped_starts


def test_one_large_tie_group_across_many_blocks():
    assert_matches_oracles(make_support(20, 300, "tied", seed=5, budget=1000))


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


@given(supports())
def test_second_run_is_bit_identical(case):
    first, second = run_hammer(case), run_hammer(case)
    assert first.output.entries == second.output.entries
    assert first.chs.values.tolist() == second.chs.values.tolist()


@given(supports(), st.randoms(use_true_random=False))
def test_insertion_order_does_not_matter(case, rng):
    items = list(case.entries.items())
    rng.shuffle(items)
    assert run_hammer(case, dict(items)).output.entries == run_hammer(case).output.entries


@pytest.mark.parametrize("budget", [1, 7, 1 << 18])
@given(case=supports())
def test_pairs_computed_between_triangle_and_square(budget, case):
    n = len(case.entries)
    rep = run_hammer(case._replace(budget=budget))
    assert n * (n + 1) // 2 <= rep.pairs_computed <= n * n
    assert rep.pair_evaluations_step1 == rep.pair_evaluations_step3 == n * n
    assert rep.normalization_steps == n


@settings(max_examples=12)
@given(supports(large=True).filter(lambda case: case.kind == "counts"), st.data())
def test_scaled_counts_give_bit_identical_outputs(case, data):
    # k * c and k * total are exact in float64 below 2**53, so every
    # normalized probability, and everything computed from it, is the same.
    k = data.draw(st.integers(min_value=2, max_value=(2 ** 53 - 1) // sum(case.entries.values())))
    plain = run_hammer(case)
    scaled = run_hammer(case, {s: k * n for s, n in case.entries.items()})
    assert scaled.output == plain.output
    assert scaled.chs.values.tolist() == plain.chs.values.tolist()
    assert scaled.pairs_computed == plain.pairs_computed


def test_cli_report_states_pairs_computed(tmp_path):
    counts = {"000": 5, "011": 3, "101": 3, "111": 9}
    src, report = tmp_path / "counts.json", tmp_path / "report.json"
    src.write_text(json.dumps(counts))
    assert main(["reconstruct", "--input", str(src), "--output", str(tmp_path / "out.json"),
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["pairs_computed"] == hammer(from_counts(counts)).pairs_computed
    assert 10 <= rep["pairs_computed"] <= 16


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

