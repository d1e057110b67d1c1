"""Properties of the shared pair pass behind ``hammer`` and ``global_chs``.

The pass sorts outcomes by probability and computes only the lower
triangle of the pair matrix in row blocks, so the cases that matter are
tie groups (including ones cut by block boundaries), multi-word widths,
and the order in which entries were inserted.
"""

import json
import random

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
from hamrec.core import distribution_from_json_obj
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
