import itertools
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamrec import (
    CapabilityError,
    CutGraph,
    Distribution,
    ParseError,
    UsageError,
    c_min,
    cost_ratio,
    cut_cost,
    expected_cost,
    graph_from_json_obj,
    graph_to_json_obj,
    load_graph,
    quality_curve,
)
from oracles import c_min_oracle, cut_cost_oracle

TRIANGLE = CutGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
FOUR_CYCLE = CutGraph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)))
SINGLE_EDGE = CutGraph(2, ((0, 1, 1.0),))


def random_graph(rng: random.Random, max_vertices: int = 8) -> CutGraph:
    n = rng.randint(2, max_vertices)
    pool = list(itertools.combinations(range(n), 2))
    rng.shuffle(pool)
    m = rng.randint(1, len(pool))
    return CutGraph(n, tuple((u, v, round(rng.uniform(-2, 2), 4)) for u, v in pool[:m]))


def uniform_distribution(n: int) -> Distribution:
    return Distribution(
        n,
        {"".join(b): 1.0 / 2 ** n for b in itertools.product("01", repeat=n)},
        kind="probabilities",
    )


class TestCutGraph:
    def test_validation(self):
        with pytest.raises(UsageError):
            CutGraph(3, ((0, 3, 1.0),))  # endpoint out of range
        with pytest.raises(UsageError):
            CutGraph(3, ((1, 1, 1.0),))  # self-loop
        with pytest.raises(UsageError):
            CutGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate undirected edge
        with pytest.raises(UsageError):
            CutGraph(0, ())

    @pytest.mark.parametrize(
        "n, edges",
        [
            (2, ((0, 1, "2"),)),  # numeric string weight
            (2, ((0, 1, "x"),)),
            (2, ((0, 1, True),)),
            (2, ((0, 1, float("nan")),)),
            (2, ((0, 1, float("inf")),)),
            (2, ((0, 1, 10 ** 400),)),  # beyond float range
            (2, ((0, 1.5, 1.0),)),  # non-integer endpoint
            (2, ((False, 1, 1.0),)),
            (2, ((0, 1),)),  # no weight
            ("2", ((0, 1, 1.0),)),
            (3, ((0, 1, 1e308), (1, 2, 1e308))),  # total weight beyond float range
        ],
    )
    def test_rejects_bad_types(self, n, edges):
        with pytest.raises(UsageError):
            CutGraph(n, edges)

    def test_weights_stored_as_float(self):
        g = CutGraph(np.int64(3), ((np.int64(0), 1, 2), (1, 2, np.float32(0.5))))
        assert g == CutGraph(3, ((0, 1, 2.0), (1, 2, 0.5)))
        assert [type(w) for _, _, w in g.edges] == [float, float]
        assert cut_cost(g, "010") == -2.5


class TestCutCost:
    def test_single_edge(self):
        assert cut_cost(SINGLE_EDGE, "01") == -1.0
        assert cut_cost(SINGLE_EDGE, "00") == 1.0

    def test_triangle(self):
        assert cut_cost(TRIANGLE, "011") == -1.0
        assert cut_cost(TRIANGLE, "000") == 3.0

    def test_width_checked(self):
        with pytest.raises(UsageError):
            cut_cost(TRIANGLE, "01")
        with pytest.raises(UsageError):
            cut_cost(TRIANGLE, "012")

    @given(st.integers(min_value=0, max_value=4000))
    def test_oracle_and_spin_flip_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        x = "".join(rng.choice("01") for _ in range(g.n_vertices))
        xc = "".join("1" if c == "0" else "0" for c in x)
        assert cut_cost(g, x) == pytest.approx(
            cut_cost_oracle(g.n_vertices, list(g.edges), x), abs=1e-12
        )
        assert cut_cost(g, x) == pytest.approx(cut_cost(g, xc), abs=1e-12)


class TestCmin:
    def test_anchors(self):
        assert c_min(SINGLE_EDGE) == -1.0
        assert c_min(TRIANGLE) == -1.0
        assert c_min(FOUR_CYCLE) == -4.0

    def test_edgeless_graph(self):
        assert c_min(CutGraph(3, ())) == 0.0

    def test_limit_raises_capability_error(self, monkeypatch):
        big = CutGraph(27, ((0, 1, 1.0),))
        with pytest.raises(CapabilityError, match="--cmin"):
            c_min(big)
        monkeypatch.setattr("hamrec.qaoa_cost.BRUTE_FORCE_LIMIT", 2)
        with pytest.raises(CapabilityError, match="limited to 2 vertices"):
            c_min(TRIANGLE)
        monkeypatch.setattr("hamrec.qaoa_cost.BRUTE_FORCE_LIMIT", 3)
        assert c_min(TRIANGLE) == -1.0  # a graph at the limit is still searched

    @given(st.integers(min_value=0, max_value=2000))
    def test_matches_exhaustive_oracle(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        assert c_min(g) == pytest.approx(c_min_oracle(g.n_vertices, list(g.edges)), abs=1e-12)


class TestExpectedCost:
    def test_delta_on_optimal(self):
        d = Distribution(3, {"011": 1.0}, kind="probabilities")
        assert expected_cost(TRIANGLE, d) == c_min(TRIANGLE)

    def test_uniform_is_zero(self):
        for g in (TRIANGLE, FOUR_CYCLE):
            assert expected_cost(g, uniform_distribution(g.n_vertices)) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_two_point_average(self):
        d = Distribution(2, {"01": 0.5, "00": 0.5}, kind="probabilities")
        assert expected_cost(SINGLE_EDGE, d) == 0.0

    def test_width_mismatch(self):
        with pytest.raises(UsageError):
            expected_cost(TRIANGLE, Distribution(2, {"01": 1.0}, kind="probabilities"))

    @given(st.integers(min_value=0, max_value=2000))
    def test_bounded_by_total_weight(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        keys = set()
        while len(keys) < min(6, 2 ** g.n_vertices):
            keys.add("".join(rng.choice("01") for _ in range(g.n_vertices)))
        raw = {k: rng.uniform(0.1, 1.0) for k in keys}
        total = sum(raw.values())
        d = Distribution(
            g.n_vertices, {k: v / total for k, v in raw.items()}, kind="probabilities"
        )
        bound = g.total_weight
        assert -bound - 1e-9 <= expected_cost(g, d) <= bound + 1e-9


class TestCostRatio:
    def test_delta_on_optimal_is_one(self):
        d = Distribution(3, {"011": 1.0}, kind="probabilities")
        assert cost_ratio(TRIANGLE, d) == 1.0

    def test_uniform_is_zero(self):
        assert cost_ratio(TRIANGLE, uniform_distribution(3)) == pytest.approx(0.0, abs=1e-12)
        zero = Distribution(4, {"0011": 1.0}, kind="probabilities")  # cut cost 0
        ((ratio, _),) = quality_curve(FOUR_CYCLE, zero).points
        for value in (ratio, cost_ratio(FOUR_CYCLE, zero)):
            assert value == 0.0 and math.copysign(1.0, value) == 1.0  # +0.0, never -0.0

    def test_anti_optimal_is_negative(self):
        d = Distribution(3, {"000": 1.0}, kind="probabilities")
        assert cost_ratio(TRIANGLE, d) == pytest.approx(-3.0)

    def test_override_skips_brute_force(self):
        big_edges = tuple((i, i + 1, 1.0) for i in range(29))
        big = CutGraph(30, big_edges)
        d = Distribution(30, {"01" * 15: 1.0}, kind="probabilities")
        assert cost_ratio(big, d, c_min_override=-29.0) == 1.0

    def test_zero_cmin_rejected(self):
        d = Distribution(3, {"011": 1.0}, kind="probabilities")
        with pytest.raises(UsageError):
            cost_ratio(CutGraph(3, ()), d)

    @given(st.integers(min_value=0, max_value=2000))
    def test_never_exceeds_one(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        if c_min(g) == 0.0:
            return
        keys = set()
        while len(keys) < min(5, 2 ** g.n_vertices):
            keys.add("".join(rng.choice("01") for _ in range(g.n_vertices)))
        raw = {k: rng.uniform(0.1, 1.0) for k in keys}
        total = sum(raw.values())
        d = Distribution(
            g.n_vertices, {k: v / total for k, v in raw.items()}, kind="probabilities"
        )
        assert cost_ratio(g, d) <= 1.0 + 1e-12


class TestQualityCurve:
    def test_delta_on_optimal(self):
        d = Distribution(3, {"011": 1.0}, kind="probabilities")
        assert quality_curve(TRIANGLE, d).points == ((1.0, 1.0),)

    def test_two_ratio_example(self):
        g = CutGraph(3, ((0, 1, 0.75), (0, 2, 0.25)))
        d = Distribution(3, {"011": 0.3, "010": 0.7}, kind="probabilities")
        assert c_min(g) == -1.0
        assert quality_curve(g, d).points == ((1.0, 0.3), (0.5, 1.0))

    def test_uniform_on_single_edge(self):
        assert quality_curve(SINGLE_EDGE, uniform_distribution(2)).points == (
            (1.0, 0.5),
            (-1.0, 1.0),
        )

    def test_csv_export(self):
        d = Distribution(2, {"01": 0.5, "00": 0.5}, kind="probabilities")
        text = quality_curve(SINGLE_EDGE, d).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "ratio,cumulative_probability"
        assert len(lines) == 3

    @given(st.integers(min_value=0, max_value=2000))
    def test_monotone_and_terminates_at_one(self, seed):
        rng = random.Random(seed)
        g = random_graph(rng)
        if c_min(g) == 0.0:
            return
        keys = set()
        while len(keys) < min(8, 2 ** g.n_vertices):
            keys.add("".join(rng.choice("01") for _ in range(g.n_vertices)))
        raw = {k: rng.uniform(0.1, 1.0) for k in keys}
        total = sum(raw.values())
        d = Distribution(
            g.n_vertices, {k: v / total for k, v in raw.items()}, kind="probabilities"
        )
        curve = quality_curve(g, d)
        ratios = [r for r, _ in curve.points]
        cums = [c for _, c in curve.points]
        assert ratios == sorted(ratios, reverse=True)
        assert all(a <= b + 1e-15 for a, b in zip(cums, cums[1:]))
        assert cums[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("key", ["01101", "01"])
    def test_width_mismatch(self, key, monkeypatch):
        def no_brute_force(g):
            raise AssertionError("c_min ran before the width check")

        monkeypatch.setattr("hamrec.qaoa_cost.c_min", no_brute_force)
        d = Distribution(len(key), {key: 1.0}, kind="probabilities")
        for measure in (quality_curve, cost_ratio):
            with pytest.raises(UsageError, match="width mismatch"):
                measure(TRIANGLE, d)


class TestGraphJson:
    def test_weight_defaults_to_one(self):
        g = graph_from_json_obj({"n": 3, "edges": [[0, 1], [1, 2, 0.5]]})
        assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))

    def test_roundtrip(self):
        obj = graph_to_json_obj(TRIANGLE)
        assert graph_from_json_obj(obj) == TRIANGLE

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {"edges": []},
            {"n": "3", "edges": []},
            {"n": 3, "edges": [[0]]},
            {"n": 3, "edges": [[0, 1, 2, 3]]},
            {"n": 3, "edges": [[0.5, 1]]},
            {"n": 3, "edges": [[0, 1, "w"]]},
            {"n": 3, "edges": [[0, 5]]},
            {"n": 3, "edges": [[0, 1], [1, 0]]},
            {"n": 3, "edges": [[0, 1, "2"]]},
            {"n": 3, "edges": [[0, 1, True]]},
            json.loads('{"n": 3, "edges": [[0, 1, NaN]]}'),
            json.loads('{"n": 3, "edges": [[0, 1, -Infinity]]}'),
            {"n": 3, "edges": 5},
            {"n": 3, "edges": [[0, 1, 1e308], [1, 2, 1e308]]},
            {"n": 3, "edges": [[3, 0]]},
        ],
    )
    def test_rejects_malformed(self, obj):
        with pytest.raises(ParseError):
            graph_from_json_obj(obj)

    def test_load_graph_reports_path(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text("{bad")
        with pytest.raises(ParseError, match="g.json"):
            load_graph(path)
        path.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        assert load_graph(path) == CutGraph(2, ((0, 1, 1.0),))


class TestRatioOverflow:
    def test_tiny_cmin_is_a_usage_error_not_a_warning(self):
        # Both outcomes cost +2, and 2 / cmin is beyond float64.
        g = CutGraph(13, ((0, 1, 1.0), (0, 2, 1.0)))
        d = Distribution(13, {"0" * 13: 0.5, "0" * 12 + "1": 0.5}, kind="probabilities")
        cmin = 1.1125369292536007e-308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UsageError, match="overflows"):
                quality_curve(g, d, c_min_override=cmin)
            with pytest.raises(UsageError, match="overflows"):
                cost_ratio(g, d, c_min_override=cmin)
            assert cost_ratio(g, d, c_min_override=-4.0) == -0.5

    def test_cost_ratio_checks_only_the_expected_ratio(self):
        # Costs +2 and -2 average to 0: 0 / cmin is finite, while 2 / cmin is not.
        g = CutGraph(3, ((0, 1, 1.0), (0, 2, 1.0)))
        d = Distribution(3, {"000": 0.5, "011": 0.5}, kind="probabilities")
        assert cost_ratio(g, d, c_min_override=1e-308) == 0.0
        with pytest.raises(UsageError, match="overflows"):
            quality_curve(g, d, c_min_override=1e-308)
