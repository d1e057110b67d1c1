"""Every bitstring and every number that enters the library passes one
gate, with the same checks and messages at every entry point.

* A bitstring becomes a packed code through ``pack_outcomes``.
* An integer parameter goes through ``core._checked_integer``: an integer
  of any integer type, not ``bool``, at least the parameter's minimum, or
  "<name> must be an integer >= <minimum>, got <value>".
* A real parameter is a real number of any real type, not ``bool`` or
  ``str``, made a float by ``core._as_float``: an integer beyond float
  range is the infinity of its sign, which the parameter's own range check
  then rejects or keeps.
"""

import math

import numpy as np
import pytest

from hamrec import (
    ChsVector,
    CutGraph,
    Distribution,
    NoiseModel,
    UsageError,
    WeightVector,
    build_spectrum,
    bv10_profile,
    chs_for_outcome,
    chs_length,
    cost_ratio,
    cut_cost,
    ehd,
    global_chs,
    hamming_distance,
    ideal_bv,
    ist,
    max_neighbor_distance,
    min_distance_to_set,
    neighborhood_score,
    pst,
    qaoa_report,
    quality_curve,
    sample_noisy,
    uniform_ehd_closed_form,
    weights_from_chs,
)
from hamrec.core import pack_outcomes

D = Distribution(4, {"0110": 0.75, "0111": 0.25}, kind="probabilities")


def test_pack_outcomes_checks_every_width():
    with pytest.raises(UsageError, match="outcome '0' has width 1, expected 2"):
        pack_outcomes(["0", "011"], 2)


def test_names_the_first_bad_string_in_order():
    with pytest.raises(UsageError, match="outcome '1x' contains non-binary"):
        pack_outcomes(["01", "1x", "2"], 2)


def test_unhashable_reference_items_are_usage_errors():
    with pytest.raises(UsageError):
        pst(D, [["0110"]])
    with pytest.raises(UsageError):
        min_distance_to_set("01", [["01"]])


def test_reference_sets_are_deduplicated_as_codes():
    spectrum = build_spectrum(D, ["0111", "0110", "0111"])
    assert spectrum.reference == ("0110", "0111")
    assert pst(D, ["0111", "0111"]) == 0.25


@pytest.mark.parametrize("bad, message", [
    ("0120", "outcome '0120' contains non-binary characters"),
    ("01101", "outcome '01101' has width 5, expected 4"),
    (5, "outcome must be a non-empty bitstring, got 5"),
    (b"0110", "outcome must be a non-empty bitstring, got b'0110'"),
], ids=["non-binary", "wrong-width", "int", "bytes"])
def test_every_entry_point_rejects_alike(bad, message):
    graph = CutGraph(4, ((0, 1, 1.0),))
    weights = weights_from_chs(global_chs(D))
    calls = {
        "hamming_distance": lambda: hamming_distance("0110", bad),
        "min_distance_to_set": lambda: min_distance_to_set("0110", [bad]),
        "cut_cost": lambda: cut_cost(graph, bad),
        "chs_for_outcome": lambda: chs_for_outcome(D, bad),
        "neighborhood_score": lambda: neighborhood_score(D, bad, weights),
        "build_spectrum": lambda: build_spectrum(D, [bad]),
        "ehd": lambda: ehd(D, [bad]),
        "pst": lambda: pst(D, [bad]),
        "ist": lambda: ist(D, [bad]),
    }
    for name, call in calls.items():
        with pytest.raises(UsageError) as exc:
            call()
        assert str(exc.value) == message, name
    assert D.probability(bad) == 0.0


# Integer parameters: name -> (a call with the value, the name in the
# message, the minimum).
INTEGERS = {
    "Distribution width": (lambda v: Distribution(v, {"0": 1}), "width", 1),
    "ChsVector width": (lambda v: ChsVector(v, np.ones(1)), "CHS vector width", 1),
    "WeightVector width": (lambda v: WeightVector(v, np.ones(1)), "weight vector width", 1),
    "pair_evaluations": (lambda v: ChsVector(1, np.ones(1), pair_evaluations=v),
                         "pair_evaluations", 0),
    "NoiseModel seed": (lambda v: NoiseModel(seed=v), "seed", 0),
    "sample_noisy trials": (lambda v: sample_noisy(ideal_bv("01"), NoiseModel(), v), "trials", 1),
    "bv10_profile seed": (bv10_profile, "seed", 0),
    "CutGraph vertex count": (lambda v: CutGraph(v, ()), "vertex count", 1),
    "chs_length width": (chs_length, "width", 1),
    "max_neighbor_distance width": (max_neighbor_distance, "width", 1),
    "uniform_ehd_closed_form width": (uniform_ehd_closed_form, "width", 1),
}
NOT_INTEGERS = {"bool": True, "float": 1.5, "numeric-str": "3", "str": "x"}


@pytest.mark.parametrize("bad", [*NOT_INTEGERS.values(), "below"],
                         ids=[*NOT_INTEGERS, "below-minimum"])
@pytest.mark.parametrize("name", INTEGERS)
def test_integer_parameters_share_one_rule(name, bad):
    call, what, minimum = INTEGERS[name]
    bad = minimum - 1 if bad == "below" else bad
    with pytest.raises(UsageError) as exc:
        call(bad)
    assert str(exc.value) == f"{what} must be an integer >= {minimum}, got {bad!r}"


@pytest.mark.parametrize("name", INTEGERS)
def test_integer_parameters_accept_their_minimum_as_a_numpy_integer(name):
    call, _, minimum = INTEGERS[name]
    call(np.int64(minimum))


G = CutGraph(2, ((0, 1, 1.0),))
D2 = Distribution(2, {"01": 3, "11": 1})
# Real parameters: name -> (a call with the value, whether a huge value is kept as inf).
REALS = {
    "cost_ratio c_min_override": (lambda v: cost_ratio(G, D2, c_min_override=v), False),
    "quality_curve c_min_override": (lambda v: quality_curve(G, D2, c_min_override=v), False),
    "qaoa_report c_min_override": (lambda v: qaoa_report(G, D2, c_min_override=v), False),
    "ChsVector entry": (lambda v: ChsVector(4, [v, 0.5]).values, True),
    "WeightVector entry": (lambda v: WeightVector(4, [v, 0.5]).values, True),
    "CutGraph weight": (lambda v: CutGraph(2, ((0, 1, v),)), False),
}
NOT_REALS = {"bool": True, "numeric-str": "1", "str": "abc", "complex": 1 + 2j}


@pytest.mark.parametrize("bad", NOT_REALS.values(), ids=NOT_REALS)
@pytest.mark.parametrize("name", REALS)
def test_real_parameters_reject_other_types(name, bad):
    with pytest.raises(UsageError):
        REALS[name][0](bad)


@pytest.mark.parametrize("name", REALS)
def test_an_integer_beyond_float_range_is_infinite(name):
    call, keeps_inf = REALS[name]
    if keeps_inf:
        assert call(10**400).tolist() == [math.inf, 0.5]
    else:
        with pytest.raises(UsageError):
            call(10**400)
    with pytest.raises(UsageError):  # -inf: negative or not finite, never +inf
        call(-(10**400))


@pytest.mark.parametrize("name", REALS)
def test_real_parameters_accept_numpy_reals(name):
    for value in (np.float32(2.0), np.int64(2)):
        REALS[name][0](value)
