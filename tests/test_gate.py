"""Every bitstring that enters the library becomes a packed code through
``pack_outcomes``, with the same checks and messages at every entry point."""

import pytest

from hamrec import (
    CutGraph,
    Distribution,
    UsageError,
    build_spectrum,
    chs_for_outcome,
    cut_cost,
    ehd,
    global_chs,
    hamming_distance,
    ist,
    min_distance_to_set,
    neighborhood_score,
    pst,
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
