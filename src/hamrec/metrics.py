"""Figures of merit against a known correct set or reference distribution.

* PST: total probability landing on correct outcomes.
* IST: best correct probability over best incorrect probability; above 1
  the answer is recoverable by argmax. Infinite when nothing incorrect
  was observed (serialized as null plus an ``ist_infinite`` flag).
* TVD: half the L1 distance between two distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Distribution,
    UsageError,
    as_probabilities,
    min_distances_to_set,
    reference_codes,
)


@dataclass(frozen=True)
class MeritReport:
    pst: float
    ist: float
    tvd: float | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "pst": self.pst,
            "ist": None if math.isinf(self.ist) else self.ist,
            "ist_infinite": math.isinf(self.ist),
        }
        if self.tvd is not None:
            obj["tvd"] = self.tvd
        return obj


def pst(d: Distribution, correct) -> float:
    """Probability of a successful trial: correct mass after normalization."""
    correct = _is_correct(d, correct)
    # Summed one by one in ascending key order.
    return float(sum(as_probabilities(d).weights[correct].tolist()))


def ist(d: Distribution, correct) -> float:
    """Inference strength: best correct probability over best incorrect.

    With several correct outcomes the strongest one is compared against the
    strongest erroneous outcome. Returns inf when every observed outcome is
    correct, 0.0 when no correct outcome was observed.
    """
    if len(d) == 0:
        raise UsageError("ist of an empty distribution is undefined")
    correct = _is_correct(d, correct)
    d = as_probabilities(d)
    best_correct = float(d.weights[correct].max(initial=0.0))
    best_incorrect = float(d.weights[~correct].max(initial=0.0))
    if best_incorrect == 0.0:
        return math.inf
    return best_correct / best_incorrect


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variational distance over the union of supports; counts, as
    either argument, are normalized first."""
    if p.width != q.width:
        raise UsageError(f"width mismatch: {p.width} vs {q.width}")
    p, q = as_probabilities(p), as_probabilities(q)
    # Each outcome's slot in the union of the two supports.
    union, slot = np.unique(np.concatenate([p.codes, q.codes]), axis=0, return_inverse=True)
    diff = np.zeros(len(union))
    diff[slot[:len(p)]] = p.weights
    diff[slot[len(p):]] -= q.weights
    # fsum is correctly rounded, so the result is independent of order and
    # tvd(p, q) == tvd(q, p) exactly.
    return 0.5 * math.fsum(np.abs(diff).tolist())


def _is_correct(d: Distribution, correct) -> np.ndarray:
    """Mask of the support of ``d`` that lies in the set ``correct``."""
    return min_distances_to_set(d.codes, reference_codes(correct, d.width)) == 0


def merit_report(d: Distribution, correct, reference: Distribution | None = None) -> MeritReport:
    """PST and IST of ``d``, plus TVD against ``reference`` when given."""
    probs = as_probabilities(d)
    return MeritReport(
        pst=pst(probs, correct),
        ist=ist(probs, correct),
        tvd=None if reference is None else tvd(probs, reference),
    )
