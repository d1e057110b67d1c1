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

from .core import (
    Distribution,
    UsageError,
    as_probabilities,
    checked_reference,
    require_probabilities,
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
    keys = checked_reference(correct, d.width)
    d = as_probabilities(d)
    return float(sum(d.entries[k] for k in keys if k in d.entries))


def ist(d: Distribution, correct) -> float:
    """Inference strength: best correct probability over best incorrect.

    With several correct outcomes the strongest one is compared against the
    strongest erroneous outcome. Returns inf when every observed outcome is
    correct, 0.0 when no correct outcome was observed.
    """
    if len(d) == 0:
        raise UsageError("ist of an empty distribution is undefined")
    keys = set(checked_reference(correct, d.width))
    d = as_probabilities(d)
    best_correct = max((p for x, p in d.entries.items() if x in keys), default=0.0)
    best_incorrect = max((p for x, p in d.entries.items() if x not in keys), default=0.0)
    if best_incorrect == 0.0:
        return math.inf
    return best_correct / best_incorrect


def tvd(p: Distribution, q: Distribution) -> float:
    """Total variational distance over the union of supports."""
    if p.width != q.width:
        raise UsageError(f"width mismatch: {p.width} vs {q.width}")
    require_probabilities(p, "tvd")
    require_probabilities(q, "tvd")
    keys = set(p.entries) | set(q.entries)
    # fsum is correctly rounded, so the result is independent of key order
    # and tvd(p, q) == tvd(q, p) exactly.
    return 0.5 * math.fsum(abs(p.probability(k) - q.probability(k)) for k in keys)


def merit_report(d: Distribution, correct, reference: Distribution | None = None) -> MeritReport:
    """PST and IST of ``d``, plus TVD against ``reference`` when given."""
    probs = as_probabilities(d)
    return MeritReport(
        pst=pst(probs, correct),
        ist=ist(probs, correct),
        tvd=None if reference is None else tvd(probs, as_probabilities(reference)),
    )
