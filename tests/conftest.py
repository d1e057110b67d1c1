import random

from hypothesis import HealthCheck, Phase, settings

from hamrec import Distribution

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# For scripts/check_mutants.py: a failure only has to be found, so it is
# not shrunk, and nothing is read from or saved to the example database.
settings.register_profile(
    "mutants",
    parent=settings.get_profile("default"),
    phases=[Phase.explicit, Phase.generate],
    database=None,
)
settings.load_profile("default")


def random_distribution(rng: random.Random, width: int, size: int, kind: str = "probabilities") -> Distribution:
    """Random sparse distribution over distinct width-bit outcomes."""
    size = min(size, 2 ** width)
    keys: set[str] = set()
    while len(keys) < size:
        keys.add("".join(rng.choice("01") for _ in range(width)))
    if kind == "counts":
        entries = {k: rng.randint(1, 1000) for k in keys}
        return Distribution(width=width, entries=entries, kind="counts")
    raw = {k: rng.uniform(0.01, 5.0) for k in keys}
    total = sum(raw.values())
    return Distribution(
        width=width,
        entries={k: v / total for k, v in raw.items()},
        kind="probabilities",
    )
