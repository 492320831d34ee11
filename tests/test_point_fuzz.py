"""Seeded multi-leaf fuzz of sweep and search points.

Each case edits one to three numeric leaves of a parent scenario's tree,
`material_overrides.*` included, by factors of 10^U(-300, 300) or
10^U(-3, 3), now and then with the sign flipped; a leaf that is 0 becomes
0, +-1 or 1e-300. The point that `explorer._run_point` builds from its
parent's records must equal a full build of the edited tree, and every
outcome must be a finite report, a `ValidationError`, another
`MemsmagError` or an `OverflowError`: nothing else may come out. Each
error must also say what it is about: every violation names one of the
edited leaves, every other `MemsmagError` the stage that raised it, and
every `OverflowError` a report figure or a range that a figure left.

Run it at a larger size, deterministically, with

    PYTHONPATH=src python tests/test_point_fuzz.py 20000

where the argument is the number of cases per parent.
"""

import math
import random
import sys
from collections import Counter

import pytest

from memsmag import MemsmagError, ValidationError, build_scenario, explorer, run_scenario
from memsmag.scenario import _with_values

# name -> (seed, the partial tree the parent is built from)
PARENTS = {
    "lorentz": (1, {}),
    "ferro": (2, {"sensor": {"kind": "ferro"}}),
    "overrides": (3, {"material_overrides": {
        "aluminum": {"youngs_modulus": 69.0e9, "yield_stress": 1.6e8},
        "silicon": {"pi_longitudinal": 1.1e-9, "hooge_alpha": 2.0e-6},
    }}),
}
CASES = 1000  # per parent, in tier-1


def _numeric_leaves(node, steps=()):
    """(steps, value) of every numeric leaf under `node`."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield list(steps), node
        return
    for key, value in items:
        yield from _numeric_leaves(value, (*steps, key))


def _fuzzed(rng, value):
    if value == 0:
        return rng.choice([0.0, 1.0, -1.0, 1e-300])
    exponent = rng.uniform(-300, 300) if rng.random() < 0.5 else rng.uniform(-3, 3)
    sign = -1.0 if rng.random() < 0.1 else 1.0
    return sign * value * 10.0**exponent


def _dotted(steps):
    """The path a violation names for a leaf; noise_band's items name the band."""
    if steps[0] == "noise_band":
        return "noise_band"
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps)[1:]


def _check_text(exc, edits):
    """Assert that `exc` says what it is about, for a case making `edits`."""
    if isinstance(exc, ValidationError):
        paths = tuple(f"{_dotted(steps)}:" for steps, _ in edits)
        for violation in exc.violations:
            assert violation.startswith(paths), (violation, paths)
    elif isinstance(exc, OverflowError):
        text = str(exc)
        assert "leaves the float range" in text or any(
            text.startswith(f"report figure {name} is not finite")
            for name, _ in explorer.REPORT_COLUMNS
        ), text
    else:
        assert str(exc).startswith(("transduction: ", "mechanics: ", "noise: ")), str(exc)


def _outcome(tree, edits):
    """What a full build and run of `tree`, the parent's tree with `edits`
    made, gives in _run_point's result shape, and the outcome's class. Any
    other exception propagates."""
    try:
        built = build_scenario(tree)
        report = run_scenario(built)
    except (MemsmagError, OverflowError) as exc:
        _check_text(exc, edits)
        kind = type(exc) if isinstance(exc, (ValidationError, OverflowError)) else MemsmagError
        return (None, None, f"{type(exc).__name__}: " + " ".join(str(exc).split())), kind
    for name, get in explorer.REPORT_COLUMNS:
        value = get(report)
        assert math.isfinite(value) or (name == "stress_margin" and value == math.inf), name
    return (built, report, None), "report"


def fuzz(name, cases):
    """Run `cases` seeded cases on parent `name`; the tally of outcomes."""
    seed, partial = PARENTS[name]
    rng = random.Random(seed)
    parent = build_scenario(partial)
    leaves = list(_numeric_leaves(parent.tree))
    # One call's figures for every point, as one sweep or search keeps them.
    figures = explorer._SensorFigures()
    tally = Counter()
    for case in range(cases):
        chosen = rng.sample(leaves, rng.randint(1, 3))
        edits = [(steps, _fuzzed(rng, value)) for steps, value in chosen]
        expected, kind = _outcome(_with_values(parent.tree, edits), edits)
        got = explorer._run_point(parent, edits, figures)
        assert got == expected, (name, case, edits)
        tally[kind] += 1
    return tally


@pytest.mark.parametrize("name", sorted(PARENTS))
def test_fuzzed_point_matches_a_fresh_build(name):
    tally = fuzz(name, CASES)
    # Each class of outcome turns up, so the fuzz reaches past validation.
    assert tally["report"] > 0 and tally[ValidationError] > 0, tally


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else CASES
    for parent_name in sorted(PARENTS):
        outcomes = fuzz(parent_name, count)
        print(parent_name, {getattr(k, "__name__", k): n for k, n in outcomes.items()})
