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

The command fuzz takes the first cases of each parent, and the fixed trees
in FIXED_TREES, through the `freq-response` and `transient` commands.
Each edited tree that validates must exit 0 with every row of the table
finite, or exit 2 with one stderr line. A transient whose default span
takes more than STEP_BUDGET steps is counted rather than run.

Run both at a larger size, deterministically, with

    PYTHONPATH=src python tests/test_point_fuzz.py 20000 1000

where the arguments are the number of cases per parent of the point fuzz
and of the command fuzz.
"""

import argparse
import contextlib
import io
import math
import os
import random
import sys
import tempfile
from collections import Counter

import pytest
import yaml

from memsmag import MemsmagError, ValidationError, build_scenario, cli, explorer, run_scenario
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
COMMAND_CASES = 30  # per parent, in tier-1
# Most steps a command-fuzz transient's default span may take to be run.
STEP_BUDGET = 20_000
# Edited trees the fuzz has missed, each a partial tree over the defaults.
FIXED_TREES = {
    # 1/k overflows: freq-response once wrote inf in every amplitude row.
    "soft-beam": {"sensor": {"support_beam": {"length": 1.0e3, "width": 1.0e-293}}},
}


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


def _cases(name, cases):
    """The parent scenario `name` and the edits of each of its first `cases`
    seeded cases."""
    seed, partial = PARENTS[name]
    rng = random.Random(seed)
    parent = build_scenario(partial)
    leaves = list(_numeric_leaves(parent.tree))
    for _ in range(cases):
        chosen = rng.sample(leaves, rng.randint(1, 3))
        yield parent, [(steps, _fuzzed(rng, value)) for steps, value in chosen]


def fuzz(name, cases):
    """Run `cases` seeded cases on parent `name`; the tally of outcomes."""
    # One call's figures for every point, as one sweep or search keeps them.
    figures = {}
    tally = Counter()
    for case, (parent, edits) in enumerate(_cases(name, cases)):
        expected, kind = _outcome(_with_values(parent.tree, edits), edits)
        got = explorer._run_point(parent, edits, figures)
        assert got == expected, (name, case, edits)
        tally[kind] += 1
    return tally


def _default_steps(scenario) -> float:
    """The steps of the transient's default span; 0 where working them out
    fails, as the command then does before it integrates."""
    no_flags = argparse.Namespace(duration=None, dt=None)
    try:
        resonator = scenario.sensor.resonator(scenario.quality_factor)
        duration, dt = cli._transient_span(no_flags, resonator, scenario.drive)
    except (MemsmagError, ArithmeticError):
        return 0.0
    return duration / dt


def _finite_rows(path) -> bool:
    """Whether every cell below the header of the CSV file at `path` is finite."""
    with open(path) as handle:
        next(handle)
        cells = handle.read().replace("\n", ",").split(",")[:-1]
    return all(map(math.isfinite, map(float, cells)))


def check_commands(tree, workdir, tally):
    """Run freq-response and transient on `tree` if it validates, asserting
    that each exits 0 with finite rows or 2 with one stderr line; each
    outcome is counted in `tally`."""
    try:
        scenario = build_scenario(tree)
    except ValidationError:
        tally["invalid"] += 1
        return
    config, out = os.path.join(workdir, "scenario.yaml"), os.path.join(workdir, "out.csv")
    with open(config, "w") as handle:
        yaml.safe_dump(tree, handle)
    for command in ("freq-response", "transient"):
        if command == "transient" and _default_steps(scenario) > STEP_BUDGET:
            tally["transient over the step budget"] += 1
            continue
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", config, "--out", out])
        err = err.getvalue()
        if code == 0:
            assert err == "" and _finite_rows(out), (command, tree, err)
        else:
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (
                command, tree, code, err)
        tally[f"{command} exit {code}"] += 1


def command_fuzz(name, cases, workdir):
    """Run the commands on the first `cases` cases of parent `name`; the
    tally of outcomes."""
    tally = Counter()
    for parent, edits in _cases(name, cases):
        check_commands(_with_values(parent.tree, edits), workdir, tally)
    return tally


@pytest.mark.parametrize("name", sorted(PARENTS))
def test_fuzzed_point_matches_a_fresh_build(name):
    tally = fuzz(name, CASES)
    # Each class of outcome turns up, so the fuzz reaches past validation.
    assert tally["report"] > 0 and tally[ValidationError] > 0, tally


@pytest.mark.parametrize("name", sorted(PARENTS))
def test_fuzzed_tree_runs_freq_response_and_transient(name, tmp_path):
    tally = command_fuzz(name, COMMAND_CASES, tmp_path)
    # Each command succeeds and one fails, so the fuzz reaches past the load.
    assert tally["freq-response exit 0"] > 0 and tally["transient exit 0"] > 0, tally
    assert tally["freq-response exit 2"] + tally["transient exit 2"] > 0, tally


@pytest.mark.parametrize("name", sorted(FIXED_TREES))
def test_fixed_tree_runs_freq_response_and_transient(name, tmp_path):
    tally = Counter()
    check_commands(build_scenario(FIXED_TREES[name]).tree, tmp_path, tally)
    assert tally["invalid"] == 0, tally


if __name__ == "__main__":
    count = int(sys.argv[1]) if len(sys.argv) > 1 else CASES
    command_count = int(sys.argv[2]) if len(sys.argv) > 2 else COMMAND_CASES
    for parent_name in sorted(PARENTS):
        outcomes = fuzz(parent_name, count)
        print(parent_name, {getattr(k, "__name__", k): n for k, n in outcomes.items()})
    with tempfile.TemporaryDirectory() as workdir:
        fixed = Counter()
        for partial in FIXED_TREES.values():
            check_commands(build_scenario(partial).tree, workdir, fixed)
        print("fixed trees", dict(fixed))
        for parent_name in sorted(PARENTS):
            print(parent_name, "commands", dict(command_fuzz(parent_name, command_count, workdir)))
