"""Ties the physics modules together: run one scenario into a full report,
sweep a parameter, optimize a design under constraints, and serialize the
results. Everything here is deterministic: identical inputs give
byte-identical emitted files, optimizer included.
"""

import csv
import io
import itertools
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import yaml

from .beam_oracle import _fitted_order, solve_static
from .errors import InfeasibleError, MemsmagError, UnknownPathError
from .mechanics import SLENDERNESS_WARN_LIMIT, composite_section, tip_deflection
from .noise import NOISE_FIELDS, NoiseBudget, noise_budget
from .scenario import Scenario, build_scenario
from .transduction import end_to_end_response, joule_temperature_rise, sensitivity

# libyaml's emitter is about 3x faster; tests check that its bytes match.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

HIGH_CURRENT_WARNING = (
    "drive amplitude exceeds 1 mA: self-heating is not negligible"
)

DEFAULT_CONSTRAINTS = {"max_stress_fraction": 0.5, "max_temperature_rise": 1.0}

# Death penalty for constraint-violating optimizer points; grows with the
# relative violation so the walk is still guided back toward feasibility.
# The violation is capped so that every penalty stays finite.
_PENALTY = 1e30
_MAX_VIOLATION = 1e250

MAX_FREE_PARAMETERS = 6

# Most points one sweep or frequency table may hold; each keeps its row.
MAX_SWEEP_POINTS = 10_000


@dataclass
class SimulationReport:
    sensitivity: float  # V/T
    offset: float  # V, field-independent
    output_at_field: float  # V at the scenario's ambient field
    tip_deflection: float  # m, static
    anchor_stress: float  # Pa
    stress_margin: float  # weakest layer yield over anchor stress
    resonant_frequency: float  # Hz
    quality_factor: float
    noise: NoiseBudget
    min_detectable_field: float  # T
    temperature_rise: float  # K
    warnings: list
    scenario: dict  # resolved input tree, echoed for reproducibility


@dataclass
class SweepResult:
    parameter_path: str
    values: list
    reports: list  # SimulationReport, or None where the point failed
    errors: list  # failure text per point, None where it succeeded


@dataclass
class OptimizeResult:
    best: Scenario
    report: SimulationReport
    evaluation: dict  # the trace record of the best point
    trace: list  # one {params, objective, feasible} record per evaluation


@contextmanager
def _stage(name: str):
    # Tag propagated failures with the module that produced them.
    try:
        yield
    except MemsmagError as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{name}: {exc.args[0]}",) + exc.args[1:]
        raise


def _stress_margin(beam, stress: float) -> float:
    yields = [
        layer.material.yield_stress
        for layer in beam.layers
        if layer.material.yield_stress is not None
    ]
    if not yields or stress == 0.0:
        return math.inf
    return min(yields) / abs(stress)


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Populate every report field for one operating point."""
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    with _stage("transduction"):
        signal_gain = sensitivity(sensor, drive, env)
        chain = end_to_end_response(sensor, drive, env, scenario.offset_coefficient)
        heating = joule_temperature_rise(
            drive.amplitude, sensor.loop_resistance, scenario.thermal_resistance
        )
    with _stage("mechanics"):
        resonator = sensor.resonator(scenario.quality_factor)
        deflection = chain.force / (sensor.load_share_count * resonator.stiffness)
        margin = _stress_margin(sensor.beam, chain.stress)

    with _stage("noise"):
        budget = noise_budget(sensor, drive, env, scenario.noise_band, resonator)

    warnings_list = []
    if heating.high_current:
        warnings_list.append(HIGH_CURRENT_WARNING)
    slenderness = sensor.beam.length / sensor.beam.total_thickness
    if slenderness < SLENDERNESS_WARN_LIMIT:
        warnings_list.append(
            f"beam slenderness {slenderness:.1f} < {SLENDERNESS_WARN_LIMIT}; "
            "slender-beam bending theory is questionable here"
        )
    report = SimulationReport(
        sensitivity=signal_gain,
        offset=chain.offset,
        output_at_field=chain.output,
        tip_deflection=deflection,
        anchor_stress=chain.stress,
        stress_margin=margin,
        resonant_frequency=resonator.natural_frequency,
        quality_factor=scenario.quality_factor,
        noise=budget,
        min_detectable_field=budget.min_detectable_field,
        temperature_rise=heating.temperature_rise,
        warnings=warnings_list,
        scenario=scenario.tree,
    )
    for name, get in REPORT_COLUMNS:
        value = get(report)
        # An unstressed beam's margin is infinite by design.
        if not math.isfinite(value) and not (name == "stress_margin" and value == math.inf):
            raise OverflowError(f"report figure {name} is not finite: {value}")
    return report


_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)((?:\[\d+\])*)$")


def _resolve_path(tree, path: str) -> list:
    """The keys and indices that lead from the root of `tree` to `path`.

    Raises UnknownPathError unless the dotted path reaches a numeric field.
    """
    steps = []
    for token in path.split("."):
        match = _TOKEN_RE.match(token)
        if match is None:
            raise UnknownPathError(f"bad path segment {token!r} in {path!r}")
        steps.append(match.group(1))
        steps.extend(int(i) for i in re.findall(r"\[(\d+)\]", match.group(2)))
    node = tree
    for step in steps:
        try:
            node = node[step]
        except (KeyError, IndexError, TypeError):
            raise UnknownPathError(f"{path}: no such field in the scenario") from None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise UnknownPathError(f"{path}: not a numeric field")
    return steps


def _with_value(tree, steps: list, value: float):
    """A new tree with the field that `steps` resolve to set to `value`.

    Only the containers along the path are copied; the rest is shared
    with `tree`, which is left unchanged.
    """
    nodes = [tree]
    for step in steps[:-1]:
        nodes.append(nodes[-1][step])
    new = value
    for node, step in zip(reversed(nodes), reversed(steps)):
        node = node.copy()
        node[step] = new
        new = node
    return new


def _run_point(scenario: Scenario, edits):
    """Build and run `scenario` with each (steps, value) edit applied.

    Returns (scenario, report, None), or (None, None, error) where the
    point fails and error is one line naming the exception type.
    """
    tree = scenario.tree
    for steps, value in edits:
        tree = _with_value(tree, steps, value)
    try:
        built = build_scenario(tree)
        return built, run_scenario(built), None
    except (MemsmagError, ValueError, ArithmeticError) as exc:
        # The scenario is invalid or cannot be evaluated, or its arithmetic
        # left the float range (t**3 overflowing, a width underflowing to
        # zero). One line per failure so the error fits a single table cell.
        return None, None, f"{type(exc).__name__}: " + " ".join(str(exc).split())


def sweep(
    scenario: Scenario,
    parameter_path: str,
    start: float,
    stop: float,
    steps: int,
    scale: str = "linear",
) -> SweepResult:
    """Run the scenario across a range of one numeric parameter.

    Points that fail keep their slot: the report is None and the error
    column records what went wrong, so a sweep never dies half way.
    """
    if not 2 <= steps <= MAX_SWEEP_POINTS:
        raise ValueError(f"steps must be between 2 and {MAX_SWEEP_POINTS}, got {steps}")
    if scale == "linear":
        values = np.linspace(start, stop, steps)
    elif scale == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log scale needs positive endpoints")
        values = np.geomspace(start, stop, steps)
    else:
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    values = [float(v) for v in values]
    field = _resolve_path(scenario.tree, parameter_path)
    points = [_run_point(scenario, [(field, value)]) for value in values]
    return SweepResult(
        parameter_path=parameter_path,
        values=values,
        reports=[report for _, report, _ in points],
        errors=[error for _, _, error in points],
    )


def _normalize_parameter(param):
    path, lower, upper = param
    lower, upper = float(lower), float(upper)
    if not (math.isfinite(lower) and math.isfinite(upper)) or not lower < upper:
        raise ValueError(f"{path}: bounds must be finite with lower < upper")
    return str(path), lower, upper


def _objective_fn(objective) -> Callable:
    """Map the objective spec to a function of the report to MINIMIZE."""
    if callable(objective):
        return objective
    if objective == "min_detectable_field":
        return lambda report: report.min_detectable_field
    if objective == "sensitivity":
        return lambda report: -report.sensitivity
    raise ValueError(
        "objective must be 'min_detectable_field', 'sensitivity', or a callable"
    )


def _constraint_limits(constraints) -> dict:
    """DEFAULT_CONSTRAINTS with `constraints` applied, each limit checked."""
    limits = dict(DEFAULT_CONSTRAINTS)
    for name, limit in (constraints or {}).items():
        if name not in limits:
            raise ValueError(
                f"unknown constraint {name!r}; valid: {', '.join(DEFAULT_CONSTRAINTS)}"
            )
        if not 0 < limit < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {limit}")
        limits[name] = limit
    return limits


def _constraint_violation(report: SimulationReport, limits: dict) -> float:
    """Summed relative violation of the limits, at most _MAX_VIOLATION."""
    violation = 0.0
    margin_limit = 1.0 / limits["max_stress_fraction"]
    margin = report.stress_margin
    if margin < margin_limit:
        # A margin that underflowed to 0 violates the limit without bound.
        violation += margin_limit / margin - 1.0 if margin > 0.0 else math.inf
    max_rise = limits["max_temperature_rise"]
    if report.temperature_rise > max_rise:
        violation += report.temperature_rise / max_rise - 1.0
    return min(violation, _MAX_VIOLATION)


def optimize(
    scenario: Scenario,
    free_parameters,
    objective="min_detectable_field",
    constraints: Optional[dict] = None,
) -> OptimizeResult:
    """Derivative-free constrained design search.

    Nelder-Mead on the unit box (parameters normalized to their bounds),
    restarted from every corner of the box plus its center so the
    deterministic restart set covers 2^d + 1 basins. Constraint violations
    and failed evaluations get a death penalty scaled by the relative
    violation. The best returned is always the best feasible point actually
    evaluated; Infeasible is raised when there is none.
    """
    # Imported here so that only optimize pays the ~0.5 s scipy import.
    from scipy.optimize import minimize

    params = [_normalize_parameter(p) for p in free_parameters]
    if not 1 <= len(params) <= MAX_FREE_PARAMETERS:
        raise ValueError(f"need 1..{MAX_FREE_PARAMETERS} free parameters")
    fields = [_resolve_path(scenario.tree, path) for path, _, _ in params]
    limits = _constraint_limits(constraints)
    score = _objective_fn(objective)
    dim = len(params)

    trace = []
    best = None  # (scenario, report, trace record) of the best feasible point

    def evaluate(z):
        nonlocal best
        # Nelder-Mead with bounds clips every vertex into the unit box.
        physical = tuple(
            float(lo + zi * (hi - lo)) for zi, (_, lo, hi) in zip(z, params)
        )
        built, report, _ = _run_point(scenario, zip(fields, physical))
        violation = 1.0 if report is None else _constraint_violation(report, limits)
        feasible = violation == 0.0
        value = score(report) if feasible else _PENALTY * (1.0 + violation)
        record = {
            "params": {p: x for (p, _, _), x in zip(params, physical)},
            "objective": value,
            "feasible": feasible,
        }
        trace.append(record)
        if feasible and (best is None or value < best[2]["objective"]):
            best = built, report, record
        return value

    starts = [np.full(dim, 0.5)]
    starts += [np.array(corner, dtype=float) for corner in itertools.product((0.0, 1.0), repeat=dim)]
    for z0 in starts:
        simplex = np.tile(z0, (dim + 1, 1))
        for i in range(dim):
            # Perturb inward so the initial simplex stays inside the box.
            step = 0.05 if z0[i] + 0.05 <= 1.0 else -0.05
            simplex[i + 1, i] += step
        minimize(
            evaluate,
            z0,
            method="Nelder-Mead",
            bounds=[(0.0, 1.0)] * dim,
            options={
                "initial_simplex": simplex,
                "xatol": 1e-5,
                "fatol": 1e-300,
                "maxiter": 400 * dim,
                "maxfev": 400 * dim,
            },
        )

    if best is None:
        raise InfeasibleError("no evaluated point satisfied the constraints")
    return OptimizeResult(*best, trace=trace)


def oracle_check(scenario: Scenario) -> dict:
    """Cross-check the closed-form beam model against the brute-force solver.

    Solves the scenario's suspension beam on 100, 200 and 400 nodes,
    compares the finest solution's tip deflection and anchor moment with
    the analytic values, and fits the solver's convergence order to all
    three.
    """
    beam = scenario.sensor.beam
    force = 1e-9
    section = composite_section(beam)
    analytic_tip = tip_deflection(section, beam.length, force)
    analytic_moment = force * beam.length

    solutions = [solve_static(beam, grid_size=n, tip_force=force) for n in (100, 200, 400)]
    solution = solutions[-1]
    tip_error = abs(solution.tip_deflection - analytic_tip) / abs(analytic_tip)
    moment_error = float(
        abs(solution.bending_moment[0] - analytic_moment) / analytic_moment
    )
    order = _fitted_order(beam.length, solutions)
    return {
        "tip_deflection_analytic_m": analytic_tip,
        "tip_deflection_fd_m": solution.tip_deflection,
        "tip_deflection_rel_error": tip_error,
        "anchor_moment_analytic_N_m": analytic_moment,
        "anchor_moment_fd_N_m": float(solution.bending_moment[0]),
        "anchor_moment_rel_error": moment_error,
        "convergence_order": order,
        "passed": bool(tip_error < 0.01 and moment_error < 0.02 and 1.8 <= order <= 2.2),
    }


def _fmt(value) -> str:
    return repr(float(value))


REPORT_COLUMNS = (
    ("sensitivity_V_per_T", lambda r: r.sensitivity),
    ("offset_V", lambda r: r.offset),
    ("output_at_field_V", lambda r: r.output_at_field),
    ("tip_deflection_m", lambda r: r.tip_deflection),
    ("anchor_stress_Pa", lambda r: r.anchor_stress),
    ("stress_margin", lambda r: r.stress_margin),
    ("resonant_frequency_Hz", lambda r: r.resonant_frequency),
    ("quality_factor", lambda r: r.quality_factor),
    ("temperature_rise_K", lambda r: r.temperature_rise),
    ("noise_thermal_electrical_psd_V2_per_Hz", lambda r: r.noise.thermal_electrical_psd),
    ("noise_mechanical_referred_psd_V2_per_Hz", lambda r: r.noise.thermal_mechanical_psd_referred),
    ("noise_flicker_scale_V2", lambda r: r.noise.flicker_scale),
    ("noise_corner_frequency_Hz", lambda r: r.noise.corner_frequency),
    ("noise_rms_V", lambda r: r.noise.rms),
    ("snr", lambda r: r.noise.snr),
    ("min_detectable_field_T", lambda r: r.min_detectable_field),
)


def _report_tree(report: SimulationReport) -> dict:
    tree = {name: float(get(report)) for name, get in REPORT_COLUMNS if not name.startswith("noise_")}
    tree["noise"] = {}
    for name, attr in NOISE_FIELDS:
        value = getattr(report.noise, attr)
        tree["noise"][name] = [float(f) for f in value] if name == "band_Hz" else float(value)
    tree["warnings"] = list(report.warnings)
    tree["scenario"] = report.scenario
    return tree


def _scenario_comment(tree: dict) -> list:
    dumped = yaml.dump(tree, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)
    return [f"# {line}" for line in dumped.splitlines()]


def _csv_rows(rows: list) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _report_csv(report: SimulationReport) -> str:
    header = [name for name, _ in REPORT_COLUMNS] + ["warnings"]
    row = [_fmt(get(report)) for _, get in REPORT_COLUMNS]
    row.append("; ".join(report.warnings))
    comments = "\n".join(_scenario_comment(report.scenario))
    return comments + "\n" + _csv_rows([header, row])


def _sweep_csv(result: SweepResult) -> str:
    rows = [
        [result.parameter_path]
        + [name for name, _ in REPORT_COLUMNS]
        + ["warnings", "error"]
    ]
    for value, report, error in zip(result.values, result.reports, result.errors):
        if report is not None:
            row = [_fmt(value)]
            row += [_fmt(get(report)) for _, get in REPORT_COLUMNS]
            row += ["; ".join(report.warnings), ""]
        else:
            row = [_fmt(value)] + [""] * (len(REPORT_COLUMNS) + 1) + [error or "failed"]
        rows.append(row)
    return _csv_rows(rows)


def _structured_text(obj) -> str:
    if isinstance(obj, SimulationReport):
        tree = _report_tree(obj)
    else:
        points = []
        for value, report, error in zip(obj.values, obj.reports, obj.errors):
            point = {"value": float(value)}
            if report is not None:
                point["report"] = _report_tree(report)
            else:
                point["error"] = error
            points.append(point)
        tree = {"parameter_path": obj.parameter_path, "points": points}
    return yaml.dump(tree, Dumper=_DUMPER, sort_keys=True, default_flow_style=False)


def emit_report(obj: Union[SimulationReport, SweepResult], format: str, path) -> None:
    """Serialize a report or sweep; identical inputs give identical bytes.

    CSV carries one row per point with SI units in the header names (a
    single-report CSV echoes the scenario as '#' comments); structured-text
    mirrors the full field tree including the scenario echo and re-parses
    with every numeric field exact.
    """
    if format == "csv":
        text = _report_csv(obj) if isinstance(obj, SimulationReport) else _sweep_csv(obj)
    elif format == "structured-text":
        text = _structured_text(obj)
    else:
        raise ValueError(f"format must be 'csv' or 'structured-text', got {format!r}")
    with open(path, "w", newline="") as handle:
        handle.write(text)


def __getattr__(name):
    # Only for perfbench/spans.py's lookup without a default (CHANGES.md FOUND on EXTERNAL).
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
