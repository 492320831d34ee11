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
from .errors import InfeasibleError, MemsmagError, UnknownPathError, ValidationError
from .mechanics import SLENDERNESS_WARN_LIMIT, composite_section, tip_deflection
from .noise import NoiseBudget, noise_budget
from .scenario import Scenario, _parse
from .transduction import joule_offset, joule_temperature_rise, sensitivity


# libyaml's emitter is about 3x faster; tests check that its bytes match.
class _DUMPER(getattr(yaml, "CSafeDumper", yaml.SafeDumper)):
    # Sweep points and optimizer results share unchanged subtrees; each is
    # written out in full, so structured text never holds anchors or aliases.
    def ignore_aliases(self, data):
        return True

# Self-heating is negligible below this drive amplitude.
HIGH_CURRENT_THRESHOLD = 1e-3  # A
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
        force = sensor.tip_force(drive, env, env.field_magnitude)
        stress = sensor.anchor_stress(force)
        offset = joule_offset(drive.amplitude, scenario.offset_coefficient)
        output = sensor.bridge_voltage(stress) + offset
        temperature_rise = joule_temperature_rise(
            drive.amplitude, sensor.loop_resistance, scenario.thermal_resistance
        )
    with _stage("mechanics"):
        resonator = sensor.resonator(scenario.quality_factor)
        deflection = force / (sensor.load_share_count * resonator.stiffness)
        margin = _stress_margin(sensor.beam, stress)

    with _stage("noise"):
        budget = noise_budget(sensor, env, scenario.noise_band, resonator, signal_gain)

    warnings_list = []
    if drive.amplitude > HIGH_CURRENT_THRESHOLD:
        warnings_list.append(HIGH_CURRENT_WARNING)
    slenderness = sensor.beam.length / sensor.beam.total_thickness
    if slenderness < SLENDERNESS_WARN_LIMIT:
        warnings_list.append(
            f"beam slenderness {slenderness:.1f} < {SLENDERNESS_WARN_LIMIT}; "
            "slender-beam bending theory is questionable here"
        )
    report = SimulationReport(
        sensitivity=signal_gain,
        offset=offset,
        output_at_field=output,
        tip_deflection=deflection,
        anchor_stress=stress,
        stress_margin=margin,
        resonant_frequency=resonator.natural_frequency,
        quality_factor=scenario.quality_factor,
        noise=budget,
        min_detectable_field=budget.min_detectable_field,
        temperature_rise=temperature_rise,
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

    The edited tree is already resolved, so it is parsed as it stands, and
    each section the edits left untouched keeps `scenario`'s record.
    Returns (scenario, report, None), or (None, None, error) where the
    point fails and error is one line naming the exception type.
    """
    tree = scenario.tree
    for steps, value in edits:
        tree = _with_value(tree, steps, value)
    try:
        built, violations = _parse(tree, scenario)
        if violations:
            raise ValidationError(violations)
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


class _Exhausted(Exception):
    """The evaluation budget of one Nelder–Mead run is spent."""


def _clip(x) -> tuple:
    # As np.clip to [0, 1]: NaN passes through and -0.0 becomes 0.0.
    return tuple(0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v for v in x)


def _ranked(sim: list, fsim: list) -> tuple:
    # Stable, with NaN values last as np.argsort puts them.
    order = sorted(range(len(fsim)), key=lambda k: (math.isnan(fsim[k]), fsim[k]))
    return [sim[k] for k in order], [fsim[k] for k in order]


def _nelder_mead(func, simplex, xatol: float, fatol: float, maxfev: int) -> tuple:
    """Minimize `func` over the unit box from `simplex`, a list of n + 1 points.

    The bounded Nelder–Mead of SciPy 1.17's `minimize` (Lagarias et al.,
    SIAM J. Optim. 9(1), 1998) with ρ=1, χ=2, ψ=½, σ=½, on lists: it
    evaluates the same points, bit for bit and in the same order, wherever
    SciPy's sort keeps tied values in order. Vertices above the box are
    first reflected into it, and every vertex is clipped to [0, 1]. It stops
    once every vertex is within `xatol` of the best and every value within
    `fatol`, or when `maxfev` evaluations are spent. Returns the final
    vertices (tuples) and their values, best first.
    """
    n = len(simplex) - 1
    calls = 0

    def f(x) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return float(func(x))

    sim = [_clip(2.0 - v if v > 1.0 else v for v in x) for x in simplex]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    sim, fsim = _ranked(sim, fsim)

    while calls < maxfev:
        try:
            best, worst = sim[0], sim[n]
            if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)) and all(
                abs(fsim[0] - fv) <= fatol for fv in fsim[1:]
            ):
                break
            # Vertices 0..n-1 added in turn, as np.add.reduce does; sum()
            # rounds differently from Python 3.12 on.
            xbar = sim[0]
            for x in sim[1:n]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / n for a in xbar]

            xr = _clip(2.0 * a - w for a, w in zip(xbar, worst))
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = _clip(3.0 * a - 2.0 * w for a, w in zip(xbar, worst))
                fxe = f(xe)
                sim[n], fsim[n] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[n - 1]:
                sim[n], fsim[n] = xr, fxr
            elif fxr < fsim[n]:
                xc = _clip(1.5 * a - 0.5 * w for a, w in zip(xbar, worst))
                fxc = f(xc)
                if fxc <= fxr:
                    sim[n], fsim[n] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = _clip(0.5 * a + 0.5 * w for a, w in zip(xbar, worst))
                fxcc = f(xcc)
                if fxcc < fsim[n]:
                    sim[n], fsim[n] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    # The vertex moves even when the budget refuses its value.
                    sim[j] = _clip(b + 0.5 * (v - b) for b, v in zip(best, sim[j]))
                    fsim[j] = f(sim[j])
        except _Exhausted:
            pass
        sim, fsim = _ranked(sim, fsim)
    return sim, fsim


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

    starts = [(0.5,) * dim, *itertools.product((0.0, 1.0), repeat=dim)]
    for z0 in starts:
        simplex = [list(z0) for _ in range(dim + 1)]
        for i in range(dim):
            # Perturb inward so the initial simplex stays inside the box.
            simplex[i + 1][i] += 0.05 if z0[i] + 0.05 <= 1.0 else -0.05
        _nelder_mead(evaluate, simplex, xatol=1e-5, fatol=1e-300, maxfev=400 * dim)

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


def noise_figures(budget: NoiseBudget) -> dict:
    """Each figure of `budget` under its output name, in printed order.

    The `noise` command and the structured-text `noise` subtree both print
    these; the band is its two ends in Hz.
    """
    return {
        "thermal_electrical_psd_V2_per_Hz": float(budget.thermal_electrical_psd),
        "thermal_mechanical_psd_referred_V2_per_Hz": float(budget.thermal_mechanical_psd_referred),
        "flicker_scale_V2": float(budget.flicker_scale),
        "corner_frequency_Hz": float(budget.corner_frequency),
        "band_Hz": [float(f) for f in budget.band],
        "rms_V": float(budget.rms),
        "snr": float(budget.snr),
        "min_detectable_field_T": float(budget.min_detectable_field),
    }


def _report_tree(report: SimulationReport) -> dict:
    tree = {name: float(get(report)) for name, get in REPORT_COLUMNS if not name.startswith("noise_")}
    tree["noise"] = noise_figures(report.noise)
    tree["warnings"] = list(report.warnings)
    tree["scenario"] = report.scenario
    return tree


def _csv_row(report: SimulationReport) -> list:
    return [_fmt(get(report)) for _, get in REPORT_COLUMNS] + ["; ".join(report.warnings)]


def _render(obj: Union[SimulationReport, SweepResult], format: str) -> str:
    """The text `emit_report` writes for a report or a sweep."""
    if format not in ("csv", "structured-text"):
        raise ValueError(f"format must be 'csv' or 'structured-text', got {format!r}")
    header = [name for name, _ in REPORT_COLUMNS] + ["warnings"]
    if isinstance(obj, SimulationReport):
        tree, echo, rows = _report_tree(obj), obj.scenario, [header, _csv_row(obj)]
    else:
        points, echo, rows = [], None, [[obj.parameter_path] + header + ["error"]]
        for value, report, error in zip(obj.values, obj.reports, obj.errors):
            if report is not None:
                points.append({"value": float(value), "report": _report_tree(report)})
                rows.append([_fmt(value)] + _csv_row(report) + [""])
            else:
                points.append({"value": float(value), "error": error})
                rows.append([_fmt(value)] + [""] * len(header) + [error or "failed"])
        tree = {"parameter_path": obj.parameter_path, "points": points}
    # Structured text is the tree; a single report's CSV echoes its
    # scenario in the same encoding, as '#' comment lines.
    dumped = tree if format == "structured-text" else echo
    text = "" if dumped is None else yaml.dump(
        dumped, Dumper=_DUMPER, sort_keys=True, default_flow_style=False
    )
    if format == "structured-text":
        return text
    buffer = io.StringIO()
    buffer.writelines(f"# {line}\n" for line in text.splitlines())
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def emit_report(obj: Union[SimulationReport, SweepResult], format: str, path) -> None:
    """Serialize a report or sweep; identical inputs give identical bytes.

    CSV carries one row per point with SI units in the header names (a
    single-report CSV echoes the scenario as '#' comments); structured-text
    mirrors the full field tree including the scenario echo and re-parses
    with every numeric field exact.
    """
    text = _render(obj, format)
    with open(path, "w", newline="") as handle:
        handle.write(text)


def __getattr__(name):
    # optimize no longer calls scipy. This hook stays only because
    # perfbench/spans.py's Tracer.install looks the name up without a
    # default; it goes when that lookup does (ROADMAP item 3).
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
