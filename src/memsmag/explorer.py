"""Ties the physics modules together: run one scenario into a full report,
sweep a parameter, optimize a design under constraints, and serialize the
results. Everything here is deterministic: identical inputs give
byte-identical emitted files, optimizer included.
"""

import csv
import functools
import io
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

import yaml

from .errors import DomainError, InfeasibleError, MemsmagError, UnknownPathError, ValidationError
from .grids import DEFAULT_CONSTRAINTS, MAX_SWEEP_POINTS, _geomspace, _linspace
from .mechanics import SLENDERNESS_WARN_LIMIT, curl_tip_height, stack_curvature
from .noise import NoiseBudget, _noise_floor, _with_signal
from .scenario import Scenario, _edited
from .transduction import _zero_sensitivity, joule_offset, joule_temperature_rise


# Self-heating is negligible below this drive amplitude.
HIGH_CURRENT_THRESHOLD = 1e-3  # A
HIGH_CURRENT_WARNING = (
    "drive amplitude exceeds 1 mA: self-heating is not negligible"
)

# Death penalty for constraint-violating optimizer points; grows with the
# relative violation so the walk is still guided back toward feasibility.
# The violation is capped so that every penalty stays finite.
_PENALTY = 1e30
_MAX_VIOLATION = 1e250

MAX_FREE_PARAMETERS = 6


@dataclass
class SimulationReport:
    """Every figure of one scenario run, with its warnings and the resolved input."""

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
    """One report or one error per value of the swept parameter, in order."""

    parameter_path: str
    values: list
    reports: list  # SimulationReport, or None where the point failed
    errors: list  # failure text per point, None where it succeeded


@dataclass
class OptimizeResult:
    """The best feasible design found, its report, and every evaluation made."""

    best: Scenario
    report: SimulationReport
    evaluation: dict  # the trace record of the best point
    trace: list  # one {params, objective, feasible} record per evaluation


def _weakest_yield(beam) -> float:
    """The lowest yield stress of the beam's layers; inf where none sets one."""
    return min(
        (layer.material.yield_stress for layer in beam.layers
         if layer.material.yield_stress is not None),
        default=math.inf,
    )


def _beam_warnings(beam) -> list:
    """The report warnings that the suspension beam alone decides."""
    warnings_list = []
    slenderness = beam.length / beam.total_thickness
    if slenderness < SLENDERNESS_WARN_LIMIT:
        warnings_list.append(
            f"beam slenderness {slenderness:.1f} < {SLENDERNESS_WARN_LIMIT}; "
            "slender-beam bending theory is questionable here"
        )
    if any(layer.residual_stress for layer in beam.layers):
        curvature = stack_curvature(beam)
        lift = curl_tip_height(curvature, beam.length)
        warnings_list.append(
            f"stressed layers curl the beam: curvature {curvature:.3g} 1/m, tip lift {lift:.3g} m"
        )
    return warnings_list


def run_scenario(scenario: Scenario) -> SimulationReport:
    """Populate every report field for one operating point."""
    return _report(scenario, {})


def _report(scenario: Scenario, figures: dict) -> SimulationReport:
    """run_scenario's report, reusing the figures of scenario.sensor that
    `figures` holds.

    `figures` keeps what a report takes from the sensor record alone, which
    no drive or field edit moves: "stress_per_newton" (its anchor stress
    per newton of tip force), "weakest_yield", "beam_warnings", ("resonator",
    Q) per quality factor and ("floor", Q, T, band) per quality factor,
    temperature and noise band. A figure it holds is taken from it; one it
    lacks is computed and stored only once computed, so a point that fails
    raises as run_scenario would. A sweep or search keeps one dict for its
    parent's sensor, so the points that keep that record (see
    scenario._edited) compute each figure once per call; a point with a
    sensor of its own starts from an empty one.

    A MemsmagError raised in the transduction, mechanics or noise stage
    has the stage's name put before its message.
    """
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    quality_factor, band = scenario.quality_factor, scenario.noise_band
    stage = "transduction"
    try:
        force_per_tesla = sensor.tip_force(drive, env, 1.0)
        stress_per_newton = figures.get("stress_per_newton")
        if stress_per_newton is None:
            stress_per_newton = figures["stress_per_newton"] = sensor.anchor_stress(1.0)
        signal_gain = sensor.bridge_voltage(force_per_tesla * stress_per_newton)
        force = sensor.tip_force(drive, env, env.field_magnitude)
        stress = sensor.anchor_stress(force)
        offset = joule_offset(drive.amplitude, scenario.offset_coefficient)
        output = sensor.bridge_voltage(stress) + offset
        temperature_rise = joule_temperature_rise(
            drive.amplitude, sensor.loop_resistance, scenario.thermal_resistance
        )

        stage = "mechanics"
        key = "resonator", quality_factor
        resonator = figures.get(key)
        if resonator is None:
            resonator = figures[key] = sensor.resonator(quality_factor)
        deflection = force / (sensor.load_share_count * resonator.stiffness)
        weakest_yield = figures.get("weakest_yield")
        if weakest_yield is None:
            weakest_yield = figures["weakest_yield"] = _weakest_yield(sensor.beam)
        # The weakest yield over the anchor stress. A stress that is not
        # finite fails the finite check at anchor_stress_Pa, before the margin.
        margin = math.inf if stress == 0.0 else weakest_yield / abs(stress)

        stage = "noise"
        key = "floor", quality_factor, env.temperature, band
        floor = figures.get(key)
        if floor is None:
            floor = figures[key] = _noise_floor(
                sensor, env.temperature, band, resonator, stress_per_newton
            )
        if not abs(signal_gain) > 0:  # min_detectable_field's guard, the factors named
            raise DomainError(_zero_sensitivity(sensor, env, force_per_tesla, stress_per_newton))
        budget = _with_signal(floor, band, signal_gain, env)
    except MemsmagError as exc:
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{stage}: {exc.args[0]}",) + exc.args[1:]
        raise

    warnings_list = []
    if drive.amplitude > HIGH_CURRENT_THRESHOLD:
        warnings_list.append(HIGH_CURRENT_WARNING)
    beam_warnings = figures.get("beam_warnings")
    if beam_warnings is None:
        beam_warnings = figures["beam_warnings"] = _beam_warnings(sensor.beam)
    warnings_list += beam_warnings
    report = SimulationReport(  # in field order
        signal_gain,
        offset,
        output,
        deflection,
        stress,
        margin,
        resonator.natural_frequency,
        quality_factor,
        budget,
        budget.min_detectable_field,
        temperature_rise,
        warnings_list,
        scenario.tree,
    )
    values = _report_figures(report)
    if not math.isfinite(sum(values)):
        for (name, _), value in zip(REPORT_COLUMNS, values):
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


def _run_point(scenario: Scenario, edits, figures: dict):
    """Build and run `scenario` with each (steps, value) edit applied.

    The point keeps every record of `scenario` off its edited paths (see
    scenario._edited). A point that keeps `scenario.sensor` reuses that
    sensor's `figures`, which the calling sweep or search keeps for it (see
    _report); a point with a sensor of its own computes them afresh.
    Returns (scenario, report, None), or (None, None, error) where the
    point fails and error is one line naming the exception type.
    """
    try:
        built, violations = _edited(scenario, edits)
        if violations:
            raise ValidationError(violations)
        if built.sensor is not scenario.sensor:
            figures = {}
        return built, _report(built, figures), None
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
    The points of a parameter outside the sensor and material_overrides
    keep the scenario's sensor record, so they share its figures (see
    _report).
    """
    # An int or a type that stands for one (numpy's), but not a bool.
    if isinstance(steps, bool) or not hasattr(steps, "__index__"):
        raise ValueError(f"steps must be an integer, got {steps!r}")
    if not 2 <= steps <= MAX_SWEEP_POINTS:
        raise ValueError(f"steps must be between 2 and {MAX_SWEEP_POINTS}, got {steps}")
    if scale == "linear":
        values = _linspace(float(start), float(stop), steps)
    elif scale == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log scale needs positive endpoints")
        # An infinite or NaN endpoint gives points that are not finite;
        # each fails in its own row, as on the linear scale.
        values = _geomspace(float(start), float(stop), steps)
    else:
        raise ValueError(f"scale must be 'linear' or 'log', got {scale!r}")
    field = _resolve_path(scenario.tree, parameter_path)
    figures = {}
    points = [_run_point(scenario, [(field, value)], figures) for value in values]
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
    return tuple([0.0 if v <= 0.0 else 1.0 if v >= 1.0 else v for v in x])


def _ranked(sim: list, fsim: list) -> tuple:
    # Stable, with NaN values last as np.argsort puts them.
    keys = [(v != v, v) for v in fsim]
    order = sorted(range(len(fsim)), key=keys.__getitem__)
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

    An iteration that leaves the ranked simplex and its values as it found
    them has frozen it: every later iteration would evaluate the same points
    and freeze it again. So its points are passed to `func` again, in order,
    for as many whole iterations as the budget holds, without the simplex
    arithmetic; the loop then runs the last partial iteration as usual.
    The replay evaluates SciPy's points only if `func` depends on the point
    alone, so that a repeated point gets its first value (optimize's memo
    sees to that).
    """
    n = len(simplex) - 1
    calls = 0
    points = []  # the points this iteration evaluated, in order

    def f(x) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        points.append(x)
        return float(func(x))

    sim = [_clip([2.0 - v if v > 1.0 else v for v in x]) for x in simplex]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Exhausted:
        pass
    sim, fsim = _ranked(sim, fsim)

    while calls < maxfev:
        start = sim.copy(), fsim.copy()  # the iteration edits both in place
        points.clear()
        try:
            best, worst = sim[0], sim[n]
            if all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:]) and all(
                abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)
            ):
                break
            # Vertices 0..n-1 added in turn, as np.add.reduce does; sum()
            # rounds differently from Python 3.12 on.
            xbar = sim[0]
            for x in sim[1:n]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / n for a in xbar]

            xr = _clip([2.0 * a - w for a, w in zip(xbar, worst)])
            fxr = f(xr)
            shrink = False
            if fxr < fsim[0]:
                xe = _clip([3.0 * a - 2.0 * w for a, w in zip(xbar, worst)])
                fxe = f(xe)
                sim[n], fsim[n] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[n - 1]:
                sim[n], fsim[n] = xr, fxr
            elif fxr < fsim[n]:
                xc = _clip([1.5 * a - 0.5 * w for a, w in zip(xbar, worst)])
                fxc = f(xc)
                if fxc <= fxr:
                    sim[n], fsim[n] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = _clip([0.5 * a + 0.5 * w for a, w in zip(xbar, worst)])
                fxcc = f(xcc)
                if fxcc < fsim[n]:
                    sim[n], fsim[n] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    # The vertex moves even when the budget refuses its value.
                    sim[j] = _clip([b + 0.5 * (v - b) for b, v in zip(best, sim[j])])
                    fsim[j] = f(sim[j])
        except _Exhausted:
            pass
        sim, fsim = _ranked(sim, fsim)
        if calls < maxfev and (sim, fsim) == start:
            replays = (maxfev - calls) // len(points)
            for _ in range(replays):
                for x in points:
                    func(x)
            calls += replays * len(points)
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
    violation, and a NaN score counts as a failed evaluation. The best
    returned is always the best feasible point actually evaluated;
    Infeasible is raised when there is none. Each free parameter must name
    a different field.

    The trace keeps one record per evaluation. A point this call has
    already evaluated is scored from its first evaluation, so each distinct
    point is built and run once and a callable objective is called at most
    once per distinct point (only feasible points are scored). A point
    Nelder-Mead revisits costs one trace record, a copy of its first.
    Points that keep the scenario's sensor record share its figures, as a
    sweep's points do (see _report).
    """
    params = [_normalize_parameter(p) for p in free_parameters]
    if not 1 <= len(params) <= MAX_FREE_PARAMETERS:
        raise ValueError(f"need 1..{MAX_FREE_PARAMETERS} free parameters")
    fields = [_resolve_path(scenario.tree, path) for path, _, _ in params]
    for i, steps in enumerate(fields):
        if steps in fields[:i]:
            first = params[fields.index(steps)][0]
            raise ValueError(f"{params[i][0]}: the same field as the free parameter {first}")
    limits = _constraint_limits(constraints)
    score = _objective_fn(objective)
    dim = len(params)

    names = [path for path, _, _ in params]
    lows = [lo for _, lo, _ in params]
    spans = [hi - lo for _, lo, hi in params]
    trace = []
    best = None  # (scenario, report, trace record) of the best feasible point
    seen = {}  # physical point -> the trace record of its first evaluation
    figures = {}  # of the scenario's sensor, for points that keep it

    def evaluate(z):
        nonlocal best
        # Nelder-Mead with bounds clips every vertex into the unit box.
        physical = tuple([lo + zi * span for zi, lo, span in zip(z, lows, spans)])
        first = seen.get(physical)
        if first is not None:
            # A repeated point: the record again, sharing no dict with it.
            trace.append({**first, "params": dict(first["params"])})
            return first["objective"]
        built, report, _ = _run_point(scenario, zip(fields, physical), figures)
        violation = 1.0 if report is None else _constraint_violation(report, limits)
        feasible = violation == 0.0
        value = score(report) if feasible else _PENALTY * (1.0 + violation)
        if math.isnan(value):  # scored as a failed evaluation, never the best
            feasible, value = False, _PENALTY * 2.0
        record = {"params": dict(zip(names, physical)), "objective": value, "feasible": feasible}
        trace.append(record)
        seen[physical] = record
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


def _fmt(value) -> str:
    return repr(float(value))


# Each report column's name and the report attribute it prints.
_REPORT_FIELDS = (
    ("sensitivity_V_per_T", "sensitivity"),
    ("offset_V", "offset"),
    ("output_at_field_V", "output_at_field"),
    ("tip_deflection_m", "tip_deflection"),
    ("anchor_stress_Pa", "anchor_stress"),
    ("stress_margin", "stress_margin"),
    ("resonant_frequency_Hz", "resonant_frequency"),
    ("quality_factor", "quality_factor"),
    ("temperature_rise_K", "temperature_rise"),
    ("noise_thermal_electrical_psd_V2_per_Hz", "noise.thermal_electrical_psd"),
    ("noise_mechanical_referred_psd_V2_per_Hz", "noise.thermal_mechanical_psd_referred"),
    ("noise_flicker_scale_V2", "noise.flicker_scale"),
    ("noise_corner_frequency_Hz", "noise.corner_frequency"),
    ("noise_rms_V", "noise.rms"),
    ("snr", "noise.snr"),
    ("min_detectable_field_T", "min_detectable_field"),
)
REPORT_COLUMNS = tuple((name, operator.attrgetter(attr)) for name, attr in _REPORT_FIELDS)
# Every column's figure at once, in column order.
_report_figures = operator.attrgetter(*(attr for _, attr in _REPORT_FIELDS))


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


_RESOLVER = yaml.resolver.Resolver()
_ANALYZER = yaml.emitter.Emitter(None)
_STR_TAG = "tag:yaml.org,2002:str"
# PyYAML and libyaml fold a scalar at a lone space past this column.
_LINE_WIDTH = 80
_LONE_SPACE = re.compile(r"(?<=[^ ]) (?=[^ ])")


@functools.lru_cache(maxsize=4096)
def _str_text(value: str) -> str:
    """`value` styled as PyYAML's emitter styles it, on one line.

    Plain where the resolver reads it back as a string and PyYAML's own
    analysis allows a plain block scalar, else single-quoted, which that
    analysis allows for all printable ASCII on one line.
    """
    if not (value.isascii() and value.isprintable()):
        raise ValueError(f"structured text takes printable ASCII only, got {value!r}")
    analysis = _ANALYZER.analyze_scalar(value)
    resolved = _RESOLVER.resolve(yaml.ScalarNode, value, (True, False))
    if resolved == _STR_TAG and analysis.allow_block_plain:
        return value
    return "'" + value.replace("'", "''") + "'"


def _flat_text(value) -> Optional[str]:
    """A scalar or empty container on one line as PyYAML's SafeDumper writes
    it; None for a container that takes block lines."""
    kind = type(value)
    if kind is float:
        # SafeRepresenter.represent_float.
        if value != value:
            return ".nan"
        if value == math.inf:
            return ".inf"
        if value == -math.inf:
            return "-.inf"
        text = repr(value).lower()
        if "." not in text and "e" in text:
            text = text.replace("e", ".0e", 1)
        return text
    if kind is dict or kind is list:
        return None if value else ("{}" if kind is dict else "[]")
    if kind is str:
        return _str_text(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    raise ValueError(f"structured text cannot write a {kind.__name__}: {value!r}")


def _fold(line: str, text: str, indent: str, lines: list) -> None:
    """Append `line`, which ends in the scalar `text`, folded as the emitters
    fold it: at a lone space, once the column before it is past 80, and never
    at the first or last character inside quotes. Continuation lines start
    at `indent`."""
    start = len(line) - len(text)
    quoted = text[0] == "'"
    cut, head = 0, ""
    # Quoted, the scan starts past the first character inside and ends at
    # the closing quote, so the lookahead fails on a last space inside.
    for space in _LONE_SPACE.finditer(line, start + 2 * quoted, len(line) - quoted):
        at = space.start()
        if len(head) + at - cut > _LINE_WIDTH:
            lines.append(head + line[cut:at])
            cut, head = at + 1, indent
    lines.append(head + line[cut:])


def _block_lines(node, pad: str, first: str, lines: list) -> None:
    """Append the block lines of a non-empty mapping or sequence.

    `pad` indents every line; the first line begins with `first` instead,
    which carries the "- " of an enclosing sequence item. Mappings have
    sorted keys, and a sequence under a key is not indented.
    """
    in_list = type(node) is list
    if in_list:
        entries = [("-", item) for item in node]
    else:
        for key in node:
            # A simple key, written plain.
            if type(key) is not str or len(key) >= 128 or _str_text(key) != key:
                raise ValueError(f"structured-text keys must be plain strings, got {key!r}")
        entries = [(f"{key}:", node[key]) for key in sorted(node)]
    for label, value in entries:
        text = _flat_text(value)
        if text is not None:
            line = f"{first}{label} {text}"
            if len(line) > _LINE_WIDTH:
                _fold(line, text, pad + "  ", lines)
            else:
                lines.append(line)
        elif in_list:
            _block_lines(value, pad + "  ", first + "- ", lines)
        else:
            lines.append(first + label)
            inner = pad + "  " if type(value) is dict else pad
            _block_lines(value, inner, inner, lines)
        first = pad


def _structured_text(tree) -> str:
    """`tree` in block YAML, byte for byte as PyYAML's SafeDumper and
    libyaml write it with sorted keys, block style and aliases ignored.

    Writes the scalars, mappings and sequences reports use, under a
    non-empty mapping or sequence. Raises ValueError for anything else:
    text outside printable ASCII, a key that is not a plain string, another
    type, or a scalar or empty top level.
    """
    if type(tree) not in (dict, list) or not tree:
        raise ValueError("structured text needs a non-empty mapping or sequence at the top level")
    lines = []
    _block_lines(tree, "", "", lines)
    lines.append("")
    return "\n".join(lines)


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
    text = "" if dumped is None else _structured_text(dumped)
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
    # default (CHANGES.md FOUND on EXTERNAL); it goes when that lookup does.
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
