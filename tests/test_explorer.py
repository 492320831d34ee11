import copy
import csv
import math
import random

import numpy as np
import pytest
import yaml

from memsmag import dynamics, explorer
from memsmag import (
    DEFAULT_CONSTRAINTS,
    HIGH_CURRENT_WARNING,
    InfeasibleError,
    MemsmagError,
    MissingPropertyError,
    UnknownPathError,
    build_scenario,
    builtin_material,
    composite_section,
    default_scenario,
    emit_report,
    ferro_torque,
    optimize,
    oracle_check,
    run_scenario,
    sweep,
)


def test_lorentz_report_fields():
    scenario = default_scenario("lorentz")
    report = run_scenario(scenario)
    assert report.sensitivity == pytest.approx(0.0803403, rel=1e-5)
    assert report.offset == pytest.approx(3e-5, rel=1e-12)
    assert report.output_at_field == pytest.approx(
        report.sensitivity * 1e-3 + report.offset, rel=1e-12
    )
    assert report.tip_deflection == pytest.approx(1.69632e-7, rel=1e-4, abs=0)
    assert report.resonant_frequency == pytest.approx(5773.578, rel=1e-6)
    assert report.temperature_rise == pytest.approx(0.5, rel=1e-12)
    assert report.stress_margin == pytest.approx(952.2, rel=1e-3)
    assert report.quality_factor == 30.0
    assert report.min_detectable_field == report.noise.min_detectable_field
    assert HIGH_CURRENT_WARNING in report.warnings
    assert report.scenario == scenario.tree


def test_ferro_report_fields():
    scenario = default_scenario("ferro")
    report = run_scenario(scenario)
    assert report.sensitivity == pytest.approx(0.0393558, rel=1e-5)
    assert report.tip_deflection == pytest.approx(3.056398e-5, rel=1e-5)
    assert report.tip_deflection > 10e-6
    assert report.resonant_frequency == pytest.approx(9434.944, rel=1e-6)
    assert report.stress_margin == pytest.approx(1.905689, rel=1e-5)
    assert report.temperature_rise == 0.0
    assert report.offset == 0.0
    assert report.output_at_field == pytest.approx(
        report.sensitivity * 0.4, rel=1e-12
    )
    assert report.warnings == []
    # The reported deflection is the static plate response to the net torque:
    # each suspension beam carries the end moment M0 = torque/count, which
    # deflects its tip by M0 l^2/(2EI) and stresses its anchor like a tip
    # force M0/l, 6 M0/(w t^2).
    sensor, env = scenario.sensor, scenario.environment
    torque = ferro_torque(
        sensor.magnetization,
        sensor.plate_volume,
        env.field_magnitude,
        env.field_angle + sensor.misalignment,
    )
    beam = sensor.suspension
    moment = torque / sensor.suspension_count
    rigidity = composite_section(beam).flexural_rigidity
    assert report.tip_deflection == pytest.approx(
        moment * beam.length**2 / (2.0 * rigidity), rel=1e-12
    )
    assert report.anchor_stress == pytest.approx(
        6.0 * moment / (beam.width * beam.total_thickness**2), rel=1e-12
    )


def test_low_current_has_no_warning():
    report = run_scenario(build_scenario({"drive": {"amplitude": 1e-3}}))
    assert report.warnings == []


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_one_pass_through_the_chain_per_report(monkeypatch, kind):
    # The sensitivity walks the chain at 1 T and the static response at the
    # ambient field; the noise budget adds one anchor stress for its
    # mechanical gain.
    scenario = default_scenario(kind)
    design = type(scenario.sensor)
    calls = {"tip_force": 0, "anchor_stress": 0}
    for name in calls:
        stage = getattr(design, name)

        def counted(self, *args, _stage=stage, _name=name):
            calls[_name] += 1
            return _stage(self, *args)

        monkeypatch.setattr(design, name, counted)
    run_scenario(scenario)
    assert calls == {"tip_force": 2, "anchor_stress": 3}


def test_zero_field_output_equals_offset():
    report = run_scenario(build_scenario({"environment": {"field_magnitude": 0.0}}))
    assert report.output_at_field == report.offset
    # An unstressed beam's infinite margin is the one non-finite figure allowed.
    assert report.stress_margin == math.inf


@pytest.mark.parametrize("tree, figure", [
    ({"environment": {"field_magnitude": 1.0e301}}, "output_at_field_V"),
    ({"sensor": {"top_beam_length": 1.0e300}}, "sensitivity_V_per_T"),
])
def test_non_finite_report_is_an_overflow(tree, figure):
    with pytest.raises(OverflowError, match=f"report figure {figure} is not finite"):
        run_scenario(build_scenario(tree))


def test_non_finite_reports_fail_their_sweep_points_and_optimizer_points():
    scenario = default_scenario("lorentz")
    result = sweep(scenario, "environment.field_magnitude", 1.0e299, 1.0e302, 4)
    assert result.reports[0] is not None
    assert result.reports[-1] is None
    assert result.errors[-1] == (
        "OverflowError: report figure output_at_field_V is not finite: inf"
    )
    with pytest.raises(InfeasibleError):
        optimize(scenario, [("environment.field_magnitude", 1.0e300, 1.0e302)])


def test_stage_prefix_on_failures():
    # Validation rejects a non-piezoresistive gauge film, so swap it in
    # after the build to reach the runtime failure.
    scenario = default_scenario("lorentz")
    scenario.sensor.gauge.material = builtin_material("silicon_nitride")
    with pytest.raises(MissingPropertyError, match="transduction: material"):
        run_scenario(scenario)


def test_sweep_matches_single_runs():
    scenario = default_scenario("lorentz")
    result = sweep(scenario, "drive.amplitude", 0.01, 0.05, 3)
    assert result.parameter_path == "drive.amplitude"
    assert len(result.values) == 3
    for value, report, error in zip(result.values, result.reports, result.errors):
        assert error is None
        single = run_scenario(build_scenario({"drive": {"amplitude": value}}))
        assert report.sensitivity == single.sensitivity
        assert report.output_at_field == single.output_at_field


def test_sweep_offsets_at_zero_field():
    base = build_scenario({"environment": {"field_magnitude": 0.0}})
    result = sweep(base, "drive.amplitude", 10e-3, 50e-3, 2)
    outputs = [report.output_at_field for report in result.reports]
    assert outputs == pytest.approx([3e-5, 7.5e-4], rel=1e-12)


def test_sweep_log_scale():
    result = sweep(default_scenario("lorentz"), "drive.amplitude", 1e-3, 1e-1, 3,
                   scale="log")
    assert result.values == pytest.approx([1e-3, 1e-2, 1e-1], rel=1e-12)


def test_sweep_argument_errors():
    scenario = default_scenario("lorentz")
    with pytest.raises(ValueError):
        sweep(scenario, "drive.amplitude", 0.01, 0.05, 1)
    with pytest.raises(ValueError):
        sweep(scenario, "drive.amplitude", 0.01, 0.05, 3, scale="cubic")
    with pytest.raises(ValueError):
        sweep(scenario, "drive.amplitude", 0.0, 0.05, 3, scale="log")


def test_sweep_unknown_paths():
    scenario = default_scenario("lorentz")
    with pytest.raises(UnknownPathError):
        sweep(scenario, "sensor.nonexistent", 1.0, 2.0, 2)
    with pytest.raises(UnknownPathError):
        sweep(scenario, "sensor.kind", 1.0, 2.0, 2)
    with pytest.raises(UnknownPathError):
        sweep(scenario, "drive..amplitude", 1.0, 2.0, 2)


def test_sweep_failed_points_keep_slots():
    result = sweep(default_scenario("lorentz"), "quality_factor", 0.4, 2.0, 5)
    assert result.reports[0] is None
    assert result.errors[0].startswith("ValidationError")
    assert "\n" not in result.errors[0]
    for report, error in zip(result.reports[1:], result.errors[1:]):
        assert report is not None
        assert error is None


def test_sweep_indexed_path():
    result = sweep(
        default_scenario("lorentz"),
        "sensor.support_beam.layers[2].thickness",
        0.5e-6,
        2e-6,
        2,
    )
    assert all(report is not None for report in result.reports)
    f0 = [report.resonant_frequency for report in result.reports]
    assert f0[0] != f0[1]


@pytest.mark.parametrize("kind, path", [
    ("lorentz", "sensor.support_beam.layers[2].thickness"),
    ("ferro", "sensor.suspension.layers[0].thickness"),
])
def test_sweep_and_optimize_leave_tree_unchanged(kind, path):
    scenario = default_scenario(kind)
    before = copy.deepcopy(scenario.tree)
    result = sweep(scenario, path, 0.2e-6, 2e-6, 3)
    assert scenario.tree == before
    assert result.reports[-1].scenario["sensor"] != before["sensor"]
    best = optimize(scenario, [(path, 0.2e-6, 2e-6)]).best
    assert scenario.tree == before
    assert best.tree["drive"] == before["drive"]


def _numeric_paths(node, path=""):
    """The dotted path of every numeric leaf under `node`."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _numeric_paths(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_paths(value, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


# Each side of every bound a scenario field has: 0, 0.5 (quality_factor,
# poisson_ratio) and 1 (the beam counts).
_BOUND_NEIGHBOURS = [
    math.nextafter(bound, side) for bound in (0.0, 0.5, 1.0) for side in (-math.inf, math.inf)
]


def _edit_values(tree, steps, value):
    values = [value * (1 + 1e-3), value * (1 - 1e-3), 0.0, -1.0, 1e-320, 1e300]
    values += _BOUND_NEIGHBOURS
    if isinstance(value, int):
        values.append(value + 0.5)
    if steps[0] == "noise_band":
        other = tree["noise_band"][1 - steps[1]]
        values += [math.nextafter(other, -math.inf), math.nextafter(other, math.inf)]
    return values


def _fresh_point(tree):
    """What a full build of `tree` gives, in _run_point's result shape."""
    try:
        built = build_scenario(tree)
        return built, run_scenario(built), None
    except (MemsmagError, ValueError, ArithmeticError) as exc:
        return None, None, f"{type(exc).__name__}: " + " ".join(str(exc).split())


@pytest.mark.parametrize("parent", [
    {},
    {"sensor": {"kind": "ferro"}},
    {"material_overrides": {
        "aluminum": {"youngs_modulus": 69.0e9, "yield_stress": 1.6e8},
        "silicon": {"pi_longitudinal": 1.1e-9, "hooge_alpha": 2.0e-6},
    }},
], ids=["lorentz", "ferro", "overrides"])
def test_point_reusing_parent_sections_matches_a_fresh_build(parent):
    scenario = build_scenario(parent)
    paths = list(_numeric_paths(scenario.tree))
    overridden = any(path.startswith("material_overrides.") for path in paths)
    assert overridden == ("material_overrides" in parent)
    for path in paths:
        steps = explorer._resolve_path(scenario.tree, path)
        value = scenario.tree
        for step in steps:
            value = value[step]
        section = steps[0]
        # Which of the parent's records the point may keep, by the edited section.
        kept = {
            "environment": section != "environment",
            "sensor": section not in ("sensor", "material_overrides"),
            "drive": section not in ("sensor", "drive"),
        }
        for new in _edit_values(scenario.tree, steps, value):
            got = explorer._run_point(scenario, [(steps, new)])
            assert got == _fresh_point(explorer._with_value(scenario.tree, steps, new)), (
                path, new)
            if got[0] is not None:
                for name, keep in kept.items():
                    assert (getattr(got[0], name) is getattr(scenario, name)) == keep, (
                        path, new, name)


def test_optimize_pushes_to_bound():
    result = optimize(
        default_scenario("lorentz"),
        [("drive.amplitude", 1e-3, 12e-3)],
        objective="sensitivity",
    )
    assert result.best.drive.amplitude == pytest.approx(12e-3, rel=1e-3)
    assert result.report.sensitivity == pytest.approx(
        run_scenario(result.best).sensitivity, rel=1e-12
    )


def test_optimize_respects_heating_constraint():
    # Sensitivity grows with current, so the heating limit binds first:
    # I^2 * 100 Ohm * 50 K/W = 1 K at sqrt(2e-4) A.
    result = optimize(
        default_scenario("lorentz"),
        [("drive.amplitude", 1e-3, 50e-3)],
        objective="sensitivity",
    )
    assert result.best.drive.amplitude == pytest.approx(0.014142135, rel=1e-3)
    assert result.report.temperature_rise <= DEFAULT_CONSTRAINTS[
        "max_temperature_rise"
    ] * (1 + 1e-9)


def test_optimize_scaling_invariance():
    scenario = default_scenario("lorentz")
    params = [("drive.amplitude", 1e-3, 12e-3)]
    plain = optimize(scenario, params, objective=lambda r: -r.sensitivity)
    scaled = optimize(scenario, params, objective=lambda r: -8.0 * r.sensitivity)
    assert plain.best.drive.amplitude == scaled.best.drive.amplitude
    assert [e["params"] for e in plain.trace] == [e["params"] for e in scaled.trace]
    assert [e["feasible"] for e in plain.trace] == [e["feasible"] for e in scaled.trace]


def test_optimize_keeps_the_scenario_it_built(monkeypatch):
    import memsmag.explorer as explorer

    builds = []
    parse = explorer._parse

    def counted(tree, parent):
        builds.append(tree)
        return parse(tree, parent)

    monkeypatch.setattr(explorer, "_parse", counted)
    result = optimize(
        default_scenario("lorentz"),
        [("drive.amplitude", 1e-3, 12e-3)],
        objective="sensitivity",
    )
    assert len(builds) == len(result.trace)
    assert result.report.scenario is result.best.tree


def test_sweep_overflow_points_keep_slots():
    result = sweep(
        default_scenario("lorentz"),
        "sensor.support_beam.layers[2].thickness",
        1e-7,
        1e300,
        8,
        scale="log",
    )
    assert result.reports[0] is not None
    assert result.errors[0] is None
    assert result.reports[-1] is None
    assert result.errors[-1].startswith("OverflowError: ")


def test_optimize_box_reaching_arithmetic_failures():
    scenario = default_scenario("lorentz")
    result = optimize(scenario, [("sensor.support_beam.layers[2].thickness", 0.5e-6, 1e300)])
    assert not all(entry["feasible"] for entry in result.trace)
    assert result.best.sensor.beam.layers[2].thickness < 1e-3
    with pytest.raises(InfeasibleError):
        optimize(scenario, [("sensor.support_beam.width", 1e-320, 1e-319)])


def test_optimize_infeasible_box():
    with pytest.raises(InfeasibleError):
        optimize(
            default_scenario("lorentz"),
            [("drive.amplitude", 0.2, 0.5)],
            objective="sensitivity",
        )


def test_optimize_argument_errors():
    scenario = default_scenario("lorentz")
    with pytest.raises(ValueError):
        optimize(scenario, [])
    seven = [
        ("drive.amplitude", 1e-3, 2e-3),
        ("drive.frequency", 1e3, 2e3),
        ("environment.field_magnitude", 1e-3, 2e-3),
        ("environment.temperature", 300.0, 310.0),
        ("quality_factor", 10.0, 20.0),
        ("offset_coefficient", 0.1, 0.2),
        ("thermal_resistance", 10.0, 20.0),
    ]
    with pytest.raises(ValueError):
        optimize(scenario, seven)
    with pytest.raises(ValueError):
        optimize(scenario, [("drive.amplitude", 2e-3, 1e-3)])
    with pytest.raises(ValueError):
        optimize(scenario, [("drive.amplitude", 1e-3, 2e-3)], objective="bogus")
    with pytest.raises(UnknownPathError):
        optimize(scenario, [("drive.bogus", 1e-3, 2e-3)])


@pytest.mark.parametrize("constraints, message", [
    ({"max_stres_fraction": 0.5}, "unknown constraint 'max_stres_fraction'"),
    ({"max_temperature_rise": 0.0}, "max_temperature_rise must be finite and > 0"),
    ({"max_temperature_rise": -1.0}, "max_temperature_rise must be finite and > 0"),
    ({"max_stress_fraction": 0.0}, "max_stress_fraction must be finite and > 0"),
    ({"max_stress_fraction": math.nan}, "max_stress_fraction must be finite and > 0"),
    ({"max_stress_fraction": math.inf}, "max_stress_fraction must be finite and > 0"),
])
def test_optimize_rejects_bad_constraints_before_evaluating(monkeypatch, constraints, message):
    def no_evaluation(*args):
        raise AssertionError("a point was evaluated")

    monkeypatch.setattr(explorer, "_run_point", no_evaluation)
    with pytest.raises(ValueError, match=message):
        optimize(default_scenario("lorentz"), [("drive.amplitude", 1e-3, 12e-3)],
                 constraints=constraints)


def test_sweep_point_cap_allocates_nothing(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the sweep allocated its points")

    monkeypatch.setattr(explorer.np, "linspace", no_allocation)
    monkeypatch.setattr(explorer, "_run_point", no_allocation)
    with pytest.raises(ValueError, match=f"steps must be between 2 and {explorer.MAX_SWEEP_POINTS}"):
        sweep(default_scenario("lorentz"), "drive.amplitude", 1e-3, 1e-2,
              explorer.MAX_SWEEP_POINTS + 1)


def test_optimize_trace_records_every_point():
    result = optimize(
        default_scenario("lorentz"),
        [("drive.amplitude", 1e-3, 12e-3)],
        objective="sensitivity",
    )
    assert result.trace
    feasible_values = []
    for entry in result.trace:
        assert set(entry) == {"params", "objective", "feasible"}
        assert set(entry["params"]) == {"drive.amplitude"}
        if entry["feasible"]:
            feasible_values.append(entry["objective"])
        else:
            assert entry["objective"] >= 1e30
    assert min(feasible_values) == -result.report.sensitivity


@pytest.mark.parametrize("kind, params, objective", [
    ("lorentz", [("drive.amplitude", 1e-3, 12e-3)], "sensitivity"),
    ("lorentz", [("sensor.support_beam.length", 200e-6, 800e-6),
                 ("sensor.support_beam.width", 5e-6, 40e-6)], "min_detectable_field"),
    ("ferro", [("sensor.plate_length", 50e-6, 400e-6)], "min_detectable_field"),
])
def test_optimize_evaluation_is_the_first_best_trace_record(kind, params, objective):
    result = optimize(default_scenario(kind), params, objective)
    feasible = [entry for entry in result.trace if entry["feasible"]]
    best = min(entry["objective"] for entry in feasible)
    first = next(entry for entry in feasible if entry["objective"] == best)
    assert result.evaluation is first
    for path, _, _ in params:
        node = result.best.tree
        for step in explorer._resolve_path(result.best.tree, path):
            node = node[step]
        assert result.evaluation["params"][path] == node


@pytest.mark.parametrize("yield_stress", [5.0e-324, 1.0e-300])
def test_optimize_scores_stay_finite_when_the_stress_margin_underflows(yield_stress):
    # A margin that underflows to 0, or a violation that would overflow
    # the penalty, scores a finite penalty; no warning escapes Nelder-Mead.
    scenario = build_scenario({"material_overrides": {"silicon": {"yield_stress": yield_stress}}})
    assert run_scenario(scenario).stress_margin < 1e-280
    with pytest.raises(InfeasibleError):
        optimize(scenario, [("drive.amplitude", 1e-3, 12e-3)])
    result = optimize(scenario, [("material_overrides.silicon.yield_stress", yield_stress, 7e9)])
    assert all(math.isfinite(entry["objective"]) for entry in result.trace)
    assert not all(entry["feasible"] for entry in result.trace)


def test_emit_deterministic_bytes(tmp_path):
    report = run_scenario(default_scenario("lorentz"))
    for fmt, ext in (("csv", "csv"), ("structured-text", "yaml")):
        a = tmp_path / f"a.{ext}"
        b = tmp_path / f"b.{ext}"
        emit_report(report, fmt, a)
        emit_report(report, fmt, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.stat().st_size > 0


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("make", [
    lambda: run_scenario(default_scenario("lorentz")),
    lambda: run_scenario(default_scenario("ferro")),
    lambda: sweep(default_scenario("lorentz"), "quality_factor", 0.0, 5.0, 20),
], ids=["lorentz", "ferro", "failing-sweep"])
def test_libyaml_emitter_gives_the_same_bytes(monkeypatch, make):
    obj = make()
    no_aliases = {"ignore_aliases": explorer._DUMPER.ignore_aliases}
    monkeypatch.setattr(explorer, "_DUMPER", type("C", (yaml.CSafeDumper,), no_aliases))
    fast = explorer._render(obj, "structured-text")
    monkeypatch.setattr(explorer, "_DUMPER", type("P", (yaml.SafeDumper,), no_aliases))
    assert explorer._render(obj, "structured-text") == fast
    assert "&id" not in fast


@pytest.fixture
def scipy_nelder_mead(monkeypatch):
    """scipy's bounded Nelder-Mead, called as optimize called it, on lists.

    Tied values are sorted stably. numpy's default argsort keeps ties in
    order on small arrays where it runs an insertion sort, but not where it
    dispatches to a SIMD sorting network (AVX-512 CPUs), so scipy's own order
    of tied vertices depends on the CPU.
    """
    from scipy.optimize import minimize

    argsort = np.argsort

    def run(func, simplex, xatol, fatol, maxfev):
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
            result = minimize(
                lambda z: func(tuple(z.tolist())),
                np.array(simplex[0]),
                method="Nelder-Mead",
                bounds=[(0.0, 1.0)] * len(simplex[0]),
                options={
                    "initial_simplex": np.array(simplex),
                    "xatol": xatol,
                    "fatol": fatol,
                    "maxfev": maxfev,
                },
            )
        sim, fsim = result.final_simplex
        return [tuple(row) for row in sim.tolist()], fsim.tolist()

    return run


def _surfaces(dim: int) -> dict:
    rng = random.Random(dim)
    # Every coordinate of the minimum lies outside the box, so steps clip.
    # The walk climbs in x[0], into the penalty plateau and the NaN stripes.
    centre = [rng.uniform(1.2, 1.4)]
    centre += [rng.choice((-0.3, 1.3)) + rng.uniform(-0.1, 0.1) for _ in range(dim - 1)]

    def bowl(x):
        return math.fsum((v - c) ** 2 for v, c in zip(x, centre))

    def terraces(x):
        # Tied steps, and a plateau like optimize's death penalty.
        return 2e30 if x[0] > 0.8 else math.floor(8.0 * bowl(x)) / 8.0

    def holes(x):
        # NaN stripes across x[0], one of them through the first start's simplex.
        return math.nan if int(20.0 * x[0]) % 4 == 3 else bowl(x)

    def steps(x):
        # From (0.5, ...) in three dimensions the start values are 1, 1, 0, 0:
        # a tie that a sorting network reorders.
        return 0.0 if math.fsum(x[1:]) > 0.5 * dim - 0.49 else 1.0

    return {"bowl": bowl, "terraces": terraces, "steps": steps, "flat": lambda x: 1.0,
            "nan": holes}


def _start_simplex(z0) -> list:
    simplex = [list(z0) for _ in range(len(z0) + 1)]
    for i in range(len(z0)):
        simplex[i + 1][i] += 0.05  # from the (1, ..., 1) corner this leaves the box
    return simplex


def _evaluated_points(minimizer, surface, simplex, maxfev):
    points = []

    def recorded(x):
        points.append(tuple(x))
        return surface(x)

    final = minimizer(recorded, simplex, xatol=1e-5, fatol=1e-300, maxfev=maxfev)
    return points, final


@pytest.mark.parametrize("surface", ["bowl", "terraces", "steps", "flat", "nan"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nelder_mead_evaluates_scipys_points(scipy_nelder_mead, dim, surface):
    func = _surfaces(dim)[surface]
    for z0 in ((0.5,) * dim, (1.0,) * dim, (0.0,) * dim):
        simplex = _start_simplex(z0)
        ours = _evaluated_points(explorer._nelder_mead, func, simplex, 400 * dim)
        theirs = _evaluated_points(scipy_nelder_mead, func, simplex, 400 * dim)
        assert repr(ours) == repr(theirs), z0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nelder_mead_budget_stops_where_scipys_does(scipy_nelder_mead, dim):
    # On a flat surface every iteration is a reflection, an inside
    # contraction and a shrink, so these budgets end inside each step; a
    # vertex whose shrink the budget refuses has moved but keeps its value.
    simplex = _start_simplex((1.0,) * dim)
    for maxfev in range(1, 3 * (2 * dim + 3)):
        ours = _evaluated_points(explorer._nelder_mead, lambda x: 1.0, simplex, maxfev)
        theirs = _evaluated_points(scipy_nelder_mead, lambda x: 1.0, simplex, maxfev)
        assert repr(ours) == repr(theirs), maxfev
        assert len(ours[0]) == maxfev


def test_optimize_trace_matches_a_scipy_built_trace(monkeypatch, scipy_nelder_mead):
    params = [("sensor.support_beam.length", 200e-6, 800e-6),
              ("sensor.support_beam.width", 5e-6, 40e-6)]
    ours = optimize(default_scenario("lorentz"), params, "sensitivity")
    monkeypatch.setattr(explorer, "_nelder_mead", scipy_nelder_mead)
    reference = optimize(default_scenario("lorentz"), params, "sensitivity")
    assert len(ours.trace) == 85
    assert repr(ours.trace) == repr(reference.trace)


def test_scipy_names_resolve_after_optimize():
    import scipy.optimize

    optimize(default_scenario("lorentz"), [("drive.amplitude", 1e-3, 2e-3)])
    assert explorer.minimize is scipy.optimize.minimize
    assert dynamics.minimize_scalar is scipy.optimize.minimize_scalar
    with pytest.raises(AttributeError):
        explorer.minimize_scalar
    with pytest.raises(AttributeError):
        dynamics.minimize


def test_sweep_csv_with_failed_row_parses(tmp_path):
    result = sweep(default_scenario("lorentz"), "quality_factor", 0.4, 2.0, 5)
    path = tmp_path / "sweep.csv"
    emit_report(result, "csv", path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header = rows[0]
    assert header[0] == "quality_factor"
    assert header[-1] == "error"
    assert all(len(row) == len(header) for row in rows[1:])
    failed = rows[1]
    assert failed[-1].startswith("ValidationError")
    assert all(cell == "" for cell in failed[1:-1])
    good = rows[2]
    assert good[-1] == ""
    assert float(good[1]) > 0  # sensitivity column parses


def test_structured_text_roundtrip(tmp_path):
    report = run_scenario(default_scenario("lorentz"))
    path = tmp_path / "report.yaml"
    emit_report(report, "structured-text", path)
    with open(path) as handle:
        loaded = yaml.safe_load(handle)
    assert loaded["sensitivity_V_per_T"] == report.sensitivity
    assert loaded["tip_deflection_m"] == report.tip_deflection
    assert loaded["min_detectable_field_T"] == report.min_detectable_field
    assert loaded["noise"]["rms_V"] == report.noise.rms
    assert loaded["noise"]["band_Hz"] == [1.0, 10e3]
    assert loaded["warnings"] == report.warnings
    assert loaded["scenario"] == report.scenario


def test_structured_text_sweep_roundtrip(tmp_path):
    result = sweep(default_scenario("lorentz"), "quality_factor", 0.4, 2.0, 3)
    path = tmp_path / "sweep.yaml"
    emit_report(result, "structured-text", path)
    with open(path) as handle:
        loaded = yaml.safe_load(handle)
    assert loaded["parameter_path"] == "quality_factor"
    assert [p["value"] for p in loaded["points"]] == result.values
    assert "error" in loaded["points"][0]
    assert loaded["points"][1]["report"]["sensitivity_V_per_T"] == (
        result.reports[1].sensitivity
    )


def test_emit_unknown_format(tmp_path):
    report = run_scenario(default_scenario("lorentz"))
    result = sweep(default_scenario("lorentz"), "quality_factor", 0.4, 2.0, 3)
    for obj in (report, result):
        path = tmp_path / "out.xml"
        with pytest.raises(ValueError, match="'xml'"):
            emit_report(obj, "xml", path)
        assert not path.exists()


def test_oracle_check_both_kinds():
    for kind in ("lorentz", "ferro"):
        result = oracle_check(default_scenario(kind))
        assert result["passed"] is True
        assert result["tip_deflection_rel_error"] < 0.01
        assert result["anchor_moment_rel_error"] < 0.02
        assert 1.8 <= result["convergence_order"] <= 2.2


def test_oracle_check_solves_each_grid_once(monkeypatch):
    import memsmag.beam_oracle as beam_oracle
    import memsmag.explorer as explorer

    grids = []
    real = beam_oracle.solve_static

    def counted(geom, grid_size=400, **kwargs):
        grids.append(grid_size)
        return real(geom, grid_size=grid_size, **kwargs)

    monkeypatch.setattr(explorer, "solve_static", counted)
    monkeypatch.setattr(beam_oracle, "solve_static", counted)
    oracle_check(default_scenario("lorentz"))
    assert grids == [100, 200, 400]


def test_slender_beam_flag_in_report():
    # 10 um of a 1.38 um stack: slenderness 7.2, below the limit of 10.
    scenario = build_scenario({"sensor": {"support_beam": {"length": 10.0e-6}}})
    report = run_scenario(scenario)
    assert report.warnings == [
        HIGH_CURRENT_WARNING,
        "beam slenderness 7.2 < 10.0; slender-beam bending theory is questionable here",
    ]


def test_field_sign_keeps_min_detectable_field():
    up, down = (
        run_scenario(build_scenario({"environment": {"field_angle": angle}}))
        for angle in (0.5, -0.5)
    )
    assert down.sensitivity == pytest.approx(-up.sensitivity, rel=1e-12)
    assert down.min_detectable_field == pytest.approx(up.min_detectable_field, rel=1e-12)
    # Angle plus misalignment past pi turns the plate's output negative too.
    ferro = run_scenario(
        build_scenario({"sensor": {"kind": "ferro"}, "environment": {"field_angle": 3.5}})
    )
    assert ferro.sensitivity < 0
    assert 0 < ferro.min_detectable_field < math.inf
