import copy
import csv
import dataclasses
import importlib.util
import math
import random
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from memsmag import dynamics, explorer
from memsmag import (
    DEFAULT_CONSTRAINTS,
    HIGH_CURRENT_WARNING,
    DomainError,
    InfeasibleError,
    Material,
    MemsmagError,
    UnknownPathError,
    build_scenario,
    composite_section,
    curl_tip_height,
    default_scenario,
    emit_report,
    ferro_torque,
    optimize,
    oracle_check,
    run_scenario,
    solve_static,
    stack_curvature,
    sweep,
)
from memsmag import scenario as scenario_module
from memsmag.scenario import _with_values
from memsmag.transduction import SensorDesign


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
    # ambient field; the noise budget refers its force noise through the
    # sensitivity's anchor stress per newton.
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
    assert calls == {"tip_force": 2, "anchor_stress": 2}


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
    # A validated temperature that underflows the Johnson PSD fails at run
    # time, and the error names the stage it failed in.
    scenario = build_scenario({"environment": {"temperature": 1.0e-320}})
    with pytest.raises(DomainError, match=r"^noise: Johnson PSD"):
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


def _linear_ranges() -> list:
    """(start, stop, steps) edge cases, then seeded ranges over the whole float range."""
    cases = [
        (1e-3, 1e-3, 5), (0.0, -0.0, 3), (-0.0, -0.0, 4),
        (1e-2, 1e-3, 7), (5.0, -3.0, 2), (-1e-300, -2e-300, 11),
        (0.0, 5e-324, 2), (0.0, 5e-324, 3), (0.0, 5e-324, 4), (5e-324, 0.0, 9),
        (0.0, 1.5e-323, 4), (-5e-324, 5e-324, 7),
        (1e-3, 1e-2, 2), (1e-3, 1e-2, explorer.MAX_SWEEP_POINTS),
        (-1e308, 1e308, explorer.MAX_SWEEP_POINTS), (-1e308, 1e308, 2), (1e308, -1e308, 3),
    ]
    rng = random.Random(20080602)
    for _ in range(2000):
        start, stop = (
            rng.choice([1, -1]) * math.ldexp(rng.random(), rng.randint(-1074, 1024))
            for _ in range(2)
        )
        if rng.random() < 0.2:
            stop = start + rng.choice([-1, 1]) * rng.random() * abs(start) * 1e-12
        cases.append((start, stop, rng.choice([2, 3, 4, 5, rng.randint(2, 400)])))
    return cases


def test_linear_sweep_values_are_np_linspaces_bits(monkeypatch):
    # The points themselves are not run: only the values are under test.
    monkeypatch.setattr(explorer, "_run_point", lambda scenario, edits, figures: (None, None, None))
    scenario = default_scenario("lorentz")
    for start, stop, steps in _linear_ranges():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = np.linspace(start, stop, steps).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sweep(scenario, "drive.amplitude", start, stop, steps).values
        assert [v.hex() for v in values] == [v.hex() for v in expected], (start, stop, steps)


def test_log_sweep_values_are_within_an_ulp_of_np_geomspace(monkeypatch):
    # libm's pow and numpy's may round apart in the last place; the ends are
    # the given values exactly. At the largest float, 10**log10(x) overflows
    # and the middle point reads inf, as numpy gives it.
    monkeypatch.setattr(explorer, "_run_point", lambda scenario, edits, figures: (None, None, None))
    scenario = default_scenario("lorentz")
    largest = sys.float_info.max
    cases = [(1e-3, 1e-1, 3), (1e-3, 1e-3, 5), (1e-1, 1e-3, 7), (largest, 1e308, 4),
             (5e-324, largest, explorer.MAX_SWEEP_POINTS), (largest, largest, 3)]
    rng = random.Random(20080603)
    for _ in range(2000):
        start, stop = (
            max(math.ldexp(rng.random(), rng.randint(-1074, 1023)), math.ulp(0.0))
            for _ in range(2)
        )
        cases.append((start, stop, rng.choice([2, 3, 4, 5, rng.randint(2, 400)])))
    for start, stop, steps in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = np.geomspace(start, stop, steps).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = sweep(scenario, "drive.amplitude", start, stop, steps, scale="log").values
        assert len(values) == steps
        assert (values[0], values[-1]) == (start, stop)
        for value, reference in zip(values[1:-1], expected[1:-1]):
            near = (reference, math.nextafter(reference, math.inf), math.nextafter(reference, 0.0))
            assert value in near, (start, stop, steps, value.hex(), reference.hex())
    assert sweep(scenario, "drive.amplitude", largest, largest, 3, scale="log").values[1] == math.inf


def test_overflowing_linear_sweep_runs_without_warnings(tmp_path):
    # stop - start overflows to inf: the first value is nan and the rest inf,
    # as np.linspace gives them, and every point fails in its own row.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep(default_scenario("lorentz"), "drive.amplitude", -1e308, 1e308, 3)
        emit_report(result, "csv", tmp_path / "sweep.csv")
    assert [v.hex() for v in result.values] == ["nan", "inf", float(1e308).hex()]
    assert all(result.errors) and not any(result.reports)


@pytest.mark.parametrize("start, stop", [(math.inf, 10.0), (10.0, math.inf), (math.nan, 10.0)])
def test_log_sweep_with_a_non_finite_end_runs_without_warnings(tmp_path, start, stop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sweep(default_scenario("lorentz"), "drive.amplitude", start, stop, 4, scale="log")
        emit_report(result, "csv", tmp_path / "sweep.csv")
    for value, report, error in zip(result.values, result.reports, result.errors):
        assert (report is None) == (not math.isfinite(value))
        assert (error is None) == math.isfinite(value)
    assert not all(math.isfinite(v) for v in result.values)


def test_numpy_floats_and_tuples_resolve_to_a_plain_tree(tmp_path):
    odd = build_scenario({"quality_factor": np.float64(20.0), "noise_band": (1.0, 10.0)})
    plain = build_scenario({"quality_factor": 20.0, "noise_band": [1.0, 10.0]})
    assert type(odd.tree["quality_factor"]) is float
    assert type(odd.tree["noise_band"]) is list
    for fmt in ("csv", "structured-text"):
        emit_report(run_scenario(odd), fmt, tmp_path / "odd")
        emit_report(run_scenario(plain), fmt, tmp_path / "plain")
        assert (tmp_path / "odd").read_bytes() == (tmp_path / "plain").read_bytes()
    result = sweep(odd, "noise_band[0]", 1.0, 5.0, 3)
    assert result.errors == [None] * 3
    assert [r.noise.band[0] for r in result.reports] == [1.0, 3.0, 5.0]


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


_PROBE_FIELDS = [f.name for f in dataclasses.fields(Material) if f.name != "name"]

# Inputs that change no report figure, and why. Every other input must.
_INERT = {
    "drive.frequency": "read by the transient only",
    "residual_stress": "acts on a report.warnings line (the stack's lift), not on a figure",
    "lorentz:material_overrides.silicon.yield_stress": "aluminum is the weakest layer",
    "lorentz:material_overrides.silicon_nitride.yield_stress": "aluminum is the weakest layer",
    "ferro:material_overrides.silicon_nitride.yield_stress": "aluminum is the weakest layer",
    "ferro:offset_coefficient": "the Joule offset c I^2 is 0 at zero drive",
    "ferro:thermal_resistance": "the temperature rise R_th I^2 R is 0 at zero drive",
    "ferro:material_overrides.polysilicon.youngs_modulus": "the gauge film is not in the stack",
    "ferro:material_overrides.polysilicon.density": "the gauge film is not in the stack",
    "ferro:material_overrides.polysilicon.yield_stress": "the gauge film is not in the stack",
}


def _nudged(value):
    """The probe's edit: 10 % up, one more for a count, 0.1 from 0."""
    if isinstance(value, int):
        return value + 1
    return value * 1.1 if value else 0.1


def _probe_inputs(scenario):
    """(path, edit) for every numeric leaf of the tree, a residual stress on
    every layer and each set Material field of each film in use."""
    tree = scenario.tree
    for path in _numeric_paths(tree):
        steps = explorer._resolve_path(tree, path)
        value = tree
        for step in steps:
            value = value[step]
        yield path, (steps, _nudged(value))
    beam = scenario.sensor.beam_field
    for i in range(len(tree["sensor"][beam]["layers"])):
        steps = ["sensor", beam, "layers", i, "residual_stress"]
        yield f"sensor.{beam}.layers[{i}].residual_stress", (steps, _nudged(0.0))
    films = [layer.material for layer in scenario.sensor.beam.layers]
    films.append(scenario.sensor.gauge.material)
    for film in dict.fromkeys(films):
        for name in _PROBE_FIELDS:
            value = getattr(film, name)
            if value is not None:  # an unset property is no input
                edit = (["material_overrides", film.name], {name: _nudged(value)})
                yield f"material_overrides.{film.name}.{name}", edit


def _inert_reason(kind, path):
    for key in (f"{kind}:{path}", path, path.rpartition(".")[2]):
        if key in _INERT:
            return _INERT[key]
    return None


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_every_input_acts_on_a_report_figure(kind):
    scenario = default_scenario(kind)

    def figures(report):
        return [get(report) for _, get in explorer.REPORT_COLUMNS]

    base = figures(run_scenario(scenario))
    acted, inert = [], []
    sensor_figures = {}
    for path, edit in _probe_inputs(scenario):
        _, report, error = explorer._run_point(scenario, [edit], sensor_figures)
        assert error is None, (path, error)
        (acted if figures(report) != base else inert).append(path)
    assert len(acted) > 30
    # Inert only with a listed reason, and nothing listed acts.
    assert [path for path in inert if not _inert_reason(kind, path)] == []
    assert [path for path in acted if _inert_reason(kind, path)] == []


# Each side of every bound a scenario field has: 0, 0.5 (quality_factor)
# and 1 (the beam counts).
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


_OVERRIDES = {
    "aluminum": {"youngs_modulus": 69.0e9, "yield_stress": 1.6e8},
    "silicon": {"pi_longitudinal": 1.1e-9, "hooge_alpha": 2.0e-6},
}


@pytest.mark.parametrize("parent", [
    {},
    {"sensor": {"kind": "ferro"}},
    {"material_overrides": _OVERRIDES},
], ids=["lorentz", "ferro", "overrides"])
def test_point_reusing_parent_sections_matches_a_fresh_build(parent):
    scenario = build_scenario(parent)
    # One call's figures for every point, as one sweep or search keeps them.
    sensor_figures = {}
    paths = list(_numeric_paths(scenario.tree))
    overridden = any(path.startswith("material_overrides.") for path in paths)
    assert overridden == ("material_overrides" in parent)
    for path in paths:
        steps = explorer._resolve_path(scenario.tree, path)
        value = scenario.tree
        for step in steps:
            value = value[step]
        section = steps[0]
        # Which of the parent's records the point may keep, by the edited
        # section. An override edit builds the whole point afresh.
        kept = {
            name: section not in (name, "material_overrides")
            for name in ("environment", "sensor", "drive")
        }
        for new in _edit_values(scenario.tree, steps, value):
            got = explorer._run_point(scenario, [(steps, new)], sensor_figures)
            assert got == _fresh_point(_with_values(scenario.tree, [(steps, new)])), (path, new)
            if got[0] is None:
                continue
            for name, keep in kept.items():
                assert (getattr(got[0], name) is getattr(scenario, name)) == keep, (
                    path, new, name)
            if section == "sensor":
                # Within the sensor, only the records on the edited path are new.
                sensor, old = got[0].sensor, scenario.sensor
                assert (sensor.gauge is old.gauge) == (steps[1] != "gauge"), (path, new)
                layer_edit = steps[1] == old.beam_field and steps[2] == "layers"
                assert (sensor.beam.layers is old.beam.layers) == (not layer_edit), (path, new)
                if layer_edit:
                    for i, layer in enumerate(sensor.beam.layers):
                        assert (layer is old.beam.layers[i]) == (i != steps[3]), (path, new)


def test_point_on_an_overrides_parent_builds_no_materials(monkeypatch):
    scenario = build_scenario({"material_overrides": _OVERRIDES})
    materials = scenario_module._materials
    calls = []

    def counted(node, violations):
        calls.append(node)
        return materials(node, violations)

    monkeypatch.setattr(scenario_module, "_materials", counted)
    for path, edit in _probe_inputs(scenario):
        if not path.startswith("material_overrides."):
            assert explorer._run_point(scenario, [edit], {})[2] is None, path
    # A point that edits no override keeps every record that reads one.
    assert calls == []


# Multi-leaf points: the alw and flw boxes, and pairs across sections.
_MULTI_EDITS = {
    "lorentz": [
        ("drive.amplitude", "sensor.support_beam.length", "sensor.support_beam.width"),
        ("sensor.gauge.resistance", "drive.frequency"),
        ("sensor.support_beam.layers[2].thickness", "environment.temperature", "quality_factor"),
    ],
    "ferro": [
        ("sensor.suspension.length", "sensor.suspension.width"),
        ("sensor.plate_length", "drive.amplitude"),
        ("sensor.suspension.layers[0].thickness", "noise_band[1]"),
    ],
}


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_multi_leaf_point_matches_a_fresh_build(kind):
    scenario = default_scenario(kind)
    tree = scenario.tree
    sensor_figures = {}
    scales = [1.0, 1.5, 0.25, 0.0, -1.0]
    for paths in _MULTI_EDITS[kind]:
        steps = [explorer._resolve_path(tree, path) for path in paths]
        values = []
        for leaf in steps:
            value = tree
            for step in leaf:
                value = value[step]
            values.append(value)
        # Every leaf scaled alike, then each leaf alone out of range.
        points = [[v * scale for v in values] for scale in scales]
        points += [
            [v * (scale if i == j else 1.1) for i, v in enumerate(values)]
            for j in range(len(values)) for scale in (0.0, -1.0)
        ]
        for point in points:
            edits = list(zip(steps, point))
            expected = _with_values(tree, edits)
            got = explorer._run_point(scenario, edits, sensor_figures)
            assert got == _fresh_point(expected), (paths, point)


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
    edited = explorer._edited

    def counted(parent, edits):
        builds.append(edits)
        return edited(parent, edits)

    monkeypatch.setattr(explorer, "_edited", counted)
    result = optimize(
        default_scenario("lorentz"),
        [("drive.amplitude", 1e-3, 12e-3)],
        objective="sensitivity",
    )
    # A point the search revisits is scored from its first evaluation.
    assert len(builds) == len({tuple(e["params"].values()) for e in result.trace})
    assert result.report.scenario is result.best.tree


def test_optimize_runs_each_distinct_point_once(monkeypatch):
    scenario = default_scenario("lorentz")
    params = [("drive.amplitude", 1e-3, 50e-3)]
    fields = [explorer._resolve_path(scenario.tree, path) for path, _, _ in params]
    limits = explorer._constraint_limits(None)
    run_point = explorer._run_point
    runs = []

    def counted_run(scenario, edits, figures):
        edits = list(edits)
        runs.append(tuple(value for _, value in edits))
        return run_point(scenario, edits, figures)

    scores = []

    def sensitivity(report):
        scores.append(report)
        return -report.sensitivity

    monkeypatch.setattr(explorer, "_run_point", counted_run)
    result = optimize(scenario, params, sensitivity)
    points = [tuple(e["params"].values()) for e in result.trace]
    assert (len(points), len(set(points))) == (1200, 349)
    assert sorted(runs) == sorted(set(points))
    # Only feasible points are scored: once each.
    assert len(scores) == len({p for p, e in zip(points, result.trace) if e["feasible"]})

    for point, entry in zip(points, result.trace):
        _, report, _ = run_point(scenario, zip(fields, point), {})
        violation = 1.0 if report is None else explorer._constraint_violation(report, limits)
        feasible = violation == 0.0
        value = -report.sensitivity if feasible else explorer._PENALTY * (1.0 + violation)
        assert entry == {"params": {"drive.amplitude": point[0]}, "objective": value,
                         "feasible": feasible}

    # The memo lives for one call: a second search runs its points again.
    runs.clear()
    again = optimize(scenario, params, "sensitivity")
    assert repr(again.trace) == repr(result.trace)
    assert sorted(runs) == sorted(set(points))


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
    # One field twice, however its index is spelled, is refused before a point runs.
    for paths in (("drive.amplitude",) * 2, ("noise_band[0]", "noise_band[00]")):
        with pytest.raises(ValueError, match=rf"^{re.escape(paths[1])}: the same field as the"
                           rf" free parameter {re.escape(paths[0])}$"):
            optimize(scenario, [(paths[0], 1e-3, 5e-2), (paths[1], 1e-3, 2e-3)])


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
        raise AssertionError("the sweep built or ran its points")

    for name in ("_linspace", "_resolve_path", "_run_point"):
        monkeypatch.setattr(explorer, name, no_allocation)
    for scale in ("linear", "log"):
        with pytest.raises(ValueError, match=f"steps must be between 2 and {explorer.MAX_SWEEP_POINTS}"):
            sweep(default_scenario("lorentz"), "drive.amplitude", 1e-3, 1e-2,
                  explorer.MAX_SWEEP_POINTS + 1, scale)
        # A float or bool count is refused by name, not by range()'s TypeError.
        for steps in (5.0, True):
            with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
                sweep(default_scenario("lorentz"), "drive.amplitude", 1e-3, 1e-2, steps, scale)


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


_STRESSED = {"sensor": {"support_beam": {"layers": [
    {"material": "silicon", "thickness": 1e-7},
    {"material": "silicon_nitride", "thickness": 2.8e-7, "residual_stress": -2e8},
    {"material": "aluminum", "thickness": 1e-6, "residual_stress": 1.5e8},
]}}}


def test_stressed_stack_lift_in_report():
    scenario = build_scenario(_STRESSED)
    report = run_scenario(scenario)
    beam = scenario.sensor.beam
    curvature = stack_curvature(beam)
    lift = curl_tip_height(curvature, beam.length)
    assert report.warnings == [
        HIGH_CURRENT_WARNING,
        f"stressed layers curl the beam: curvature {curvature:.3g} 1/m, tip lift {lift:.3g} m",
    ]
    assert report.warnings[1] == (
        "stressed layers curl the beam: curvature 2.89e+03 1/m, tip lift 0.000303 m"
    )
    # The lift is a warning, not a figure.
    plain = run_scenario(default_scenario("lorentz"))
    assert explorer._csv_row(report)[:-1] == explorer._csv_row(plain)[:-1]


def test_points_keeping_the_parent_sensor_compute_its_resonator_once(monkeypatch):
    real = SensorDesign.resonator
    calls = []  # the quality factor of each call

    def counted(design, quality_factor):
        calls.append(quality_factor)
        return real(design, quality_factor)

    monkeypatch.setattr(SensorDesign, "resonator", counted)
    scenario = default_scenario("lorentz")
    result = sweep(scenario, "environment.field_magnitude", 0.0, 10e-4, 200)
    assert None not in result.reports
    assert calls == [scenario.quality_factor]
    # A search over the drive alone keeps the sensor too.
    calls.clear()
    optimize(scenario, [("drive.amplitude", 1e-3, 50e-3)], "sensitivity")
    assert calls == [scenario.quality_factor]
    # A beam edit builds a sensor per point, and each computes its own.
    calls.clear()
    result = sweep(scenario, "sensor.support_beam.width", 10e-6, 30e-6, 20)
    assert None not in result.reports
    assert calls == [scenario.quality_factor] * 20
    # One resonator per quality factor; the first point fails validation.
    calls.clear()
    result = sweep(scenario, "quality_factor", 0.5, 60.0, 20)
    assert result.reports[0] is None and None not in result.reports[1:]
    assert calls == result.values[1:]


def test_points_keeping_the_parent_sensor_compute_its_noise_floor_once(monkeypatch):
    real_stress, real_floor = SensorDesign.anchor_stress, explorer._noise_floor
    stresses, floors = [], []  # the tip force of each call; the temperature of each floor

    def counted_stress(design, tip_force):
        stresses.append(tip_force)
        return real_stress(design, tip_force)

    def counted_floor(design, temperature, *args):
        floors.append(temperature)
        return real_floor(design, temperature, *args)

    monkeypatch.setattr(SensorDesign, "anchor_stress", counted_stress)
    monkeypatch.setattr(explorer, "_noise_floor", counted_floor)
    scenario = default_scenario("lorentz")
    temperature = scenario.environment.temperature
    # A field sweep: one anchor stress per newton, one per point, one floor.
    result = sweep(scenario, "environment.field_magnitude", 0.0, 10e-4, 50)
    assert None not in result.reports
    assert len(stresses) == 51 and stresses[0] == 1.0
    assert floors == [temperature]
    # A temperature sweep keeps the sensor, but each point moves the floor.
    stresses.clear()
    floors.clear()
    result = sweep(scenario, "environment.temperature", 250.0, 350.0, 50)
    assert None not in result.reports
    assert len(stresses) == 51
    assert floors == result.values
    # A quality-factor sweep: one floor per distinct Q.
    floors.clear()
    sweep(scenario, "quality_factor", 20.0, 20.0, 5)
    assert floors == [temperature]
    floors.clear()
    result = optimize(scenario, [("quality_factor", 10.0, 60.0)], "sensitivity")
    distinct = {record["params"]["quality_factor"] for record in result.trace}
    assert len(floors) == len(distinct) > 10


def _five_points(scenario, path, steps, start, stop, scale, override=None):
    """sweep's (values, reports, errors) over `path` from `start` to `stop`.

    A field the tree does not set (a residual stress, a material override)
    has no path to sweep; its points run as a sweep's do, with one store of
    figures. An override's edit is the mapping {override: value}.
    """
    try:
        explorer._resolve_path(scenario.tree, path)
    except UnknownPathError:
        figures = {}
        spaced = explorer._linspace if scale == "linear" else explorer._geomspace
        values = spaced(start, stop, 5)
        if override is not None:
            values = [{override: value} for value in values]
        points = [explorer._run_point(scenario, [(steps, v)], figures) for v in values]
        return values, [report for _, report, _ in points], [error for _, _, error in points]
    result = sweep(scenario, path, start, stop, 5, scale)
    return result.values, result.reports, result.errors


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_points_reusing_sensor_figures_match_fresh_runs(kind):
    # Five points each way over each probed input, then five across the
    # float range, valid and failing values alike: each point's report or
    # error is what a fresh build and run of its tree gives.
    scenario = default_scenario(kind)
    outcomes = []  # (steps, value, report, error) of every point
    for path, (steps, edit) in _probe_inputs(scenario):
        (override, nudged), = edit.items() if isinstance(edit, dict) else [(None, edit)]
        for start, stop, scale in ((-nudged, nudged, "linear"), (2 * nudged, -nudged, "linear"),
                                   (1e-320, 1e300, "log")):
            values, reports, errors = _five_points(
                scenario, path, steps, start, stop, scale, override)
            outcomes += [(steps, *point) for point in zip(values, reports, errors)]
    # The Johnson PSD underflows at the first point; the valid points after
    # it still get their floor.
    path = "environment.temperature"
    result = sweep(scenario, path, 1e-320, 400.0, 5)
    assert result.errors[0].startswith("DomainError: noise: Johnson PSD 4 k_B T R underflows")
    assert None not in result.reports[1:]
    steps = explorer._resolve_path(scenario.tree, path)
    outcomes += [(steps, *point) for point in zip(result.values, result.reports, result.errors)]

    for steps, value, report, error in outcomes:
        _, fresh, fresh_error = _fresh_point(_with_values(scenario.tree, [(steps, value)]))
        assert (report, error) == (fresh, fresh_error), (steps, value)
    failed = sum(error is not None for _, _, _, error in outcomes)
    assert 100 < failed < len(outcomes) - 100


@pytest.mark.parametrize("parent, path, start, stop, scale", [
    ({}, "environment.field_magnitude", 0.0, 10e-4, "linear"),
    ({}, "quality_factor", 0.5, 60.0, "linear"),
    (_STRESSED, "environment.field_magnitude", 0.0, 10e-4, "linear"),
    ({}, "drive.amplitude", 1e-4, 1e300, "log"),
    ({}, "drive.amplitude", 1e300, 1e-4, "log"),
    ({"sensor": {"kind": "ferro"}}, "environment.field_angle", 0.1, 2.9, "linear"),
    (_STRESSED, "sensor.support_beam.length", 10e-6, 800e-6, "linear"),
], ids=["field", "quality_factor", "stressed", "overflow-up", "overflow-down", "ferro-angle",
        "beam-length"])
def test_sweep_reports_reusing_the_parent_sensor_match_fresh_runs(parent, path, start, stop, scale):
    scenario = build_scenario(parent)
    result = sweep(scenario, path, start, stop, 40, scale)
    steps = explorer._resolve_path(scenario.tree, path)
    for value, report, error in zip(result.values, result.reports, result.errors):
        _, fresh, fresh_error = _fresh_point(_with_values(scenario.tree, [(steps, value)]))
        assert (report, error) == (fresh, fresh_error), value
        if report is not None:
            assert report == run_scenario(build_scenario(report.scenario)), value
    if parent is _STRESSED:
        assert all(report.warnings[-1].startswith("stressed layers curl the beam")
                   for report in result.reports)
    if path == "drive.amplitude":
        # Points on both sides of the overflow, whichever comes first.
        assert None in result.reports and any(result.reports)


_CORPUS_FLOATS = [
    -0.0, 0.0, 1e16, 1e15, 5e-324, 2.2250738585072014e-308, 1.7e308,
    math.inf, -math.inf, math.nan, 0.1, -2.5e-07, 123456789.0, 1e-05,
]
_CORPUS_SCALARS = [0, -7, 2**70, True, False, None]
_CORPUS_STRINGS = [
    "yes", "No", "null", "~", "1.0", "0x1f", "1e3", "x y", "a: b", "a #b", "a#b",
    "-a", "- a", "*a", "&a", "'a", "it's", "", " lead", "trail ",
    "lorentz", "silicon_nitride", "square",
    HIGH_CURRENT_WARNING,
    "beam slenderness 7.2 < 10.0; slender-beam bending theory is questionable here",
    "stressed layers curl the beam: curvature -2.89e+03 1/m, tip lift -0.000303 m",
]
# The longest key puts a value's first character past column 80.
_CORPUS_KEYS = ["a", "b", "band_Hz", "layers", "value", "x_1", "_z", "a b", "k" * 90]
# Keys yaml.dump writes quoted, or not as a simple key; the direct writer
# refuses them. libyaml writes the empty key as a simple key and PyYAML as a
# complex one.
_ODD_KEYS = ["", "on", "1", "null", "k" * 128]
# Long strings are joined from these: words, lone spaces, runs of spaces,
# quotes and indicators, so some are plain and some single-quoted.
_CORPUS_PIECES = ["abc"] * 4 + ["x", "de-f", "1.5", "it's", "a#b", "-"] + [" "] * 6 + [
    "  ", "   ", "a: b", " #c", "'",
]


def _long_string(rng):
    return "".join(rng.choice(_CORPUS_PIECES) for _ in range(rng.randint(20, 80)))


def _crossing_column_80(depth, size, head):
    """{k: text} nested `depth` deep, the text `size` characters long."""
    text = (head + "abc " * 30)[:size]
    tree = {"k": text[:-1] + "x" if text.endswith(" ") else text}
    for _ in range(depth):
        tree = {"k": tree}
    return tree


def _corpus_tree(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if rng.random() < 0.2:
            return _long_string(rng)
        return rng.choice(_CORPUS_FLOATS + _CORPUS_SCALARS + _CORPUS_STRINGS[:-3])
    size = rng.randint(0, 4)
    if roll < 0.65:
        return {rng.choice(_CORPUS_KEYS): _corpus_tree(rng, depth - 1) for _ in range(size)}
    return [_corpus_tree(rng, depth - 1) for _ in range(size)]


def _folding_sweeps():
    """200-point sweeps whose failure or warning lines pass column 80."""
    yield "q-from-0", sweep(default_scenario("lorentz"), "quality_factor", 0.0, 5.0, 200)
    yield "width-from-0", sweep(
        default_scenario("ferro"), "sensor.suspension.width", 0.0, 2e-5, 200
    )
    yield "short-beams", sweep(
        default_scenario("lorentz"), "sensor.support_beam.length", 1e-6, 5e-4, 200
    )


def _corpus():
    """(name, report or sweep) pairs for the byte-equality check."""
    lorentz = run_scenario(default_scenario("lorentz"))
    yield "lorentz", lorentz
    yield "ferro", run_scenario(default_scenario("ferro"))
    yield "stressed", run_scenario(build_scenario(_STRESSED))
    yield "slender", run_scenario(build_scenario({"sensor": {"support_beam": {"length": 1e-5}}}))
    yield from _folding_sweeps()
    yield "field", sweep(default_scenario("ferro"), "environment.field_magnitude", 0.0, 0.1, 12)
    # The echo sits at indent 0 in a report's CSV and at 2 in its structured
    # text, so its lines cross column 80 at indents 0, 4 and 6 in one and 2,
    # 6 and 8 in the other.
    for indent in (0, 4, 6):
        for end in range(76, 85):
            for style, head in (("plain", ""), ("quoted", "a: ")):
                tree = _crossing_column_80(indent // 2, end - indent - len("k: "), head)
                yield f"column-{end}-indent-{indent}-{style}", dataclasses.replace(
                    lorentz, scenario=tree
                )
    shared = {"a": [1.5, {"b": "x y"}]}
    yield "shared", dataclasses.replace(lorentz, scenario={"p": shared, "q": [shared, shared]})
    yield "nested-lists", dataclasses.replace(
        lorentz, scenario=[[1.0, [], {}], [[2, [3]]], {"a": [[{"b": []}]]}]
    )
    yield "strings", dataclasses.replace(
        lorentz, warnings=list(_CORPUS_STRINGS), scenario={"s": list(_CORPUS_STRINGS)}
    )
    yield "scalars", dataclasses.replace(
        lorentz, scenario={"f": _CORPUS_FLOATS, "s": _CORPUS_SCALARS}
    )
    rng = random.Random(18)
    for i in range(300):
        tree = {rng.choice(_CORPUS_KEYS): _corpus_tree(rng, 4) for _ in range(rng.randint(1, 4))}
        yield f"random-{i}", dataclasses.replace(lorentz, scenario=tree)


_REFERENCE_DUMPERS = [yaml.SafeDumper] + ([yaml.CSafeDumper] if yaml.__with_libyaml__ else [])


def test_structured_text_is_yaml_dumps_bytes(monkeypatch):
    # _render against the same render with every document written by
    # yaml.dump, under PyYAML's and libyaml's emitters, aliases ignored.
    corpus = list(_corpus())
    direct = {name: [explorer._render(obj, fmt) for fmt in ("structured-text", "csv")]
              for name, obj in corpus}
    for base in _REFERENCE_DUMPERS:
        dumper = type("Reference", (base,), {"ignore_aliases": lambda self, data: True})
        with monkeypatch.context() as patch:
            patch.setattr(explorer, "_structured_text", lambda tree: yaml.dump(
                tree, Dumper=dumper, sort_keys=True, default_flow_style=False
            ))
            for name, obj in corpus:
                expected = [explorer._render(obj, fmt) for fmt in ("structured-text", "csv")]
                assert direct[name] == expected, (base.__name__, name)
    assert "&id" not in direct["shared"][0]
    assert "&id" not in direct["q-from-0"][0]
    # The documents that fold: their text changes when nothing folds.
    with monkeypatch.context() as patch:
        patch.setattr(explorer, "_LINE_WIDTH", math.inf)
        folded = {
            name for name, obj in corpus
            if explorer._render(obj, "structured-text") != direct[name][0]
        }
    for indent in (0, 4, 6):
        for style in ("plain", "quoted"):
            assert f"column-80-indent-{indent}-{style}" not in folded
            assert f"column-84-indent-{indent}-{style}" in folded
    # The slenderness lines pass column 80 but have no space past it.
    assert {"q-from-0", "width-from-0"} <= folded and "short-beams" not in folded
    assert sum(name.startswith("random-") for name in folded) >= 100


@pytest.mark.parametrize("tree", [
    *({key: 1.0} for key in _ODD_KEYS),
    {1: 1.0},
    {"s": "\u00e9"},
    {"s": "tab\there"},
    {"s": "two\nlines"},
    {"s": (1.0, 2.0)},
    {"s": np.float64(1.0)},
    {"s": b"bytes"},
    1.5,
    "text",
    None,
    {},
    [],
], ids=repr)
def test_structured_text_refuses_what_reports_never_hold(tree):
    with pytest.raises(ValueError):
        explorer._structured_text(tree)


def _perfbench_designs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "designs.py"
    spec = importlib.util.spec_from_file_location("perfbench_designs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _refuse(*args, **kwargs):
    raise AssertionError("structured text went through yaml.dump")


def test_design_batch_and_field_sweep_skip_yaml_dump(monkeypatch):
    monkeypatch.setattr(yaml, "dump", _refuse)
    for tree in _perfbench_designs().batch(1, 0, 40):
        report = run_scenario(build_scenario(tree))
        explorer._render(report, "csv")
        explorer._render(report, "structured-text")
    result = sweep(default_scenario("lorentz"), "environment.field_magnitude", 1e-4, 50e-3, 200)
    explorer._render(result, "structured-text")
    # So do the sweeps with lines past column 80.
    for _, result in _folding_sweeps():
        explorer._render(result, "structured-text")


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

    def run(func, simplex, xatol, fatol, maxfev, callback=None):
        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", lambda a: argsort(a, kind="stable"))
            result = minimize(
                lambda z: func(tuple(z.tolist())),
                np.array(simplex[0]),
                method="Nelder-Mead",
                bounds=[(0.0, 1.0)] * len(simplex[0]),
                callback=callback,
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

    phases = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(dim)]

    def ripple(x):
        # Local minima a step apart: outside contractions land uphill of the
        # reflection and the simplex shrinks.
        return bowl(x) + 0.3 * math.fsum(math.sin(17.0 * v + p) for v, p in zip(x, phases))

    return {"bowl": bowl, "terraces": terraces, "steps": steps, "flat": lambda x: 1.0,
            "nan": holes, "ripple": ripple}


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


@pytest.mark.parametrize("surface", ["bowl", "terraces", "steps", "flat", "nan", "ripple"])
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


def _scipy_iterations(scipy_nelder_mead, func, simplex, maxfev) -> list:
    """The points SciPy evaluates in each iteration after the first simplex.

    SciPy calls back after every iteration, the last one that the budget
    cuts short included.
    """
    points, ends = [], []

    def recorded(x):
        points.append(x)
        return func(x)

    scipy_nelder_mead(recorded, simplex, 1e-5, 1e-300, maxfev,
                      callback=lambda xk: ends.append(len(points)))
    bounds = [len(simplex), *ends]
    return [points[a:b] for a, b in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_nelder_mead_budget_inside_a_frozen_simplex_stops_where_scipys_does(
    monkeypatch, scipy_nelder_mead, dim
):
    # From the centre the nan surface freezes the simplex: from one
    # iteration on, each evaluates the same points and leaves the simplex as
    # it found it, so _nelder_mead replays those points. These budgets end at
    # each evaluation of the first frozen iteration and the two after it.
    func = _surfaces(dim)["nan"]
    simplex = _start_simplex((0.5,) * dim)
    whole = _scipy_iterations(scipy_nelder_mead, func, simplex, 400 * dim)[:-1]
    frozen = next(k for k in range(len(whole)) if all(it == whole[k] for it in whole[k:]))
    assert len(whole) - frozen > 3
    size = len(whole[frozen])
    start = len(simplex) + sum(len(it) for it in whole[:frozen])
    ranked = explorer._ranked
    rankings = []

    def counted(sim, fsim):
        rankings.append(fsim)
        return ranked(sim, fsim)

    monkeypatch.setattr(explorer, "_ranked", counted)
    for maxfev in range(start + 1, start + 3 * size + 1):
        rankings.clear()
        ours = _evaluated_points(explorer._nelder_mead, func, simplex, maxfev)
        theirs = _evaluated_points(scipy_nelder_mead, func, simplex, maxfev)
        assert repr(ours) == repr(theirs), maxfev
        assert len(ours[0]) == maxfev
        # The first simplex, each iteration up to the frozen one and a last
        # partial one are ranked; the replayed whole iterations are not.
        past = maxfev - (start + size)
        assert len(rankings) == frozen + 2 + (past > 0 and past % size > 0), maxfev


_TRACE_BOXES = {
    "lw": ("lorentz", [("sensor.support_beam.length", 200e-6, 800e-6),
                       ("sensor.support_beam.width", 5e-6, 40e-6)], "sensitivity", 85),
    # Each of the 3 and 9 restarts freezes its simplex and replays it.
    "amp": ("lorentz", [("drive.amplitude", 1e-3, 50e-3)], "sensitivity", 1200),
    "alw": ("lorentz", [("drive.amplitude", 1e-3, 50e-3),
                        ("sensor.support_beam.length", 200e-6, 800e-6),
                        ("sensor.support_beam.width", 5e-6, 40e-6)],
            "min_detectable_field", 10800),
}


@pytest.mark.parametrize("box", list(_TRACE_BOXES))
def test_optimize_trace_matches_a_scipy_built_trace(monkeypatch, scipy_nelder_mead, box):
    kind, params, objective, evaluations = _TRACE_BOXES[box]
    ours = optimize(default_scenario(kind), params, objective)
    monkeypatch.setattr(explorer, "_nelder_mead", scipy_nelder_mead)
    reference = optimize(default_scenario(kind), params, objective)
    assert len(ours.trace) == evaluations
    assert repr(ours.trace) == repr(reference.trace)
    # A repeated point's record is a copy of its first, sharing no dict.
    records = {id(record) for record in ours.trace}
    records |= {id(record["params"]) for record in ours.trace}
    assert len(records) == 2 * evaluations


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


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_oracle_check_fd_figures_are_the_full_solves(kind):
    beam = default_scenario(kind).sensor.beam
    result = oracle_check(default_scenario(kind))
    solution = solve_static(beam, 400, tip_force=1e-9)
    assert result["tip_deflection_fd_m"].hex() == solution.tip_deflection.hex()
    assert result["anchor_moment_fd_N_m"].hex() == float(solution.bending_moment[0]).hex()


def test_oracle_check_solves_each_grid_once(monkeypatch):
    import memsmag.beam_oracle as beam_oracle

    grids = []
    real = beam_oracle._solve_nodes

    def counted(length, ei, grid_size, force, moment, nodes):
        grids.append(grid_size)
        return real(length, ei, grid_size, force, moment, nodes)

    monkeypatch.setattr(beam_oracle, "_solve_nodes", counted)
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
