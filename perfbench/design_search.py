"""design-search: one designer's searches, sweeps and fresh designs, in process.

A round runs the five optimize boxes, checks each winner with the beam
oracle, rings each winner down, exports each winner through the CLI's
simulate command in structured-text, runs the three 200-point sweeps, builds, runs and
emits a batch of seeded designs, and submits five invalid trees.
"""

import math

import yaml

import memsmag as mm

import checks
import designs
import reference as ref

BATCH_SIZE = 40
SWEEP_POINTS = 200
GRID = 12  # coarse grid per axis for the plate min-detectable-field box

LENGTH, WIDTH = "sensor.support_beam.length", "sensor.support_beam.width"
AMPLITUDE = ("drive.amplitude", 1e-3, 50e-3)
BOXES = (
    # (name, kind, free parameters, objective)
    ("amp", "lorentz", [AMPLITUDE], "sensitivity"),
    ("lw", "lorentz", [(LENGTH, 200e-6, 800e-6), (WIDTH, 5e-6, 40e-6)], "sensitivity"),
    ("alw", "lorentz", [AMPLITUDE, (LENGTH, 200e-6, 800e-6), (WIDTH, 5e-6, 40e-6)],
     "min_detectable_field"),
    ("flw", "ferro", [("sensor.suspension.length", 100e-6, 500e-6),
                      ("sensor.suspension.width", 5e-6, 40e-6)], "min_detectable_field"),
    ("fpl", "ferro", [("sensor.plate_length", 50e-6, 200e-6),
                      ("sensor.suspension.length", 100e-6, 500e-6)], "sensitivity"),
)
SWEEPS = (
    # (name, kind, path, start, stop, scale)
    ("field", "lorentz", "environment.field_magnitude", 1e-4, 50e-3, "linear"),
    ("amplitude", "lorentz", "drive.amplitude", 1e-4, 50e-3, "log"),
    ("angle", "ferro", "environment.field_angle", 0.1, 2.9, "linear"),
)
SWEEP_CHECKS = {"field": checks.field_sweep, "amplitude": checks.amplitude_sweep,
                "angle": checks.angle_sweep}
# Validated inputs that must be refused, each naming its dotted path.
INVALID = (
    ("environment: {field_angle: .nan}", "environment.field_angle"),
    ("material_overrides: {silicon: {pi_longitudinal: .nan}}",
     "material_overrides.silicon.pi_longitudinal"),
    ("drive: {amplitude: .inf}", "drive.amplitude"),
    ("sensor: {kind: lorentz, support_beam: {layers: "
     "[{material: silicon, thickness: 1.0e-6, residual_stress: .inf}]}}",
     "sensor.support_beam.layers[0].residual_stress"),
    ("material_overrides: {silicon: {youngs_modulus: -1}}",
     "material_overrides.silicon.youngs_modulus"),
)


def grid_best() -> float:
    """Best feasible min detectable field of the flw box on a coarse grid."""
    (_, _, params, _), = [b for b in BOXES if b[0] == "flw"]
    (lpath, l0, l1), (wpath, w0, w1) = params
    best = math.inf
    for i in range(GRID):
        for j in range(GRID):
            length = l0 + (l1 - l0) * i / (GRID - 1)
            width = w0 + (w1 - w0) * j / (GRID - 1)
            tree = {"sensor": {"kind": "ferro", "suspension": {"length": length, "width": width}}}
            rep = mm.run_scenario(mm.build_scenario(tree))
            if ref.feasible(rep.scenario):
                best = min(best, rep.min_detectable_field)
    return best


class DesignSearch:
    def __init__(self, run):
        self.run = run
        self.scenarios = {"lorentz": run.lorentz, "ferro": run.ferro}
        self.grid_best = grid_best()
        self.invalid = [(yaml.safe_load(text), path) for text, path in INVALID]

    def trace_round(self, index: int) -> None:
        self.round(index)

    def round(self, index: int) -> None:
        run = self.run
        run.new_round()
        winners = []
        for name, kind, params, objective in BOXES:
            result = run.optimize(name, self.scenarios[kind], params, objective)
            if result is None:
                continue
            winners.append((name, result))
            checks.box_feasible(run.chk, result)
            if name == "amp":
                checks.box_temperature_limited(run.chk, result)
            elif name == "lw":
                checks.box_corner(run.chk, result)
            elif name == "flw":
                checks.box_beats_grid(run.chk, result, self.grid_best)
            elif name == "fpl":
                checks.box_stress_limited(run.chk, result)

        for name, result in winners:
            run.oracle_check(result.best)
            self._ring_down(result)
            self._export(name, result)

        for name, kind, path, start, stop, scale in SWEEPS:
            result = run.timed(
                "sweep", SWEEP_POINTS, mm.sweep, self.scenarios[kind], path, start, stop,
                SWEEP_POINTS, scale,
            )
            if result is not None:
                SWEEP_CHECKS[name](run.chk, result)

        for i, tree in enumerate(designs.batch(run.seed, index, BATCH_SIZE)):
            csv_path = run.workdir / f"design{i}.csv"
            st_path = run.workdir / f"design{i}.yaml"
            rep = run.timed("batch", 1, _build_run_emit, tree, csv_path, st_path)
            if rep is not None:
                checks.report(run.chk, rep)
                checks.emitted_report(run.chk, csv_path.read_text(), st_path.read_text(), rep)

        for tree, path in self.invalid:
            run.expect_invalid(tree, path)

    def _ring_down(self, result) -> None:
        """Free decay of a winner over 100 periods, from 0.1 um."""
        tree = result.report.scenario
        sensor = result.best.sensor
        beam = sensor.support_beam if tree["sensor"]["kind"] == "lorentz" else sensor.suspension
        res = ref.resonator(tree)
        resonator = mm.lumped_resonator(beam, res["q"], tip_mass=ref.tip_mass(tree))
        period = 1.0 / res["f0"]
        series = self.run.timed(
            "transient", _steps, mm.simulate_transient,
            resonator, sensor, mm.Drive("dc", 0.0), mm.Environment(field_magnitude=0.0),
            100 * period, period / 120, x0=1e-7,
        )
        if series is not None:
            checks.ring_down(self.run.chk, series, res, 1e-7)

    def _export(self, name: str, result) -> None:
        """The winner written as a config and run through `memsmag simulate`.

        One format per winner keeps the command times alike, so their
        median is not split between two groups; the csv it is checked
        against comes from the library call.
        """
        run = self.run
        config = run.workdir / f"{name}.yaml"
        config.write_text(yaml.safe_dump(result.report.scenario))
        out, csv_path = run.workdir / f"{name}.st", run.workdir / f"{name}.csv"
        run.cli_main(["simulate", "--config", str(config), "--out", str(out),
                      "--format", "structured-text"])
        mm.emit_report(result.report, "csv", csv_path)
        st_text = out.read_text() if out.exists() else ""
        checks.emitted_report(run.chk, csv_path.read_text(), st_text, result.report)


def _steps(series) -> int:
    return len(series.time) - 1


def _build_run_emit(tree, csv_path, st_path):
    rep = mm.run_scenario(mm.build_scenario(tree))
    mm.emit_report(rep, "csv", csv_path)
    mm.emit_report(rep, "structured-text", st_path)
    return rep
