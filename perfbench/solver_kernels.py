"""solver-kernels: the numerical cross-checks, in process.

The scenarios are built once, at set-up. A round runs oracle_check on
both shipped defaults, solve_static at four grids on two single-material
beams, resonant ring-up, free ring-down and an undamped run on both
kinds, the resonance search and a 200-point frequency response, then the
designer's small follow-ups: the length x width box, a 20-point field
sweep, eight fresh designs and the verify, transient and freq-response
commands in process.
"""

import math

import yaml

import memsmag as mm

import checks
import designs
import reference as ref
from design_search import BOXES, _build_run_emit

GRIDS = (100, 200, 400, 800)
TIP_FORCE = 1e-9
# Single-material beams as (film, length, width, thickness), SI units.
BEAMS = (("silicon", 500e-6, 20e-6, 2e-6), ("silicon_nitride", 250e-6, 10e-6, 1e-6))
BATCH_SIZE = 8
SWEEP_POINTS = 20
X0 = 1e-7  # m, initial deflection of the free runs


def beam_tree(film, length, width, thickness):
    return {"length": length, "width": width,
            "layers": [{"material": film, "thickness": thickness}]}


def _steps(series) -> int:
    return len(series.time) - 1


def static_deflection(tree) -> float:
    """Tip deflection under the design's own load at its ambient field."""
    sensor, env = tree["sensor"], tree["environment"]
    beam = ref.beam_node(tree)
    ei = ref.flexural_rigidity(tree, beam)
    if sensor["kind"] == "lorentz":
        force = tree["drive"]["amplitude"] * sensor["top_beam_length"] * env["field_magnitude"]
        force *= math.sin(env["field_angle"]) / sensor["load_share_count"]
        return ref.cantilever_tip(ei, beam["length"], force)
    volume = sensor["plate_length"] * sensor["plate_width"] * sensor["plate_thickness"]
    moment = sensor["magnetization"] * volume * env["field_magnitude"]
    moment *= math.sin(env["field_angle"] + sensor["misalignment"]) / sensor["suspension_count"]
    return moment * beam["length"] ** 2 / (2.0 * ei)


class SolverKernels:
    def __init__(self, run):
        self.run = run
        self.beams = []
        for film, length, width, thickness in BEAMS:
            geom = mm.BeamGeometry(
                length=length, width=width,
                layers=[mm.LayerSpec(mm.builtin_material(film), thickness)],
            )
            ei = ref.flexural_rigidity({}, beam_tree(film, length, width, thickness))
            self.beams.append((geom, ei))
        self.kinds = []
        for scenario in (run.lorentz, run.ferro):
            sensor = scenario.sensor
            beam = sensor.support_beam if scenario.tree["sensor"]["kind"] == "lorentz" else sensor.suspension
            res = ref.resonator(scenario.tree)
            resonator = mm.lumped_resonator(beam, res["q"], tip_mass=ref.tip_mass(scenario.tree))
            lossless = mm.LumpedResonator(
                stiffness=resonator.stiffness, effective_mass=resonator.effective_mass,
                natural_frequency=resonator.natural_frequency,
                quality_factor=math.inf, damping=0.0,
            )
            lossless_ref = dict(res, q=math.inf, damping=0.0)
            self.kinds.append((scenario, res, resonator, lossless, lossless_ref))
        for scenario, name in ((run.lorentz, "lorentz.yaml"), (run.ferro, "ferro.yaml")):
            (run.workdir / name).write_text(yaml.safe_dump(scenario.tree))
        self.box = next(b for b in BOXES if b[0] == "lw")

    def trace_round(self, index: int) -> None:
        self.round(index)

    def round(self, index: int) -> None:
        run = self.run
        run.new_round()
        for scenario in (run.lorentz, run.ferro):
            run.oracle_check(scenario)

        for geom, ei in self.beams:
            solutions = []
            for n in GRIDS:
                sol, _ = run.attempt(mm.solve_static, geom, grid_size=n, tip_force=TIP_FORCE)
                if sol is not None:
                    solutions.append(sol)
            if len(solutions) == len(GRIDS):
                checks.static_grids(run.chk, solutions, ei, geom.length, TIP_FORCE)

        for scenario, res, resonator, lossless, lossless_ref in self.kinds:
            self._transients(scenario, res, resonator, lossless, lossless_ref)
            f0 = res["f0"]
            peak, _ = run.attempt(mm.find_resonance, resonator, f0 / 10, f0 * 10)
            freqs = [f0 / 10 * 100 ** (i / 199) for i in range(200)]
            points, _ = run.attempt(lambda: [mm.frequency_response(resonator, f) for f in freqs])
            if peak is not None and points is not None:
                checks.resonance(run.chk, peak, points, res)

        name, _, params, objective = self.box
        result = run.optimize(name, run.lorentz, params, objective)
        if result is not None:
            checks.box_feasible(run.chk, result)
            checks.box_corner(run.chk, result)

        result = run.timed(
            "sweep", SWEEP_POINTS, mm.sweep, run.lorentz, "environment.field_magnitude",
            1e-4, 50e-3, SWEEP_POINTS,
        )
        if result is not None:
            checks.field_sweep(run.chk, result)

        for i, tree in enumerate(designs.batch(run.seed, index, BATCH_SIZE)):
            csv_path, st_path = run.workdir / f"design{i}.csv", run.workdir / f"design{i}.yaml"
            rep = run.timed("batch", 1, _build_run_emit, tree, csv_path, st_path)
            if rep is not None:
                checks.report(run.chk, rep)
                checks.emitted_report(run.chk, csv_path.read_text(), st_path.read_text(), rep)

        for scenario, name in ((run.lorentz, "lorentz"), (run.ferro, "ferro")):
            config = str(run.workdir / f"{name}.yaml")
            text, _ = run.cli_main(["verify", "--config", config])
            checks.verify_text(run.chk, text, scenario.tree)
            out = run.workdir / f"{name}.transient.csv"
            run.cli_main(["transient", "--config", config, "--out", str(out)])
            checks.transient_csv(run.chk, out.read_text())
            out = run.workdir / f"{name}.fr.csv"
            run.cli_main(["freq-response", "--config", config, "--out", str(out)])
            checks.freq_response_csv(run.chk, out.read_text(), ref.resonator(scenario.tree))

    def _transients(self, scenario, res, resonator, lossless, lossless_ref) -> None:
        run = self.run
        sensor, env = scenario.sensor, scenario.environment
        f0, q = res["f0"], res["q"]
        drive = mm.Drive("square", scenario.drive.amplitude, f0)
        series = run.timed("transient", _steps, mm.simulate_transient,
                           resonator, sensor, drive, env, 10 * q / f0, 1 / (200 * f0))
        if series is not None:
            checks.ring_up(run.chk, series, res, static_deflection(scenario.tree))

        quiet, still = mm.Drive("dc", 0.0), mm.Environment(field_magnitude=0.0)
        series = run.timed("transient", _steps, mm.simulate_transient,
                           resonator, sensor, quiet, still, 20 / f0, 1 / (120 * f0), x0=X0)
        if series is not None:
            checks.ring_down(run.chk, series, res, X0)

        series = run.timed("transient", _steps, mm.simulate_transient,
                           lossless, sensor, quiet, still, 100 / f0, 1 / (200 * f0), x0=X0)
        if series is not None:
            checks.undamped(run.chk, series, lossless_ref)

