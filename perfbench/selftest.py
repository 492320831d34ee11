"""Shows that every check notices a perturbed output.

    python3 perfbench/selftest.py

Computes one genuine instance of each output the workloads check, runs
every check on it (it must pass), then on a copy with one number, row or
byte changed (it must fail under its own name). Prints one line per
mutation and exits 1 if any check passes a perturbed output or fails a
genuine one.
"""

import contextlib
import copy
import dataclasses
import io
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import yaml  # noqa: E402

import memsmag as mm  # noqa: E402
from memsmag import cli  # noqa: E402

import checks  # noqa: E402
import design_search  # noqa: E402
import reference as ref  # noqa: E402
import solver_kernels  # noqa: E402
import terminal  # noqa: E402


def scaled(obj, field, factor):
    return dataclasses.replace(obj, **{field: getattr(obj, field) * factor})


def with_tree(result, path, factor):
    """Optimize result whose winning design has one tree value scaled."""
    rep = copy.deepcopy(result.report)
    node = rep.scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] *= factor
    return dataclasses.replace(result, report=rep)


def sweep_with(result, index, rep):
    reports = list(result.reports)
    reports[index] = rep
    return dataclasses.replace(result, reports=reports)


def pick(perturbed, genuine_value, perturbed_value):
    return perturbed_value if perturbed else genuine_value


def drop_point(result):
    """Sweep whose fourth point failed."""
    return sweep_with(result, 3, None)


def bump_number(text, old, new):
    assert old in text, old
    return text.replace(old, new, 1)


def csv_cell(text, column, row=0, factor=1.0 + 1e-6):
    """Scale one numeric cell of a csv text."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",")
    cells = body[1 + row].split(",")
    col = header.index(column)
    cells[col] = repr(float(cells[col]) * factor)
    body[1 + row] = ",".join(cells)
    return "\n".join(comments + body) + "\n"


def cli_stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return out.getvalue()


def genuine(work: Path) -> dict:
    g = {}
    lorentz, ferro = mm.default_scenario("lorentz"), mm.default_scenario("ferro")
    g["L"], g["F"] = lorentz, ferro
    g["rep"] = mm.run_scenario(lorentz)
    g["field"] = mm.sweep(lorentz, "environment.field_magnitude", 1e-4, 50e-3, 20)
    g["amplitude"] = mm.sweep(lorentz, "drive.amplitude", 1e-4, 50e-3, 20, "log")
    g["angle"] = mm.sweep(ferro, "environment.field_angle", 0.1, 2.9, 20)
    boxes = {name: (kind, params, obj) for name, kind, params, obj in design_search.BOXES}
    for name in ("amp", "lw", "flw", "fpl"):
        kind, params, obj = boxes[name]
        g[name] = mm.optimize(lorentz if kind == "lorentz" else ferro, params, obj)
    g["grid"] = design_search.grid_best()
    g["oracle"] = mm.oracle_check(lorentz)

    film, length, width, thickness = solver_kernels.BEAMS[0]
    geom = mm.BeamGeometry(length, width, [mm.LayerSpec(mm.builtin_material(film), thickness)])
    g["static"] = [mm.solve_static(geom, n, tip_force=1e-9) for n in solver_kernels.GRIDS]
    g["ei"] = ref.flexural_rigidity({}, solver_kernels.beam_tree(film, length, width, thickness))
    g["length"] = length

    res = ref.resonator(lorentz.tree)
    resonator = mm.lumped_resonator(lorentz.sensor.support_beam, res["q"])
    f0, q = res["f0"], res["q"]
    g["res"], g["resonator"] = res, resonator
    drive = mm.Drive("square", lorentz.drive.amplitude, f0)
    g["ring_up"] = mm.simulate_transient(resonator, lorentz.sensor, drive, lorentz.environment,
                                         10 * q / f0, 1 / (200 * f0))
    g["x_static"] = solver_kernels.static_deflection(lorentz.tree)
    quiet, still = mm.Drive("dc", 0.0), mm.Environment(field_magnitude=0.0)
    g["ring_down"] = mm.simulate_transient(resonator, lorentz.sensor, quiet, still,
                                           20 / f0, 1 / (120 * f0), x0=1e-7)
    lossless = dataclasses.replace(resonator, quality_factor=math.inf, damping=0.0)
    g["lossless_ref"] = dict(res, q=math.inf, damping=0.0)
    g["undamped"] = mm.simulate_transient(lossless, lorentz.sensor, quiet, still,
                                          100 / f0, 1 / (200 * f0), x0=1e-7)
    g["peak"] = mm.find_resonance(resonator, f0 / 10, f0 * 10)
    g["points"] = [mm.frequency_response(resonator, f0 / 10 * 100 ** (i / 19)) for i in range(20)]

    for fmt, key in (("csv", "csv"), ("structured-text", "st")):
        mm.emit_report(g["rep"], fmt, work / f"r.{key}")
        g[f"rep_{key}"] = (work / f"r.{key}").read_text()
        mm.emit_report(g["field"], fmt, work / f"s.{key}")
        g[f"sweep_{key}"] = (work / f"s.{key}").read_text()

    cfg = work / "lorentz.yaml"
    cfg.write_text(yaml.safe_dump(lorentz.tree))
    g["noise"] = cli_stdout(["noise", "--config", str(cfg)])
    g["verify"] = cli_stdout(["verify", "--config", str(cfg)])
    g["optimize"] = cli_stdout(["optimize", "--config", str(cfg), *terminal.OPTIMIZE["lorentz"]])
    plate = work / "ferro.yaml"
    plate.write_text(yaml.safe_dump(ferro.tree))
    g["optimize_plate"] = cli_stdout(["optimize", "--config", str(plate), *terminal.OPTIMIZE["ferro"]])
    cli.main(["freq-response", "--config", str(cfg), "--out", str(work / "fr.csv")])
    g["fr"] = (work / "fr.csv").read_text()
    cli.main(["transient", "--config", str(cfg), "--out", str(work / "tr.csv")])
    g["tr"] = (work / "tr.csv").read_text()
    return g


def mutations(g):
    """(check name, call taking (chk, perturbed: bool))."""
    rep, c = g["rep"], checks
    ring = g["ring_down"]
    nan_rep = dataclasses.replace(rep, min_detectable_field=math.nan)
    return [
        ("report.sensitivity", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "sensitivity", 1 + 1e-6)))),
        ("report.offset", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "offset", 1.01)))),
        ("report.output", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "output_at_field", 1 + 1e-6)))),
        ("report.anchor_stress", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "anchor_stress", 1 + 1e-6)))),
        ("report.resonance", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "resonant_frequency", 1 + 1e-6)))),
        ("report.heating", lambda k, p: c.report(k, pick(p, rep, scaled(rep, "temperature_rise", 1.01)))),
        ("report.finite", lambda k, p: c.report(k, pick(p, rep, nan_rep))),
        ("sweep.field.points", lambda k, p: c.field_sweep(k, pick(p, g["field"], drop_point(g["field"])))),
        ("sweep.field.linear", lambda k, p: c.field_sweep(k, pick(p, g["field"], sweep_with(
            g["field"], 3, scaled(g["field"].reports[3], "output_at_field", 1.001))))),
        ("sweep.field.sensitivity", lambda k, p: c.field_sweep(k, pick(p, g["field"], sweep_with(
            g["field"], 3, scaled(g["field"].reports[3], "sensitivity", 1 + 1e-6))))),
        ("sweep.amplitude.points", lambda k, p: c.amplitude_sweep(k, pick(p, g["amplitude"], drop_point(g["amplitude"])))),
        ("sweep.amplitude.sensitivity", lambda k, p: c.amplitude_sweep(k, pick(p, g["amplitude"], sweep_with(
            g["amplitude"], 5, scaled(g["amplitude"].reports[5], "sensitivity", 1 + 1e-6))))),
        ("sweep.amplitude.offset", lambda k, p: c.amplitude_sweep(k, pick(p, g["amplitude"], sweep_with(
            g["amplitude"], 5, scaled(g["amplitude"].reports[5], "offset", 1 + 1e-6))))),
        ("sweep.angle.points", lambda k, p: c.angle_sweep(k, pick(p, g["angle"], drop_point(g["angle"])))),
        ("sweep.angle.echo", lambda k, p: c.angle_sweep(k, pick(p, g["angle"], dataclasses.replace(
            g["angle"], values=g["angle"].values[::-1])))),
        ("sweep.angle.sensitivity", lambda k, p: c.angle_sweep(k, pick(p, g["angle"], sweep_with(
            g["angle"], 7, scaled(g["angle"].reports[7], "sensitivity", 1 + 1e-6))))),
        ("box.feasible", lambda k, p: c.box_feasible(k, pick(p, g["amp"], with_tree(
            g["amp"], ("drive", "amplitude"), 1.01)))),
        ("box.amp.optimum", lambda k, p: c.box_temperature_limited(k, pick(p, g["amp"], with_tree(
            g["amp"], ("drive", "amplitude"), 0.99)))),
        ("box.lw.length", lambda k, p: c.box_corner(k, pick(p, g["lw"], with_tree(
            g["lw"], ("sensor", "support_beam", "length"), 0.99)))),
        ("box.lw.width", lambda k, p: c.box_corner(k, pick(p, g["lw"], with_tree(
            g["lw"], ("sensor", "support_beam", "width"), 1.01)))),
        ("box.stress.sensitivity", lambda k, p: c.box_stress_limited(k, pick(p, g["fpl"], dataclasses.replace(
            g["fpl"], report=scaled(g["fpl"].report, "sensitivity", 0.99))))),
        ("box.grid", lambda k, p: c.box_beats_grid(k, pick(p, g["flw"], dataclasses.replace(
            g["flw"], report=scaled(g["flw"].report, "min_detectable_field", 1.1))), g["grid"])),
        ("oracle.analytic_tip", lambda k, p: c.oracle(k, pick(p, g["oracle"], dict(
            g["oracle"], tip_deflection_analytic_m=g["oracle"]["tip_deflection_analytic_m"] * (1 + 1e-6))), g["L"].tree)),
        ("oracle.fd_tip", lambda k, p: c.oracle(k, pick(p, g["oracle"], dict(
            g["oracle"], tip_deflection_fd_m=g["oracle"]["tip_deflection_fd_m"] * 1.02)), g["L"].tree)),
        ("oracle.fd_moment", lambda k, p: c.oracle(k, pick(p, g["oracle"], dict(
            g["oracle"], anchor_moment_fd_N_m=g["oracle"]["anchor_moment_fd_N_m"] * 1.03)), g["L"].tree)),
        ("oracle.order", lambda k, p: c.oracle(k, pick(p, g["oracle"], dict(
            g["oracle"], convergence_order=1.5)), g["L"].tree)),
        ("oracle.passed", lambda k, p: c.oracle(k, pick(p, g["oracle"], dict(
            g["oracle"], passed=False)), g["L"].tree)),
        ("static.tip", lambda k, p: c.static_grids(k, pick(p, g["static"], [dataclasses.replace(
            s, deflection=s.deflection * 1.02) for s in g["static"]]), g["ei"], g["length"], 1e-9)),
        ("static.moment", lambda k, p: c.static_grids(k, pick(p, g["static"], [dataclasses.replace(
            s, bending_moment=s.bending_moment * 1.03) for s in g["static"]]), g["ei"], g["length"], 1e-9)),
        ("static.refines", lambda k, p: c.static_grids(k, pick(p, g["static"], [
            g["static"][0], g["static"][2], g["static"][1], g["static"][3]]), g["ei"], g["length"], 1e-9)),
        ("static.order", lambda k, p: c.static_grids(k, pick(p, g["static"], [
            dataclasses.replace(s, deflection=s.deflection * (1 + 1e-4)) if i == 2 else s
            for i, s in enumerate(g["static"])]), g["ei"], g["length"], 1e-9)),
        ("transient.ring_up", lambda k, p: c.ring_up(k, pick(p, g["ring_up"], dataclasses.replace(
            g["ring_up"], displacement=g["ring_up"].displacement * 1.05)), g["res"], g["x_static"])),
        ("transient.ring_down", lambda k, p: c.ring_down(k, pick(p, ring, dataclasses.replace(
            ring, displacement=ring.displacement * (1 + 1e-3))), g["res"], 1e-7)),
        ("transient.energy", lambda k, p: c.undamped(k, pick(p, g["undamped"], dataclasses.replace(
            g["undamped"], displacement=g["undamped"].displacement
            * (1 + 1e-4 * g["undamped"].time / g["undamped"].time[-1]))), g["lossless_ref"])),
        ("dynamics.peak", lambda k, p: c.resonance(k, pick(p, g["peak"], g["peak"] * (1 + 1e-5)), g["points"], g["res"])),
        ("dynamics.amplitude", lambda k, p: c.resonance(k, g["peak"], pick(p, g["points"], [
            scaled(pt, "amplitude", 1 + 1e-6) for pt in g["points"]]), g["res"])),
        ("dynamics.phase", lambda k, p: c.resonance(k, g["peak"], pick(p, g["points"], [
            dataclasses.replace(pt, phase=pt.phase + 1e-6) for pt in g["points"]]), g["res"])),
        ("emit.report.rows", lambda k, p: c.emitted_report(k, pick(p, g["rep_csv"], g["rep_csv"] + g["rep_csv"].splitlines()[-1] + "\n"), g["rep_st"], rep)),
        ("emit.report.match", lambda k, p: c.emitted_report(k, pick(p, g["rep_csv"], csv_cell(g["rep_csv"], "noise_rms_V")), g["rep_st"], rep)),
        ("emit.report.exact", lambda k, p: c.emitted_report(k, g["rep_csv"], g["rep_st"], pick(p, rep, scaled(rep, "sensitivity", 1 + 1e-12)))),
        ("emit.report.echo", lambda k, p: c.emitted_report(k, g["rep_csv"], pick(p, g["rep_st"], bump_number(
            g["rep_st"], "temperature: 300.0", "temperature: 301.0")), rep)),
        ("emit.sweep.rows", lambda k, p: c.emitted_sweep(k, pick(p, g["sweep_csv"], "\n".join(g["sweep_csv"].splitlines()[:-1]) + "\n"), g["sweep_st"], 20)),
        ("emit.sweep.match", lambda k, p: c.emitted_sweep(k, pick(p, g["sweep_csv"], csv_cell(g["sweep_csv"], "snr", row=4)), g["sweep_st"], 20)),
        ("cli.sweep.linear", lambda k, p: c.field_sweep_csv(k, pick(p, g["sweep_csv"], csv_cell(g["sweep_csv"], "output_at_field_V", row=4, factor=1.001)))),
        ("emit.identical.x", lambda k, p: c.identical(k, "x", g["rep_csv"].encode(), pick(p, g["rep_csv"], g["rep_csv"] + " ").encode())),
        ("noise.rms", lambda k, p: c.noise_text(k, pick(p, g["noise"], _scale_line(g["noise"], "rms_V", 1 + 1e-6)), g["L"].tree)),
        ("noise.snr", lambda k, p: c.noise_text(k, pick(p, g["noise"], _scale_line(g["noise"], "snr", 1 + 1e-6)), g["L"].tree)),
        ("noise.mdf", lambda k, p: c.noise_text(k, pick(p, g["noise"], _scale_line(g["noise"], "min_detectable_field_T", 1 + 1e-6)), g["L"].tree)),
        ("cli.freq_response.rows", lambda k, p: c.freq_response_csv(k, pick(p, g["fr"], "\n".join(g["fr"].splitlines()[:-1]) + "\n"), g["res"])),
        ("cli.freq_response.amplitude", lambda k, p: c.freq_response_csv(k, pick(p, g["fr"], csv_cell(g["fr"], "amplitude_m_per_N", row=50)), g["res"])),
        ("cli.freq_response.phase", lambda k, p: c.freq_response_csv(k, pick(p, g["fr"], csv_cell(g["fr"], "phase_rad", row=50)), g["res"])),
        ("cli.transient.samples", lambda k, p: c.transient_csv(k, pick(p, g["tr"], csv_cell(g["tr"], "t_s", row=30, factor=1.01)))),
        ("cli.optimize.optimum", lambda k, p: c.optimize_text(k, pick(p, g["optimize"], _scale_line(g["optimize"], "drive.amplitude", 0.99)), g["L"].tree)),
        ("cli.optimize.optimum", lambda k, p: c.optimize_text(k, pick(p, g["optimize_plate"], _scale_line(g["optimize_plate"], "objective", 0.99)), g["F"].tree)),
        ("oracle.fd_tip", lambda k, p: c.verify_text(k, pick(p, g["verify"], _scale_line(g["verify"], "tip_deflection_fd_m", 1.02)), g["L"].tree)),
        ("oracle.passed", lambda k, p: c.verify_text(k, pick(p, g["verify"], g["verify"].replace("PASS", "FAIL")), g["L"].tree)),
    ]


def _scale_line(text, name, factor):
    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if key == name:
            line = f"{key}{sep}{float(value) * factor!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def main() -> int:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=out))
    try:
        g = genuine(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = 0
    for name, call in mutations(g):
        clean, perturbed = checks.Checker(), checks.Checker()
        call(clean, False)
        call(perturbed, True)
        passes_genuine = not clean.failures
        catches = perturbed.failed(name)
        bad += not (passes_genuine and catches)
        verdict = "ok" if passes_genuine and catches else "MISSED" if passes_genuine else "FALSE ALARM"
        print(f"{verdict:11s} {name}" + ("" if passes_genuine else f"  {clean.failures[:1]}"))
    print(f"{bad} of {len(mutations(g))} mutations not caught or genuine output rejected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
