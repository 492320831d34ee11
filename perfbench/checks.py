"""Checks of program outputs against the reference figures.

Each function takes what the program returned and records any mismatch
in a Checker under the function's own check name; none raises. The
selftest feeds every function a perturbed output to show it notices.
Oracle outputs get tolerances only, because the dense solve's last digits
depend on the BLAS thread count, and no check pins digits of the ferro
noise budget, whose model is expected to change.
"""

import math

import yaml

import reference as ref

# csv column -> path of the same number in the structured-text tree
REPORT_FIELDS = {
    "sensitivity_V_per_T": ("sensitivity_V_per_T",),
    "offset_V": ("offset_V",),
    "output_at_field_V": ("output_at_field_V",),
    "tip_deflection_m": ("tip_deflection_m",),
    "anchor_stress_Pa": ("anchor_stress_Pa",),
    "stress_margin": ("stress_margin",),
    "resonant_frequency_Hz": ("resonant_frequency_Hz",),
    "quality_factor": ("quality_factor",),
    "temperature_rise_K": ("temperature_rise_K",),
    "noise_thermal_electrical_psd_V2_per_Hz": ("noise", "thermal_electrical_psd_V2_per_Hz"),
    "noise_mechanical_referred_psd_V2_per_Hz": (
        "noise",
        "thermal_mechanical_psd_referred_V2_per_Hz",
    ),
    "noise_flicker_scale_V2": ("noise", "flicker_scale_V2"),
    "noise_corner_frequency_Hz": ("noise", "corner_frequency_Hz"),
    "noise_rms_V": ("noise", "rms_V"),
    "snr": ("snr",),
    "min_detectable_field_T": ("min_detectable_field_T",),
}


def _dig(tree, path):
    for key in path:
        tree = tree[key]
    return tree


class Checker:
    """Collects failed comparisons by check name instead of raising."""

    def __init__(self):
        self.failures = []

    def true(self, name: str, condition: bool, detail: str = "") -> bool:
        if not condition:
            self.failures.append(f"{name}: {detail}")
        return bool(condition)

    def close(self, name: str, got, want, rel: float, abs_tol: float = 0.0) -> bool:
        ok = (
            isinstance(got, (int, float))
            and math.isfinite(got)
            and abs(got - want) <= max(rel * abs(want), abs_tol)
        )
        return self.true(name, ok, f"got {got!r}, want {want!r} (rel {rel})")

    def failed(self, name: str) -> bool:
        return any(f.startswith(name + ":") for f in self.failures)


def report(chk, rep) -> None:
    """A report against the closed forms of its own resolved inputs."""
    tree = rep.scenario
    s = ref.sensitivity(tree)
    chk.close("report.sensitivity", rep.sensitivity, s, 1e-9)
    chk.close("report.offset", rep.offset, ref.offset(tree), 1e-9, 1e-30)
    field = tree["environment"]["field_magnitude"]
    chk.close("report.output", rep.output_at_field, s * field + ref.offset(tree), 1e-9)
    chk.close("report.anchor_stress", rep.anchor_stress, ref.stress_per_field(tree) * field, 1e-9)
    chk.close("report.resonance", rep.resonant_frequency, ref.resonator(tree)["f0"], 1e-9)
    chk.close("report.heating", rep.temperature_rise, ref.temperature_rise(tree), 1e-9, 1e-30)
    noise = rep.noise
    finite = [rep.min_detectable_field, rep.tip_deflection, noise.rms, noise.snr]
    chk.true(
        "report.finite",
        all(math.isfinite(v) and v > 0 for v in finite),
        f"non-finite or non-positive figures {finite}",
    )


def field_sweep(chk, result) -> None:
    """Signal linear in the field, one sensitivity at every point."""
    reps = result.reports
    if not chk.true("sweep.field.points", None not in reps, f"failed points {result.errors}"):
        return
    signal = [r.output_at_field - r.offset for r in reps]
    residual = ref.linear_fit_residual(result.values, signal)
    chk.true("sweep.field.linear", residual < 1e-9, f"linear-fit residual {residual:.3e}")
    s0 = ref.sensitivity(reps[0].scenario)
    for r in reps:
        chk.close("sweep.field.sensitivity", r.sensitivity, s0, 1e-9)


def amplitude_sweep(chk, result) -> None:
    """Sensitivity proportional to I and offset equal to c*I^2."""
    reps = result.reports
    if not chk.true("sweep.amplitude.points", None not in reps, f"failed points {result.errors}"):
        return
    tree = reps[0].scenario
    per_amp = ref.sensitivity(tree) / tree["drive"]["amplitude"]
    c = tree["offset_coefficient"]
    for current, r in zip(result.values, reps):
        chk.close("sweep.amplitude.sensitivity", r.sensitivity, per_amp * current, 1e-9)
        chk.close("sweep.amplitude.offset", r.offset, c * current**2, 1e-9)


def angle_sweep(chk, result) -> None:
    """Plate sensitivity follows sin(field angle + misalignment) point by point."""
    reps = result.reports
    if not chk.true("sweep.angle.points", None not in reps, f"failed points {result.errors}"):
        return
    for angle, r in zip(result.values, reps):
        chk.true(
            "sweep.angle.echo",
            r.scenario["environment"]["field_angle"] == angle,
            f"report echoes angle {r.scenario['environment']['field_angle']} for {angle}",
        )
        chk.close("sweep.angle.sensitivity", r.sensitivity, ref.sensitivity(r.scenario), 1e-9)


def box_feasible(chk, result) -> None:
    """The optimum satisfies the stress and heating limits by the closed forms."""
    tree = result.report.scenario
    chk.true("box.feasible", ref.feasible(tree), "best design breaks a constraint")
    report(chk, result.report)


def box_temperature_limited(chk, result) -> None:
    """1-parameter drive box: optimum at sqrt(dT_max / (R_loop * R_th))."""
    tree = result.report.scenario
    best = tree["drive"]["amplitude"]
    chk.close("box.amp.optimum", best, ref.temperature_limited_current(tree), 1e-3)


def box_corner(chk, result) -> None:
    """Length x width box: optimum at the (800 um, 5 um) corner."""
    beam = result.report.scenario["sensor"]["support_beam"]
    chk.close("box.lw.length", beam["length"], 800e-6, 1e-3)
    chk.close("box.lw.width", beam["width"], 5e-6, 1e-3)


def box_stress_limited(chk, result) -> None:
    """Plate box: optimum reaches (sigma_y,min / 2) * pi_l * V_b / (4 B)."""
    tree = result.report.scenario
    want = ref.stress_limited_sensitivity(tree)
    chk.close("box.stress.sensitivity", result.report.sensitivity, want, 1e-3)


def box_beats_grid(chk, result, grid_best: float) -> None:
    """No point of the benchmark's own coarse grid beats the optimum."""
    got = result.report.min_detectable_field
    chk.true(
        "box.grid",
        got <= grid_best * (1 + 1e-9),
        f"optimum {got!r} T worse than grid best {grid_best!r} T",
    )


def oracle(chk, figures: dict, tree: dict) -> None:
    """oracle_check figures against an independent EI and the cantilever forms."""
    beam = ref.beam_node(tree)
    force = 1e-9
    tip = ref.cantilever_tip(ref.flexural_rigidity(tree, beam), beam["length"], force)
    chk.close("oracle.analytic_tip", figures["tip_deflection_analytic_m"], tip, 1e-9)
    chk.close("oracle.fd_tip", figures["tip_deflection_fd_m"], tip, 1e-2)
    chk.close("oracle.fd_moment", figures["anchor_moment_fd_N_m"], force * beam["length"], 2e-2)
    order = figures["convergence_order"]
    chk.true("oracle.order", 1.8 <= order <= 2.2, f"convergence order {order!r}")
    chk.true("oracle.passed", figures["passed"] is True, "oracle_check did not pass")


def static_grids(chk, solutions, ei: float, length: float, force: float) -> None:
    """Tip F*l^3/(3EI), anchor moment F*l and second-order convergence.

    Solutions come coarse to fine. The finest grid (800 nodes) already
    sits on the roundoff floor of the n^4-conditioned solve, so refinement
    and order are judged on the others.
    """
    want_tip = ref.cantilever_tip(ei, length, force)
    errors = []
    for sol in solutions:
        chk.close("static.tip", sol.tip_deflection, want_tip, 1e-2)
        chk.close("static.moment", float(sol.bending_moment[0]), force * length, 2e-2)
        errors.append(abs(sol.tip_deflection - want_tip))
    chk.true(
        "static.refines",
        all(b < a for a, b in zip(errors[:-1], errors[1:-1])),
        f"tip error does not fall with refinement: {errors}",
    )
    steps = [length / (sol.grid_size - 1) for sol in solutions[:-1]]
    order = ref.observed_order(steps, [sol.tip_deflection for sol in solutions[:-1]])
    chk.true("static.order", 1.8 <= order <= 2.2, f"observed order {order!r}")


def ring_up(chk, series, res: dict, static_deflection: float) -> None:
    """Settled square-drive response at f0: (4/pi) * Q * x_static within 3%."""
    per = int(round(series.drive_period / series.dt))
    tail = series.displacement[-2 * per :]
    amplitude = float(tail.max() - tail.min()) / 2.0
    want = 4.0 / math.pi * res["q"] * abs(static_deflection)
    chk.close("transient.ring_up", amplitude, want, 0.03)


def ring_down(chk, series, res: dict, x0: float) -> None:
    """Free decay against the exact underdamped solution."""
    exact = ref.damped_free_response(res, x0, series.time.tolist())
    worst = max(abs(a - b) for a, b in zip(series.displacement.tolist(), exact))
    chk.true("transient.ring_down", worst <= 1e-4 * abs(x0), f"max error {worst!r} m")


def undamped(chk, series, res: dict) -> None:
    """Lossless run keeps its energy: relative drift below 1e-5."""
    k, m = res["k"], res["m"]
    e0 = 0.5 * k * series.displacement[0] ** 2 + 0.5 * m * series.velocity[0] ** 2
    e1 = 0.5 * k * series.displacement[-1] ** 2 + 0.5 * m * series.velocity[-1] ** 2
    drift = abs(float(e1 / e0) - 1.0)
    chk.true("transient.energy", drift < 1e-5, f"energy drift {drift:.3e}")


def resonance(chk, peak: float, points, res: dict) -> None:
    """Peak at f0*sqrt(1 - 1/(2Q^2)); response equals the closed form."""
    chk.close("dynamics.peak", peak, ref.peak_frequency(res), 1e-6)
    for point in points:
        amp, phase = ref.harmonic_amplitude(res, point.frequency)
        chk.close("dynamics.amplitude", point.amplitude, amp, 1e-9)
        chk.close("dynamics.phase", point.phase, phase, 1e-9, 1e-12)


def emitted_report(chk, csv_text: str, st_text: str, rep) -> None:
    """Both files carry the report's exact numbers."""
    rows = ref.csv_table(csv_text)
    if not chk.true("emit.report.rows", len(rows) == 1, f"{len(rows)} csv rows"):
        return
    tree = yaml.safe_load(st_text)
    want = {
        "sensitivity_V_per_T": rep.sensitivity,
        "min_detectable_field_T": rep.min_detectable_field,
        "resonant_frequency_Hz": rep.resonant_frequency,
        "anchor_stress_Pa": rep.anchor_stress,
    }
    for column, path in REPORT_FIELDS.items():
        value = float(rows[0][column])
        chk.true(
            "emit.report.match",
            value == _dig(tree, path),
            f"{column}: csv {value!r} vs structured-text {_dig(tree, path)!r}",
        )
        if column in want:
            chk.true(
                "emit.report.exact",
                value == want[column],
                f"{column}: file {value!r} vs report {want[column]!r}",
            )
    chk.true("emit.report.echo", tree["scenario"] == rep.scenario, "scenario echo differs")


def emitted_sweep(chk, csv_text: str, st_text: str, npoints: int) -> None:
    """The sweep's structured-text re-parses to the csv's numbers, row by row."""
    rows = ref.csv_table(csv_text)
    points = yaml.safe_load(st_text)["points"]
    if not chk.true(
        "emit.sweep.rows",
        len(rows) == len(points) == npoints,
        f"{len(rows)} csv rows, {len(points)} structured-text points, want {npoints}",
    ):
        return
    for row, point in zip(rows, points):
        for column, path in REPORT_FIELDS.items():
            chk.true(
                "emit.sweep.match",
                float(row[column]) == _dig(point["report"], path),
                f"{column}: csv {row[column]} vs structured-text {_dig(point['report'], path)!r}",
            )


def field_sweep_csv(chk, text: str) -> None:
    """A field sweep's csv rows: output minus offset linear in the field."""
    rows = ref.csv_table(text)
    fields = [float(r["environment.field_magnitude"]) for r in rows]
    signal = [float(r["output_at_field_V"]) - float(r["offset_V"]) for r in rows]
    residual = ref.linear_fit_residual(fields, signal)
    chk.true("cli.sweep.linear", residual < 1e-9, f"linear-fit residual {residual:.3e}")


def identical(chk, name: str, first: bytes, second: bytes) -> None:
    chk.true(f"emit.identical.{name}", first == second, "repeated runs differ in bytes")


def noise_text(chk, text: str, tree: dict) -> None:
    """Printed budget is self-consistent with the closed-form band integral.

    The PSD values themselves are taken as printed; only the derived rms,
    snr and detection limit are recomputed.
    """
    values = {}
    for line in text.splitlines():
        name, _, rest = line.partition(" = ")
        values[name] = [float(v) for v in rest.split()]
    f1, f2 = values["band_Hz"]
    white = (
        values["thermal_electrical_psd_V2_per_Hz"][0]
        + values["thermal_mechanical_psd_referred_V2_per_Hz"][0]
    )
    rms = math.sqrt(white * (f2 - f1) + values["flicker_scale_V2"][0] * math.log(f2 / f1))
    s = ref.sensitivity(tree)
    env = tree["environment"]
    chk.close("noise.rms", values["rms_V"][0], rms, 1e-9)
    chk.close("noise.snr", values["snr"][0], s * env["field_magnitude"] / rms, 1e-9)
    chk.close("noise.mdf", values["min_detectable_field_T"][0], env["snr_target"] * rms / s, 1e-9)


def freq_response_csv(chk, text: str, res: dict) -> None:
    rows = ref.csv_table(text)
    chk.true("cli.freq_response.rows", len(rows) == 200, f"{len(rows)} rows")
    for row in rows:
        amp, phase = ref.harmonic_amplitude(res, float(row["frequency_Hz"]))
        chk.close("cli.freq_response.amplitude", float(row["amplitude_m_per_N"]), amp, 1e-9)
        chk.close("cli.freq_response.phase", float(row["phase_rad"]), phase, 1e-9, 1e-12)


def transient_csv(chk, text: str) -> int:
    """Uniform time column and finite samples; returns the step count."""
    rows = ref.csv_table(text)
    times = [float(r["t_s"]) for r in rows]
    dt = times[1] - times[0]
    uniform = all(abs((b - a) - dt) <= 1e-6 * dt for a, b in zip(times, times[1:]))
    finite = all(math.isfinite(float(r["V_out_V"])) for r in rows)
    chk.true("cli.transient.samples", len(rows) > 100 and uniform and finite, "bad time series")
    return len(rows) - 1


def verify_text(chk, text: str, tree: dict) -> None:
    values = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    figures = {k: float(v) for k, v in values.items()}
    figures["passed"] = "verify: PASS" in text
    oracle(chk, figures, tree)


def optimize_text(chk, text: str, tree: dict) -> int:
    """1-parameter box from the terminal; returns the evaluation count.

    Current loop: the drive optimum is temperature-limited. Plate: the
    sensitivity optimum is stress-limited.
    """
    values = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)
    if tree["sensor"]["kind"] == "lorentz":
        want = ref.temperature_limited_current(tree)
        chk.close("cli.optimize.optimum", float(values["drive.amplitude"]), want, 1e-3)
    else:
        want = ref.stress_limited_sensitivity(tree)
        chk.close("cli.optimize.optimum", -float(values["objective"]), want, 1e-3)
    return int(values["evaluations"])
