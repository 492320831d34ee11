import contextlib
import copy
import dataclasses
import io
import math
import random
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from memsmag import BUILTIN_NAMES, DEFAULT_CONSTRAINTS, Material, default_scenario
from memsmag.cli import CONFIG_DIR_ENV, build_parser, main
from memsmag.explorer import MAX_SWEEP_POINTS


def _empty_config(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("")
    return str(path)


def test_simulate_csv(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["simulate", "--config", _empty_config(tmp_path), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("#")
    assert "sensitivity_V_per_T" in text


def test_simulate_structured_text(tmp_path):
    out = tmp_path / "report.yaml"
    code = main(
        [
            "simulate",
            "--config",
            _empty_config(tmp_path),
            "--out",
            str(out),
            "--format",
            "structured-text",
        ]
    )
    assert code == 0
    loaded = yaml.safe_load(out.read_text())
    assert loaded["sensitivity_V_per_T"] > 0


def test_simulate_byte_identical_runs(tmp_path):
    cfg = _empty_config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_config(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["simulate", "--config", "/nonexistent/x.yaml", "--out", str(out)])
    assert code == 1


def test_invalid_config(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("drive:\n  amplitude: -1\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_gauge_film_not_piezoresistive(tmp_path):
    cfg = tmp_path / "film.yaml"
    cfg.write_text("sensor: {gauge: {material: aluminum}}\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_unparseable_config(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("drive: [oops\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_usage_errors(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["simulate", "--config", _empty_config(tmp_path)]) == 1
    assert main(["simulate", "--bogus-flag"]) == 1


def test_verify_passes(tmp_path, capsys):
    code = main(["verify", "--config", _empty_config(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "verify: PASS" in captured.out
    assert "convergence_order = " in captured.out


def test_config_dir_env(tmp_path, monkeypatch, capsys):
    (tmp_path / "default.yaml").write_text("")
    monkeypatch.setenv(CONFIG_DIR_ENV, str(tmp_path))
    code = main(["noise"])
    captured = capsys.readouterr()
    assert code == 0
    assert "rms_V = " in captured.out
    assert "corner_frequency_Hz = " in captured.out


def test_noise_out_file(tmp_path, capsys):
    out = tmp_path / "noise.txt"
    code = main(["noise", "--config", _empty_config(tmp_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert out.read_text() == captured.out


@pytest.mark.parametrize("config", [
    "{}", "sensor: {kind: ferro}", "noise_band: [1, 10000]",
], ids=["lorentz", "ferro", "integer-band"])
def test_noise_prints_the_structured_text_noise_figures(tmp_path, capsys, config):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    report = tmp_path / "report.yaml"
    argv = ["simulate", "--config", str(path), "--out", str(report), "--format", "structured-text"]
    assert main(argv) == 0
    figures = yaml.safe_load(report.read_text())["noise"]
    assert main(["noise", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(figures)
    for line in lines:
        name, _, shown = line.partition(" = ")
        value = figures[name]
        assert shown == " ".join(map(repr, value if isinstance(value, list) else [value]))


@pytest.mark.parametrize("config, field", [
    ("drive: {amplitude: 0.0}", "drive.amplitude: must be > 0"),
    ("sensor: {kind: ferro, magnetization: 0.0}", "sensor.magnetization: must be > 0"),
], ids=["lorentz-no-current", "ferro-no-magnetization"])
def test_zero_drive_is_invalid_input(tmp_path, capsys, config, field):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 1
    assert field in capsys.readouterr().err


def test_noise_fails_like_simulate(tmp_path, capsys):
    # A field along the current gives no signal; both commands stop in the
    # report's noise stage with the same named line.
    path = tmp_path / "scenario.yaml"
    path.write_text("environment: {field_angle: 0.0}")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    simulate_err = capsys.readouterr().err
    assert main(["noise", "--config", str(path)]) == 2
    noise_err = capsys.readouterr().err
    assert noise_err == simulate_err
    assert noise_err.startswith("error: noise: sensitivity must be nonzero")


def test_underflowing_temperature_fails_simulate_and_noise_alike(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("environment: {temperature: 1.0e-320}")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    simulate_err = capsys.readouterr().err
    assert main(["noise", "--config", str(path)]) == 2
    noise_err = capsys.readouterr().err
    assert noise_err == simulate_err
    assert noise_err.startswith(
        "error: noise: Johnson PSD 4 k_B T R underflows to 0 at environment.temperature 1e-320 K"
    )
    assert noise_err.count("\n") == 1


def test_underflowing_band_rms_fails_simulate_and_noise_alike(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "environment: {temperature: 1.0e-300}\n"
        "noise_band: [1.0, 1.0000000001]\n"
        "material_overrides: {silicon: {hooge_alpha: 0.0}}\n"
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    simulate_err = capsys.readouterr().err
    assert main(["noise", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", simulate_err)
    assert captured.err == (
        "error: noise: band RMS noise underflows to 0 over noise_band 1.0 to 1.0000000001 Hz"
        " at environment.temperature 1e-300 K\n"
    )


def test_underflowing_plate_volume_is_a_runtime_failure(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("sensor: {kind: ferro, plate_length: 1.0e-320}")
    out = tmp_path / "r.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: transduction: plate volume underflows to 0: sensor.plate_length 1e-320 m"
        " * sensor.plate_width 5e-05 m * sensor.plate_thickness 5e-07 m\n"
    )
    assert not out.exists()


def test_sweep_cli(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--config",
            _empty_config(tmp_path),
            "--path",
            "drive.amplitude",
            "--start",
            "0.001",
            "--stop",
            "0.01",
            "--steps",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("drive.amplitude,")


def test_freq_response_cli(tmp_path):
    out = tmp_path / "response.csv"
    code = main(
        ["freq-response", "--config", _empty_config(tmp_path), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency_Hz,amplitude_m_per_N,phase_rad"
    assert len(lines) == 201
    first = [float(cell) for cell in lines[1].split(",")]
    assert first[1] > 0


def test_transient_cli(tmp_path):
    out = tmp_path / "transient.csv"
    code = main(["transient", "--config", _empty_config(tmp_path), "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape[1] == 4
    assert data.shape[0] > 1000


@pytest.mark.parametrize("config, error", [
    ("sensor: {support_beam: {width: 1.0e+300}}", "transient step map coefficient P[0][0] is nan"),
    ("sensor: {bridge_bias: 1.7e+308}", "transient column V_out_V is nan at t = 0.0 s"),
    ("sensor: {kind: ferro, plate_length: 1.7e+308}", "transient column V_out_V is inf"),
], ids=["damping", "bias", "plate"])
def test_transient_overflow_is_one_named_error(tmp_path, capsys, config, error):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    out = tmp_path / "transient.csv"
    assert main(["transient", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: OverflowError: {error}")
    assert err.count("\n") == 1
    assert not out.exists()


def test_transient_step_too_large(tmp_path):
    out = tmp_path / "transient.csv"
    code = main(
        [
            "transient",
            "--config",
            _empty_config(tmp_path),
            "--dt",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 2


def test_transient_step_cap(tmp_path, capsys):
    out = tmp_path / "transient.csv"
    code = main(
        [
            "transient",
            "--config",
            _empty_config(tmp_path),
            "--dt",
            "1e-320",
            "--duration",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--duration", "0"], ["--dt", "0"], ["--duration", "nan"], ["--dt", "nan"],
])
def test_transient_zero_or_nan_flag_is_invalid_input(tmp_path, capsys, flags):
    out = tmp_path / "transient.csv"
    code = main(["transient", "--config", _empty_config(tmp_path), *flags, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: duration and dt must be > 0\n"
    assert not out.exists()


@pytest.mark.parametrize("frequency, error", [
    ("5.0e-324", "the default --duration is inf s; give --duration"),
    ("1.0e-300", "the default run takes 2.309e+307 steps, over the cap of 10000000; "
                 "give --duration and --dt"),
], ids=["duration-overflows", "over-step-cap"])
def test_transient_default_out_of_range_is_a_named_runtime_failure(
    tmp_path, capsys, frequency, error
):
    # The config is valid and no flag was given: the default the scenario
    # derives is at fault, not the input.
    path = tmp_path / "scenario.yaml"
    path.write_text(f"drive: {{frequency: {frequency}}}")
    scenario = default_scenario("lorentz")
    f0 = scenario.sensor.resonator(scenario.quality_factor).natural_frequency
    out = tmp_path / "transient.csv"
    assert main(["transient", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: transient: with drive.frequency {float(frequency)!r} Hz and the resonant "
        f"frequency {f0!r} Hz, {error}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("config", [
    "sensor: {support_beam: {length: %s}}",
    "sensor: {kind: ferro, suspension: {length: %s}}",
], ids=["lorentz", "ferro"])
@pytest.mark.parametrize("length", ["1.0e-300", "1.0e+300"])
def test_beam_stiffness_out_of_float_range_names_the_length(tmp_path, capsys, config, length):
    path = tmp_path / "scenario.yaml"
    path.write_text(config % length)
    named = f"tip stiffness 3 EI / l^3 leaves the float range: beam length {float(length)!r} m\n"
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: mechanics: {named}"
    assert main(["transient", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {named}"
    assert not out.exists()


def test_noise_gain_out_of_float_range_names_the_figure(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("sensor: {bridge_bias: 1.0e+300}")
    error = (
        "error: OverflowError: report figure noise_mechanical_referred_psd_V2_per_Hz"
        " is not finite: inf\n"
    )
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == error
    assert main(["noise", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("flags, named", [
    (["--points", "0"], "--points"),
    (["--points", "-3"], "--points"),
    (["--points", str(MAX_SWEEP_POINTS + 1)], "--points"),
    (["--f-max", "inf"], "--f-max"),
    (["--f-min", "nan"], "--f-min"),
])
def test_freq_response_bad_range_is_invalid_input(tmp_path, capsys, monkeypatch, flags, named):
    def no_allocation(*args, **kwargs):
        raise AssertionError("the table allocated its points")

    monkeypatch.setattr(np, "geomspace", no_allocation)
    out = tmp_path / "response.csv"
    argv = ["freq-response", "--config", _empty_config(tmp_path), *flags, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_sweep_point_cap_is_invalid_input(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", _empty_config(tmp_path), "--path", "drive.amplitude",
            "--start", "0.001", "--stop", "0.01", "--steps", str(MAX_SWEEP_POINTS + 1),
            "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: steps must be between 2 and {MAX_SWEEP_POINTS}, got {MAX_SWEEP_POINTS + 1}\n"
    )
    assert not out.exists()


def test_optimize_cli(tmp_path, capsys):
    code = main(
        [
            "optimize",
            "--config",
            _empty_config(tmp_path),
            "--param",
            "drive.amplitude:0.001:0.012",
            "--objective",
            "sensitivity",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "drive.amplitude = 0.01" in captured.out
    assert "objective = " in captured.out
    assert "evaluations = " in captured.out


@pytest.mark.parametrize("yield_stress", ["5.0e-324", "1.0e-300"])
def test_optimize_underflowing_stress_margin_is_infeasible(tmp_path, capsys, yield_stress):
    # The margin underflows to 0 or its violation would overflow the
    # penalty; either way every score stays finite and no warning escapes.
    path = tmp_path / "scenario.yaml"
    path.write_text(f"material_overrides: {{silicon: {{yield_stress: {yield_stress}}}}}")
    assert main(["optimize", "--config", str(path), "--param", "drive.amplitude:0.001:0.012"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no evaluated point satisfied the constraints\n"


@pytest.mark.parametrize("flag, value", [
    ("--max-temperature-rise", "0"),
    ("--max-stress-fraction", "0"),
    ("--max-stress-fraction", "nan"),
    ("--max-temperature-rise", "inf"),
])
def test_optimize_bad_constraint_is_invalid_input(tmp_path, capsys, flag, value):
    argv = ["optimize", "--config", _empty_config(tmp_path),
            "--param", "drive.amplitude:0.001:0.012", flag, value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite and > 0")
    assert err.count("\n") == 1


def test_optimize_flag_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["optimize", "--param", "drive.amplitude:0.001:0.012"])
    assert args.max_stress_fraction == DEFAULT_CONSTRAINTS["max_stress_fraction"]
    assert args.max_temperature_rise == DEFAULT_CONSTRAINTS["max_temperature_rise"]


def test_optimize_bad_param_spec(tmp_path):
    code = main(
        [
            "optimize",
            "--config",
            _empty_config(tmp_path),
            "--param",
            "drive.amplitude",
        ]
    )
    assert code == 1


@pytest.mark.parametrize("command, flag", [
    ("sweep", ["--path", "drive.bogus", "--start", "1", "--stop", "2", "--steps", "2"]),
    ("optimize", ["--param", "drive.bogus:1:2"]),
])
def test_unknown_parameter_path_is_invalid_input(tmp_path, capsys, command, flag):
    out = tmp_path / "out.csv"
    code = main([command, "--config", _empty_config(tmp_path), *flag, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: drive.bogus: no such field in the scenario\n"
    assert not out.exists()


_THICK_TOP_LAYER = """
sensor:
  support_beam:
    layers:
      - {material: silicon, thickness: 100.0e-9}
      - {material: silicon_nitride, thickness: 280.0e-9}
      - {material: aluminum, thickness: 1.0e+300}
"""


def test_non_finite_report_is_runtime_failure(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("environment: {field_magnitude: 1.0e+301}")
    out = tmp_path / "report.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: OverflowError: report figure output_at_field_V is not finite: inf\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("config, errors", [
    (_THICK_TOP_LAYER, {"simulate": "OverflowError: ", "verify": "OverflowError: "}),
    # w t^2 n and the section's E w t underflow to 0 before they divide.
    ("sensor: {support_beam: {width: 1.0e-320}}", {
        "simulate": "transduction: anchor stress 6 l F / (w t^2 n) divides by 0:"
                    " w t^2 n underflows at beam width 1e-320 m",
        "verify": "axial stiffness sum E w t underflows to 0 at beam width 1e-320 m",
    }),
], ids=["thick-layer", "narrow-beam"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_arithmetic_failure_is_runtime_failure(tmp_path, capsys, config, errors, command):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {errors[command]}")
    assert err.count("\n") == 1


_JOULE_OVERFLOW = (
    "OverflowError: Joule offset c I^2 leaves the float range: drive current 1e+300 A"
)


@pytest.mark.parametrize("command, config, error", [
    ("simulate", "sensor: {support_beam: {layers: [{material: silicon, thickness: 1.0e+300}]}}",
     "OverflowError: anchor stress 6 l F / (w t^2 n) leaves the float range:"
     " beam thickness 1e+300 m"),
    ("verify", "sensor: {support_beam: {layers: [{material: silicon, thickness: 1.0e+300}]}}",
     "OverflowError: flexural rigidity EI leaves the float range:"
     " layer 0 (silicon) thickness 1e+300 m"),
    ("verify", _THICK_TOP_LAYER,
     "OverflowError: flexural rigidity EI leaves the float range:"
     " layer 2 (aluminum) thickness 1e+300 m"),
    ("verify", "sensor: {support_beam: {length: 1.0e+300}}",
     "tip deflection F l^3 / (3 EI) leaves the float range: beam length 1e+300 m"),
    ("simulate", "drive: {amplitude: 1.0e+300}", _JOULE_OVERFLOW),
    ("noise", "sensor: {kind: ferro}\ndrive: {amplitude: 1.0e+300}", _JOULE_OVERFLOW),
    # Products that underflow to 0 before they divide.
    ("noise", "sensor: {gauge: {width: 5.0e-324}}",
     "noise: gauge carrier count l w t n underflows to 0 at sensor.gauge.length 5e-05 m,"
     " width 5e-324 m, thickness 1e-07 m and silicon carrier density 5e+25 m^-3"),
    ("simulate", "sensor: {kind: ferro, gauge: {thickness: 5.0e-324}}",
     "noise: gauge carrier count l w t n underflows to 0 at sensor.gauge.length 5e-05 m,"
     " width 5e-06 m, thickness 5e-324 m and polysilicon carrier density 5e+25 m^-3"),
    ("noise", "sensor: {support_beam: {width: 5.0e-324}}",
     "transduction: anchor stress 6 l F / (w t^2 n) divides by 0: w t^2 n underflows at"
     " beam width 5e-324 m and thickness 1.38e-06 m"),
    ("transient", "sensor: {kind: ferro, suspension: {width: 5.0e-324}}",
     "axial stiffness sum E w t underflows to 0 at beam width 5e-324 m and layer"
     " thicknesses 3.5e-07, 1e-06 m"),
    # The plate's mass overflows, so the resonance underflows to 0 Hz.
    ("transient", "sensor: {kind: ferro, plate_length: 1.0e+300, plate_width: 1.0e+300}",
     "transient: with the resonant frequency 0.0 Hz, the default --duration is inf s;"
     " give --duration"),
], ids=["simulate-thickness", "verify-thickness", "verify-top-layer", "verify-length",
        "simulate-current", "noise-current", "noise-gauge-width", "simulate-gauge-thickness",
        "noise-beam-width", "transient-suspension-width", "transient-zero-resonance"])
def test_power_overflow_names_the_dimension(tmp_path, capsys, command, config, error):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    argv = [command, "--config", str(path)]
    if command in ("simulate", "transient"):
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_verify_underflowing_grid_step_is_one_named_error(tmp_path, capsys):
    path = tmp_path / "scenario.yaml"
    path.write_text("sensor: {support_beam: {length: 1.0e-320}}")
    assert main(["verify", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beam length 1e-320 m is too short")
    assert err.count("\n") == 1


def test_cold_import_loads_no_scipy():
    code = (
        "import sys, memsmag, memsmag.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout == "[]\n"


def test_cold_optimize_loads_no_scipy(tmp_path):
    argv = ["optimize", "--config", _empty_config(tmp_path), "--param", "drive.amplitude:0.001:0.012"]
    code = (
        "import sys; from memsmag.cli import main; "
        f"print(main({argv!r})); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.splitlines()[-2:] == ["0", "[]"]


def _numeric_leaves(node, path=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            yield path
        return
    for key, child in children:
        yield from _numeric_leaves(child, path + (key,))


def test_extreme_numeric_leaves_never_raise(tmp_path):
    # Validation bounds some fields but not every magnitude, so extremes in
    # one to three leaves reach the model: each run must end with an exit
    # code, never an uncaught exception.
    rng = random.Random(20080601)
    extremes = (0, -1, 1e-320, 1e-300, 0.5, 2.0, 1e150, 1e300)
    trees = {kind: default_scenario(kind).tree for kind in ("lorentz", "ferro")}
    leaves = {kind: list(_numeric_leaves(tree)) for kind, tree in trees.items()}
    config = tmp_path / "scenario.yaml"
    report = str(tmp_path / "report.csv")
    for _ in range(100):
        kind = rng.choice(sorted(trees))
        tree = copy.deepcopy(trees[kind])
        for path in rng.sample(leaves[kind], rng.randint(1, 3)):
            node = tree
            for step in path[:-1]:
                node = node[step]
            node[path[-1]] = rng.choice(extremes)
        config.write_text(yaml.safe_dump(tree))
        for argv in (["simulate", "--out", report], ["verify"]):
            assert main(argv + ["--config", str(config)]) in (0, 1, 2)


def _declared(scenario, path) -> dict:
    """The metadata of the record field that tree `path` sets, or {}."""
    if path[0] == "material_overrides":
        return _MATERIAL_METADATA[path[-1]]
    record = scenario
    for step in path[:-1]:
        record = record[step] if isinstance(step, int) else getattr(record, step)
    if not dataclasses.is_dataclass(record):
        return {}
    return {f.name: f.metadata for f in dataclasses.fields(record)}.get(path[-1], {})


_DEFAULTS = {kind: default_scenario(kind) for kind in ("lorentz", "ferro")}
_EXTREMES = (0.0, -0.0, 5e-324, 1e-320, 1e-300, 1e300, 1.7e308)
_MATERIAL_METADATA = {f.name: f.metadata for f in dataclasses.fields(Material)}
_BOUNDED_MATERIAL_FIELDS = [name for name, metadata in _MATERIAL_METADATA.items() if metadata]


def _leaf_values(scenario, path) -> tuple:
    """The fixed extremes, and each declared bound with its neighbouring floats."""
    metadata = _declared(scenario, path)
    bounds = [metadata[key] for key in ("gt", "ge", "lt") if key in metadata]
    near = tuple(
        value
        for bound in bounds
        for value in (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))
    )
    return near + _EXTREMES


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_bounded_extremes_end_in_one_named_outcome(tmp_path_factory, data):
    # Values at and beside each declared bound, and float extremes, in one to
    # three leaves, material overrides among them: every command ends with a
    # clean exit code and one message, and a transient that succeeds writes
    # only finite samples.
    kind = data.draw(st.sampled_from(sorted(_DEFAULTS)))
    scenario = _DEFAULTS[kind]
    # material_overrides.<film>.<field> leaves, absent from the default trees.
    film = data.draw(st.sampled_from(BUILTIN_NAMES))
    overrides = [("material_overrides", film, name) for name in _BOUNDED_MATERIAL_FIELDS]
    leaves = list(_numeric_leaves(scenario.tree)) + overrides
    tree = copy.deepcopy(scenario.tree)
    for path in data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3, unique=True)):
        node = tree
        for step in path[:-1]:
            node = node[step] if isinstance(node, list) else node.setdefault(step, {})
        node[path[-1]] = data.draw(st.sampled_from(_leaf_values(scenario, path)))
    folder = tmp_path_factory.mktemp("extremes")
    config = folder / "scenario.yaml"
    config.write_text(yaml.safe_dump(tree))
    commands = (
        ["simulate", "--out", str(folder / "report.csv")],
        ["noise"],
        ["verify"],
        ["transient", "--out", str(folder / "transient.csv")],
    )
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--config", str(config)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
            if argv[0] == "transient":
                assert np.isfinite(np.loadtxt(argv[2], delimiter=",", skiprows=1)).all()
        elif err.startswith("error: invalid scenario:\n"):
            assert code == 1
            assert all(line.startswith("  - ") for line in err.splitlines()[1:])
        elif argv[0] == "verify" and err == "":
            assert code == 2 and out.endswith("verify: FAIL\n")
        else:
            assert err.count("\n") == 1
            # A float-range failure names its figure: no bare errno or division line.
            assert "(34, " not in err and "float division by zero" not in err
