import copy
import random
import subprocess
import sys

import numpy as np
import pytest
import yaml

from memsmag import DEFAULT_CONSTRAINTS, default_scenario
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


@pytest.mark.parametrize("config, error", [
    (_THICK_TOP_LAYER, "OverflowError"),
    ("sensor: {support_beam: {width: 1.0e-320}}", "ZeroDivisionError"),
], ids=["thick-layer", "narrow-beam"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_arithmetic_failure_is_runtime_failure(tmp_path, capsys, config, error, command):
    path = tmp_path / "scenario.yaml"
    path.write_text(config)
    argv = [command, "--config", str(path)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "report.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}: ")
    assert err.count("\n") == 1


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
