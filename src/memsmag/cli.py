"""Command line front end.

Exit codes: 0 on success, 1 for invalid input (bad flags, unreadable or
invalid config, a parameter path that names no numeric field), 2 for
runtime failures and failed verification.

Start-up loads only the parser's needs: errors, grids (its limits and
defaults) and scenario. Each command imports the rest itself: simulate,
noise, sweep and optimize import explorer (with noise), verify imports
beam_oracle, and freq-response and transient import dynamics.
"""

import argparse
import math
import os
import sys

from .errors import DomainError, MemsmagError, ParseError, UnknownPathError, ValidationError
from .grids import DEFAULT_CONSTRAINTS, MAX_SWEEP_POINTS, _geomspace
from .scenario import Scenario, load_scenario

CONFIG_DIR_ENV = "MEMSMAG_CONFIG_DIR"
DEFAULT_CONFIG_NAME = "default.yaml"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; here 2 means runtime failure,
    # so usage problems are remapped onto the invalid-input code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load(args) -> Scenario:
    default = os.path.join(os.environ.get(CONFIG_DIR_ENV, "."), DEFAULT_CONFIG_NAME)
    try:
        return load_scenario(args.config or default)
    except OSError as exc:
        # A config that cannot be read (missing, a directory, no permission)
        # is invalid input, unlike an output file that cannot be written.
        raise ParseError(str(exc)) from exc


def _cmd_simulate(args) -> int:
    from .explorer import emit_report, run_scenario

    report = run_scenario(_load(args))
    emit_report(report, args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    from .explorer import emit_report, sweep

    result = sweep(
        _load(args), args.path, args.start, args.stop, args.steps, args.scale
    )
    emit_report(result, args.format, args.out)
    return 0


def _print_figures(figures: dict, out=None) -> None:
    """Write `name = value` lines, a list as its items, to stdout and any `out`."""
    text = "".join(
        f"{name} = {' '.join(map(repr, value)) if isinstance(value, list) else repr(value)}\n"
        for name, value in figures.items()
    )
    sys.stdout.write(text)
    if out:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _parse_param(text: str):
    parts = text.rsplit(":", 2)
    if len(parts) != 3:
        raise ValueError(f"--param expects path:lower:upper, got {text!r}")
    return parts[0], float(parts[1]), float(parts[2])


def _cmd_optimize(args) -> int:
    from .explorer import emit_report, optimize

    params = [_parse_param(text) for text in args.param]
    constraints = {
        "max_stress_fraction": args.max_stress_fraction,
        "max_temperature_rise": args.max_temperature_rise,
    }
    result = optimize(_load(args), params, args.objective, constraints)
    best = result.evaluation
    _print_figures(
        {**best["params"], "objective": best["objective"], "evaluations": len(result.trace)}
    )
    if args.out:
        emit_report(result.report, args.format, args.out)
    return 0


def _cmd_noise(args) -> int:
    from .explorer import noise_figures, run_scenario

    _print_figures(noise_figures(run_scenario(_load(args)).noise), args.out)
    return 0


def _cmd_freq_response(args) -> int:
    from .dynamics import frequency_response

    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise ValueError(f"--points must be between 2 and {MAX_SWEEP_POINTS}, got {args.points}")
    scenario = _load(args)
    resonator = scenario.sensor.resonator(scenario.quality_factor)
    f0 = resonator.natural_frequency
    f_min = f0 / 10.0 if args.f_min is None else args.f_min
    f_max = f0 * 10.0 if args.f_max is None else args.f_max
    if not 0 < f_min < f_max < math.inf:
        raise ValueError(f"need finite 0 < --f-min < --f-max, got {f_min!r} and {f_max!r}")
    lines = ["frequency_Hz,amplitude_m_per_N,phase_rad"]
    for frequency in _geomspace(f_min, f_max, args.points):
        point = frequency_response(resonator, frequency)
        lines.append(f"{point.frequency!r},{point.amplitude!r},{point.phase!r}")
    with open(args.out, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


def _transient_span(args, resonator, drive) -> tuple:
    """(duration, dt): the flags where given, else 20 periods of the square
    drive (or of the resonance) and 1/200 of the shorter period.

    A square drive so slow that no run within the step cap covers its
    periods at the step bound is a runtime failure that names both
    frequencies; so is a default run over the cap, which names the flags
    that override it. A given flag is checked by simulate_transient.
    """
    from .dynamics import MAX_TRANSIENT_STEPS, MIN_DRIVE_PERIODS, MIN_STEPS_PER_PERIOD

    f0 = resonator.natural_frequency
    period = 1.0 / f0
    source = f"the resonant frequency {f0!r} Hz"
    if drive.waveform == "square":
        source = f"drive.frequency {drive.frequency!r} Hz and {source}"
        fewest = MIN_DRIVE_PERIODS * MIN_STEPS_PER_PERIOD * f0 / drive.frequency
        if fewest > MAX_TRANSIENT_STEPS:
            raise DomainError(
                f"transient: with {source}, {MIN_DRIVE_PERIODS} drive periods at dt <="
                f" 1/({MIN_STEPS_PER_PERIOD} f0) take {fewest:.3e} steps, over the cap of"
                f" {MAX_TRANSIENT_STEPS}"
            )
        duration, dt = 20.0 / drive.frequency, min(period, 1.0 / drive.frequency) / 200.0
    else:
        duration, dt = 20.0 * period, period / 200.0
    if args.duration is None and args.dt is None and duration / dt > MAX_TRANSIENT_STEPS:
        raise DomainError(
            f"transient: with {source}, the default run takes {duration / dt:.3e} steps, over "
            f"the cap of {MAX_TRANSIENT_STEPS}; give --duration and --dt"
        )
    return (
        duration if args.duration is None else args.duration,
        dt if args.dt is None else args.dt,
    )


def _cmd_transient(args) -> int:
    from .dynamics import simulate_transient

    scenario = _load(args)
    resonator = scenario.sensor.resonator(scenario.quality_factor)
    series = simulate_transient(
        resonator,
        scenario.sensor,
        scenario.drive,
        scenario.environment,
        *_transient_span(args, resonator, scenario.drive),
    )
    series.to_csv(args.out)
    return 0


def _cmd_verify(args) -> int:
    from .beam_oracle import oracle_check

    checks = oracle_check(_load(args))
    passed = checks.pop("passed")
    _print_figures(checks)
    print("verify: PASS" if passed else "verify: FAIL")
    return 0 if passed else 2


def _add_config(parser) -> None:
    parser.add_argument(
        "--config",
        help=(
            "scenario YAML; defaults to default.yaml in the directory named "
            f"by ${CONFIG_DIR_ENV} (or the working directory)"
        ),
    )


def _add_output(parser, required: bool = True) -> None:
    parser.add_argument("--out", required=required, help="output file path")
    parser.add_argument(
        "--format",
        choices=("csv", "structured-text"),
        default="csv",
        help="output encoding (default: csv)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="memsmag", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("simulate", help="run one scenario into a report")
    _add_config(sub)
    _add_output(sub)
    sub.set_defaults(handler=_cmd_simulate)

    sub = commands.add_parser("sweep", help="run a scenario across a parameter range")
    _add_config(sub)
    sub.add_argument("--path", required=True, help="dotted scenario path, e.g. drive.amplitude")
    sub.add_argument("--start", type=float, required=True)
    sub.add_argument("--stop", type=float, required=True)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--scale", choices=("linear", "log"), default="linear")
    _add_output(sub)
    sub.set_defaults(handler=_cmd_sweep)

    sub = commands.add_parser("optimize", help="search a design box under constraints")
    _add_config(sub)
    sub.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="PATH:LOWER:UPPER",
        help="free parameter with bounds; repeatable",
    )
    sub.add_argument(
        "--objective",
        choices=("min_detectable_field", "sensitivity"),
        default="min_detectable_field",
    )
    sub.add_argument(
        "--max-stress-fraction", type=float, default=DEFAULT_CONSTRAINTS["max_stress_fraction"]
    )
    sub.add_argument(
        "--max-temperature-rise", type=float, default=DEFAULT_CONSTRAINTS["max_temperature_rise"]
    )
    _add_output(sub, required=False)
    sub.set_defaults(handler=_cmd_optimize)

    sub = commands.add_parser("noise", help="print the noise budget")
    _add_config(sub)
    sub.add_argument("--out", help="also write the budget to this file")
    sub.set_defaults(handler=_cmd_noise)

    sub = commands.add_parser("freq-response", help="tabulate the harmonic response")
    _add_config(sub)
    sub.add_argument("--f-min", type=float, help="default: natural frequency / 10")
    sub.add_argument("--f-max", type=float, help="default: natural frequency * 10")
    sub.add_argument("--points", type=int, default=200)
    sub.add_argument("--out", required=True, help="CSV output path")
    sub.set_defaults(handler=_cmd_freq_response)

    sub = commands.add_parser("transient", help="integrate the driven beam in time")
    _add_config(sub)
    sub.add_argument("--duration", type=float, help="default: 20 drive or natural periods")
    sub.add_argument("--dt", type=float, help="default: finest relevant period / 200")
    sub.add_argument("--out", required=True, help="CSV output path")
    sub.set_defaults(handler=_cmd_transient)

    sub = commands.add_parser(
        "verify", help="cross-check closed forms against the brute-force beam solver"
    )
    _add_config(sub)
    sub.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.handler(args)
    except (ValidationError, ParseError, UnknownPathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MemsmagError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # A bare OverflowError or ZeroDivisionError message names no cause.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
