"""Per-layer metrics of a traced run, from its spans and counters."""

import statistics

import terminal
from harness import BOXES, CLI_COMMANDS


def metrics(run, tracer, handler_ms: dict, import_s: float, untraced, traced) -> dict:
    """Every per-layer metric as (value, unit).

    Span times are scaled by the run's median speed factor. `untraced`
    and `traced` are the reference-speed seconds of the two kinds of round.
    """
    factor = statistics.median(run.clock.factors)
    summary = tracer.summary()
    spans, counts, inside = summary["spans"], summary["counts"], summary["model_inside"]

    def per_call(name, field, scale):
        entry = spans.get(name)
        return entry[field] / entry["calls"] * scale * factor if entry else 0.0

    def outside_model_per(name, counter):
        """Microseconds per unit spent in `name` outside build_scenario and run_scenario."""
        units = counts.get(counter, 0)
        if not units:
            return 0.0
        return (spans[name]["incl_s"] - inside.get(name, 0.0)) / units * 1e6 * factor

    evals = counts.get("explorer.optimize.evals", 0)
    steps = counts.get("dynamics.simulate_transient.steps", 0)
    transient = spans.get("dynamics.simulate_transient")
    result = {
        "scenario.build_scenario.calls_per_box": (
            tracer.descendants_per_call("explorer.optimize", "scenario.build_scenario"), "count"),
        "scenario.build_scenario.calls_per_sweep": (
            tracer.descendants_per_call("explorer.sweep", "scenario.build_scenario"), "count"),
        "scenario.build_scenario.us": (per_call("scenario.build_scenario", "self_s", 1e6), "us"),
        "explorer.run_scenario.us": (per_call("explorer.run_scenario", "self_s", 1e6), "us"),
    }
    for box in BOXES:
        result[f"explorer.optimize.evals.{box}"] = (run.box_evals[box], "count")
    result.update({
        "explorer.optimize.feasible_ratio": (
            counts.get("explorer.optimize.feasible", 0) / evals if evals else 0.0, "ratio"),
        "explorer.optimize.self_us_per_eval": (
            outside_model_per("explorer.optimize", "explorer.optimize.evals"), "us"),
        "explorer.sweep.self_us_per_point": (
            outside_model_per("explorer.sweep", "explorer.sweep.points"), "us"),
        "explorer.emit_report.csv.ms": (per_call("explorer.emit_report.csv", "incl_s", 1e3), "ms"),
        "explorer.emit_report.structured-text.ms": (
            per_call("explorer.emit_report.structured-text", "incl_s", 1e3), "ms"),
        "mechanics.composite_section.calls_per_report": (
            tracer.descendants_per_call("explorer.run_scenario", "mechanics.composite_section"),
            "count"),
        "mechanics.lumped_resonator.calls_per_report": (
            tracer.descendants_per_call("explorer.run_scenario", "mechanics.lumped_resonator"),
            "count"),
        "noise.noise_budget.us": (per_call("noise.noise_budget", "self_s", 1e6), "us"),
        "explorer.oracle_check.self_ms": (per_call("explorer.oracle_check", "self_s", 1e3), "ms"),
        "beam_oracle.solve_static.n400.ms": (
            per_call("beam_oracle.solve_static.n400", "incl_s", 1e3), "ms"),
        "beam_oracle.solve_static.calls_per_verify": (
            tracer.descendants_per_call("explorer.oracle_check", "beam_oracle.solve_static"),
            "count"),
        "dynamics.simulate_transient.us_per_step": (
            transient["incl_s"] / steps * 1e6 * factor if steps else 0.0, "us"),
        "cli.import_s": (import_s, "s"),
    })
    for command in CLI_COMMANDS:
        result[f"cli.handler.{command}.ms"] = (handler_ms[command], "ms")
    base, slow = statistics.median(untraced), statistics.median(traced)
    result["trace.overhead_pct"] = ((slow - base) / base * 100.0, "%")
    result["trace.spans_per_round"] = (len(tracer) / len(traced), "count")
    return result


def handler_ms(run) -> dict:
    """cli.main milliseconds per command, in process and untraced, over one session."""
    walls = terminal.Terminal(run).trace_round(0)
    per_command = {}
    for (_, label), seconds in walls.items():
        command = label.rsplit("-", 1)[0] if label.endswith(("-csv", "-st")) else label
        per_command.setdefault(command, []).append(seconds[0])
    return {command: statistics.mean(per_command[command]) * 1e3
            for command in CLI_COMMANDS}
