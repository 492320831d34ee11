"""Shared run state: operation accounting, timings and metric reduction.

Every timed operation is booked twice: in reference-speed seconds (see
speed.py), which the metrics report, and in raw wall seconds, which the
run stamp reports alongside for comparison.
"""

import contextlib
import gc
import io
import statistics
import subprocess
import sys
import traceback

import memsmag as mm
from memsmag import cli

import checks

BOXES = ("amp", "lw", "alw", "flw", "fpl")
CLI_COMMANDS = ("simulate", "noise", "freq-response", "transient", "verify", "sweep", "optimize")

# Timed kinds of operation; per round each books [seconds, raw seconds, work units].
OPERATIONS = ("search", "sweep", "batch", "transient", "cli")
SCALED, RAW, UNITS = 0, 1, 2


class Run:
    """One benchmark run: counters, checks and timings across its rounds."""

    def __init__(self, workdir, seed: int, lorentz, ferro, child_env: dict, clock):
        self.workdir = workdir
        self.seed = seed
        self.lorentz = lorentz
        self.ferro = ferro
        self.child_env = child_env
        self.chk = checks.Checker()
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.rounds = []
        self.verify_s = []  # (seconds, raw seconds) per oracle check
        self.cli_s = []  # (seconds, raw seconds) per command
        self.box_evals = {box: 0 for box in BOXES}

    def new_round(self) -> None:
        # Collect the last round's garbage now, so that a full collection
        # does not land in a random operation of this round.
        gc.collect()
        self.rounds.append({kind: [0.0, 0.0, 0] for kind in OPERATIONS})

    def book(self, kind: str, seconds: tuple, units: int) -> None:
        slot = self.rounds[-1][kind]
        slot[SCALED] += seconds[SCALED]
        slot[RAW] += seconds[RAW]
        slot[UNITS] += units

    def attempt(self, fn, *args, **kwargs):
        """Call one operation; returns (result or None on failure, (seconds, raw seconds))."""
        self.attempted += 1
        started = self.clock.start()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            self.failed += 1
            print(f"operation {getattr(fn, '__name__', fn)} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = None
        return result, self.clock.stop(started)

    def timed(self, kind: str, units, fn, *args, **kwargs):
        """attempt() that also books its seconds and work units to this round.

        `units` is a count, or a function of the result giving one.
        """
        result, seconds = self.attempt(fn, *args, **kwargs)
        if result is None:
            units = 0
        elif callable(units):
            units = units(result)
        self.book(kind, seconds, units)
        return result

    def optimize(self, box: str, scenario, params, objective):
        result = self.timed("search", lambda r: len(r.trace), mm.optimize, scenario, params, objective)
        if result is not None:
            self.box_evals[box] = len(result.trace)
        return result

    def oracle_check(self, scenario):
        result, seconds = self.attempt(mm.oracle_check, scenario)
        self.verify_s.append(seconds)
        if result is not None:
            checks.oracle(self.chk, result, scenario.tree)
        return result

    def cli_main(self, argv):
        """memsmag's CLI entry point called in process; returns (stdout, seconds)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, seconds = self.attempt(cli.main, argv)
        self._cli_done(argv, code, seconds)
        return out.getvalue(), seconds

    def cli_cold(self, argv, cwd):
        """One cold `python -m memsmag` run; returns (stdout, seconds)."""
        proc, seconds = self.attempt(
            subprocess.run, [sys.executable, "-m", "memsmag", *argv], cwd=cwd,
            env=self.child_env, capture_output=True, text=True, timeout=120,
        )
        if proc is None:
            return "", seconds
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
        self._cli_done(argv, proc.returncode, seconds)
        return proc.stdout, seconds

    def _cli_done(self, argv, code, seconds) -> None:
        self.cli_s.append(seconds)
        self.book("cli", seconds, 1)
        if code not in (0, None):
            self.failed += 1
            print(f"memsmag {argv[0]} exited {code}", file=sys.stderr)

    def expect_invalid(self, tree: dict, path: str) -> None:
        """An invalid tree must raise ValidationError naming `path`."""
        self.attempted += 1
        try:
            mm.build_scenario(tree)
        except mm.ValidationError as exc:
            if path in str(exc):
                return
            reason = f"ValidationError does not name {path}: {exc}"
        except Exception as exc:  # any other escape is the fault being counted
            reason = f"{type(exc).__name__} instead of ValidationError: {exc}"
        else:
            reason = "accepted"
        self.failed += 1
        print(f"invalid tree at {path}: {reason}", file=sys.stderr)

    def end_to_end(self, setup: tuple, peak_rss_mb: float, which: int = SCALED) -> dict:
        """Each end-to-end metric as (value, unit); `which` picks SCALED or RAW seconds."""
        def per_round(kind, rate):
            values = []
            for r in self.rounds:
                seconds, units = r[kind][which], r[kind][UNITS]
                values.append(units / seconds if rate else seconds)
            return statistics.median(values)

        return {
            "setup_s": (setup[which], "s"),
            "search_s": (per_round("search", False), "s"),
            "evals_per_s": (per_round("search", True), "1/s"),
            "sweep_points_per_s": (per_round("sweep", True), "1/s"),
            "batch_designs_per_s": (per_round("batch", True), "1/s"),
            "verify_s": (statistics.median(s[which] for s in self.verify_s), "s"),
            "transient_steps_per_s": (per_round("transient", True), "1/s"),
            "cli_p50_s": (statistics.median(s[which] for s in self.cli_s), "s"),
            "cli_total_s": (per_round("cli", False), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
