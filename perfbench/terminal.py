"""terminal: a designer's session of cold `python -m memsmag` commands.

A round is one session on both shipped default configs, one command at a
time: simulate in csv and in structured-text, noise, freq-response,
transient, verify, a 200-step field sweep in both formats, and a
1-parameter optimize. The same command list
also runs in process through cli.main, which is what the traced run and
the per-command handler timings use.
"""

import yaml

import memsmag as mm

import checks
import reference as ref

KINDS = ("lorentz", "ferro")
SWEEP = ["--path", "environment.field_magnitude", "--start", "1e-4", "--stop", "50e-3",
         "--steps", "200"]
SWEEP_POINTS = 200
# 1-parameter boxes: the current-loop drive (the "amp" box) and the plate length.
OPTIMIZE = {
    "lorentz": ["--param", "drive.amplitude:1e-3:50e-3", "--objective", "sensitivity"],
    "ferro": ["--param", "sensor.plate_length:50e-6:200e-6", "--objective", "sensitivity"],
}


class Terminal:
    def __init__(self, run):
        self.run = run
        self.trees, self.reports, self.emitted = {}, {}, {}
        for kind, scenario in zip(KINDS, (run.lorentz, run.ferro)):
            (run.workdir / f"{kind}.yaml").write_text(yaml.safe_dump(scenario.tree))
            rep = mm.run_scenario(scenario)
            files = []
            for fmt in ("csv", "structured-text"):
                path = run.workdir / f"{kind}.reference.{fmt}"
                mm.emit_report(rep, fmt, path)
                files.append(path.read_bytes())
            self.trees[kind], self.reports[kind], self.emitted[kind] = scenario.tree, rep, files

    def commands(self) -> list:
        """(kind, label, argv) of one session, output paths in the work directory."""
        out = self.run.workdir
        cmds = []
        for kind in KINDS:
            cfg = ["--config", str(out / f"{kind}.yaml")]
            cmds += [
                (kind, "simulate-csv", ["simulate", *cfg, "--out", str(out / f"{kind}.csv")]),
                (kind, "simulate-st", ["simulate", *cfg, "--out", str(out / f"{kind}.st"),
                                       "--format", "structured-text"]),
                (kind, "noise", ["noise", *cfg]),
                (kind, "freq-response", ["freq-response", *cfg, "--out", str(out / f"{kind}.fr.csv")]),
                (kind, "transient", ["transient", *cfg, "--out", str(out / f"{kind}.tr.csv")]),
                (kind, "verify", ["verify", *cfg]),
                (kind, "sweep-csv", ["sweep", *cfg, *SWEEP, "--out", str(out / f"{kind}.sw.csv")]),
                (kind, "sweep-st", ["sweep", *cfg, *SWEEP, "--out", str(out / f"{kind}.sw.st"),
                                    "--format", "structured-text"]),
                (kind, "optimize", ["optimize", *cfg, *OPTIMIZE[kind]]),
            ]
        return cmds

    def round(self, index: int, cold: bool = True) -> dict:
        """One session; returns each command's (seconds, raw seconds) by (kind, label)."""
        run = self.run
        run.new_round()
        walls = {}
        for kind, label, argv in self.commands():
            if cold:
                stdout, seconds = run.cli_cold(argv, run.workdir)
            else:
                stdout, seconds = run.cli_main(argv)
            walls[kind, label] = seconds
            try:
                self._book(kind, label, seconds, stdout)
            except (OSError, KeyError, ValueError) as exc:  # output missing or unreadable
                run.chk.true(f"cli.{label}.output", False, f"{kind}: {exc!r}")
        return walls

    def trace_round(self, index: int) -> dict:
        """Subprocesses cannot be traced from here, so run the session in process."""
        return self.round(index, cold=False)

    def _book(self, kind: str, label: str, seconds: tuple, stdout: str) -> None:
        """Credit the command's work to its metric and check what it wrote."""
        run, chk, out = self.run, self.run.chk, self.run.workdir
        tree = self.trees[kind]
        if label.startswith("simulate"):
            fmt = 0 if label == "simulate-csv" else 1
            path = out / (f"{kind}.csv" if fmt == 0 else f"{kind}.st")
            checks.identical(chk, f"{kind}.{label}", path.read_bytes(), self.emitted[kind][fmt])
            # One design per kind, built, run and emitted in both formats.
            run.book("batch", seconds, fmt)
            if fmt == 1:
                csv_text = (out / f"{kind}.csv").read_text()
                checks.emitted_report(chk, csv_text, path.read_text(), self.reports[kind])
        elif label == "noise":
            checks.noise_text(chk, stdout, tree)
        elif label == "freq-response":
            checks.freq_response_csv(chk, (out / f"{kind}.fr.csv").read_text(), ref.resonator(tree))
        elif label == "transient":
            steps = checks.transient_csv(chk, (out / f"{kind}.tr.csv").read_text())
            run.book("transient", seconds, steps)
        elif label == "verify":
            run.verify_s.append(seconds)
            checks.verify_text(chk, stdout, tree)
        elif label.startswith("sweep"):
            run.book("sweep", seconds, SWEEP_POINTS)
            if label == "sweep-st":
                csv_text = (out / f"{kind}.sw.csv").read_text()
                checks.field_sweep_csv(chk, csv_text)
                st_text = (out / f"{kind}.sw.st").read_text()
                checks.emitted_sweep(chk, csv_text, st_text, SWEEP_POINTS)
        elif label == "optimize":
            evals = checks.optimize_text(chk, stdout, tree)
            run.book("search", seconds, evals)
            if kind == "lorentz":
                run.box_evals["amp"] = evals
