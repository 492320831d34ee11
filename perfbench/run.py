"""memsmag benchmark: one workload, timed, checked and reduced to metrics.

    python3 perfbench/run.py --workload design-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
./src. Rounds of the workload repeat until --seconds have passed (at
least one). With --trace 0 the last stdout line is a JSON object with
the end-to-end metrics; with --trace 1 the rounds alternate untraced and
traced, and it carries the per-layer metrics from the spans instead. The
line before it is the run stamp. Exits 2 without a result when the
checkout holds no memsmag sources.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# BLAS threads for this process and every child. With OpenBLAS's default
# of one thread per core, the first dense solves after other work stall
# for hundreds of milliseconds on a 2-core machine; one thread keeps
# verify_s steady. The run stamp records the setting.
BLAS_THREADS = "1"
SETUP_PROBES = 4  # fresh interpreters timing set-up, besides this one
IMPORT_PROBES = 3
WORKLOADS = ("design-search", "solver-kernels", "terminal")
SETUP_CODE = (
    "import time; t = time.perf_counter(); import memsmag; "
    "memsmag.default_scenario('lorentz'); memsmag.default_scenario('ferro'); "
    "print(time.perf_counter() - t)"
)
IMPORT_CODE = "import time; t = time.perf_counter(); import memsmag; print(time.perf_counter() - t)"


def _probe(code: str, env: dict, count: int, clock) -> list:
    """(seconds, raw seconds) reported by `count` fresh interpreters running `code`."""
    samples = []
    for _ in range(count):
        started = clock.start()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        raw = float(proc.stdout)
        samples.append((raw * clock.factor(started, perf_counter()), raw))
    return samples


def _median_pair(samples) -> tuple:
    return tuple(statistics.median(s[i] for s in samples) for i in (0, 1))


def _stamp(args, rounds: int, factors: list, raw: dict) -> dict:
    import numpy
    import scipy
    import yaml

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "speed_factor": statistics.median(factors),
        "raw_metrics": {name: value for name, (value, _) in raw.items()},
    }


def _repeat(seconds: float, step) -> int:
    """Call step(i) for i = 0, 1, ... until `seconds` have passed; count of calls."""
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < seconds:
        step(rounds)
        rounds += 1
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "memsmag" / "__init__.py").is_file():
        print(f"perfbench: no memsmag sources under {src}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(1, str(src))
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))

    import speed

    clock = speed.Clock()
    started = clock.start()
    import memsmag

    lorentz = memsmag.default_scenario("lorentz")
    ferro = memsmag.default_scenario("ferro")
    setup = _median_pair([clock.stop(started)] + _probe(SETUP_CODE, child_env, SETUP_PROBES, clock))

    import harness
    import layers
    from design_search import DesignSearch
    from solver_kernels import SolverKernels
    from spans import Tracer
    from terminal import Terminal

    workload_class = {"design-search": DesignSearch, "solver-kernels": SolverKernels,
                      "terminal": Terminal}[args.workload]
    out = root / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        def make_run():
            return harness.Run(workdir, args.seed, lorentz, ferro, child_env, clock)

        run = make_run()
        workload = workload_class(run)
        if args.trace == 0:
            rounds = _repeat(args.seconds, workload.round)
            who = resource.RUSAGE_CHILDREN if args.workload == "terminal" else resource.RUSAGE_SELF
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics = run.end_to_end(setup, peak_rss_mb)
            raw_metrics = run.end_to_end(setup, peak_rss_mb, harness.RAW)
        else:
            probe_run = make_run()
            handler_ms = layers.handler_ms(probe_run)
            import_s = _median_pair(_probe(IMPORT_CODE, child_env, IMPORT_PROBES, clock))[0]
            tracer = Tracer()
            untraced, traced = [], []

            def pair(i):
                started = run.clock.start()
                workload.trace_round(2 * i)
                untraced.append(run.clock.stop(started)[0])
                tracer.install()
                try:
                    started = run.clock.start()
                    workload.trace_round(2 * i + 1)
                    traced.append(run.clock.stop(started)[0])
                finally:
                    tracer.uninstall()

            rounds = 2 * _repeat(args.seconds, pair)
            tracer.write(out / f"spans-{args.workload}.csv")
            metrics = layers.metrics(run, tracer, handler_ms, import_s, untraced, traced)
            raw_metrics = {}
            run.chk.failures += probe_run.chk.failures
            if probe_run.failed:
                run.chk.true("cli.handler", False, f"{probe_run.failed} in-process commands failed")
    finally:
        clock.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.chk.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"stamp": _stamp(args, rounds, clock.factors, raw_metrics)}))
    print(json.dumps({
        "correct": not run.chk.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
