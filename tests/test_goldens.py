"""Pinned CLI bytes on both packaged defaults.

Each case runs `cli.main` in process on a packaged default config and
compares the bytes it writes (the output file, or stdout for `noise`) with
the file of the same name under tests/goldens/. A change to the model or
to the serializers that moves any digit fails here.

`optimize` is pinned on a 1-parameter box; a change that moves its search
on purpose (a new stopping rule) regenerates those two files. `verify` is
pinned too: its beam solves are exact integer arithmetic and its order fit
uses only `math`, so no LAPACK build moves its digits. `freq-response` is
pinned: its frequency grid is plain Python, so no numpy build moves its
digits. `transient` is left out: its block step products go through
numpy's `matmul`, so its last digits can depend on the BLAS build.

Regenerate every golden file, after a deliberate change, with

    PYTHONPATH=src python tests/test_goldens.py
"""

import contextlib
import io
import tempfile
from importlib import resources
from pathlib import Path

import pytest
import yaml

from memsmag.cli import main

GOLDEN_DIR = Path(__file__).parent / "goldens"

KINDS = ("lorentz", "ferro")

# Per-kind values for the {placeholders} in CASES: the key of the sensor's
# beam and a 1-parameter optimizer box.
KIND_ARGS = {
    "lorentz": {"beam": "support_beam", "param": "drive.amplitude:0.001:0.012"},
    "ferro": {"beam": "suspension", "param": "sensor.plate_length:5e-05:0.0002"},
}

# Golden file name -> (argv after --config, whether the bytes go to stdout).
CASES = {
    "simulate.csv": (["simulate", "--format", "csv"], False),
    "simulate.yaml": (["simulate", "--format", "structured-text"], False),
    "noise.txt": (["noise"], True),
    "sweep_quality_factor.csv": (
        ["sweep", "--path", "quality_factor", "--start", "0", "--stop", "5", "--steps", "6"],
        False,
    ),
    "sweep_quality_factor.yaml": (
        [
            "sweep", "--path", "quality_factor", "--start", "0", "--stop", "5", "--steps", "6",
            "--format", "structured-text",
        ],
        False,
    ),
    "sweep_field_magnitude.csv": (
        ["sweep", "--path", "environment.field_magnitude", "--start", "0", "--stop", "1",
         "--steps", "5"],
        False,
    ),
    # The width 0 point fails; the others share every untouched subtree.
    "sweep_beam_width.yaml": (
        ["sweep", "--path", "sensor.{beam}.width", "--start", "0", "--stop", "4e-05",
         "--steps", "5", "--format", "structured-text"],
        False,
    ),
    "optimize.txt": (["optimize", "--param", "{param}"], True),
    "optimize.yaml": (["optimize", "--param", "{param}", "--format", "structured-text"], False),
    "verify.txt": (["verify"], True),
    "freq_response.csv": (["freq-response"], False),
}


def _config(kind: str) -> str:
    return str(resources.files("memsmag").joinpath(f"configs/default_{kind}.yaml"))


def _run(kind: str, name: str, out: Path, capture) -> bytes:
    """Bytes the CLI gives for one golden case; `capture()` reads stdout."""
    argv, to_stdout = CASES[name]
    argv = [arg.format(**KIND_ARGS[kind]) for arg in argv]
    argv = argv[:1] + ["--config", _config(kind)] + argv[1:]
    if not to_stdout:
        argv += ["--out", str(out)]
    code = main(argv)
    stdout, stderr = capture()
    assert (code, stderr) == (0, "")
    return stdout.encode() if to_stdout else out.read_bytes()


def _refuse(*args, **kwargs):
    raise AssertionError("structured text went through yaml.dump")


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("kind", KINDS)
def test_cli_bytes_match_golden(kind, name, tmp_path, capsys, monkeypatch):
    # Every case is written by memsmag's own structured-text writer.
    monkeypatch.setattr(yaml, "dump", _refuse)
    got = _run(kind, name, tmp_path / name, lambda: tuple(capsys.readouterr()))
    assert got == (GOLDEN_DIR / kind / name).read_bytes()


def _regenerate() -> None:
    for kind in KINDS:
        (GOLDEN_DIR / kind).mkdir(parents=True, exist_ok=True)
        for name in sorted(CASES):
            stdout, stderr = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    data = _run(
                        kind,
                        name,
                        Path(tmp) / name,
                        lambda: (stdout.getvalue(), stderr.getvalue()),
                    )
            (GOLDEN_DIR / kind / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / kind / name} ({len(data)} bytes)")


if __name__ == "__main__":
    _regenerate()
