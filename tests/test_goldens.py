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

List the figures that the tree's renderings move from the golden files,
one line per figure with its old and new value and relative change,
without writing anything under tests/goldens/, with

    PYTHONPATH=src python tests/test_goldens.py --diff

A figure is a CSV cell (keyed by its row and column), a leaf of a
structured-text tree or of a CSV's commented scenario, or the value of a
`name = value` line.
"""

import argparse
import contextlib
import csv
import io
import math
import tempfile
from importlib import resources
from pathlib import Path

import pytest
import yaml

from memsmag import noise
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


def _render(kind: str, name: str) -> bytes:
    """Bytes the CLI gives for one golden case, its stdout and stderr captured here."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            return _run(
                kind, name, Path(tmp) / name, lambda: (stdout.getvalue(), stderr.getvalue())
            )


def _regenerate() -> None:
    for kind in KINDS:
        (GOLDEN_DIR / kind).mkdir(parents=True, exist_ok=True)
        for name in sorted(CASES):
            data = _render(kind, name)
            (GOLDEN_DIR / kind / name).write_bytes(data)
            print(f"wrote {GOLDEN_DIR / kind / name} ({len(data)} bytes)")


def _number(text: str):
    """`text` as a float where it reads as one, else `text`."""
    try:
        return float(text)
    except ValueError:
        return text


def _leaves(node, path: str):
    """(path, value) of every leaf under a parsed tree, each number a float."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else str(key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _leaves(value, f"{path}[{index}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, float(node)
    else:
        yield path, node


def _figures(name: str, data: bytes) -> dict:
    """Every figure in the bytes of golden case `name`, by path."""
    text = data.decode()
    if name.endswith(".yaml"):
        return dict(_leaves(yaml.safe_load(text), ""))
    lines = text.splitlines()
    if name.endswith(".txt"):
        figures = {}
        for number, line in enumerate(lines):
            key, equals, value = line.partition(" = ")
            items = [_number(item) for item in value.split()]
            if not equals:
                figures[f"line {number}"] = line
            elif len(items) == 1:
                figures[key] = items[0]
            else:
                figures.update((f"{key}[{index}]", item) for index, item in enumerate(items))
        return figures
    comments = 0
    while comments < len(lines) and lines[comments].startswith("#"):
        comments += 1
    scenario = "\n".join(line[2:] for line in lines[:comments])
    figures = dict(_leaves(yaml.safe_load(scenario), "scenario")) if comments else {}
    header, *rows = csv.reader(lines[comments:])
    for number, row in enumerate(rows, 1):
        for column, (title, cell) in enumerate(zip(header, row)):
            key = f"row {number}.{title}"
            # A sweep over a report column names it twice.
            figures[f"{key}#{column}" if key in figures else key] = _number(cell)
    return figures


_ABSENT = "(absent)"


def ledger(cases=None) -> list:
    """(case, path, old, new) for each figure that a rendering of the tree
    moves from its golden file, over `cases`, pairs of kind and golden file
    name (by default every one). A figure on one side only reads _ABSENT on
    the other."""
    moved = []
    for kind, name in cases or [(kind, name) for kind in KINDS for name in sorted(CASES)]:
        old = _figures(name, (GOLDEN_DIR / kind / name).read_bytes())
        new = _figures(name, _render(kind, name))
        for path in {**old, **new}:
            before, after = old.get(path, _ABSENT), new.get(path, _ABSENT)
            if before != after and not (before != before and after != after):  # NaN is NaN
                moved.append((f"{kind}/{name}", path, before, after))
    return moved


def _relative(old, new) -> str:
    if isinstance(old, float) and isinstance(new, float) and old != 0 and math.isfinite(old):
        return f"{(new - old) / abs(old):+.3e}"
    return "n/a"


def test_ledger_of_the_golden_tree_is_empty():
    assert ledger() == []


def test_ledger_names_exactly_the_figures_boltzmanns_constant_moves(monkeypatch):
    monkeypatch.setattr(noise, "BOLTZMANN", 2.0 * noise.BOLTZMANN)
    names = ("simulate.csv", "simulate.yaml", "noise.txt")
    moved = ledger([(kind, name) for kind in KINDS for name in names])
    budget = ["thermal_electrical_psd_V2_per_Hz", "thermal_mechanical_psd_referred_V2_per_Hz",
              "corner_frequency_Hz", "rms_V", "snr", "min_detectable_field_T"]
    columns = ["noise_thermal_electrical_psd_V2_per_Hz", "noise_mechanical_referred_psd_V2_per_Hz",
               "noise_corner_frequency_Hz", "noise_rms_V", "snr", "min_detectable_field_T"]
    expected = []
    for kind in KINDS:
        expected += [(f"{kind}/simulate.csv", f"row 1.{column}") for column in columns]
        paths = ["min_detectable_field_T", "snr", *(f"noise.{name}" for name in budget)]
        expected += [(f"{kind}/simulate.yaml", path) for path in paths]
        expected += [(f"{kind}/noise.txt", name) for name in budget]
    assert sorted((case, path) for case, path, _, _ in moved) == sorted(expected)
    for _, path, old, new in moved:
        if path.endswith((budget[0], budget[1], columns[1])):
            assert _relative(old, new) == "+1.000e+00", (path, old, new)
        elif path.endswith("corner_frequency_Hz"):
            assert _relative(old, new) == "-5.000e-01", (path, old, new)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the golden files.")
    parser.add_argument(
        "--diff",
        action="store_true",
        help="instead, list each figure that moved from the golden files; write nothing",
    )
    if parser.parse_args().diff:
        moved = ledger()
        for case, path, old, new in moved:
            print(f"{case}  {path}  {old!r} -> {new!r}  ({_relative(old, new)})")
        print(f"{len(moved)} figures moved in {len({case for case, *_ in moved})} cases")
    else:
        _regenerate()
