"""Scenario configuration: packaged defaults, file loading, validation.

A scenario is a plain key tree (YAML on disk, dicts in memory) in SI base
units with no unit suffixes. The keys of each mapping are the field names
of the record it builds (see _SENSORS for the sensor kinds). User files are
merged over the packaged default for the chosen sensor kind, every
invariant is checked with all violations collected, and the fully resolved
tree rides along in the built Scenario so reports can echo the exact inputs.
"""

import copy
import re
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources

import yaml

from .errors import MissingPropertyError, NotFoundError, ParseError, ValidationError
from .materials import (
    LayerSpec,
    Material,
    bound_violations,
    builtin_material,
    override_material,
    validate_for,
)
from .mechanics import BeamGeometry
from .transduction import (
    Drive,
    Environment,
    FerroDesign,
    GaugeSpec,
    LorentzDesign,
    SensorDesign,
)

# One row per sensor kind: the design record it builds, the key of its
# beam, the bound on its drive amplitude, and the bounds of its own numeric
# fields in the order they are checked. Every other sensor key is shared by
# both kinds. The loop needs current to feel a field; the plate does not.
_SENSORS = {
    "lorentz": (
        LorentzDesign,
        "support_beam",
        {"gt": 0},
        (
            ("top_beam_length", {"gt": 0}),
            ("loop_resistance", {"gt": 0}),
            ("load_share_count", {"ge": 1, "integer": True}),
        ),
    ),
    "ferro": (
        FerroDesign,
        "suspension",
        {"ge": 0},
        (
            ("plate_length", {"gt": 0}),
            ("plate_width", {"gt": 0}),
            ("plate_thickness", {"gt": 0}),
            ("plate_density", {"gt": 0}),
            ("magnetization", {"gt": 0}),
            ("suspension_count", {"ge": 1, "integer": True}),
            ("misalignment", {}),
        ),
    ),
}
SENSOR_KINDS = tuple(_SENSORS)

_MATERIAL_FIELDS = {f.name for f in Material.__dataclass_fields__.values()} - {"name"}


@dataclass
class Scenario:
    """One fully resolved operating point ready to simulate."""

    sensor: SensorDesign
    drive: Drive
    environment: Environment
    noise_band: tuple
    quality_factor: float
    offset_coefficient: float
    thermal_resistance: float  # K/W, loop-to-substrate
    tree: dict  # resolved key tree, echoed into reports


@lru_cache(maxsize=None)
def _packaged_tree(kind: str) -> dict:
    """The packaged default tree, shared: callers must not mutate it."""
    if kind not in SENSOR_KINDS:
        raise NotFoundError(f"unknown sensor kind {kind!r}; choose from {SENSOR_KINDS}")
    text = resources.files("memsmag").joinpath(f"configs/default_{kind}.yaml").read_text()
    return yaml.safe_load(text)


def default_tree(kind: str = "lorentz") -> dict:
    """Deep copy of the packaged default key tree for one sensor kind."""
    return copy.deepcopy(_packaged_tree(kind))


# A signed ASCII decimal number with an optional exponent: 45, -0.5, 4.8e5.
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def _resolve(base, node):
    """`node` merged over `base` as a new tree, numeric strings as floats.

    Mappings merge key by key (base keys first); anything else in `node`
    wins. Every dict and list is copied, so the result shares nothing
    mutable with either input. YAML leaves exponent forms like 4.8e5 as
    strings unless they carry a decimal point and a signed exponent, so a
    string that is wholly a decimal number, exponent optional, becomes a
    float; any other string (" 30 ", "1_000", "nan") stays a string.
    """
    if isinstance(node, dict):
        base = base if isinstance(base, dict) else {}
        merged = {
            key: _resolve(value, node[key] if key in node else value)
            for key, value in base.items()
        }
        for key, value in node.items():
            if key not in base:
                merged[key] = _resolve(value, value)
        return merged
    if isinstance(node, list):
        return [_resolve(value, value) for value in node]
    if isinstance(node, str) and _DECIMAL_RE.fullmatch(node):
        return float(node)
    return node


@lru_cache(maxsize=None)
def _field_names(record) -> frozenset:
    # Scenario.tree echoes the key tree; it is not a key of it.
    return frozenset(f.name for f in fields(record)) - {"tree"}


def _check_keys(node, record, path: str, violations: list, extra=()) -> bool:
    """Flag each key that is neither a field of `record` nor in `extra`.

    False, after a violation, when `node` is not a mapping at all.
    """
    if not isinstance(node, dict):
        violations.append(f"{path[:-1]}: expected a mapping")
        return False
    allowed = _field_names(record)
    for key in node:
        if key not in allowed and key not in extra:
            violations.append(f"{path}{key}: unknown field")
    return True


def _finite(value) -> bool:
    # False for NaN, +-inf and integers too large to become a float.
    return abs(value) <= sys.float_info.max


def _is_number(value) -> bool:
    # A bool is an int to Python but not a number in a scenario.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(node, key, path, violations, *, ge=None, gt=None, integer=False):
    """Fetch a numeric field, recording a violation instead of raising.

    An integer field comes back as an int.
    """
    if key not in node:
        violations.append(f"{path}{key}: missing")
        return None
    value = node[key]
    if not _is_number(value):
        violations.append(f"{path}{key}: expected a number, got {value!r}")
        return None
    if not _finite(value):
        violations.append(f"{path}{key}: must be a finite number, got {value}")
        return None
    if integer and int(value) != value:
        violations.append(f"{path}{key}: expected an integer, got {value!r}")
        return None
    if gt is not None and not value > gt:
        violations.append(f"{path}{key}: must be > {gt}, got {value}")
        return None
    if ge is not None and not value >= ge:
        violations.append(f"{path}{key}: must be >= {ge}, got {value}")
        return None
    return int(value) if integer else value


def _materials(node, violations) -> dict:
    """Each built-in material named in `node`, by name, its overrides applied.

    Every override is checked. One that is unset (None) or numeric and in
    bound applies even when it breaks another rule, so the gauge film check
    sees the film the overrides describe; the material is used to build
    records only when every override is valid.
    """
    materials = {}
    if node is None:
        return materials
    if not isinstance(node, dict):
        violations.append("material_overrides: expected a mapping")
        return materials
    for name, given in node.items():
        path = f"material_overrides.{name}."
        try:
            material = builtin_material(name)
        except NotFoundError as exc:
            violations.append(f"{path[:-1]}: {exc}")
            continue
        if not isinstance(given, dict):
            violations.append(f"{path[:-1]}: expected a mapping of material fields")
            continue
        applied, rejected = {}, set()
        for fname, value in given.items():
            if fname not in _MATERIAL_FIELDS:
                violations.append(f"{path}{fname}: unknown material field")
                continue
            if _num(given, fname, path, violations) is None:
                rejected.add(fname)
            if value is None or isinstance(value, (int, float)):
                applied[fname] = value
        for fname, requirement in bound_violations(applied):
            if fname not in rejected:
                violations.append(f"{path}{fname}: {requirement}, got {applied[fname]}")
            del applied[fname]
        materials[name] = override_material(material, **applied)
    return materials


def _material(node, path, violations, materials):
    """The material named by node["material"], or None after a violation."""
    name = node.get("material")
    if not isinstance(name, str):
        violations.append(f"{path}material: expected a material name, got {name!r}")
        return None
    if name in materials:
        return materials[name]
    try:
        return builtin_material(name)
    except NotFoundError as exc:
        violations.append(f"{path}material: {exc}")
        return None


def _layer(node, path, violations, materials):
    start = len(violations)
    if not _check_keys(node, LayerSpec, path, violations):
        return None
    values = {
        "material": _material(node, path, violations, materials),
        "thickness": _num(node, "thickness", path, violations, gt=0),
    }
    if "residual_stress" in node:
        values["residual_stress"] = _num(node, "residual_stress", path, violations)
    return None if len(violations) > start else LayerSpec(**values)


def _beam(node, path, violations, materials):
    start = len(violations)
    if not _check_keys(node, BeamGeometry, path, violations):
        return None
    length = _num(node, "length", path, violations, gt=0)
    width = _num(node, "width", path, violations, gt=0)
    layers = node.get("layers")
    if not isinstance(layers, list) or not layers:
        violations.append(f"{path}layers: need at least one layer")
        return None
    layers = [
        _layer(layer, f"{path}layers[{i}].", violations, materials)
        for i, layer in enumerate(layers)
    ]
    return None if len(violations) > start else BeamGeometry(length, width, layers)


def _gauge(node, path, violations, materials):
    start = len(violations)
    if not _check_keys(node, GaugeSpec, path, violations):
        return None
    values = {
        key: _num(node, key, path, violations, gt=0)
        for key in ("length", "width", "thickness", "resistance")
    }
    film = _material(node, path, violations, materials)
    if film is not None:
        try:
            validate_for(film, "piezoresistive")
        except MissingPropertyError as exc:
            violations.append(f"{path}material: {exc}")
    return None if len(violations) > start else GaugeSpec(**values, material=film)


def _sensor(node, row, violations, materials):
    if not isinstance(node, dict):
        violations.append("sensor: expected a mapping")
        return None
    if row is None:
        violations.append(f"sensor.kind: must be one of {SENSOR_KINDS}, got {node.get('kind')!r}")
        return None
    design, beam_key, _, numbers = row
    start = len(violations)
    _check_keys(node, design, "sensor.", violations, extra=("kind",))
    values = {
        "bridge_bias": _num(node, "bridge_bias", "sensor.", violations, gt=0),
        "gauge": _gauge(node.get("gauge"), "sensor.gauge.", violations, materials),
    }
    for key, bounds in numbers:
        values[key] = _num(node, key, "sensor.", violations, **bounds)
    values[beam_key] = _beam(node.get(beam_key), f"sensor.{beam_key}.", violations, materials)
    return None if len(violations) > start else design(**values)


def _drive(node, amplitude, violations):
    start = len(violations)
    if not _check_keys(node, Drive, "drive.", violations):
        return None
    waveform = node.get("waveform")
    if waveform not in ("dc", "square"):
        violations.append(f"drive.waveform: must be 'dc' or 'square', got {waveform!r}")
    values = {
        "waveform": waveform,
        "amplitude": _num(node, "amplitude", "drive.", violations, **amplitude),
    }
    if waveform == "square":
        values["frequency"] = _num(node, "frequency", "drive.", violations, gt=0)
    elif "frequency" in node:
        values["frequency"] = _num(node, "frequency", "drive.", violations, ge=0)
    return None if len(violations) > start else Drive(**values)


def _environment(node, violations):
    start = len(violations)
    if not _check_keys(node, Environment, "environment.", violations):
        return None
    values = {
        "field_magnitude": _num(node, "field_magnitude", "environment.", violations, ge=0),
        "field_angle": _num(node, "field_angle", "environment.", violations),
        "temperature": _num(node, "temperature", "environment.", violations, gt=0),
        "snr_target": _num(node, "snr_target", "environment.", violations, gt=0),
    }
    return None if len(violations) > start else Environment(**values)


def _parse(tree: dict, parent: Scenario | None = None):
    """(Scenario, []) for a valid resolved tree, else (None, violations).

    One walk: each section function checks a field where it reads it and
    returns its record, or None after it records violations.

    With a `parent` built from its own tree, a section whose node is the
    very object the parent's tree holds keeps the parent's record, which
    that node built without violations: `environment` always, `sensor`
    when `material_overrides` is the same object too, and `drive` when
    `sensor` is too, since its amplitude bound depends on the kind.
    """
    # Layers and the gauge need the overridden materials, but override
    # violations are reported last.
    late = []
    materials = _materials(tree.get("material_overrides"), late)
    violations = []
    _check_keys(tree, Scenario, "", violations, extra=("material_overrides",))
    sensor = tree.get("sensor")
    kind = sensor.get("kind") if isinstance(sensor, dict) else None
    row = _SENSORS[kind] if kind in SENSOR_KINDS else None

    def same(*keys):
        # A valid parent holds every section, so None (absent) never matches
        # one; absent material_overrides in both trees do match.
        return parent is not None and all(tree.get(k) is parent.tree.get(k) for k in keys)

    values = {
        "sensor": (
            parent.sensor if same("sensor", "material_overrides")
            else _sensor(sensor, row, violations, materials)
        ),
        # A kind that is itself invalid, and so already reported, gets >= 0.
        "drive": (
            parent.drive if same("drive", "sensor")
            else _drive(tree.get("drive"), row[2] if row else {"ge": 0}, violations)
        ),
        "environment": (
            parent.environment if same("environment")
            else _environment(tree.get("environment"), violations)
        ),
    }
    band = tree.get("noise_band")
    if (
        not isinstance(band, (list, tuple))
        or len(band) != 2
        or not all(_is_number(f) and _finite(f) for f in band)
    ):
        violations.append(f"noise_band: expected two finite frequencies, got {band!r}")
    elif not 0 < band[0] < band[1]:
        violations.append(f"noise_band: must satisfy 0 < f1 < f2, got {band!r}")
    values["quality_factor"] = _num(tree, "quality_factor", "", violations, gt=0.5)
    values["offset_coefficient"] = _num(tree, "offset_coefficient", "", violations, ge=0)
    values["thermal_resistance"] = _num(tree, "thermal_resistance", "", violations, ge=0)
    violations += late
    if violations:
        return None, violations
    return Scenario(**values, noise_band=tuple(band), tree=tree), []


def validate_tree(tree: dict) -> list:
    """Every invariant violation in the resolved tree, dotted-path labeled."""
    return _parse(tree)[1]


def build_scenario(tree: dict) -> Scenario:
    """Merge a partial tree over the packaged defaults and build it.

    Raises ValidationError listing every violated invariant, not just the
    first one found.
    """
    tree = tree or {}
    if not isinstance(tree, dict):
        raise ValidationError(["top level: expected a mapping"])
    kind = "lorentz"
    sensor_node = tree.get("sensor", {})
    if isinstance(sensor_node, dict) and sensor_node.get("kind") in SENSOR_KINDS:
        kind = sensor_node["kind"]
    scenario, violations = _parse(_resolve(_packaged_tree(kind), tree))
    if violations:
        raise ValidationError(violations)
    return scenario


def load_scenario(path) -> Scenario:
    """Build the scenario described by a YAML file.

    An empty file yields the fully default design. Parse failures raise
    ParseError with the offending line; invariant violations raise
    ValidationError naming each bad field.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ParseError(f"{where}: {exc}") from exc
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ParseError(f"{path}: expected a key tree at the top level")
    return build_scenario(tree)


def default_scenario(kind: str = "lorentz") -> Scenario:
    """The packaged default operating point for one sensor kind."""
    return build_scenario(_packaged_tree(kind))
