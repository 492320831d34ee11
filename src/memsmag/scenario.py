"""Scenario configuration: packaged defaults, file loading, validation.

A scenario is a plain key tree (YAML on disk, dicts in memory) in SI base
units with no unit suffixes. The keys of each mapping are the field names
of the record it builds (see _SENSORS for the sensor kinds). User files are
merged over the packaged default for the chosen sensor kind, every
invariant is checked with all violations collected, and the fully resolved
tree rides along in the built Scenario so reports can echo the exact inputs.
"""

import copy
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from importlib import resources

import yaml

from .errors import MissingPropertyError, NotFoundError, ParseError, ValidationError
from .materials import (
    CAPABILITY_FIELDS,
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
# beam, and the bounds of its own numeric fields in the order they are
# checked. Every other sensor key is shared by both kinds.
_SENSORS = {
    "lorentz": (
        LorentzDesign,
        "support_beam",
        (
            ("top_beam_length", {"gt": 0}),
            ("loop_resistance", {"gt": 0}),
            ("load_share_count", {"ge": 1, "integer": True}),
        ),
    ),
    "ferro": (
        FerroDesign,
        "suspension",
        (
            ("plate_length", {"gt": 0}),
            ("plate_width", {"gt": 0}),
            ("plate_thickness", {"gt": 0}),
            ("plate_density", {"gt": 0}),
            ("magnetization", {"ge": 0}),
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
    material_overrides: dict
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


def _deep_merge(base, override):
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _deep_merge(base[key], value) if key in base else value
        return merged
    return override


def _coerce_numbers(node):
    """Turn numeric-looking strings into floats, recursively.

    YAML leaves exponent forms like 4.8e5 as strings unless they carry both
    a decimal point and a signed exponent; accept them all as numbers.
    """
    if isinstance(node, dict):
        return {k: _coerce_numbers(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_coerce_numbers(v) for v in node]
    if isinstance(node, str):
        try:
            return float(node)
        except ValueError:
            return node
    return node


@lru_cache(maxsize=None)
def _field_names(record) -> frozenset:
    # Scenario.tree echoes the key tree; it is not a key of it.
    return frozenset(f.name for f in fields(record)) - {"tree"}


def _check_keys(node: dict, record, path: str, violations: list, extra=()) -> None:
    """Flag each key that is neither a field of `record` nor in `extra`."""
    allowed = _field_names(record)
    for key in node:
        if key not in allowed and key not in extra:
            violations.append(f"{path}{key}: unknown field")


def _finite(value) -> bool:
    # False for NaN, +-inf and integers too large to become a float.
    return abs(value) <= sys.float_info.max


def _num(node, key, path, violations, *, ge=None, gt=None, integer=False):
    """Fetch a numeric field, recording a violation instead of raising."""
    if key not in node:
        violations.append(f"{path}{key}: missing")
        return None
    value = node[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
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
    return value


def _check_material_name(node, key, path, violations):
    """The built-in material name at node[key], or None after a violation."""
    name = node.get(key)
    if not isinstance(name, str):
        violations.append(f"{path}{key}: expected a material name, got {name!r}")
        return None
    try:
        builtin_material(name)
    except NotFoundError as exc:
        violations.append(f"{path}{key}: {exc}")
        return None
    return name


def _validate_beam(node, path, violations) -> None:
    if not isinstance(node, dict):
        violations.append(f"{path[:-1]}: expected a mapping")
        return
    _check_keys(node, BeamGeometry, path, violations)
    _num(node, "length", path, violations, gt=0)
    _num(node, "width", path, violations, gt=0)
    layers = node.get("layers")
    if not isinstance(layers, list) or not layers:
        violations.append(f"{path}layers: need at least one layer")
        return
    for i, layer in enumerate(layers):
        lpath = f"{path}layers[{i}]."
        if not isinstance(layer, dict):
            violations.append(f"{lpath[:-1]}: expected a mapping")
            continue
        _check_keys(layer, LayerSpec, lpath, violations)
        _check_material_name(layer, "material", lpath, violations)
        _num(layer, "thickness", lpath, violations, gt=0)
        if "residual_stress" in layer:
            _num(layer, "residual_stress", lpath, violations)


def _validate_gauge(node, overrides, path, violations) -> None:
    if not isinstance(node, dict):
        violations.append(f"{path[:-1]}: expected a mapping")
        return
    _check_keys(node, GaugeSpec, path, violations)
    for key in ("length", "width", "thickness", "resistance"):
        _num(node, key, path, violations, gt=0)
    name = _check_material_name(node, "material", path, violations)
    if name is None:
        return
    # The film must be piezoresistive once its overrides apply. The
    # override values themselves are checked under material_overrides, and
    # the film is built only from unset (None) or in-bound numeric ones.
    film = builtin_material(name)
    own = overrides.get(name) if isinstance(overrides, dict) else None
    if isinstance(own, dict):
        needed = CAPABILITY_FIELDS["piezoresistive"]
        applied = {
            f: v for f, v in own.items()
            if f in needed and (v is None or isinstance(v, (int, float)))
        }
        for fname, _ in bound_violations(applied):
            del applied[fname]
        film = override_material(film, **applied)
    try:
        validate_for(film, "piezoresistive")
    except MissingPropertyError as exc:
        violations.append(f"{path}material: {exc}")


def _validate_sensor(node, overrides, violations) -> None:
    if not isinstance(node, dict):
        violations.append("sensor: expected a mapping")
        return
    kind = node.get("kind")
    if kind not in SENSOR_KINDS:
        violations.append(f"sensor.kind: must be one of {SENSOR_KINDS}, got {kind!r}")
        return
    design, beam_key, numbers = _SENSORS[kind]
    _check_keys(node, design, "sensor.", violations, extra=("kind",))
    _num(node, "bridge_bias", "sensor.", violations, gt=0)
    _validate_gauge(node.get("gauge"), overrides, "sensor.gauge.", violations)
    for key, bounds in numbers:
        _num(node, key, "sensor.", violations, **bounds)
    _validate_beam(node.get(beam_key), f"sensor.{beam_key}.", violations)


def _validate_drive(node, violations) -> None:
    if not isinstance(node, dict):
        violations.append("drive: expected a mapping")
        return
    _check_keys(node, Drive, "drive.", violations)
    waveform = node.get("waveform")
    if waveform not in ("dc", "square"):
        violations.append(f"drive.waveform: must be 'dc' or 'square', got {waveform!r}")
    _num(node, "amplitude", "drive.", violations, ge=0)
    if waveform == "square":
        _num(node, "frequency", "drive.", violations, gt=0)
    elif "frequency" in node:
        _num(node, "frequency", "drive.", violations, ge=0)


def _validate_environment(node, violations) -> None:
    if not isinstance(node, dict):
        violations.append("environment: expected a mapping")
        return
    _check_keys(node, Environment, "environment.", violations)
    _num(node, "field_magnitude", "environment.", violations, ge=0)
    _num(node, "field_angle", "environment.", violations)
    _num(node, "temperature", "environment.", violations, gt=0)
    _num(node, "snr_target", "environment.", violations, gt=0)


def _validate_overrides(node, violations) -> None:
    if node is None:
        return
    if not isinstance(node, dict):
        violations.append("material_overrides: expected a mapping")
        return
    for name, fields in node.items():
        path = f"material_overrides.{name}"
        try:
            builtin_material(name)
        except NotFoundError as exc:
            violations.append(f"{path}: {exc}")
            continue
        if not isinstance(fields, dict):
            violations.append(f"{path}: expected a mapping of material fields")
            continue
        numbers = {}
        for fname in fields:
            if fname not in _MATERIAL_FIELDS:
                violations.append(f"{path}.{fname}: unknown material field")
                continue
            value = _num(fields, fname, f"{path}.", violations)
            if value is not None:
                numbers[fname] = value
        for fname, requirement in bound_violations(numbers):
            violations.append(f"{path}.{fname}: {requirement}, got {numbers[fname]}")


def validate_tree(tree: dict) -> list:
    """Every invariant violation in the resolved tree, dotted-path labeled."""
    violations = []
    _check_keys(tree, Scenario, "", violations)
    _validate_sensor(tree.get("sensor"), tree.get("material_overrides"), violations)
    _validate_drive(tree.get("drive"), violations)
    _validate_environment(tree.get("environment"), violations)

    band = tree.get("noise_band")
    if (
        not isinstance(band, (list, tuple))
        or len(band) != 2
        or not all(isinstance(f, (int, float)) and _finite(f) for f in band)
    ):
        violations.append(f"noise_band: expected two finite frequencies, got {band!r}")
    elif not 0 < band[0] < band[1]:
        violations.append(f"noise_band: must satisfy 0 < f1 < f2, got {band!r}")

    _num(tree, "quality_factor", "", violations, gt=0.5)
    _num(tree, "offset_coefficient", "", violations, ge=0)
    _num(tree, "thermal_resistance", "", violations, ge=0)
    _validate_overrides(tree.get("material_overrides"), violations)
    return violations


def _resolve_material(name: str, overrides: dict) -> Material:
    material = builtin_material(name)
    if name in overrides:
        material = override_material(material, **overrides[name])
    return material


def _build_beam(node: dict, overrides: dict) -> BeamGeometry:
    layers = [
        LayerSpec(**{**layer, "material": _resolve_material(layer["material"], overrides)})
        for layer in node["layers"]
    ]
    return BeamGeometry(**{**node, "layers": layers})


def _build_sensor(node: dict, overrides: dict) -> SensorDesign:
    design, beam_key, numbers = _SENSORS[node["kind"]]
    values = {key: value for key, value in node.items() if key != "kind"}
    for key, bounds in numbers:
        if bounds.get("integer"):
            values[key] = int(values[key])
    gauge = node["gauge"]
    values["gauge"] = GaugeSpec(
        **{**gauge, "material": _resolve_material(gauge["material"], overrides)}
    )
    values[beam_key] = _build_beam(node[beam_key], overrides)
    return design(**values)


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
    # Coercion rebuilds every dict and list: the one copy per build, so the
    # resolved tree shares nothing with the caller's tree or the defaults.
    resolved = _coerce_numbers(_deep_merge(_packaged_tree(kind), tree))

    violations = validate_tree(resolved)
    if violations:
        raise ValidationError(violations)

    overrides = resolved.get("material_overrides") or {}
    return Scenario(
        **{
            **resolved,
            "sensor": _build_sensor(resolved["sensor"], overrides),
            "drive": Drive(**resolved["drive"]),
            "environment": Environment(**resolved["environment"]),
            "noise_band": tuple(resolved["noise_band"]),
            "material_overrides": overrides,
        },
        tree=resolved,
    )


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
