"""Scenario configuration: packaged defaults, file loading, validation.

A scenario is a plain key tree (YAML on disk, dicts in memory) in SI base
units with no unit suffixes. User files are merged over the packaged
default for the chosen sensor kind, every invariant is checked with all
violations collected, and the fully resolved tree rides along in the built
Scenario so reports can echo the exact inputs.
"""

import copy
import sys
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import yaml

from .errors import NotFoundError, ParseError, ValidationError
from .materials import (
    LayerSpec,
    Material,
    bound_violations,
    builtin_material,
    override_material,
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

SENSOR_KINDS = ("lorentz", "ferro")

_TOP_KEYS = {
    "sensor",
    "drive",
    "environment",
    "noise_band",
    "quality_factor",
    "offset_coefficient",
    "thermal_resistance",
    "material_overrides",
}
_SENSOR_KEYS = {
    "lorentz": {
        "kind",
        "top_beam_length",
        "support_beam",
        "gauge",
        "loop_resistance",
        "bridge_bias",
        "load_share_count",
    },
    "ferro": {
        "kind",
        "plate_length",
        "plate_width",
        "plate_thickness",
        "plate_density",
        "magnetization",
        "suspension",
        "suspension_count",
        "misalignment",
        "gauge",
        "bridge_bias",
    },
}
_BEAM_KEYS = {"length", "width", "layers"}
_LAYER_KEYS = {"material", "thickness", "residual_stress"}
_GAUGE_KEYS = {"length", "width", "thickness", "resistance", "material"}
_DRIVE_KEYS = {"waveform", "amplitude", "frequency"}
_ENV_KEYS = {"field_magnitude", "field_angle", "temperature", "snr_target"}
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
    text = resources.files("memsmag").joinpath(f"configs/default_{kind}.yaml").read_text()
    return yaml.safe_load(text)


def default_tree(kind: str = "lorentz") -> dict:
    """Deep copy of the packaged default key tree for one sensor kind."""
    if kind not in SENSOR_KINDS:
        raise NotFoundError(f"unknown sensor kind {kind!r}; choose from {SENSOR_KINDS}")
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


def _check_keys(node: dict, allowed: set, path: str, violations: list) -> None:
    for key in node:
        if key not in allowed:
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


def _check_material_name(node, key, path, violations) -> None:
    name = node.get(key)
    if not isinstance(name, str):
        violations.append(f"{path}{key}: expected a material name, got {name!r}")
        return
    try:
        builtin_material(name)
    except NotFoundError as exc:
        violations.append(f"{path}{key}: {exc}")


def _validate_beam(node, path, violations) -> None:
    if not isinstance(node, dict):
        violations.append(f"{path[:-1]}: expected a mapping")
        return
    _check_keys(node, _BEAM_KEYS, path, violations)
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
        _check_keys(layer, _LAYER_KEYS, lpath, violations)
        _check_material_name(layer, "material", lpath, violations)
        _num(layer, "thickness", lpath, violations, gt=0)
        if "residual_stress" in layer:
            _num(layer, "residual_stress", lpath, violations)


def _validate_gauge(node, path, violations) -> None:
    if not isinstance(node, dict):
        violations.append(f"{path[:-1]}: expected a mapping")
        return
    _check_keys(node, _GAUGE_KEYS, path, violations)
    for key in ("length", "width", "thickness", "resistance"):
        _num(node, key, path, violations, gt=0)
    _check_material_name(node, "material", path, violations)


def _validate_sensor(node, violations) -> None:
    if not isinstance(node, dict):
        violations.append("sensor: expected a mapping")
        return
    kind = node.get("kind")
    if kind not in SENSOR_KINDS:
        violations.append(f"sensor.kind: must be one of {SENSOR_KINDS}, got {kind!r}")
        return
    _check_keys(node, _SENSOR_KEYS[kind], "sensor.", violations)
    _num(node, "bridge_bias", "sensor.", violations, gt=0)
    _validate_gauge(node.get("gauge"), "sensor.gauge.", violations)
    if kind == "lorentz":
        _num(node, "top_beam_length", "sensor.", violations, gt=0)
        _num(node, "loop_resistance", "sensor.", violations, gt=0)
        _num(node, "load_share_count", "sensor.", violations, ge=1, integer=True)
        _validate_beam(node.get("support_beam"), "sensor.support_beam.", violations)
    else:
        for key in ("plate_length", "plate_width", "plate_thickness", "plate_density"):
            _num(node, key, "sensor.", violations, gt=0)
        _num(node, "magnetization", "sensor.", violations, ge=0)
        _num(node, "suspension_count", "sensor.", violations, ge=1, integer=True)
        _num(node, "misalignment", "sensor.", violations)
        _validate_beam(node.get("suspension"), "sensor.suspension.", violations)


def _validate_drive(node, violations) -> None:
    if not isinstance(node, dict):
        violations.append("drive: expected a mapping")
        return
    _check_keys(node, _DRIVE_KEYS, "drive.", violations)
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
    _check_keys(node, _ENV_KEYS, "environment.", violations)
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
    _check_keys(tree, _TOP_KEYS, "", violations)
    _validate_sensor(tree.get("sensor"), violations)
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
        LayerSpec(
            material=_resolve_material(layer["material"], overrides),
            thickness=layer["thickness"],
            residual_stress=layer.get("residual_stress", 0.0),
        )
        for layer in node["layers"]
    ]
    return BeamGeometry(length=node["length"], width=node["width"], layers=layers)


def _build_gauge(node: dict, overrides: dict) -> GaugeSpec:
    return GaugeSpec(
        length=node["length"],
        width=node["width"],
        thickness=node["thickness"],
        resistance=node["resistance"],
        material=_resolve_material(node["material"], overrides),
    )


def _build_sensor(node: dict, overrides: dict):
    gauge = _build_gauge(node["gauge"], overrides)
    if node["kind"] == "lorentz":
        return LorentzDesign(
            top_beam_length=node["top_beam_length"],
            support_beam=_build_beam(node["support_beam"], overrides),
            gauge=gauge,
            loop_resistance=node["loop_resistance"],
            bridge_bias=node["bridge_bias"],
            load_share_count=int(node["load_share_count"]),
        )
    return FerroDesign(
        plate_length=node["plate_length"],
        plate_width=node["plate_width"],
        plate_thickness=node["plate_thickness"],
        magnetization=node["magnetization"],
        suspension=_build_beam(node["suspension"], overrides),
        gauge=gauge,
        bridge_bias=node["bridge_bias"],
        suspension_count=int(node["suspension_count"]),
        misalignment=node["misalignment"],
        plate_density=node["plate_density"],
    )


def build_scenario(tree: dict) -> Scenario:
    """Merge a partial tree over the packaged defaults and build it.

    Raises ValidationError listing every violated invariant, not just the
    first one found.
    """
    tree = _coerce_numbers(tree or {})
    if not isinstance(tree, dict):
        raise ValidationError(["top level: expected a mapping"])
    kind = "lorentz"
    sensor_node = tree.get("sensor", {})
    if isinstance(sensor_node, dict) and sensor_node.get("kind") in SENSOR_KINDS:
        kind = sensor_node["kind"]
    resolved = _deep_merge(default_tree(kind), tree)

    violations = validate_tree(resolved)
    if violations:
        raise ValidationError(violations)

    overrides = resolved.get("material_overrides") or {}
    drive_node = resolved["drive"]
    env_node = resolved["environment"]
    return Scenario(
        sensor=_build_sensor(resolved["sensor"], overrides),
        drive=Drive(
            waveform=drive_node["waveform"],
            amplitude=drive_node["amplitude"],
            frequency=drive_node.get("frequency", 0.0),
        ),
        environment=Environment(
            field_magnitude=env_node["field_magnitude"],
            field_angle=env_node["field_angle"],
            temperature=env_node["temperature"],
            snr_target=env_node["snr_target"],
        ),
        noise_band=tuple(resolved["noise_band"]),
        quality_factor=resolved["quality_factor"],
        offset_coefficient=resolved["offset_coefficient"],
        thermal_resistance=resolved["thermal_resistance"],
        material_overrides=overrides,
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
    return build_scenario(default_tree(kind))
