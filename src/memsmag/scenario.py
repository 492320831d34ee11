"""Scenario configuration: packaged defaults, file loading, validation.

A scenario is a plain key tree (YAML on disk, dicts in memory) in SI base
units with no unit suffixes. The keys of each mapping are the field names
of the record it builds (see _SENSORS for the sensor kinds), and a numeric
field's bound is declared in the field's metadata (see _record). User files
are merged over the packaged default for the chosen sensor kind, every
invariant is checked with all violations collected, and the fully resolved
tree rides along in the built Scenario so reports can echo the exact inputs.
One reader, _record, builds every record: those of a fresh scenario and
those of a sweep or search point, which is its parent Scenario plus a few
numeric leaf edits (see _edited). A point reads again only the fields on
the edited paths and keeps the parent's record everywhere else.

Configs parse with libyaml's C parser (`yaml.CSafeLoader`) when PyYAML has
it, and with PyYAML's own parser otherwise. PyYAML's parser also reads any
document holding a character on which the two are known to disagree (a tab,
one of `? ! % | >`, any other control character but a newline, anything
outside ASCII), any document with more than _MAX_OPENERS of the characters
`[ { : -` that can open a nesting level, and any document libyaml refuses.
So the trees and the error text, line and snippet included, are the ones
`yaml.safe_load` gives either way.
"""

import copy
import itertools
import re
import sys
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from importlib import resources

import yaml

from .errors import MissingPropertyError, NotFoundError, ParseError, ValidationError
from .materials import (
    LayerSpec,
    Material,
    builtin_material,
    override_material,
    requirement,
    within,
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

# Each sensor kind's design record, by its kind name.
_SENSORS = {design.kind: design for design in (LorentzDesign, FerroDesign)}
SENSOR_KINDS = tuple(_SENSORS)


@dataclass
class Scenario:
    """One fully resolved operating point ready to simulate."""

    sensor: SensorDesign
    drive: Drive
    environment: Environment
    noise_band: tuple
    quality_factor: float = field(metadata={"gt": 0.5})
    offset_coefficient: float = field(metadata={"ge": 0})  # V/A^2
    thermal_resistance: float = field(metadata={"ge": 0})  # K/W, loop-to-substrate
    tree: dict  # resolved key tree, echoed into reports


# libyaml's parser, or None on a PyYAML built without it.
_CLOADER = getattr(yaml, "CSafeLoader", None)

# A character on which libyaml and PyYAML's parser are known to read a
# document differently: a tab, ? ! % | >, any other control character but a
# newline, or anything outside ASCII. One class, the newline and printable
# ASCII less those five, searches several times faster than an alternation.
_PURE_ONLY_RE = re.compile(r'[^\n "#$&-=@-{}~]')

# libyaml's parser recurses in C once per nesting level and crashes the
# process on a stack overflow (about 24,000 levels on an 8 MB stack), where
# PyYAML's raises RecursionError. A document nests no deeper than its count
# of the characters that can open a level, so it goes to libyaml only when
# that count is small.
_OPENERS = "[{:-"
_MAX_OPENERS = 1000


def _load_yaml(text: str):
    """`yaml.safe_load(text)`, parsed by libyaml where the two agree.

    A document libyaml refuses is parsed again by PyYAML, so its error
    carries PyYAML's message, line and snippet.
    """
    if (
        _CLOADER is not None
        and not _PURE_ONLY_RE.search(text)
        and sum(map(text.count, _OPENERS)) <= _MAX_OPENERS
    ):
        try:
            return yaml.load(text, Loader=_CLOADER)
        except yaml.YAMLError:
            pass
    return yaml.safe_load(text)


@lru_cache(maxsize=None)
def _packaged_tree(kind: str) -> dict:
    """The packaged default tree, shared: callers must not mutate it."""
    if kind not in SENSOR_KINDS:
        raise NotFoundError(f"unknown sensor kind {kind!r}; choose from {SENSOR_KINDS}")
    text = resources.files("memsmag").joinpath(f"configs/default_{kind}.yaml").read_text()
    return _load_yaml(text)


def default_tree(kind: str = "lorentz") -> dict:
    """Deep copy of the packaged default key tree for one sensor kind."""
    return copy.deepcopy(_packaged_tree(kind))


# A signed ASCII decimal number with an optional exponent: 45, -0.5, 4.8e5.
_DECIMAL_RE = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Most nodes (mappings, lists and leaves) a resolved key tree may hold. The
# packaged defaults hold 42 and 43. YAML aliases let a short file repeat one
# subtree many times over, and the resolved tree copies every repeat: nine
# levels of ten aliases each, about 530 bytes, would ask for 10^9 leaves.
MAX_TREE_NODES = 100_000


class _TreeTooLarge(ValidationError):
    """The resolved key tree would hold more than MAX_TREE_NODES nodes."""

    def __init__(self):
        super().__init__(
            [f"top level: the key tree holds more than {MAX_TREE_NODES} nodes once resolved"]
        )


def _resolve(base, node, counter=None):
    """`node` merged over `base` as a new tree, numeric strings as floats.

    Mappings merge key by key (base keys first); anything else in `node`
    wins. Every dict and list is copied, so the result shares nothing
    mutable with either input. A tuple becomes a list and a float subclass
    (numpy's float64) a plain float, so the tree holds only the types a
    YAML file gives. YAML leaves exponent forms like 4.8e5 as strings
    unless they carry a decimal point and a signed exponent, so a string
    that is wholly a decimal number, exponent optional, becomes a float;
    any other string (" 30 ", "1_000", "nan") stays a string. Raises
    _TreeTooLarge once the result passes MAX_TREE_NODES nodes.
    """
    if counter is None:
        counter = itertools.count(1)
    if next(counter) > MAX_TREE_NODES:
        raise _TreeTooLarge()
    if isinstance(node, dict):
        base = base if isinstance(base, dict) else {}
        merged = {
            key: _resolve(value, node[key] if key in node else value, counter)
            for key, value in base.items()
        }
        for key, value in node.items():
            if key not in base:
                merged[key] = _resolve(value, value, counter)
        return merged
    if isinstance(node, (list, tuple)):
        return [_resolve(value, value, counter) for value in node]
    if isinstance(node, str) and _DECIMAL_RE.fullmatch(node):
        return float(node)
    if isinstance(node, float):
        return float(node)
    return node


def _bounds(metadata) -> tuple:
    """(ge, gt, integer, optional) as a numeric field's metadata declares them."""
    get = metadata.get
    return get("ge"), get("gt"), get("integer", False), get("optional", False)


@lru_cache(maxsize=None)
def _schema(record) -> tuple:
    """The keys a `record` mapping may hold, and (name, *bounds) per field."""
    specs = tuple((f.name, *_bounds(f.metadata)) for f in fields(record))
    # Scenario.tree echoes the key tree; it is not a key of it.
    return frozenset(spec[0] for spec in specs) - {"tree"}, specs


def _finite(value) -> bool:
    # False for NaN, +-inf and integers too large to become a float.
    return abs(value) <= sys.float_info.max


def _is_number(value) -> bool:
    # A bool is an int to Python but not a number in a scenario.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _num(node, key, path, violations, ge=None, gt=None, integer=False):
    """Fetch a numeric field, recording a violation instead of raising.

    An integer field comes back as an int.
    """
    value = node.get(key)
    if key not in node:
        problem = "missing"
    elif not _is_number(value):
        problem = f"expected a number, got {value!r}"
    elif not _finite(value):
        problem = f"must be a finite number, got {value}"
    elif integer and int(value) != value:
        problem = f"expected an integer, got {value!r}"
    elif not within(value, ge, gt):
        problem = f"{requirement(ge, gt)}, got {value}"
    else:
        return int(value) if integer else value
    violations.append(f"{path}{key}: {problem}")
    return None


def _record(
    record, sections, node, path, violations, materials, parent=None, edited=None,
    specs=None, extra=(),
):
    """The `record` that mapping `node` at dotted `path` describes, or None
    after violations: the one reader of fresh scenarios and of points.

    Keys must be fields of `record` or in `extra`. Fields are read in
    declaration order, so violations come in that order. A field named in
    `sections` is read by reader(value, path, violations, materials), a
    partial of _record for a nested record. Any other field is a number
    held to the bounds its metadata declares ("gt" or "ge", "integer", and
    "optional" for a key that may be absent), or to `specs` when given.

    A point passes the `parent` record that `node` edits and the tree of
    `edited` steps below it (see _edited): a field off those steps is the
    parent's, one on them is read as above (a reader also gets the field's
    parent and edited steps), and the keys, the parent's, go unchecked.
    """
    if not isinstance(node, dict):
        violations.append(f"{path}: expected a mapping")
        return None
    start = len(violations)
    prefix = f"{path}." if path else ""
    keys, declared = _schema(record)
    if parent is None:
        for key in node:
            if key not in keys and key not in extra:
                violations.append(f"{prefix}{key}: unknown field")
    values = {}
    for name, ge, gt, integer, optional in specs or declared:
        if parent is not None and name not in edited:
            values[name] = getattr(parent, name)
        elif name in sections:
            read = sections[name]
            more = () if parent is None else (getattr(parent, name), edited[name])
            values[name] = read(node.get(name), prefix + name, violations, materials, *more)
        elif not optional or name in node:
            values[name] = _num(node, name, prefix, violations, ge, gt, integer)
    return None if len(violations) > start else record(**values)


def _materials(node, violations) -> dict:
    """Each built-in material named in `node`, by name, its overrides applied.

    Unknown keys (`name` among them) are reported first, then the given
    fields in Material's declaration order, each held to its declared bound.
    An unset (None) override applies though it is reported, as does a bool
    or infinite one that keeps its bound, so the gauge film check sees the
    film the overrides describe.
    """
    materials = {}
    if node is None:
        return materials
    if not isinstance(node, dict):
        violations.append("material_overrides: expected a mapping")
        return materials
    keys, specs = _schema(Material)
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
        for key in given:
            if key == "name" or key not in keys:
                violations.append(f"{path}{key}: unknown material field")
        values = {}
        for key, ge, gt, _, _ in specs:
            if key in given and key != "name":
                _num(given, key, path, violations, ge, gt)
                value = given[key]
                if value is None or isinstance(value, (int, float)) and within(value, ge, gt):
                    values[key] = value
        materials[name] = override_material(material, **values)
    return materials


def _material(name, path, violations, materials):
    """The material `name` names, overrides applied, or None after a violation."""
    if not isinstance(name, str):
        violations.append(f"{path}: expected a material name, got {name!r}")
        return None
    if name in materials:
        return materials[name]
    try:
        return builtin_material(name)
    except NotFoundError as exc:
        violations.append(f"{path}: {exc}")
        return None


def _film(name, path, violations, materials):
    """The gauge film: a material that GaugeSpec.check_film accepts."""
    film = _material(name, path, violations, materials)
    if film is not None:
        try:
            GaugeSpec.check_film(film)
        except MissingPropertyError as exc:
            violations.append(f"{path}: {exc}")
    return film


_layer = partial(_record, LayerSpec, {"material": _material})


def _layers(node, path, violations, materials, parent=None, edited=None):
    """The beam's layers; a point reads only its edited ones again."""
    if not isinstance(node, list) or not node:
        violations.append(f"{path}: need at least one layer")
        return None
    if parent is None:
        return [_layer(node[i], f"{path}[{i}]", violations, materials) for i in range(len(node))]
    layers = list(parent)
    for i in sorted(edited):
        layers[i] = _layer(node[i], f"{path}[{i}]", violations, materials, parent[i], edited[i])
    return layers


_beam = partial(_record, BeamGeometry, {"layers": _layers})
_gauge = partial(_record, GaugeSpec, {"material": _film})


def _sensor(node, path, violations, materials, parent=None, edited=None):
    if not isinstance(node, dict):
        violations.append(f"{path}: expected a mapping")
        return None
    kind = node.get("kind")
    if kind not in SENSOR_KINDS:
        violations.append(f"{path}.kind: must be one of {SENSOR_KINDS}, got {kind!r}")
        return None
    design = _SENSORS[kind]
    sections = {"gauge": _gauge, design.beam_field: _beam}
    return _record(
        design, sections, node, path, violations, materials, parent, edited, extra=("kind",)
    )


def _waveform(waveform, path, violations, materials):
    if waveform not in ("dc", "square"):
        violations.append(f"{path}: must be 'dc' or 'square', got {waveform!r}")
    return waveform


@lru_cache(maxsize=None)
def _drive_bounds(kind, square: bool) -> tuple:
    """Drive's (name, *bounds) specs: the amplitude takes the bound of sensor
    `kind` (>= 0 for an invalid kind, already reported), and a square drive
    needs a frequency > 0. Built once per (kind, square)."""
    bounds = {"amplitude": _SENSORS[kind].amplitude_bound if kind in _SENSORS else {"ge": 0}}
    if square:
        bounds["frequency"] = {"gt": 0}
    return tuple((f.name, *_bounds(bounds.get(f.name, f.metadata))) for f in fields(Drive))


def _drive_specs(tree) -> tuple:
    """The drive specs of resolved `tree`: its sensor kind and waveform set them."""
    sensor, drive = tree.get("sensor"), tree.get("drive")
    kind = sensor.get("kind") if isinstance(sensor, dict) else None
    square = isinstance(drive, dict) and drive.get("waveform") == "square"
    return _drive_bounds(kind if kind in SENSOR_KINDS else None, square)


def _noise_band(band, path, violations, materials, parent=None, edited=None):
    # A band is checked whole, so a point reads all of it again.
    if (
        not isinstance(band, (list, tuple))
        or len(band) != 2
        or not all(_is_number(f) and _finite(f) for f in band)
    ):
        violations.append(f"{path}: expected two finite frequencies, got {band!r}")
    elif not 0 < band[0] < band[1]:
        violations.append(f"{path}: must satisfy 0 < f1 < f2, got {band!r}")
    else:
        return tuple(band)
    return None


_environment = partial(_record, Environment, {})


def _parse(tree: dict, parent=None, edited=None):
    """(Scenario, []) for a valid resolved tree, else (None, violations): a
    fresh build, or a point's from its `parent` and `edited` steps (_edited)."""
    # Layers and the gauge need the overridden materials, but override
    # violations are reported last. A point keeps every record that reads one.
    late = []
    materials = _materials(tree.get("material_overrides"), late) if parent is None else None
    sections = {
        "sensor": _sensor,
        "drive": partial(_record, Drive, {"waveform": _waveform}, specs=_drive_specs(tree)),
        "environment": _environment,
        "noise_band": _noise_band,
        "tree": lambda *_: tree,
    }
    violations = []
    scenario = _record(
        Scenario, sections, tree, "", violations, materials, parent, edited,
        extra=("material_overrides",),
    )
    violations += late
    return (None, violations) if violations else (scenario, [])


def _with_values(tree, edits):
    """A new tree with each (steps, value) edit's field set to its value.

    Only the containers along the edited paths are copied, each once; the
    rest is shared with `tree`, which is left unchanged.
    """
    root = tree.copy()
    copied = {id(root)}
    for steps, value in edits:
        node = root
        for step in steps[:-1]:
            child = node[step]
            if id(child) not in copied:
                child = child.copy()
                node[step] = child
                copied.add(id(child))
            node = child
        node[steps[-1]] = value
    return root


def _edited(parent: Scenario, edits):
    """What _parse gives for `parent`'s tree with each (steps, value) edit
    applied, where each path reaches a numeric field of the parent's records.

    _parse reads the edited tree as for a fresh build, but only the fields on
    the edited paths; every record off them is the parent's own. An edit under
    material_overrides, which every layer and the gauge read, parses the whole
    edited tree instead.
    """
    edits = list(edits)
    tree = _with_values(parent.tree, edits)
    paths = {"tree": {}}  # the edited steps as a tree, each leaf {}; the tree is new
    for steps, _ in edits:
        node = paths
        for step in steps:
            node = node.setdefault(step, {})
    if "material_overrides" in paths:
        return _parse(tree)
    return _parse(tree, parent, paths)


def build_scenario(tree: dict) -> Scenario:
    """Merge a partial tree over the packaged defaults and build it.

    Raises ValidationError listing every violated invariant, not just the
    first one found, or naming the cap when the merged tree would hold
    more than MAX_TREE_NODES nodes. None, like an empty file, means the
    empty tree.
    """
    if tree is None:
        tree = {}
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
    ParseError with the offending line, as does a tree nested too deeply
    to read or one whose aliases expand past MAX_TREE_NODES nodes;
    invariant violations raise ValidationError naming each bad field.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        tree = _load_yaml(text)
        if tree is None:
            tree = {}
        if not isinstance(tree, dict):
            raise ParseError(f"{path}: expected a key tree at the top level")
        return build_scenario(tree)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise ParseError(f"{where}: {exc}") from exc
    except RecursionError:
        # The traceback would run to thousands of frames, one per level.
        raise ParseError(f"{path}: the key tree nests too deeply to read") from None
    except _TreeTooLarge:
        raise ParseError(
            f"{path}: the key tree holds more than {MAX_TREE_NODES} nodes once its"
            " aliases are expanded"
        ) from None


def default_scenario(kind: str = "lorentz") -> Scenario:
    """The packaged default operating point for one sensor kind."""
    return build_scenario(_packaged_tree(kind))
