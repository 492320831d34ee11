import copy
import dataclasses
import functools
import math
import random
import re
from importlib import resources

import pytest
import yaml

from memsmag import (
    FerroDesign,
    LorentzDesign,
    Material,
    NotFoundError,
    ParseError,
    ValidationError,
    build_scenario,
    builtin_material,
    default_scenario,
    default_tree,
    load_scenario,
    override_material,
)
from memsmag import scenario
from memsmag.scenario import SENSOR_KINDS, _load_yaml, _packaged_tree


@pytest.fixture(params=["libyaml", "pyyaml"])
def parser(request, monkeypatch):
    """Runs a test on libyaml's parser, then on PyYAML's own."""
    if request.param == "libyaml":
        if scenario._CLOADER is None:
            pytest.skip("PyYAML was built without libyaml")
    else:
        monkeypatch.setattr(scenario, "_CLOADER", None)
    return request.param


def test_defaults_build_both_kinds():
    lorentz = default_scenario("lorentz")
    assert isinstance(lorentz.sensor, LorentzDesign)
    assert lorentz.drive.waveform == "square"
    assert lorentz.noise_band == (1.0, 10e3)
    ferro = default_scenario("ferro")
    assert isinstance(ferro.sensor, FerroDesign)
    assert ferro.environment.field_magnitude == pytest.approx(0.4)


def test_unknown_kind():
    with pytest.raises(NotFoundError):
        default_tree("hall")
    with pytest.raises(NotFoundError):
        default_scenario("hall")


def test_empty_tree_is_default():
    scenario = build_scenario({})
    assert scenario.tree == default_tree("lorentz")


def test_empty_file_is_default(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    scenario = load_scenario(path)
    assert scenario.tree == default_tree("lorentz")


def test_partial_merge_keeps_defaults():
    scenario = build_scenario({"drive": {"amplitude": 0.02}})
    assert scenario.drive.amplitude == 0.02
    assert scenario.drive.waveform == "square"
    assert scenario.drive.frequency == 4000.0
    assert scenario.sensor.support_beam.length == default_scenario(
        "lorentz"
    ).sensor.support_beam.length
    assert scenario.tree["drive"]["amplitude"] == 0.02


def test_ferro_merge():
    scenario = build_scenario({"sensor": {"kind": "ferro", "plate_length": 120e-6}})
    assert isinstance(scenario.sensor, FerroDesign)
    assert scenario.sensor.plate_length == 120e-6
    assert scenario.sensor.plate_width == default_scenario("ferro").sensor.plate_width


def test_negative_amplitude_named():
    with pytest.raises(ValidationError) as excinfo:
        build_scenario({"drive": {"amplitude": -0.01}})
    assert any("drive.amplitude" in v for v in excinfo.value.violations)


def test_all_violations_collected():
    bad = {
        "drive": {"amplitude": -1.0},
        "quality_factor": 0.5,
        "environment": {"temperature": 0.0},
    }
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(bad)
    joined = "\n".join(excinfo.value.violations)
    assert "drive.amplitude" in joined
    assert "quality_factor" in joined
    assert "environment.temperature" in joined
    assert len(excinfo.value.violations) == 3


def test_unknown_keys_rejected():
    with pytest.raises(ValidationError, match="sparkles: unknown field"):
        build_scenario({"sparkles": 1.0})
    with pytest.raises(ValidationError, match="sensor.etch_holes"):
        build_scenario({"sensor": {"etch_holes": 4.0}})


def test_numeric_strings_coerced():
    scenario = build_scenario({"quality_factor": "45"})
    assert scenario.quality_factor == 45.0
    ferro = build_scenario(
        {"sensor": {"kind": "ferro", "magnetization": "4.8e5"}}
    )
    assert ferro.sensor.magnetization == 4.8e5


@pytest.mark.parametrize("field, text", [
    ("drive.amplitude", "1_000"),
    ("quality_factor", " 30 "),
    ("quality_factor", "nan"),
    ("environment.temperature", "inf"),
    ("quality_factor", "3e1_0"),
    ("quality_factor", "\u0663\u0660"),
])
def test_only_number_shaped_strings_coerced(field, text):
    # float() accepts all of these; a scenario takes none of them.
    section, _, key = field.rpartition(".")
    tree = {section: {key: text}} if section else {key: text}
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [f"{field}: expected a number, got {text!r}"]


def test_signed_and_bare_point_strings_coerced():
    scenario = build_scenario(
        {"quality_factor": "+.45e2", "environment": {"field_angle": "-1."}}
    )
    assert scenario.quality_factor == 45.0
    assert scenario.environment.field_angle == -1.0


def test_material_override_applies():
    tree = {
        "sensor": {"kind": "ferro"},
        "material_overrides": {"polysilicon": {"pi_longitudinal": 1.0e-10}},
    }
    scenario = build_scenario(tree)
    assert scenario.sensor.gauge.material.pi_longitudinal == 1.0e-10
    assert scenario.tree["material_overrides"]["polysilicon"]["pi_longitudinal"] == 1.0e-10


def test_override_violations():
    with pytest.raises(ValidationError, match="material_overrides.unobtanium"):
        build_scenario({"material_overrides": {"unobtanium": {"youngs_modulus": 1.0}}})
    with pytest.raises(ValidationError, match="unknown material field"):
        build_scenario({"material_overrides": {"silicon": {"sparkle": 1.0}}})


@pytest.mark.parametrize(
    "tree, violation",
    [
        ({"sensor": 5}, "sensor: expected a mapping"),
        ({"sensor": {"kind": "bogus"}},
         "sensor.kind: must be one of ('lorentz', 'ferro'), got 'bogus'"),
        ({"material_overrides": 5}, "material_overrides: expected a mapping"),
        ({"material_overrides": {"silicon": 5}},
         "material_overrides.silicon: expected a mapping of material fields"),
        ({"sensor": {"support_beam": {"layers": [{"material": "silicon"}]}}},
         "sensor.support_beam.layers[0].thickness: missing"),
        (5, "top level: expected a mapping"),
    ],
)
def test_malformed_sections_name_one_violation(tree, violation):
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [violation]


def test_null_tree_and_null_overrides_build_the_default():
    default = default_scenario("lorentz").sensor
    assert build_scenario(None).sensor == default
    assert build_scenario({"material_overrides": None}).sensor == default


@pytest.mark.parametrize("tree", [[], 0, "", False])
def test_falsy_top_level_is_not_an_empty_tree(tree):
    # Only None stands for the empty tree, as an empty file does in load_scenario.
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == ["top level: expected a mapping"]


def test_share_count_validation():
    with pytest.raises(ValidationError, match="expected an integer"):
        build_scenario({"sensor": {"load_share_count": 2.5}})
    with pytest.raises(ValidationError, match="load_share_count"):
        build_scenario({"sensor": {"load_share_count": 0}})


def test_scalar_validations():
    with pytest.raises(ValidationError, match="quality_factor"):
        build_scenario({"quality_factor": 0.5})
    with pytest.raises(ValidationError, match="noise_band"):
        build_scenario({"noise_band": [0.0, 100.0]})
    with pytest.raises(ValidationError, match="noise_band"):
        build_scenario({"noise_band": [100.0]})
    # A bool is not a frequency, as it is not a number for _num.
    with pytest.raises(ValidationError) as excinfo:
        build_scenario({"noise_band": [True, 100.0]})
    assert excinfo.value.violations == [
        "noise_band: expected two finite frequencies, got [True, 100.0]"
    ]
    with pytest.raises(ValidationError, match="drive.waveform"):
        build_scenario({"drive": {"waveform": "triangle"}})
    with pytest.raises(ValidationError, match="beam.layers\\[0\\].thickness"):
        build_scenario(
            {"sensor": {"support_beam": {"layers": [{"material": "silicon",
                                                     "thickness": -1e-6}]}}}
        )


def test_parse_error_has_location(tmp_path, parser):
    path = tmp_path / "broken.yaml"
    path.write_text("drive:\n  amplitude: [1, 2\n")
    with pytest.raises(ParseError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert re.search(r":\d+", message.replace(str(path), "", 1))
    # PyYAML's own text, snippet included, whichever parser read the file.
    with pytest.raises(yaml.YAMLError) as reference:
        yaml.safe_load(path.read_text())
    assert message == f"{path}:{reference.value.problem_mark.line + 1}: {reference.value}"


# Characters the mutations draw from: YAML's indicators, a tab, a carriage
# return, an escape, a non-ASCII letter, a byte-order mark and the digits.
_MUTATION_CHARS = " \t\n\r:-[]{},#'\"!&*|>%@?.eE+\\\u00b5\ufeff0123456789"


@functools.lru_cache(maxsize=None)
def _mutated_configs(count=1000, seed=20081):
    """`count` copies of the packaged defaults and of their dumped trees,
    each with 1 to 3 characters inserted, deleted or replaced, paired with
    what yaml.safe_load makes of each."""
    bases = [
        resources.files("memsmag").joinpath(f"configs/default_{kind}.yaml").read_text()
        for kind in SENSOR_KINDS
    ] + [yaml.safe_dump(default_scenario(kind).tree) for kind in SENSOR_KINDS]
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text))
            edit = rng.choice(("insert", "delete", "replace"))
            char = "" if edit == "delete" else rng.choice(_MUTATION_CHARS)
            text = text[:i] + char + text[i + (edit != "insert"):]
        corpus.append((text, _outcome(yaml.safe_load, text)))
    return corpus


def _outcome(load, text):
    """The repr of the tree `load` reads from `text`, or its error's type and text."""
    try:
        return repr(load(text))
    except Exception as exc:
        return type(exc), str(exc)


def test_load_yaml_reads_mutations_as_safe_load_does(parser):
    corpus = _mutated_configs()
    # Most documents pass the screen, so libyaml's reading is what is compared.
    screened = sum(not scenario._PURE_ONLY_RE.search(text) for text, _ in corpus)
    assert screened > len(corpus) // 2
    if parser == "pyyaml":
        corpus = corpus[::4]  # each call is yaml.safe_load's; a quarter shows it
    for text, expected in corpus:
        assert _outcome(_load_yaml, text) == expected, text


# 900 levels pass the screen, so libyaml reads them and _resolve overflows
# Python's stack; 3000 go to PyYAML's parser, which overflows it first.
@pytest.mark.parametrize("depth", [900, 3000])
def test_deep_nesting_is_a_parse_error(tmp_path, parser, depth):
    path = tmp_path / "deep.yaml"
    path.write_text("noise_band:\n" + "- " * depth + "1.0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: the key tree nests too deeply")):
        load_scenario(path)


def _nested_aliases(levels):
    # Each level lists ten aliases of the one below, so the resolved tree
    # would hold 10^levels leaves, from about 57 bytes a level.
    lines = ["l0: &l0 [" + ", ".join(["0"] * 10) + "]"]
    for i in range(1, levels):
        lines.append(f"l{i}: &l{i} [" + ", ".join([f"*l{i - 1}"] * 10) + "]")
    return "\n".join(lines) + "\n"


def test_nested_aliases_fail_fast(tmp_path, parser):
    # Six levels first: were the cap gone, that would fail here on about a
    # million leaves, before nine levels asked for 10^9.
    path = tmp_path / "aliases.yaml"
    for levels in (6, 9):
        path.write_text(_nested_aliases(levels))
        expected = f"{path}: the key tree holds more than {scenario.MAX_TREE_NODES} nodes"
        with pytest.raises(ParseError, match=re.escape(expected)) as info:
            load_scenario(path)
        assert "\n" not in str(info.value)
        with pytest.raises(ValidationError, match="top level: the key tree holds more than"):
            build_scenario(yaml.safe_load(_nested_aliases(levels)))


def test_tree_node_cap_counts_every_node(monkeypatch):
    # The packaged lorentz tree merged over itself is 42 nodes.
    tree = _packaged_tree("lorentz")
    monkeypatch.setattr(scenario, "MAX_TREE_NODES", 42)
    assert build_scenario(tree).tree == tree
    monkeypatch.setattr(scenario, "MAX_TREE_NODES", 41)
    with pytest.raises(ValidationError, match="more than 41 nodes"):
        build_scenario(tree)


def test_libyaml_never_reads_a_document_that_could_overflow_its_stack(monkeypatch):
    # libyaml's parser recurses in C and would crash the process, not raise.
    def refuse(text):
        raise AssertionError("libyaml was handed a document nested 100,000 deep")

    monkeypatch.setattr(scenario, "_CLOADER", refuse)
    monkeypatch.setattr(yaml, "safe_load", lambda text: "read by PyYAML")
    for opener in "[{-:":
        assert _load_yaml(opener * 100_000) == "read by PyYAML"


def test_parse_error_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ParseError, match="key tree"):
        load_scenario(path)


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_scenario("/nonexistent/scenario.yaml")


@pytest.mark.parametrize(
    "tree, path",
    [
        ({"environment": {"field_angle": math.nan}}, "environment.field_angle"),
        (
            {"material_overrides": {"silicon": {"pi_longitudinal": math.nan}}},
            "material_overrides.silicon.pi_longitudinal",
        ),
        ({"drive": {"amplitude": math.inf}}, "drive.amplitude"),
        (
            {"sensor": {"kind": "lorentz", "support_beam": {"layers": [
                {"material": "silicon", "thickness": 1.0e-6,
                 "residual_stress": math.inf}]}}},
            "sensor.support_beam.layers[0].residual_stress",
        ),
        (
            {"material_overrides": {"silicon": {"youngs_modulus": -1}}},
            "material_overrides.silicon.youngs_modulus",
        ),
        ({"quality_factor": 10**400}, "quality_factor"),
        (
            {"material_overrides": {"silicon": {"carrier_density": "many"}}},
            "material_overrides.silicon.carrier_density",
        ),
    ],
)
def test_non_finite_and_out_of_range_named(tree, path):
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert any(v.startswith(f"{path}:") for v in excinfo.value.violations)


# One tree per kind that breaks a field in every section: top level,
# sensor, gauge, beam, layers, drive, environment, noise band, overrides.
_BROKEN = {
    "lorentz": (
        {
            "sensor": {
                "kind": "lorentz", "etch_holes": 1, "top_beam_length": 0.0,
                "loop_resistance": "high", "load_share_count": 1.5, "bridge_bias": -2.0,
                "support_beam": {"width": 0.0, "span": 1.0, "layers": [
                    {"material": "unobtanium", "thickness": -1e-6, "strain": 0.0},
                    "oxide",
                ]},
                "gauge": {"resistance": 0.0, "material": 7, "doping": 1.0},
            },
            "drive": {"waveform": "sine", "amplitude": -1.0, "phase": 0.0},
            "environment": {"temperature": 0.0, "field_angle": math.nan, "humidity": 0.5},
            "noise_band": [10.0, 1.0],
            "quality_factor": 0.5,
            "offset_coefficient": -1.0,
            "thermal_resistance": True,
            "material_overrides": {
                "silicon": {"density": 0, "sparkle": 1.0}, "kryptonite": {},
            },
            "sparkles": 1.0,
        },
        [
            "sparkles: unknown field",
            "sensor.etch_holes: unknown field",
            "sensor.bridge_bias: must be > 0, got -2.0",
            "sensor.gauge.doping: unknown field",
            "sensor.gauge.resistance: must be > 0, got 0.0",
            "sensor.gauge.material: expected a material name, got 7",
            "sensor.top_beam_length: must be > 0, got 0.0",
            "sensor.loop_resistance: expected a number, got 'high'",
            "sensor.load_share_count: expected an integer, got 1.5",
            "sensor.support_beam.span: unknown field",
            "sensor.support_beam.width: must be > 0, got 0.0",
            "sensor.support_beam.layers[0].strain: unknown field",
            "sensor.support_beam.layers[0].material: unknown material 'unobtanium'; "
            "valid names: aluminum, nickel, polysilicon, silicon, silicon_nitride",
            "sensor.support_beam.layers[0].thickness: must be > 0, got -1e-06",
            "sensor.support_beam.layers[1]: expected a mapping",
            "drive.phase: unknown field",
            "drive.waveform: must be 'dc' or 'square', got 'sine'",
            "drive.amplitude: must be > 0, got -1.0",
            "environment.humidity: unknown field",
            "environment.field_angle: must be a finite number, got nan",
            "environment.temperature: must be > 0, got 0.0",
            "noise_band: must satisfy 0 < f1 < f2, got [10.0, 1.0]",
            "quality_factor: must be > 0.5, got 0.5",
            "offset_coefficient: must be >= 0, got -1.0",
            "thermal_resistance: expected a number, got True",
            "material_overrides.silicon.sparkle: unknown material field",
            "material_overrides.silicon.density: must be > 0, got 0",
            "material_overrides.kryptonite: unknown material 'kryptonite'; "
            "valid names: aluminum, nickel, polysilicon, silicon, silicon_nitride",
        ],
    ),
    "ferro": (
        {
            "sensor": {
                "kind": "ferro", "top_beam_length": 1.0, "plate_length": 0.0,
                "plate_width": -1.0, "plate_thickness": "thin", "plate_density": 0,
                "magnetization": -1.0, "suspension_count": 0, "misalignment": math.inf,
                "bridge_bias": 0.0,
                "suspension": {"length": -1.0, "layers": []},
                "gauge": {"length": 0.0, "material": "mithril"},
            },
            "drive": {"waveform": "square", "frequency": 0.0, "amplitude": math.inf},
            "environment": {"field_magnitude": -0.1, "snr_target": 0.0, "field_strength": 1.0},
            "noise_band": [1.0],
            "quality_factor": "low",
            "offset_coefficient": math.nan,
            "thermal_resistance": -5.0,
            "material_overrides": {"nickel": {"density": 0.0, "youngs_modulus": math.nan}},
            "extra": {},
        },
        [
            "extra: unknown field",
            "sensor.top_beam_length: unknown field",
            "sensor.bridge_bias: must be > 0, got 0.0",
            "sensor.gauge.length: must be > 0, got 0.0",
            "sensor.gauge.material: unknown material 'mithril'; "
            "valid names: aluminum, nickel, polysilicon, silicon, silicon_nitride",
            "sensor.plate_length: must be > 0, got 0.0",
            "sensor.plate_width: must be > 0, got -1.0",
            "sensor.plate_thickness: expected a number, got 'thin'",
            "sensor.plate_density: must be > 0, got 0",
            "sensor.magnetization: must be > 0, got -1.0",
            "sensor.suspension_count: must be >= 1, got 0",
            "sensor.misalignment: must be a finite number, got inf",
            "sensor.suspension.length: must be > 0, got -1.0",
            "sensor.suspension.layers: need at least one layer",
            "drive.amplitude: must be a finite number, got inf",
            "drive.frequency: must be > 0, got 0.0",
            "environment.field_strength: unknown field",
            "environment.field_magnitude: must be >= 0, got -0.1",
            "environment.snr_target: must be > 0, got 0.0",
            "noise_band: expected two finite frequencies, got [1.0]",
            "quality_factor: expected a number, got 'low'",
            "offset_coefficient: must be a finite number, got nan",
            "thermal_resistance: must be >= 0, got -5.0",
            "material_overrides.nickel.youngs_modulus: must be a finite number, got nan",
            "material_overrides.nickel.density: must be > 0, got 0.0",
        ],
    ),
}


@pytest.mark.parametrize("kind", sorted(_BROKEN))
def test_every_section_violation_in_order(kind):
    tree, expected = _BROKEN[kind]
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == expected


def test_partial_tree_keeps_merge_order():
    # Default keys keep their places and new keys follow in the order given,
    # so unknown fields are reported section by section in that order.
    tree = {"zz": 1.0, "environment": {"humidity": 0.5}, "aa": 2.0,
            "drive": {"phase": 0.0, "amplitude": 0.02, "bias": 1.0}}
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [
        "zz: unknown field",
        "aa: unknown field",
        "drive.phase: unknown field",
        "drive.bias: unknown field",
        "environment.humidity: unknown field",
    ]
    built = build_scenario({"noise_band": [2.0, 50.0], "drive": {"amplitude": 0.02}})
    assert list(built.tree) == list(default_tree("lorentz"))
    assert list(built.tree["drive"]) == list(default_tree("lorentz")["drive"])


def test_null_override_unsets_the_gauge_film_property():
    # The film check applies the unset value; the override itself is not a number.
    with pytest.raises(ValidationError) as excinfo:
        build_scenario({"material_overrides": {"silicon": {"pi_longitudinal": None}}})
    assert excinfo.value.violations == [
        "sensor.gauge.material: material 'silicon' is missing required properties: "
        "pi_longitudinal",
        "material_overrides.silicon.pi_longitudinal: expected a number, got None",
    ]


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_built_tree_is_a_private_copy(kind):
    tree = {"sensor": {"kind": kind, "gauge": {"resistance": 1200.0}}, "noise_band": [2.0, 50.0]}
    before = copy.deepcopy(tree)
    packaged = default_tree(kind)
    built = build_scenario(tree).tree
    built["sensor"]["gauge"]["resistance"] = -1.0
    built["sensor"][scenario._SENSORS[kind].beam_field]["layers"][0]["thickness"] = -1.0
    built["noise_band"].append(99.0)
    built["drive"]["amplitude"] = -1.0
    built["material_overrides"]["silicon"] = {}
    assert tree == before
    assert default_tree(kind) == packaged
    assert build_scenario(tree).tree["drive"] == packaged["drive"]


_PIEZO = ("pi_longitudinal", "hooge_alpha", "carrier_density")


@pytest.mark.parametrize("film", ["aluminum", "silicon_nitride", "nickel"])
def test_gauge_film_must_be_piezoresistive(film):
    tree = {"sensor": {"gauge": {"material": film}}}
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [
        f"sensor.gauge.material: material '{film}' is missing required "
        "properties: pi_longitudinal, hooge_alpha, carrier_density"
    ]
    tree["material_overrides"] = {film: {"pi_longitudinal": 1.0e-10}}
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [
        f"sensor.gauge.material: material '{film}' is missing required "
        "properties: hooge_alpha, carrier_density"
    ]
    tree["material_overrides"] = {film: dict(zip(_PIEZO, (1.0e-10, 1.0e-5, 1.0e25)))}
    assert build_scenario(tree).sensor.gauge.material.hooge_alpha == 1.0e-5


@pytest.mark.parametrize(
    "field, value, requirement",
    [
        ("carrier_density", 0.0, "must be > 0"),
        ("carrier_density", -1.0, "must be > 0"),
        ("hooge_alpha", -1.0, "must be >= 0"),
        ("yield_stress", 0.0, "must be > 0"),
        ("yield_stress", -1.0, "must be > 0"),
    ],
)
def test_optional_material_bounds(field, value, requirement):
    # The gauge film check must not build the film from the bad value.
    tree = {"material_overrides": {"silicon": {field: value}}}
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert excinfo.value.violations == [
        f"material_overrides.silicon.{field}: {requirement}, got {value}"
    ]
    with pytest.raises(ValueError, match=field):
        override_material(builtin_material("silicon"), **{field: value})


def _declared_bounds(record, node, path=""):
    """(dotted path, metadata) of each field under `record` that declares a
    bound and that the key tree `node` sets."""
    for f in dataclasses.fields(record):
        child, value = node.get(f.name), getattr(record, f.name)
        if "gt" in f.metadata or "ge" in f.metadata:
            yield f"{path}{f.name}", f.metadata
        elif isinstance(child, dict):
            yield from _declared_bounds(value, child, f"{path}{f.name}.")
        elif isinstance(child, list):
            for i, (item, item_node) in enumerate(zip(value, child)):
                if isinstance(item_node, dict):
                    yield from _declared_bounds(item, item_node, f"{path}{f.name}[{i}].")


def _set_leaf(tree, path, value):
    *parents, leaf = re.findall(r"[^.\[\]]+", path)
    for step in parents:
        tree = tree[int(step)] if step.isdigit() else tree[step]
    tree[leaf] = value


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_each_declared_bound_is_the_one_enforced(kind):
    scenario = default_scenario(kind)
    leaves = list(_declared_bounds(scenario, scenario.tree))
    assert len(leaves) > 15
    for path, metadata in leaves:
        if path == "drive.frequency" and scenario.drive.waveform == "square":
            continue  # a square drive needs a frequency > 0
        if metadata.get("integer"):
            invalid, valid, op, bound = 0, metadata["ge"], ">=", metadata["ge"]
        elif "gt" in metadata:
            bound = metadata["gt"]
            invalid, valid, op = bound, math.nextafter(bound, math.inf), ">"
        else:
            bound = metadata["ge"]
            invalid, valid, op = math.nextafter(bound, -math.inf), bound, ">="
        tree = default_tree(kind)
        _set_leaf(tree, path, invalid)
        with pytest.raises(ValidationError) as excinfo:
            build_scenario(tree)
        assert excinfo.value.violations == [f"{path}: must be {op} {bound}, got {invalid}"]
        _set_leaf(tree, path, valid)
        build_scenario(tree)


# Each bounded Material field and the rule its metadata declares.
_MATERIAL_RULES = {
    "youngs_modulus": "must be > 0",
    "density": "must be > 0",
    "yield_stress": "must be > 0",
    "hooge_alpha": "must be >= 0",
    "carrier_density": "must be > 0",
}
# (first invalid, first valid) value at each end of a rule.
_RULE_EDGES = {
    "must be > 0": [(0.0, 5e-324)],
    "must be >= 0": [(-5e-324, 0.0)],
}


def test_material_bounds_are_declared_on_the_fields():
    declared = {f.name for f in dataclasses.fields(Material) if f.metadata}
    assert declared == set(_MATERIAL_RULES)


@pytest.mark.parametrize("film", ["aluminum", "nickel", "polysilicon", "silicon", "silicon_nitride"])
@pytest.mark.parametrize("field", sorted(_MATERIAL_RULES))
def test_each_material_bound_at_its_edges(film, field):
    rule = _MATERIAL_RULES[field]
    for invalid, valid in _RULE_EDGES[rule]:
        tree = {"material_overrides": {film: {field: invalid}}}
        with pytest.raises(ValidationError) as excinfo:
            build_scenario(tree)
        assert excinfo.value.violations == [
            f"material_overrides.{film}.{field}: {rule}, got {invalid}"
        ]
        with pytest.raises(ValueError, match=f"{film}: {re.escape(f'{field} {rule}')}$"):
            override_material(builtin_material(film), **{field: invalid})
        tree["material_overrides"][film][field] = valid
        build_scenario(tree)
        assert getattr(override_material(builtin_material(film), **{field: valid}), field) == valid


def test_override_violations_come_unknown_keys_first_then_in_field_order():
    given = {
        "yield_stress": 0.0,
        "density": -1.0,
        "name": "silicon",
        "sparkle": 1.0,
        "hooge_alpha": None,
        "youngs_modulus": "stiff",
    }
    with pytest.raises(ValidationError) as excinfo:
        build_scenario({"material_overrides": {"silicon": given}})
    assert excinfo.value.violations == [
        # The unset hooge_alpha applies, so the gauge film check sees it missing.
        "sensor.gauge.material: material 'silicon' is missing required properties: hooge_alpha",
        "material_overrides.silicon.name: unknown material field",
        "material_overrides.silicon.sparkle: unknown material field",
        "material_overrides.silicon.youngs_modulus: expected a number, got 'stiff'",
        "material_overrides.silicon.density: must be > 0, got -1.0",
        "material_overrides.silicon.yield_stress: must be > 0, got 0.0",
        "material_overrides.silicon.hooge_alpha: expected a number, got None",
    ]
    with pytest.raises(ValueError) as excinfo:
        Material(name="junk", youngs_modulus=1e9, density=-1.0, yield_stress=0.0)
    assert str(excinfo.value) == "junk: density must be > 0; yield_stress must be > 0"


def test_with_values_copies_only_the_edited_paths():
    tree = default_scenario("lorentz").tree
    before = copy.deepcopy(tree)
    paths = [["drive", "amplitude"], ["sensor", "support_beam", "length"],
             ["sensor", "support_beam", "width"],
             ["sensor", "support_beam", "layers", 1, "thickness"], ["noise_band", 1]]
    edits = [(steps, 0.25 * i) for i, steps in enumerate(paths)]
    new = scenario._with_values(tree, edits)
    assert tree == before
    expected = copy.deepcopy(tree)
    for steps, value in edits:
        node = expected
        for step in steps[:-1]:
            node = node[step]
        node[steps[-1]] = value
    assert new == expected
    beam, old_beam = new["sensor"]["support_beam"], tree["sensor"]["support_beam"]
    for ours, theirs in [(new, tree), (new["sensor"], tree["sensor"]), (beam, old_beam),
                         (new["drive"], tree["drive"]), (new["noise_band"], tree["noise_band"]),
                         (beam["layers"], old_beam["layers"]),
                         (beam["layers"][1], old_beam["layers"][1])]:
        assert ours is not theirs
    for ours, theirs in [(new["environment"], tree["environment"]),
                         (new["sensor"]["gauge"], tree["sensor"]["gauge"]),
                         (beam["layers"][0], old_beam["layers"][0]),
                         (beam["layers"][2], old_beam["layers"][2])]:
        assert ours is theirs
