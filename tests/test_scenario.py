import copy
import math
import re

import pytest

from memsmag import (
    FerroDesign,
    LorentzDesign,
    NotFoundError,
    ParseError,
    ValidationError,
    build_scenario,
    builtin_material,
    default_scenario,
    default_tree,
    load_scenario,
    override_material,
    validate_tree,
)
from memsmag.scenario import _packaged_tree, _resolve


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


def test_parse_error_has_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("drive:\n  amplitude: [1, 2\n")
    with pytest.raises(ParseError) as excinfo:
        load_scenario(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert re.search(r":\d+", message.replace(str(path), "", 1))


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


_BEAM_KEY = {"lorentz": "support_beam", "ferro": "suspension"}

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
                "silicon": {"poisson_ratio": 0.5, "sparkle": 1.0}, "kryptonite": {},
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
            "material_overrides.silicon.poisson_ratio: must be in [0, 0.5), got 0.5",
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


@pytest.mark.parametrize("kind", sorted(_BROKEN))
def test_validate_tree_agrees_with_build(kind):
    tree, expected = _BROKEN[kind]
    assert validate_tree(_resolve(_packaged_tree(kind), tree)) == expected


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
    built["sensor"][_BEAM_KEY[kind]]["layers"][0]["thickness"] = -1.0
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
        ("resistivity", -1.0, "must be > 0"),
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
