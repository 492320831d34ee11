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
    default_scenario,
    default_tree,
    load_scenario,
)


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
    ],
)
def test_non_finite_and_out_of_range_named(tree, path):
    with pytest.raises(ValidationError) as excinfo:
        build_scenario(tree)
    assert any(v.startswith(f"{path}:") for v in excinfo.value.violations)
