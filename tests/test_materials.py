import dataclasses
import math

import pytest

from memsmag import (
    BUILTIN_NAMES,
    GaugeSpec,
    LayerSpec,
    Material,
    MissingPropertyError,
    NotFoundError,
    builtin_material,
    default_tree,
    override_material,
)


def test_catalog_names():
    assert BUILTIN_NAMES == (
        "aluminum",
        "nickel",
        "polysilicon",
        "silicon",
        "silicon_nitride",
    )


def test_nickel_saturation_magnetization():
    # Ms of the nickel plate lives on the ferro sensor, not on the film.
    assert default_tree("ferro")["sensor"]["magnetization"] == pytest.approx(4.8e5)


def test_nickel_has_no_yield_entry():
    # The stress margin skips a layer without one.
    assert builtin_material("nickel").yield_stress is None


def test_silicon_flicker_parameter():
    assert builtin_material("silicon").hooge_alpha == pytest.approx(4e-6)


def test_unknown_material():
    with pytest.raises(NotFoundError, match="unobtainium"):
        builtin_material("unobtainium")


def test_nitride_is_not_piezoresistive():
    with pytest.raises(MissingPropertyError) as info:
        GaugeSpec.check_film(builtin_material("silicon_nitride"))
    assert info.value.material_name == "silicon_nitride"
    # Insulator: every piezoresistive property is absent, all are reported.
    assert set(info.value.missing) == {
        "pi_longitudinal",
        "hooge_alpha",
        "carrier_density",
    }


def test_capability_checks_pass_for_catalog_roles():
    GaugeSpec.check_film(builtin_material("polysilicon"))
    GaugeSpec.check_film(builtin_material("silicon"))


def test_override_returns_new_record():
    base = builtin_material("polysilicon")
    changed = override_material(base, pi_longitudinal=5e-10)
    assert changed.pi_longitudinal == 5e-10
    assert base.pi_longitudinal == 4.0e-10
    assert builtin_material("polysilicon").pi_longitudinal == 4.0e-10


def test_override_rejects_unknown_field():
    with pytest.raises(NotFoundError, match="sparkle"):
        override_material(builtin_material("silicon"), sparkle=1.0)


def test_material_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        builtin_material("silicon").youngs_modulus = 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"youngs_modulus": 0.0},
        {"youngs_modulus": -5e-324},
        {"density": -1.0},
        {"density": 0.0},
    ],
)
def test_material_invariants(kwargs):
    fields = {
        "name": "junk",
        "youngs_modulus": 1e9,
        "density": 1000.0,
    }
    fields.update(kwargs)
    with pytest.raises(ValueError):
        Material(**fields)


def test_layer_needs_positive_thickness():
    with pytest.raises(ValueError):
        LayerSpec(material=builtin_material("silicon"), thickness=0.0)
    with pytest.raises(ValueError, match="thickness"):
        LayerSpec(material=builtin_material("silicon"), thickness=math.nan)
