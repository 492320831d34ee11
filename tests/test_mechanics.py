import math

import numpy as np
import pytest

from memsmag import (
    BeamGeometry,
    CompositeSection,
    InvalidCalibrationError,
    LayerSpec,
    UnsupportedStackError,
    anneal_stress,
    bimorph_lift,
    builtin_material,
    composite_section,
    lumped_resonator,
    max_anchor_stress,
    tip_deflection,
)

SILICON = builtin_material("silicon")
NITRIDE = builtin_material("silicon_nitride")
ALUMINUM = builtin_material("aluminum")


def _beam(length, width, *layers):
    return BeamGeometry(length=length, width=width, layers=list(layers))


def test_single_layer_rigidity():
    # E w t^3 / 12 with E = 169 GPa, w = 20 um, t = 2 um.
    geom = _beam(300e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    section = composite_section(geom)
    assert section.flexural_rigidity == pytest.approx(2.253e-12, rel=1e-3, abs=0)
    assert section.neutral_axis_height == pytest.approx(1e-6)
    assert section.axial_stiffness == pytest.approx(169e9 * 20e-6 * 2e-6)
    assert section.mass_per_length == pytest.approx(2329.0 * 20e-6 * 2e-6, abs=0)


def test_split_layer_equals_merged_layer():
    merged = composite_section(_beam(300e-6, 20e-6, LayerSpec(SILICON, 2e-6)))
    split = composite_section(
        _beam(300e-6, 20e-6, LayerSpec(SILICON, 1e-6), LayerSpec(SILICON, 1e-6))
    )
    assert split.flexural_rigidity == pytest.approx(
        merged.flexural_rigidity, rel=1e-10, abs=0
    )
    assert split.neutral_axis_height == pytest.approx(
        merged.neutral_axis_height, rel=1e-10
    )


def test_symmetric_stack_neutral_axis_at_mid():
    geom = _beam(
        300e-6,
        20e-6,
        LayerSpec(NITRIDE, 0.5e-6),
        LayerSpec(ALUMINUM, 1.0e-6),
        LayerSpec(NITRIDE, 0.5e-6),
    )
    section = composite_section(geom)
    assert section.neutral_axis_height == pytest.approx(1.0e-6, rel=1e-12)


def test_section_invariants_random_stacks():
    rng = np.random.default_rng(1)
    names = ("silicon", "polysilicon", "silicon_nitride", "aluminum", "nickel")
    for _ in range(50):
        layers = [
            LayerSpec(
                builtin_material(str(rng.choice(names))),
                float(rng.uniform(0.1e-6, 2e-6)),
            )
            for _ in range(rng.integers(1, 5))
        ]
        geom = _beam(float(rng.uniform(200e-6, 1000e-6)), 20e-6, *layers)
        section = composite_section(geom)
        assert section.flexural_rigidity > 0
        assert 0 < section.neutral_axis_height < geom.total_thickness


def test_tip_deflection_example():
    # Closed form against the brute-force grid solution on the same beam.
    from memsmag import solve_static

    geom = _beam(300e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    section = composite_section(geom)
    analytic = tip_deflection(section, geom.length, 1e-6)
    assert analytic == pytest.approx(3.99e-6, rel=2e-3)
    numeric = solve_static(geom, grid_size=400, tip_force=1e-6).tip_deflection
    assert numeric == pytest.approx(analytic, rel=1e-2)


def test_tip_deflection_linearity():
    section = CompositeSection(2.253e-12, 1e-6, 1.0, 1.0)
    assert tip_deflection(section, 300e-6, 0.0) == 0.0
    one = tip_deflection(section, 300e-6, 1e-6)
    assert tip_deflection(section, 300e-6, 2e-6) == pytest.approx(2 * one, rel=1e-12)


def test_anchor_stress_example():
    stress = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=3)
    assert stress == pytest.approx(8.23e4, rel=1e-3)


def test_anchor_stress_share_count():
    shared = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=3)
    alone = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=1)
    assert alone == pytest.approx(3 * shared, rel=1e-12)
    with pytest.raises(ValueError):
        max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=0)


def test_resonator_damping_identity():
    geom = _beam(500e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    res = lumped_resonator(geom, quality_factor=30.0)
    assert res.damping * res.quality_factor == pytest.approx(
        math.sqrt(res.stiffness * res.effective_mass), rel=1e-12, abs=0
    )
    assert res.natural_frequency == pytest.approx(
        math.sqrt(res.stiffness / res.effective_mass) / (2 * math.pi), rel=1e-12
    )


def test_resonator_thickness_scaling():
    # k ~ t^3 and m ~ t for a single-material stack, so f0 scales like t.
    thin = lumped_resonator(_beam(500e-6, 20e-6, LayerSpec(SILICON, 2e-6)), 30.0)
    thick = lumped_resonator(_beam(500e-6, 20e-6, LayerSpec(SILICON, 4e-6)), 30.0)
    assert thick.natural_frequency == pytest.approx(
        2 * thin.natural_frequency, rel=1e-12
    )


def test_resonator_tip_mass_lowers_frequency():
    geom = _beam(500e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    bare = lumped_resonator(geom, 30.0)
    loaded = lumped_resonator(geom, 30.0, tip_mass=bare.effective_mass)
    assert loaded.natural_frequency == pytest.approx(
        bare.natural_frequency / math.sqrt(2.0), rel=1e-12
    )


def test_resonator_argument_checks():
    geom = _beam(500e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    with pytest.raises(ValueError):
        lumped_resonator(geom, quality_factor=0.5)
    with pytest.raises(ValueError):
        lumped_resonator(geom, 30.0, tip_mass=-1e-9)


def test_beam_geometry_checks():
    layer = LayerSpec(SILICON, 2e-6)
    with pytest.raises(ValueError):
        BeamGeometry(length=0.0, width=20e-6, layers=[layer])
    with pytest.raises(ValueError):
        BeamGeometry(length=300e-6, width=-1.0, layers=[layer])
    with pytest.raises(ValueError):
        BeamGeometry(length=300e-6, width=20e-6, layers=[])
    # A stubby beam still builds; run_scenario flags it in the report.
    BeamGeometry(length=15e-6, width=20e-6, layers=[LayerSpec(SILICON, 2e-6)])


def test_anneal_anchor_points():
    assert anneal_stress(673.15) == pytest.approx(150e6, rel=1e-12)
    assert anneal_stress(703.15) >= 150e6
    assert anneal_stress(423.15) == pytest.approx(30e6, rel=1e-12)


def test_anneal_monotone_and_clamped():
    temps = np.linspace(350.0, 800.0, 200)
    values = [anneal_stress(t) for t in temps]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert anneal_stress(300.0) == pytest.approx(30e6)
    assert anneal_stress(1000.0) == pytest.approx(150e6)


def test_anneal_rejects_bad_tables():
    with pytest.raises(InvalidCalibrationError):
        anneal_stress(500.0, calibration=((673.15, 150e6),))
    with pytest.raises(InvalidCalibrationError):
        anneal_stress(500.0, calibration=((673.15, 150e6), (423.15, 30e6)))


def _bilayer(length=200e-6):
    return _beam(length, 10e-6, LayerSpec(NITRIDE, 350e-9), LayerSpec(ALUMINUM, 1e-6))


def test_bimorph_zero_and_sign():
    flat = bimorph_lift(_bilayer(), 0.0)
    assert flat.curvature == 0.0
    assert flat.tip_height == 0.0
    up = bimorph_lift(_bilayer(), 150e6)
    down = bimorph_lift(_bilayer(), -150e6)
    assert up.curvature > 0
    assert down.curvature == pytest.approx(-up.curvature, rel=1e-12)


def test_bimorph_layer_count():
    with pytest.raises(UnsupportedStackError):
        bimorph_lift(_beam(200e-6, 10e-6, LayerSpec(NITRIDE, 1e-6)), 150e6)
    three = _beam(
        200e-6,
        10e-6,
        LayerSpec(NITRIDE, 1e-6),
        LayerSpec(ALUMINUM, 1e-6),
        LayerSpec(NITRIDE, 1e-6),
    )
    with pytest.raises(UnsupportedStackError):
        bimorph_lift(three, 150e6)
    same = _beam(200e-6, 10e-6, LayerSpec(NITRIDE, 1e-6), LayerSpec(NITRIDE, 1e-6))
    with pytest.raises(UnsupportedStackError):
        bimorph_lift(same, 150e6)


def test_bimorph_against_energy_minimization():
    """Independent curvature oracle: minimize the stack's strain energy.

    With strain field e(z) = e0 + c*z (z from the bottom face) and the top
    layer carrying a stress-free contraction -ds/E_top, stationarity of
    U = sum_i E_i/2 * integral (e(z) - a_i)^2 dz gives a 2x2 linear system
    for (e0, c). The geometric upward curvature is -c.
    """
    ds = 150e6
    t1, t2 = 350e-9, 1e-6
    layers = [
        (NITRIDE.youngs_modulus, 0.0, t1, 0.0),
        (ALUMINUM.youngs_modulus, t1, t1 + t2, -ds / ALUMINUM.youngs_modulus),
    ]
    a = np.zeros((2, 2))
    b = np.zeros(2)
    for e, z0, z1, natural in layers:
        m0 = z1 - z0
        m1 = (z1**2 - z0**2) / 2.0
        m2 = (z1**3 - z0**3) / 3.0
        a += e * np.array([[m0, m1], [m1, m2]])
        b += e * natural * np.array([m0, m1])
    _, strain_slope = np.linalg.solve(a, b)

    lift = bimorph_lift(_bilayer(), ds)
    assert lift.curvature == pytest.approx(-strain_slope, rel=1e-9)
    assert lift.curvature == pytest.approx(2301.05, rel=1e-4)


def test_lift_profile_invariants_random():
    rng = np.random.default_rng(7)
    pairs = (
        (SILICON, ALUMINUM),
        (NITRIDE, ALUMINUM),
        (builtin_material("polysilicon"), builtin_material("nickel")),
    )
    for _ in range(100):
        bottom, top = pairs[rng.integers(0, len(pairs))]
        geom = _beam(
            float(rng.uniform(100e-6, 1000e-6)),
            float(rng.uniform(5e-6, 50e-6)),
            LayerSpec(bottom, float(rng.uniform(0.1e-6, 2e-6))),
            LayerSpec(top, float(rng.uniform(0.1e-6, 2e-6))),
        )
        stress = float(rng.uniform(-300e6, 300e6))
        lift = bimorph_lift(geom, stress)
        assert lift.tip_angle == pytest.approx(lift.curvature * geom.length, rel=1e-12)
        if lift.curvature != 0.0:
            assert lift.tip_height == pytest.approx(
                (1 - math.cos(lift.tip_angle)) / lift.curvature, rel=1e-12
            )
        assert abs(lift.tip_height) <= 0.73 * geom.length
        assert (lift.curvature > 0) == (stress > 0) or stress == 0
