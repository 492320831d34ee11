import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from memsmag import (
    BUILTIN_NAMES,
    DEFAULT_ANNEAL_TABLE,
    BeamGeometry,
    CompositeSection,
    DomainError,
    LayerSpec,
    UnsupportedStackError,
    anneal_stress,
    bimorph_lift,
    builtin_material,
    composite_section,
    default_scenario,
    lumped_resonator,
    max_anchor_stress,
    stack_curvature,
    tip_deflection,
)
from memsmag.mechanics import _layer_arms, _layer_fiber_stress

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


def test_tip_deflection_argument_checks():
    section = CompositeSection(2.253e-12, 1e-6, 1.0, 1.0)
    for length in (0.0, -300e-6, math.nan):
        with pytest.raises(ValueError, match="beam length must be > 0"):
            tip_deflection(section, length, 1e-6)


def test_anchor_stress_example():
    stress = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=3)
    assert stress == pytest.approx(8.23e4, rel=1e-3)


def test_anchor_stress_share_count():
    shared = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=3)
    alone = max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=1)
    assert alone == pytest.approx(3 * shared, rel=1e-12)
    for count in (0, math.nan):
        with pytest.raises(ValueError):
            max_anchor_stress(5e-9, 300e-6, 20e-6, 1.35e-6, load_share_count=count)
    for width in (0.0, -20e-6, math.nan):
        with pytest.raises(ValueError, match="beam width must be > 0"):
            max_anchor_stress(5e-9, 300e-6, width, 1.35e-6, load_share_count=3)
    for thickness in (0.0, -1.35e-6, math.nan):
        with pytest.raises(ValueError, match="beam thickness must be > 0"):
            max_anchor_stress(5e-9, 300e-6, 20e-6, thickness, load_share_count=3)


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


def _modal_frequency(geom, tip_mass, elements=60):
    """First bending-mode frequency of `geom` clamped at x = 0, with a rigid
    `tip_mass` at the free end: Euler-Bernoulli Hermite-cubic elements with
    the consistent mass matrix. It solves M v = K v / w^2 through K = L L^T,
    so the first mode is the largest eigenvalue and keeps full precision.
    Lengths are in units of the beam length, stiffness in EI and mass in
    m' l; w is scaled back to Hz at the end."""
    ei = composite_section(geom).flexural_rigidity
    mass_per_length = geom.width * sum(
        layer.material.density * layer.thickness for layer in geom.layers
    )
    # Each node's unknowns are its deflection and h times its slope, which
    # leaves h out of the element matrices' entries.
    h = 1.0 / elements
    k_e = np.array([[12, 6, -12, 6], [6, 4, -6, 2], [-12, -6, 12, -6], [6, 2, -6, 4]]) / h**3
    m_e = np.array(
        [[156, 22, 54, -13], [22, 4, 13, -3], [54, 13, 156, -22], [-13, -3, -22, 4]]
    ) * (h / 420)
    size = 2 * (elements + 1)
    k, m = np.zeros((size, size)), np.zeros((size, size))
    for e in range(elements):
        k[2 * e:2 * e + 4, 2 * e:2 * e + 4] += k_e
        m[2 * e:2 * e + 4, 2 * e:2 * e + 4] += m_e
    m[-2, -2] += tip_mass / (mass_per_length * geom.length)
    k, m = k[2:, 2:], m[2:, 2:]  # the clamp fixes node 0's deflection and slope
    lower = np.linalg.cholesky(k)
    half = np.linalg.solve(lower, m)
    omega2 = 1.0 / np.linalg.eigvalsh(np.linalg.solve(lower, half.T))[-1]
    return math.sqrt(omega2 * ei / (mass_per_length * geom.length**4)) / (2 * math.pi)


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_lumped_resonance_against_a_modal_solve_on_the_defaults(kind):
    # Rayleigh's static-shape reduction can only overestimate the first
    # mode, and by under 2 % for a cantilever with or without a tip mass.
    scenario = default_scenario(kind)
    sensor = scenario.sensor
    lumped = sensor.resonator(scenario.quality_factor).natural_frequency
    assert 0 <= lumped / _modal_frequency(sensor.beam, sensor.tip_mass) - 1 < 0.02


@pytest.mark.parametrize("ratio", [0.0, 0.1, 1.0, 10.0, 100.0])
def test_lumped_resonance_against_a_modal_solve_over_tip_mass(ratio):
    # ratio = tip mass / (m' l); the lumped error falls as the tip mass grows.
    beam = default_scenario("lorentz").sensor.beam
    tip_mass = ratio * composite_section(beam).mass_per_length * beam.length
    lumped = lumped_resonator(beam, 30.0, tip_mass=tip_mass).natural_frequency
    assert 0 <= lumped / _modal_frequency(beam, tip_mass) - 1 < 0.02


def test_resonator_argument_checks():
    geom = _beam(500e-6, 20e-6, LayerSpec(SILICON, 2e-6))
    for q in (0.5, math.nan):
        with pytest.raises(ValueError, match="quality_factor must be > 0.5"):
            lumped_resonator(geom, quality_factor=q)
    for mass in (-1e-9, math.nan):
        with pytest.raises(ValueError, match="tip_mass must be >= 0"):
            lumped_resonator(geom, 30.0, tip_mass=mass)
    # A resonance outside (0, inf) Hz is refused however the record is built.
    good = lumped_resonator(geom, 30.0)
    for f0 in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match=rf"^resonant frequency {f0!r} Hz is outside"
                           r" \(0, inf\) Hz: stiffness .* N/m, effective mass .* kg$"):
            dataclasses.replace(good, natural_frequency=f0)


def test_underflowing_stiffness_is_a_named_domain_error():
    # E w t^3 / 12 underflows to 0 at a subnormal width ...
    with pytest.raises(DomainError, match=r"^flexural rigidity EI underflows to 0 at beam"
                       r" width 1e-310 m and layer thicknesses 1e-06 m$"):
        composite_section(_beam(500e-6, 1e-310, LayerSpec(SILICON, 1e-6)))
    # ... and 3 EI / l^3 at a long beam whose EI does not.
    geom = _beam(1e6, 1e-300, LayerSpec(SILICON, 1e-6))
    assert composite_section(geom).flexural_rigidity > 0.0
    with pytest.raises(DomainError, match=r"^tip stiffness 3 EI / l\^3 underflows to 0:"
                       r" flexural rigidity .* N\*m\^2 at beam width 1e-300 m"
                       r" and length 1000000.0 m$"):
        lumped_resonator(geom, 30.0)


def test_underflowing_effective_mass_is_a_named_domain_error():
    # (33/140) m' l underflows to 0 while 3 EI / l^3 does not, so the
    # resonance would divide by 0.
    geom = _beam(1e-30, 1e-300, LayerSpec(SILICON, 1e-6))
    with pytest.raises(DomainError, match=r"^effective mass \(33/140\) m' l underflows to 0"
                       r" at beam width 1e-300 m and length 1e-30 m$"):
        lumped_resonator(geom, 30.0)
    # A tip mass keeps it above 0.
    assert lumped_resonator(geom, 30.0, tip_mass=1e-12).effective_mass == 1e-12


def test_beam_geometry_checks():
    layer = LayerSpec(SILICON, 2e-6)
    with pytest.raises(ValueError):
        BeamGeometry(length=0.0, width=20e-6, layers=[layer])
    with pytest.raises(ValueError):
        BeamGeometry(length=300e-6, width=-1.0, layers=[layer])
    with pytest.raises(ValueError):
        BeamGeometry(length=300e-6, width=20e-6, layers=[])
    with pytest.raises(ValueError, match="length"):
        BeamGeometry(length=math.nan, width=20e-6, layers=[layer])
    with pytest.raises(ValueError, match="width"):
        BeamGeometry(length=300e-6, width=math.nan, layers=[layer])
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


def test_anneal_matches_np_interp_bit_for_bit():
    (t0, s0), (t1, s1) = DEFAULT_ANNEAL_TABLE
    rng = np.random.default_rng(23)
    temps = np.concatenate([
        rng.uniform(300.0, 800.0, 150_000),
        rng.uniform(t0, t1, 40_000),
        rng.uniform(-1e6, 1e6, 10_000),
        [t0, t1, np.nextafter(t0, 0), np.nextafter(t0, 1e3), np.nextafter(t1, 0),
         np.nextafter(t1, 1e3), 0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan, 5e-324],
    ])
    expected = np.interp(temps, [t0, t1], [s0, s1])
    got = np.array([anneal_stress(float(t)) for t in temps])
    assert len(temps) >= 200_000
    assert got.tobytes() == expected.tobytes()


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


def _energy_curvature(geom):
    """Independent curvature oracle: minimize the stack's strain energy.

    With strain field e(z) = e0 + c*z (z from the bottom face) and layer i
    carrying a stress-free strain -sigma_i/E_i, stationarity of
    U = sum_i E_i/2 * integral (e(z) - a_i)^2 dz gives a 2x2 linear system
    for (e0, c). The geometric upward curvature is -c.
    """
    a = np.zeros((2, 2))
    b = np.zeros(2)
    z0 = 0.0
    for layer in geom.layers:
        e = layer.material.youngs_modulus
        z1 = z0 + layer.thickness
        m0 = z1 - z0
        m1 = (z1**2 - z0**2) / 2.0
        m2 = (z1**3 - z0**3) / 3.0
        a += e * np.array([[m0, m1], [m1, m2]])
        b += e * (-layer.residual_stress / e) * np.array([m0, m1])
        z0 = z1
    _, strain_slope = np.linalg.solve(a, b)
    return -strain_slope


def _stressed(geom, *stresses):
    layers = [dataclasses.replace(layer, residual_stress=s) for layer, s in zip(geom.layers, stresses)]
    return dataclasses.replace(geom, layers=layers)


_NICKEL = builtin_material("nickel")
_STACKS = {
    "bilayer": _stressed(_bilayer(), 0.0, 150e6),
    # The lorentz support beam, a stress on every layer.
    "lorentz-support-beam": _beam(
        500e-6,
        20e-6,
        LayerSpec(SILICON, 100e-9, 50e6),
        LayerSpec(NITRIDE, 280e-9, -200e6),
        LayerSpec(ALUMINUM, 1e-6, 150e6),
    ),
    "four-layers": _beam(
        300e-6,
        10e-6,
        LayerSpec(NITRIDE, 200e-9, 300e6),
        LayerSpec(ALUMINUM, 500e-9, -80e6),
        LayerSpec(NITRIDE, 200e-9, 300e6),
        LayerSpec(_NICKEL, 2e-6, 20e6),
    ),
}


@pytest.mark.parametrize("name", sorted(_STACKS))
def test_stack_curvature_against_energy_minimization(name):
    geom = _STACKS[name]
    assert stack_curvature(geom) == pytest.approx(_energy_curvature(geom), rel=1e-9)


def test_bimorph_against_energy_minimization():
    ds = 150e6
    lift = bimorph_lift(_stressed(_bilayer(), 40e6, -60e6), ds)  # layer stresses unread
    assert lift.curvature == stack_curvature(_stressed(_bilayer(), 0.0, ds))
    assert lift.curvature == pytest.approx(_energy_curvature(_STACKS["bilayer"]), rel=1e-9)
    assert lift.curvature == pytest.approx(2301.05, rel=1e-4)


def test_bimorph_matches_the_timoshenko_closed_form():
    # Timoshenko's bimetal curvature for a mismatch strain ds/E_top.
    rng = np.random.default_rng(11)
    films = [builtin_material(name) for name in BUILTIN_NAMES]
    for _ in range(2000):
        i, j = rng.choice(len(films), 2, replace=False)
        t1, t2 = (float(t) for t in rng.uniform(50e-9, 2e-6, 2))
        geom = _beam(200e-6, 10e-6, LayerSpec(films[i], t1), LayerSpec(films[j], t2))
        ds = float(rng.uniform(-1e9, 1e9))
        e1, e2 = films[i].youngs_modulus, films[j].youngs_modulus
        denom = (
            e1**2 * t1**4
            + 4.0 * e1 * e2 * t1**3 * t2
            + 6.0 * e1 * e2 * t1**2 * t2**2
            + 4.0 * e1 * e2 * t1 * t2**3
            + e2**2 * t2**4
        )
        expected = 6.0 * (ds / e2) * e1 * e2 * t1 * t2 * (t1 + t2) / denom
        assert bimorph_lift(geom, ds).curvature == pytest.approx(expected, rel=1e-13)


def _exact_section(geom):
    """Layer mid-heights, neutral axis and EI in rational arithmetic."""
    w = Fraction(geom.width)
    ea = ea_z = z = Fraction(0)
    mids = []
    for layer in geom.layers:
        e, t = Fraction(layer.material.youngs_modulus), Fraction(layer.thickness)
        mids.append(z + t / 2)
        ea += e * w * t
        ea_z += e * w * t * mids[-1]
        z += t
    neutral = ea_z / ea
    ei = Fraction(0)
    for layer, mid in zip(geom.layers, mids):
        e, t = Fraction(layer.material.youngs_modulus), Fraction(layer.thickness)
        ei += e * (w * t**3 / 12 + w * t * (mid - neutral) ** 2)
    return mids, neutral, ei


def _exact_curvature(geom) -> Fraction:
    """sum sigma_i w t_i (z_i - z_n) / EI in rational arithmetic."""
    mids, neutral, ei = _exact_section(geom)
    w = Fraction(geom.width)
    moment = sum(
        Fraction(layer.residual_stress) * w * Fraction(layer.thickness) * (mid - neutral)
        for layer, mid in zip(geom.layers, mids)
    )
    return moment / ei


def _thin_and_thick_stacks(count):
    # One stressed layer of two, thicknesses log-uniform over 1 nm - 10 um.
    rng = np.random.default_rng(18)
    films = [builtin_material(name) for name in BUILTIN_NAMES]
    for _ in range(count):
        i, j = rng.choice(len(films), 2, replace=False)
        t1, t2 = (float(t) for t in 10.0 ** rng.uniform(-9, -5, 2))
        stresses = [0.0, 0.0]
        stresses[int(rng.integers(2))] = float(rng.uniform(-1e9, 1e9))
        yield _beam(
            200e-6,
            10e-6,
            LayerSpec(films[i], t1, stresses[0]),
            LayerSpec(films[j], t2, stresses[1]),
        )


def test_stack_curvature_matches_exact_arithmetic_on_thin_and_thick_layers():
    # Arms taken as differences of cumulative heights lost up to 3.6e-12 of
    # the curvature when a thick layer sat on a thin one.
    worst = 0.0
    for geom in _thin_and_thick_stacks(2000):
        exact = _exact_curvature(geom)
        worst = max(worst, float(abs(Fraction(stack_curvature(geom)) - exact) / abs(exact)))
    assert worst <= 1e-14


def test_layer_fiber_stress_matches_exact_arithmetic_on_thin_and_thick_layers():
    # Errors are measured against each layer's larger face: an interface
    # 0.3 % of a thickness off the neutral axis carries almost no stress, and
    # its own relative error reaches 3.5e-14 (6.8e-14 with z - z_n taken from
    # the float neutral axis).
    moment = 3e-9  # N*m
    worst = 0.0
    for geom in _thin_and_thick_stacks(2000):
        mids, neutral, ei = _exact_section(geom)
        faces = _layer_fiber_stress(geom, composite_section(geom), moment)
        for layer, mid, pair in zip(geom.layers, mids, faces):
            e, half = Fraction(layer.material.youngs_modulus), Fraction(layer.thickness) / 2
            exact = [e * Fraction(moment) * (z - neutral) / ei for z in (mid - half, mid + half)]
            scale = max(map(abs, exact))
            for got, want in zip(pair, exact):
                worst = max(worst, float(abs(Fraction(got) - want) / scale))
    assert worst <= 1e-14


def test_one_material_fiber_stress_is_the_homogeneous_anchor_stress():
    # The composite section's extreme face at the clamp moment F l is
    # 6 l F / (w t^2), however the one material is split into layers.
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(200):
        thicknesses = rng.uniform(0.1e-6, 3e-6, int(rng.integers(1, 4)))
        layers = [LayerSpec(SILICON, float(t)) for t in thicknesses]
        geom = _beam(float(rng.uniform(50e-6, 1e-3)), float(rng.uniform(2e-6, 1e-4)), *layers)
        force = float(rng.uniform(1e-9, 1e-5))
        faces = _layer_fiber_stress(geom, composite_section(geom), force * geom.length)
        extreme = max(abs(face) for pair in faces for face in pair)
        homogeneous = max_anchor_stress(force, geom.length, geom.width, geom.total_thickness, 1)
        worst = max(worst, abs(extreme - homogeneous) / homogeneous)
    assert worst <= 1e-12


def _left_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


def _left_folded_arms(geom):
    """_layer_arms' sums, each written out as a left fold."""
    t = [layer.thickness for layer in geom.layers]
    weights = [layer.material.youngs_modulus * layer.thickness for layer in geom.layers]
    arms = []
    for i in range(len(t)):
        below = _left_fold(
            weights[j] * ((t[j] + t[i]) / 2 + _left_fold(t[j + 1:i])) for j in range(i)
        )
        above = _left_fold(
            weights[j] * ((t[i] + t[j]) / 2 + _left_fold(t[i + 1:j]))
            for j in range(i + 1, len(t))
        )
        arms.append((below - above) / _left_fold(weights))
    return arms


@pytest.mark.parametrize("thicknesses", [(1e-6, 6e-23, 6e-23), (6e-23, 1e-6, 6e-23, 6e-23, 1e-6)])
def test_thickness_sums_are_left_folds_on_every_python(thicknesses):
    # From Python 3.12 on, sum() adds floats with compensated summation. On
    # these stacks that moves the last digit of the total thickness or of
    # the arms, so a report's bytes would depend on the Python version.
    geom = _beam(200e-6, 10e-6, *(LayerSpec(SILICON, t) for t in thicknesses))
    assert geom.total_thickness == _left_fold(thicknesses)
    assert list(_layer_arms(geom)) == _left_folded_arms(geom)
    if len(thicknesses) == 3:
        assert geom.total_thickness == 1e-06  # 1.0000000000000002e-06 by 3.12's sum()


def test_stack_curvature_does_not_depend_on_the_width():
    # The width cancels from the moment and EI; a subnormal width once lost
    # the curvature (-846.87 1/m at 1e-305 m) or divided by 0 (at 1e-310 m).
    curvatures = [
        stack_curvature(
            _beam(200e-6, width, LayerSpec(SILICON, 1e-6, 100e6), LayerSpec(ALUMINUM, 1e-6))
        )
        for width in (1e-6, 1e-300, 1e-310)
    ]
    assert curvatures == pytest.approx([curvatures[0]] * 3, rel=1e-12, abs=0)
    assert curvatures[0] == pytest.approx(-421.9388, rel=1e-6)


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
