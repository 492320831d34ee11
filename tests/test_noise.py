import dataclasses
import math

import numpy as np
import pytest

from memsmag import (
    BOLTZMANN,
    DomainError,
    Drive,
    Environment,
    GaugeSpec,
    MissingPropertyError,
    build_scenario,
    builtin_material,
    carrier_count,
    default_scenario,
    lumped_resonator,
    min_detectable_field,
    noise_budget,
    override_material,
    rms_noise,
    run_scenario,
    sensitivity,
    thermal_electrical_psd,
    thermal_mechanical_psd,
)


def test_thermal_electrical_example():
    psd = thermal_electrical_psd(1000.0, 300.0)
    assert psd == pytest.approx(1.657e-17, rel=1e-3, abs=0)
    assert thermal_electrical_psd(2000.0, 300.0) == pytest.approx(2 * psd, rel=1e-12, abs=0)
    assert thermal_electrical_psd(1000.0, 1e-9) < 1e-25
    for resistance, temperature in ((0.0, 300.0), (math.nan, 300.0), (1000.0, math.nan)):
        with pytest.raises(ValueError):
            thermal_electrical_psd(resistance, temperature)


def test_thermal_mechanical_example():
    psd = thermal_mechanical_psd(1e-6, 300.0)
    assert psd == pytest.approx(1.657e-26, rel=1e-3, abs=0)
    assert thermal_mechanical_psd(0.0, 300.0) == 0.0
    for damping, temperature in ((1e-6, 0.0), (math.nan, 300.0), (1e-6, math.nan)):
        with pytest.raises(ValueError):
            thermal_mechanical_psd(damping, temperature)


def _unit_gauge(**overrides):
    # Volume 1e-15 m^3 with 1e24 carriers/m^3 puts exactly 1e9 carriers
    # in the gauge.
    material = override_material(
        builtin_material("silicon"), **{"carrier_density": 1e24, **overrides}
    )
    return GaugeSpec(
        length=100e-6, width=10e-6, thickness=1e-6, resistance=1000.0, material=material
    )


def _unit_budget(resistance=1000.0, **overrides):
    # The unit gauge on a 2 V bridge sees 1 V; silicon's alpha is 4e-6.
    scenario = default_scenario("lorentz")
    gauge = dataclasses.replace(_unit_gauge(**overrides), resistance=resistance)
    sensor = dataclasses.replace(scenario.sensor, gauge=gauge, bridge_bias=2.0)
    return noise_budget(
        sensor,
        scenario.environment,
        scenario.noise_band,
        sensor.resonator(scenario.quality_factor),
        sensitivity(sensor, scenario.drive, scenario.environment),
    )


def test_flicker_example():
    assert carrier_count(_unit_gauge()) == pytest.approx(1e9, rel=1e-12)
    budget = _unit_budget()
    psd = budget.flicker_psd_at(10.0)
    assert psd == pytest.approx(4e-16, rel=1e-12, abs=0)
    assert budget.flicker_psd_at(20.0) == pytest.approx(psd / 2, rel=1e-12, abs=0)
    assert _unit_budget(hooge_alpha=0.0).flicker_psd_at(10.0) == 0.0
    for frequency in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            budget.flicker_psd_at(frequency)


def test_carrier_count_needs_density():
    with pytest.raises(MissingPropertyError, match="carrier_density"):
        dataclasses.replace(_unit_gauge(), material=builtin_material("silicon_nitride"))


def test_corner_frequency_definition():
    budget = _unit_budget()
    fc = budget.corner_frequency
    johnson = thermal_electrical_psd(1000.0, 300.0)
    assert fc == pytest.approx(4e-6 / (1e9 * johnson), rel=1e-12)
    assert budget.flicker_psd_at(fc) == pytest.approx(johnson, rel=1e-12, abs=0)
    assert budget.thermal_electrical_psd == johnson
    assert _unit_budget(resistance=2000.0).corner_frequency == pytest.approx(
        fc / 2, rel=1e-12
    )


def test_rms_example():
    white = thermal_electrical_psd(1000.0, 300.0)
    rms = rms_noise(white, 0.0, (1.0, 10e3))
    assert rms == pytest.approx(4.07e-7, rel=1e-3, abs=0)
    assert rms == pytest.approx(math.sqrt(white * 9999.0), rel=1e-12, abs=0)


def test_rms_band_monotone():
    white = thermal_electrical_psd(1000.0, 300.0)
    scale = 1e-13
    assert rms_noise(white, scale, (1.0, 1e3)) <= rms_noise(white, scale, (1.0, 1e4))
    with pytest.raises(DomainError):
        rms_noise(white, scale, (0.0, 1e3))
    with pytest.raises(DomainError):
        rms_noise(white, scale, (1e3, 1e3))


def test_rms_against_quadrature():
    # Trapezoid integration of the same white + 1/f PSD on a dense log grid.
    white = 2.5e-17
    scale = 3.2e-15
    band = (1.0, 10e3)
    closed = rms_noise(white, scale, band)
    freqs = np.geomspace(band[0], band[1], 10_000)
    numeric = math.sqrt(np.trapezoid(white + scale / freqs, freqs))
    assert closed == pytest.approx(numeric, rel=1e-3, abs=0)


def test_min_detectable_field_example():
    assert min_detectable_field(0.15, 4.0702e-7) == pytest.approx(2.7e-6, rel=1e-2)
    assert min_detectable_field(0.15, 0.0) == 0.0
    assert min_detectable_field(0.15, 4.07e-7, snr_target=2.0) == pytest.approx(
        2 * min_detectable_field(0.15, 4.07e-7), rel=1e-12
    )
    assert min_detectable_field(0.30, 4.07e-7) == pytest.approx(
        min_detectable_field(0.15, 4.07e-7) / 2, rel=1e-12
    )
    assert min_detectable_field(-0.15, 4.07e-7) == min_detectable_field(0.15, 4.07e-7)
    for sensitivity in (0.0, math.nan):
        with pytest.raises(DomainError):
            min_detectable_field(sensitivity, 4.07e-7)
    for rms in (-4.07e-7, math.nan):
        with pytest.raises(DomainError, match="^rms must be >= 0"):
            min_detectable_field(0.15, rms)
    for snr_target in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="^snr_target must be > 0"):
            min_detectable_field(0.15, 4.07e-7, snr_target)


def test_nan_rms_leaves_the_report_check_to_name_its_figure():
    # Hooge alpha 0 times an overflowing bias squared makes the flicker
    # scale, and so the rms, NaN; the referred mechanical PSD overflows
    # first, and the report names it as it did before rms was guarded.
    scenario = build_scenario({
        "sensor": {"bridge_bias": 1.0e155, "support_beam": {"width": 1.0e-2}},
        "material_overrides": {"silicon": {"hooge_alpha": 0.0}},
    })
    with pytest.raises(OverflowError, match=(
            "^report figure noise_mechanical_referred_psd_V2_per_Hz is not finite: inf$")):
        run_scenario(scenario)


def test_default_budget():
    scenario = default_scenario("lorentz")
    budget = noise_budget(
        scenario.sensor,
        scenario.environment,
        scenario.noise_band,
        scenario.sensor.resonator(scenario.quality_factor),
        sensitivity(scenario.sensor, scenario.drive, scenario.environment),
    )
    assert 50.0 <= budget.corner_frequency <= 200.0
    assert budget.corner_frequency == pytest.approx(128.764, rel=1e-5)
    assert budget.thermal_mechanical_psd_referred < 0.01 * budget.thermal_electrical_psd
    assert budget.min_detectable_field == pytest.approx(6.56618e-6, rel=1e-5)
    assert budget.rms == pytest.approx(5.27529e-7, rel=1e-5, abs=0)
    # PSD accessors agree with the stored scales.
    f = 37.0
    assert budget.total_psd_at(f) == pytest.approx(
        budget.thermal_electrical_psd
        + budget.thermal_mechanical_psd_referred
        + budget.flicker_scale / f,
        rel=1e-12, abs=0,
    )
    with pytest.raises(DomainError):
        budget.flicker_psd_at(0.0)


def test_budget_needs_flicker_parameters():
    gauge = default_scenario("lorentz").sensor.gauge
    with pytest.raises(MissingPropertyError, match="hooge_alpha"):
        dataclasses.replace(gauge, material=builtin_material("silicon_nitride"))


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_underflowing_johnson_psd_is_a_named_domain_error(kind):
    # A validated temperature can still underflow 4 k_B T R, which the
    # corner frequency divides by.
    scenario = build_scenario({"sensor": {"kind": kind}, "environment": {"temperature": 1.0e-320}})
    with pytest.raises(DomainError, match=r"^noise: Johnson PSD 4 k_B T R underflows to 0 at "
                       r"environment\.temperature 1e-320 K and sensor\.gauge\.resistance "):
        run_scenario(scenario)


def test_snr_scaling():
    scenario = default_scenario("lorentz")
    sensor, drive, band = scenario.sensor, scenario.drive, scenario.noise_band
    resonator = sensor.resonator(scenario.quality_factor)

    def at(field, temperature=300.0):
        env = Environment(field_magnitude=field, temperature=temperature)
        return noise_budget(sensor, env, band, resonator, sensitivity(sensor, drive, env)).snr

    assert at(0.0) == 0.0
    assert at(2e-3) == pytest.approx(2 * at(1e-3), rel=1e-9)
    assert at(1e-3, temperature=400.0) < at(1e-3, temperature=300.0)


def test_budget_scales_with_the_given_sensitivity():
    scenario = default_scenario("lorentz")
    sensor, env = scenario.sensor, scenario.environment
    resonator = sensor.resonator(scenario.quality_factor)
    gain = sensitivity(sensor, scenario.drive, env)
    once = noise_budget(sensor, env, scenario.noise_band, resonator, gain)
    twice = noise_budget(sensor, env, scenario.noise_band, resonator, 2.0 * gain)
    assert twice.rms == once.rms
    assert twice.snr == pytest.approx(2.0 * once.snr, rel=1e-12)
    assert twice.min_detectable_field == pytest.approx(once.min_detectable_field / 2.0, rel=1e-12)


_UNDERFLOWING_RMS = {
    "environment": {"temperature": 1.0e-300},
    "noise_band": [1.0, 1.0000000001],
    "material_overrides": {"silicon": {"hooge_alpha": 0.0}},
}


def test_underflowing_band_rms_is_a_named_domain_error():
    # The white PSD times a tiny band underflows and no flicker term is
    # left, so the RMS that the SNR divides by is 0.
    scenario = build_scenario(_UNDERFLOWING_RMS)
    with pytest.raises(DomainError) as excinfo:
        run_scenario(scenario)
    assert str(excinfo.value) == (
        "noise: band RMS noise underflows to 0 over noise_band 1.0 to 1.0000000001 Hz"
        " at environment.temperature 1e-300 K"
    )


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_report_noise_uses_report_resonator_and_gain(kind):
    # The mechanical noise must come from the resonator whose f0 the report
    # shows and the stress-per-deflection gain behind the report's statics.
    scenario = default_scenario(kind)
    sensor = scenario.sensor
    if kind == "lorentz":
        beam, tip_mass, share = sensor.support_beam, 0.0, sensor.load_share_count
    else:
        share = sensor.suspension_count
        beam, tip_mass = sensor.suspension, sensor.plate_mass / share
    report = run_scenario(scenario)
    resonator = lumped_resonator(beam, scenario.quality_factor, tip_mass)
    assert resonator.natural_frequency == report.resonant_frequency

    stress_per_force = report.anchor_stress / report.tip_deflection / (
        share * resonator.stiffness
    )
    gauge = sensor.gauge.material.pi_longitudinal * sensor.bridge_bias / 4.0
    gain = stress_per_force * gauge
    temperature = scenario.environment.temperature
    expected = 4.0 * BOLTZMANN * temperature * resonator.damping * gain**2
    ratio = report.noise.thermal_mechanical_psd_referred / expected
    assert ratio == pytest.approx(1.0, rel=1e-9)


def test_one_resonator_per_report(monkeypatch):
    # The budget reuses the resonator the report shows instead of building
    # its own.
    import memsmag.transduction as transduction

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return lumped_resonator(*args, **kwargs)

    for kind in ("lorentz", "ferro"):
        scenario = default_scenario(kind)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(transduction, "lumped_resonator", counted)
            run_scenario(scenario)
        assert len(calls) == 1, kind


def test_boltzmann_constant():
    assert BOLTZMANN == 1.380649e-23
