import dataclasses
import math

import pytest

from memsmag import (
    DomainError,
    Drive,
    Environment,
    MissingPropertyError,
    bridge_output,
    builtin_material,
    composite_section,
    default_scenario,
    build_scenario,
    ferro_torque,
    fit_power_law_offset,
    joule_offset,
    joule_temperature_rise,
    lorentz_force,
    override_material,
    piezo_fractional_resistance,
    power_law_offset,
    sensitivity,
)


def test_lorentz_force_example():
    assert lorentz_force(10e-3, 500e-6, 1e-3, math.pi / 2) == pytest.approx(
        5e-9, rel=1e-12, abs=0
    )
    assert lorentz_force(10e-3, 500e-6, 1e-3, 0.0) == 0.0


def test_ferro_torque_example():
    volume = 100e-6 * 50e-6 * 500e-9
    assert volume == pytest.approx(2.5e-15, rel=1e-12, abs=0)
    assert ferro_torque(4.8e5, volume, 0.4, math.pi / 2) == pytest.approx(
        4.8e-10, rel=1e-12, abs=0
    )
    assert ferro_torque(4.8e5, volume, 0.4, 0.0) == 0.0
    for plate_volume in (0.0, math.nan):
        with pytest.raises(ValueError):
            ferro_torque(4.8e5, plate_volume, 0.4, math.pi / 2)


def test_underflowing_plate_volume_is_a_named_domain_error():
    design = build_scenario({"sensor": {"kind": "ferro", "plate_length": 1.0e-320}}).sensor
    with pytest.raises(DomainError) as excinfo:
        design.plate_volume
    assert str(excinfo.value) == (
        "plate volume underflows to 0: sensor.plate_length 1e-320 m"
        " * sensor.plate_width 5e-05 m * sensor.plate_thickness 5e-07 m"
    )


def test_gauge_response_examples():
    assert piezo_fractional_resistance(8.23e4, 1e-9) == pytest.approx(
        8.23e-5, rel=1e-12
    )
    assert piezo_fractional_resistance(0.0, 1e-9) == 0.0
    assert bridge_output(8.23e-5, 2.0) == pytest.approx(41.2e-6, rel=2e-3)
    assert bridge_output(0.0, 2.0) == 0.0
    for bias in (0.0, math.nan):
        with pytest.raises(ValueError):
            bridge_output(8.23e-5, bias)


def test_lorentz_sensitivity_zero_drive():
    scenario = default_scenario("lorentz")
    quiet = Drive(waveform="dc", amplitude=0.0)
    assert sensitivity(scenario.sensor, quiet, scenario.environment) == 0.0


def test_default_sensitivities():
    lorentz = default_scenario("lorentz")
    s = sensitivity(lorentz.sensor, lorentz.drive, lorentz.environment)
    assert s == pytest.approx(0.0803403, rel=1e-5)
    ferro = default_scenario("ferro")
    assert sensitivity(ferro.sensor, ferro.drive, ferro.environment) == pytest.approx(
        0.0393558, rel=1e-5
    )


def test_sensitivity_needs_gauge_coefficient():
    gauge = default_scenario("lorentz").sensor.gauge
    nitride = builtin_material("silicon_nitride")
    with pytest.raises(MissingPropertyError, match="pi_longitudinal"):
        dataclasses.replace(gauge, material=nitride)
    with pytest.raises(dataclasses.FrozenInstanceError):
        gauge.material = nitride


def test_chain_identity():
    # The design's stages must equal the hand-chained stage products.
    from memsmag import max_anchor_stress

    scenario = default_scenario("lorentz")
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    chain_force = sensor.tip_force(drive, env, env.field_magnitude)
    chain_signal = sensor.bridge_voltage(sensor.anchor_stress(chain_force))
    beam = sensor.support_beam
    force = lorentz_force(
        drive.amplitude, sensor.top_beam_length, env.field_magnitude, env.field_angle
    )
    stress = max_anchor_stress(
        force, beam.length, beam.width, beam.total_thickness, sensor.load_share_count
    )
    signal = bridge_output(
        piezo_fractional_resistance(stress, sensor.gauge.material.pi_longitudinal),
        sensor.bridge_bias,
    )
    assert chain_signal == pytest.approx(signal, rel=1e-12)
    assert chain_force == pytest.approx(force, rel=1e-12, abs=0)


def test_chain_odd_in_field():
    scenario = default_scenario("lorentz")
    sensor, drive = scenario.sensor, scenario.drive

    def signal(field):
        env = Environment(field_magnitude=field)
        return sensor.bridge_voltage(sensor.anchor_stress(sensor.tip_force(drive, env, field)))

    assert signal(1e-3) == pytest.approx(-signal(-1e-3), rel=1e-12)
    assert signal(0.0) == 0.0


def test_joule_offset_examples():
    assert joule_offset(0.0) == 0.0
    assert joule_offset(10e-3) == pytest.approx(0.03e-3, rel=1e-12)
    assert joule_offset(50e-3) == pytest.approx(0.75e-3, rel=1e-12)
    assert joule_offset(-10e-3) == joule_offset(10e-3)
    for coefficient in (-1.0, math.nan):
        with pytest.raises(ValueError):
            joule_offset(10e-3, offset_coefficient=coefficient)


def test_power_law_offset_calibration():
    coefficient, exponent = fit_power_law_offset()
    # Both measured anchor points reproduced, unlike the square law which
    # misses the 50 mA point by 7.5x.
    assert power_law_offset(10e-3, coefficient, exponent) == pytest.approx(
        0.03e-3, rel=1e-9
    )
    assert power_law_offset(50e-3, coefficient, exponent) == pytest.approx(
        0.1e-3, rel=1e-9
    )
    assert exponent == pytest.approx(math.log(10 / 3) / math.log(5), rel=1e-12)
    assert power_law_offset(0.0, coefficient, exponent) == 0.0
    assert power_law_offset(-10e-3, coefficient, exponent) == power_law_offset(
        10e-3, coefficient, exponent
    )
    for current in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="current must be finite"):
            power_law_offset(current, coefficient, exponent)


def test_joule_temperature_rise():
    assert joule_temperature_rise(0.0, 100.0, 1e4) == 0.0
    # I^2 * R_loop * R_th: (10 mA)^2 * 100 Ohm * 1e4 K/W.
    assert joule_temperature_rise(10e-3, 100.0, 1e4) == pytest.approx(100.0, rel=1e-12)
    for args in ((-1e-3, 100.0, 1e4), (math.nan, 100.0, 1e4), (10e-3, math.nan, 1e4),
                 (10e-3, 100.0, math.nan)):
        with pytest.raises(ValueError):
            joule_temperature_rise(*args)


def test_joule_squares_name_the_drive_current():
    with pytest.raises(OverflowError, match=r"^Joule offset c I\^2 leaves the float range:"
                       r" drive current 1e\+300 A$"):
        joule_offset(1e300)
    with pytest.raises(OverflowError, match=r"^temperature rise I\^2 R_loop R_th leaves the"
                       r" float range: drive current 1e\+300 A$"):
        joule_temperature_rise(1e300, 100.0, 1e4)


def test_ferro_deflection_splits_torque():
    scenario = default_scenario("ferro")
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    beam = sensor.suspension
    stiffness = sensor.resonator(scenario.quality_factor).stiffness
    rigidity = composite_section(beam).flexural_rigidity
    deflections = []
    for field in (0.0, 0.2, 0.4):
        force = sensor.tip_force(drive, env, field)
        deflection = force / (sensor.load_share_count * stiffness)
        # Oracle: each suspension beam carries the end moment
        # M0 = torque/count, which deflects its tip by M0 l^2/(2EI) and
        # stresses its anchor like a tip force M0/l, 6 M0/(w t^2).
        torque = ferro_torque(
            sensor.magnetization, sensor.plate_volume, field, env.field_angle + sensor.misalignment
        )
        moment = torque / sensor.suspension_count
        assert deflection == pytest.approx(moment * beam.length**2 / (2.0 * rigidity), rel=1e-12)
        assert sensor.anchor_stress(force) == pytest.approx(
            6.0 * moment / (beam.width * beam.total_thickness**2), rel=1e-12
        )
        deflections.append(deflection)
    assert deflections[0] == 0.0
    assert deflections[2] > 10e-6
    assert deflections[1] == pytest.approx(deflections[2] / 2, rel=1e-12)


def test_ferro_misalignment_keeps_aligned_field_responsive():
    # At field_angle = 0 the deliberate mount misalignment still couples.
    scenario = default_scenario("ferro")
    env = Environment(field_magnitude=0.4, field_angle=0.0)
    assert sensitivity(scenario.sensor, scenario.drive, env) > 0
    assert scenario.sensor.misalignment == pytest.approx(math.radians(5.0))


def test_override_changes_gauge_response():
    scenario = default_scenario("lorentz")
    sensor = scenario.sensor
    base = sensitivity(sensor, scenario.drive, scenario.environment)
    material = override_material(sensor.gauge.material, pi_longitudinal=2.04e-9)
    sensor.gauge = dataclasses.replace(sensor.gauge, material=material)
    doubled = sensitivity(sensor, scenario.drive, scenario.environment)
    assert doubled == pytest.approx(2 * base, rel=1e-9)
