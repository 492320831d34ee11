"""NaN in every float argument of every exported function.

Each exported function that takes a float has valid base calls below. The
probe puts NaN in each float argument of a base call in turn, and the call
must fail as a point fails (ValueError, ArithmeticError or MemsmagError),
unless the argument is in ALLOWED, which says why it may carry NaN. A new
exported function that takes a float fails the probe until it has a base
call here.
"""

import inspect
import math
import typing

import pytest

import memsmag
from memsmag import MemsmagError

# (function, argument) -> why a NaN there may pass through to the result.
ALLOWED = {
    ("anneal_stress", "anneal_temperature"): "np.interp's value bit for bit, NaN included",
    ("bridge_output", "fractional_resistance"): "V_bias dR/R / 4, a product",
    ("ferro_torque", "magnetization"): "M V B sin(angle), a product",
    ("ferro_torque", "field"): "M V B sin(angle), a product",
    ("ferro_torque", "angle"): "M V B sin(angle), a product",
    ("joule_offset", "current"): "c I^2, a product",
    ("lorentz_force", "current"): "I L B sin(angle), a product",
    ("lorentz_force", "top_beam_length"): "I L B sin(angle), a product",
    ("lorentz_force", "field"): "I L B sin(angle), a product",
    ("lorentz_force", "angle"): "I L B sin(angle), a product",
    ("max_anchor_stress", "tip_force"): "the numerator of 6 l F / (w t^2 n)",
    ("max_anchor_stress", "length"): "the numerator of 6 l F / (w t^2 n)",
    ("piezo_fractional_resistance", "stress"): "pi_l stress, a product",
    ("piezo_fractional_resistance", "pi_longitudinal"): "pi_l stress, a product",
    ("power_law_offset", "coefficient"): "a |I|^p of a finite current",
    ("power_law_offset", "exponent"): "a |I|^p of a finite current",
    # The report's NaN carry: a NaN band RMS reaches its finite check, which
    # names the figure that is not finite.
    ("rms_noise", "white_psd"): "the band RMS carries NaN to the report's finite check",
    ("rms_noise", "flicker_scale"): "the band RMS carries NaN to the report's finite check",
    ("sweep", "start"): "each point that is not finite fails in its own row",
    ("sweep", "stop"): "each point that is not finite fails in its own row",
    ("tip_deflection", "tip_force"): "the numerator of F l^3 / (3 EI)",
}


def _float_arguments(function) -> list:
    """The parameters of `function` annotated float or an optional float."""
    names = []
    for parameter in inspect.signature(function, eval_str=True).parameters.values():
        kind = parameter.annotation
        if kind is float or float in typing.get_args(kind):
            names.append(parameter.name)
    return names


FUNCTIONS = {
    name: getattr(memsmag, name)
    for name in memsmag.__all__
    if inspect.isfunction(getattr(memsmag, name)) and _float_arguments(getattr(memsmag, name))
}
PROBES = [(name, argument) for name, function in FUNCTIONS.items()
          for argument in _float_arguments(function)]


def _base_calls() -> dict:
    """Valid keyword arguments for each function, as a list of calls."""
    scenario = memsmag.default_scenario("lorentz")
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    beam = sensor.beam
    resonator = sensor.resonator(scenario.quality_factor)
    bilayer = memsmag.BeamGeometry(length=beam.length, width=beam.width, layers=beam.layers[1:])
    return {
        "anneal_stress": [dict(anneal_temperature=400.0)],
        "bimorph_lift": [dict(geom=bilayer, stress_difference=150e6)],
        "bridge_output": [dict(fractional_resistance=1e-3, bias=5.0)],
        "convergence_order": [dict(geom=beam, grids=[100, 200, 400], tip_force=1e-9)],
        "curl_tip_height": [dict(curvature=100.0, length=beam.length)],
        "ferro_torque": [dict(magnetization=1e5, plate_volume=1e-12, field=0.4, angle=1.0)],
        "find_resonance": [dict(resonator=resonator, f_min=1e3, f_max=1e4)],
        "frequency_response": [dict(resonator=resonator, frequency=5e3)],
        "joule_offset": [dict(current=1e-2, offset_coefficient=0.3)],
        "joule_temperature_rise": [
            dict(current=1e-2, loop_resistance=100.0, thermal_resistance=1e3)],
        "lorentz_force": [dict(current=1e-2, top_beam_length=5e-4, field=1e-3, angle=1.0)],
        "lumped_resonator": [dict(geom=beam, quality_factor=30.0, tip_mass=1e-12)],
        "max_anchor_stress": [
            dict(tip_force=1e-6, length=3e-4, width=1e-5, thickness=2e-6, load_share_count=3)],
        "min_detectable_field": [dict(sensitivity=0.08, rms=1e-6, snr_target=1.0)],
        "piezo_fractional_resistance": [dict(stress=1e6, pi_longitudinal=1e-9)],
        "power_law_offset": [dict(current=1e-2, coefficient=1e-3, exponent=0.75)],
        "rms_noise": [dict(white_psd=1e-16, flicker_scale=1e-12, band=(1.0, 1e4))],
        "simulate_transient": [dict(resonator=resonator, design=sensor, drive=drive, env=env,
                                    duration=20.0 / drive.frequency, dt=1e-6, x0=0.0, v0=0.0)],
        "solve_static": [dict(geom=beam, grid_size=100, tip_force=1e-9),
                         dict(geom=beam, grid_size=100, tip_moment=1e-12)],
        "sweep": [dict(scenario=scenario, parameter_path="drive.amplitude",
                       start=1e-3, stop=1e-2, steps=3)],
        "thermal_electrical_psd": [dict(resistance=1e3, temperature=300.0)],
        "thermal_mechanical_psd": [dict(damping=1e-6, temperature=300.0)],
        "tip_deflection": [
            dict(section=memsmag.composite_section(beam), length=beam.length, tip_force=1e-9)],
    }


def test_every_function_taking_a_float_has_a_base_call():
    assert sorted(_base_calls()) == sorted(FUNCTIONS)
    assert set(ALLOWED) <= set(PROBES)


@pytest.mark.parametrize("name, argument", PROBES, ids=[f"{n}-{a}" for n, a in PROBES])
def test_nan_argument_fails_or_is_allowed(name, argument):
    function = FUNCTIONS[name]
    calls = [call for call in _base_calls()[name] if call.get(argument) is not None]
    assert calls, f"no base call of {name} sets {argument}"
    for call in calls:
        function(**call)  # the base call is valid
        probe = {**call, argument: math.nan}
        if (name, argument) in ALLOWED:
            result = function(**probe)
            if isinstance(result, float):
                assert math.isnan(result), (name, argument, result)
        else:
            with pytest.raises((ValueError, ArithmeticError, MemsmagError)):
                function(**probe)
