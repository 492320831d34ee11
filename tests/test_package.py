import importlib
import inspect
import subprocess
import sys

import pytest

import memsmag

# Every name the package exports, sorted.
EXPORTED = [
    "BOLTZMANN", "BUILTIN_NAMES", "BeamGeometry", "BeamSolution", "CompositeSection",
    "DEFAULT_ANNEAL_TABLE", "DEFAULT_CONSTRAINTS", "DomainError", "Drive", "Environment",
    "FerroDesign", "FrequencyResponsePoint", "GaugeSpec", "HIGH_CURRENT_WARNING",
    "InfeasibleError", "LayerSpec", "LiftProfile", "LorentzDesign", "LumpedResonator",
    "Material", "MemsmagError", "MissingPropertyError", "NoPeakError", "NoiseBudget",
    "NotFoundError", "OptimizeResult", "ParseError", "Scenario", "SensorDesign",
    "SimulationReport", "SingularSystemError", "SteadyState", "StepTooLargeError",
    "SweepResult", "TimeSeries", "UnknownPathError", "UnsettledError",
    "UnsupportedStackError", "ValidationError", "anneal_stress", "bimorph_lift",
    "bridge_output", "build_scenario", "builtin_material", "carrier_count",
    "composite_section", "convergence_order", "curl_tip_height", "default_scenario",
    "default_tree", "emit_report", "ferro_torque", "find_resonance",
    "fit_power_law_offset", "frequency_response", "joule_offset", "joule_temperature_rise",
    "load_scenario", "lorentz_force", "lumped_resonator", "max_anchor_stress",
    "min_detectable_field", "optimize", "oracle_check", "override_material",
    "piezo_fractional_resistance", "power_law_offset", "rms_noise", "run_scenario",
    "simulate_transient", "solve_static", "stack_curvature", "steady_state_amplitude",
    "sweep", "thermal_electrical_psd", "thermal_mechanical_psd", "tip_deflection",
]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 77
    assert sorted(memsmag.__all__) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(f"memsmag.{memsmag._EXPORTS[name]}")
    value = getattr(memsmag, name)
    assert value is getattr(module, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == module.__name__
    # The first lookup keeps the value in the package, so later ones are
    # plain attribute reads.
    assert vars(memsmag)[name] is value


def test_dir_and_star_import_hold_every_export():
    assert set(EXPORTED) <= set(dir(memsmag))
    namespace = {}
    exec("from memsmag import *", namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(memsmag, name)


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        memsmag.no_such_name
    assert not hasattr(memsmag, "_linspace")


def test_submodule_names_resolve_to_the_submodules():
    assert memsmag.explorer is importlib.import_module("memsmag.explorer")
    assert memsmag.cli.main is importlib.import_module("memsmag.cli").main


def test_module_entry_point_prints_help():
    proc = subprocess.run(
        [sys.executable, "-m", "memsmag", "--help"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: memsmag")
