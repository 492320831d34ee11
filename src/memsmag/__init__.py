"""Simulation and design-exploration toolkit for out-of-plane
CMOS-compatible MEMS magnetometers: Lorentz-force and ferromagnetic-torque
cantilever sensors with piezoresistive readout.

`_EXPORTS` below is the one list of the package's exports: each name maps
to the submodule that defines it. `import memsmag` loads none of those
submodules; the first lookup of a name imports its submodule (and what
that imports) and keeps the value here, so later lookups are plain
attribute reads. A submodule's own name resolves to the submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        (
            "DomainError",
            "InfeasibleError",
            "MemsmagError",
            "MissingPropertyError",
            "NoPeakError",
            "NotFoundError",
            "ParseError",
            "SingularSystemError",
            "StepTooLargeError",
            "UnknownPathError",
            "UnsettledError",
            "UnsupportedStackError",
            "ValidationError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        ("BUILTIN_NAMES", "LayerSpec", "Material", "builtin_material", "override_material"),
        "materials",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_ANNEAL_TABLE",
            "BeamGeometry",
            "CompositeSection",
            "LiftProfile",
            "LumpedResonator",
            "anneal_stress",
            "bimorph_lift",
            "composite_section",
            "curl_tip_height",
            "lumped_resonator",
            "max_anchor_stress",
            "stack_curvature",
            "tip_deflection",
        ),
        "mechanics",
    ),
    **dict.fromkeys(
        (
            "Drive",
            "Environment",
            "FerroDesign",
            "GaugeSpec",
            "LorentzDesign",
            "SensorDesign",
            "bridge_output",
            "ferro_torque",
            "fit_power_law_offset",
            "joule_offset",
            "joule_temperature_rise",
            "lorentz_force",
            "piezo_fractional_resistance",
            "power_law_offset",
            "sensitivity",
        ),
        "transduction",
    ),
    **dict.fromkeys(
        (
            "BOLTZMANN",
            "NoiseBudget",
            "carrier_count",
            "min_detectable_field",
            "noise_budget",
            "rms_noise",
            "thermal_electrical_psd",
            "thermal_mechanical_psd",
        ),
        "noise",
    ),
    **dict.fromkeys(
        (
            "FrequencyResponsePoint",
            "SteadyState",
            "TimeSeries",
            "find_resonance",
            "frequency_response",
            "simulate_transient",
            "steady_state_amplitude",
        ),
        "dynamics",
    ),
    **dict.fromkeys(
        ("BeamSolution", "convergence_order", "oracle_check", "solve_static"), "beam_oracle"
    ),
    **dict.fromkeys(
        (
            "Scenario",
            "build_scenario",
            "default_scenario",
            "default_tree",
            "load_scenario",
            "validate_tree",
        ),
        "scenario",
    ),
    "DEFAULT_CONSTRAINTS": "grids",
    **dict.fromkeys(
        (
            "HIGH_CURRENT_WARNING",
            "OptimizeResult",
            "SimulationReport",
            "SweepResult",
            "emit_report",
            "optimize",
            "run_scenario",
            "sweep",
        ),
        "explorer",
    ),
}

__all__ = sorted(_EXPORTS)

_SUBMODULES = {*_EXPORTS.values(), "cli"}


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # Importing a submodule binds it here as well.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _EXPORTS.keys())
