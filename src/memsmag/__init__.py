"""Simulation and design-exploration toolkit for out-of-plane
CMOS-compatible MEMS magnetometers: Lorentz-force and ferromagnetic-torque
cantilever sensors with piezoresistive readout.
"""

from .errors import (
    DomainError,
    InfeasibleError,
    MemsmagError,
    MissingPropertyError,
    NoPeakError,
    NotFoundError,
    ParseError,
    SingularSystemError,
    StepTooLargeError,
    UnknownPathError,
    UnsettledError,
    UnsupportedStackError,
    ValidationError,
)
from .materials import (
    BUILTIN_NAMES,
    LayerSpec,
    Material,
    builtin_material,
    override_material,
)
from .mechanics import (
    DEFAULT_ANNEAL_TABLE,
    BeamGeometry,
    CompositeSection,
    LiftProfile,
    LumpedResonator,
    anneal_stress,
    bimorph_lift,
    composite_section,
    curl_tip_height,
    lumped_resonator,
    max_anchor_stress,
    stack_curvature,
    tip_deflection,
)
from .transduction import (
    Drive,
    Environment,
    FerroDesign,
    GaugeSpec,
    LorentzDesign,
    SensorDesign,
    bridge_output,
    ferro_torque,
    fit_power_law_offset,
    joule_offset,
    joule_temperature_rise,
    lorentz_force,
    piezo_fractional_resistance,
    power_law_offset,
    sensitivity,
)
from .noise import (
    BOLTZMANN,
    NoiseBudget,
    carrier_count,
    min_detectable_field,
    noise_budget,
    rms_noise,
    thermal_electrical_psd,
    thermal_mechanical_psd,
)
from .dynamics import (
    FrequencyResponsePoint,
    SteadyState,
    TimeSeries,
    find_resonance,
    frequency_response,
    simulate_transient,
    steady_state_amplitude,
)
from .beam_oracle import BeamSolution, convergence_order, solve_static
from .scenario import (
    Scenario,
    build_scenario,
    default_scenario,
    default_tree,
    load_scenario,
    validate_tree,
)
from .explorer import (
    DEFAULT_CONSTRAINTS,
    HIGH_CURRENT_WARNING,
    OptimizeResult,
    SimulationReport,
    SweepResult,
    emit_report,
    optimize,
    oracle_check,
    run_scenario,
    sweep,
)

__version__ = "0.1.0"
