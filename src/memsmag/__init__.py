"""Simulation and design-exploration toolkit for out-of-plane
CMOS-compatible MEMS magnetometers: Lorentz-force and ferromagnetic-torque
cantilever sensors with piezoresistive readout.
"""

from .errors import (
    DomainError,
    InfeasibleError,
    InvalidCalibrationError,
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
    CAPABILITY_FIELDS,
    LayerSpec,
    Material,
    builtin_material,
    override_material,
    validate_for,
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
    lumped_resonator,
    max_anchor_stress,
    tip_deflection,
)
from .transduction import (
    ChainResponse,
    Drive,
    Environment,
    FerroDesign,
    FerroResponse,
    GaugeSpec,
    JouleHeating,
    LorentzDesign,
    SensorDesign,
    bridge_output,
    end_to_end_response,
    ferro_deflection,
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
