"""Field-to-voltage conversion chains for both sensor families.

Lorentz route: drive current through the released loop, force on the top
beam, bending stress at the support-beam anchors, piezoresistive gauge,
Wheatstone bridge. Ferromagnetic route: torque on a magnetized plate carried
by its suspension beams, same gauge/bridge back end. Each design states its
front end once (see SensorDesign); the chain below it is shared. Also the
drive-current self-heating effects: the quadratic bridge offset and the loop
temperature rise.
"""

import math
from dataclasses import dataclass, field

from .errors import DomainError, MissingPropertyError
from .mechanics import (
    BeamGeometry,
    LumpedResonator,
    lumped_resonator,
    max_anchor_stress,
)

# Quadratic offset coefficient reproducing the measured 0.03 mV at 10 mA.
DEFAULT_OFFSET_COEFFICIENT = 0.3  # V/A^2

# Measured (current A, offset V) pairs for the power-law calibration mode.
OFFSET_CALIBRATION_POINTS = ((10e-3, 0.03e-3), (50e-3, 0.1e-3))

# An end moment M0 deflects a cantilever tip as far as a tip force
# 1.5*M0/l does: M0*l^2/(2EI) = F*l^3/(3EI).
END_MOMENT_TIP_FORCE = 1.5  # tip force per unit M0/l


@dataclass(frozen=True)
class GaugeSpec:
    """Piezoresistive gauge at the anchor, one active arm of the bridge.

    Its film must set FILM_FIELDS: pi_l for the bridge, Hooge's alpha and
    the carrier density for the flicker noise.
    """

    FILM_FIELDS = ("pi_longitudinal", "hooge_alpha", "carrier_density")

    length: float = field(metadata={"gt": 0})  # m
    width: float = field(metadata={"gt": 0})  # m
    thickness: float = field(metadata={"gt": 0})  # m
    resistance: float = field(metadata={"gt": 0})  # Ohm
    material: object  # Material supplying pi_l, flicker alpha, carrier density

    def __post_init__(self):
        self.check_film(self.material)

    @staticmethod
    def check_film(material) -> None:
        """Raise MissingPropertyError naming each FILM_FIELDS entry `material` lacks."""
        missing = [name for name in GaugeSpec.FILM_FIELDS if getattr(material, name) is None]
        if missing:
            raise MissingPropertyError(material.name, missing)


@dataclass
class Drive:
    """Excitation current through the loop: dc, or a square wave at `frequency`."""

    waveform: str = "dc"  # "dc" | "square"
    amplitude: float = 0.0  # A, half-loop current
    frequency: float = field(default=0.0, metadata={"ge": 0, "optional": True})  # Hz, unused for dc


@dataclass
class Environment:
    """Ambient field, temperature and the SNR the detection limit is taken at."""

    field_magnitude: float = field(default=0.0, metadata={"ge": 0})  # T
    field_angle: float = math.pi / 2  # rad, between field and top-beam current
    temperature: float = field(default=300.0, metadata={"gt": 0})  # K
    snr_target: float = field(default=1.0, metadata={"gt": 0})


class SensorDesign:
    """A sensor kind's front end, as the shared chain sees it.

    Each kind states its scenario `kind` name, the field that holds its
    beam (`beam_field`) and the bound on its drive amplitude
    (`amplitude_bound`). It supplies the number of beams that share the
    load (`load_share_count`), the rigid `tip_mass` on each beam, the
    equivalent tip force its field load puts on those beams (`tip_force`),
    and the anchor moment that tip force stands for (`anchor_moment_ratio`).
    The resonator, anchor stress and bridge voltage follow from these the
    same way for every kind. A kind's scenario fields are its record's
    fields; their declaration order is the order their violations are
    reported in.
    """

    # Anchor moment per unit tip force, as a fraction of the beam length.
    anchor_moment_ratio = 1.0
    # The sensor fields tip_force adds to environment.field_angle.
    _angle_fields = ()

    @property
    def beam(self) -> BeamGeometry:
        return getattr(self, self.beam_field)

    def resonator(self, quality_factor: float) -> LumpedResonator:
        """One beam reduced to a spring/mass/damper, tip mass included."""
        return lumped_resonator(self.beam, quality_factor, tip_mass=self.tip_mass)

    def anchor_stress(self, tip_force: float) -> float:
        """Anchor bending stress when load_share_count beams carry tip_force."""
        beam = self.beam
        return max_anchor_stress(
            tip_force * self.anchor_moment_ratio,
            beam.length,
            beam.width,
            beam.total_thickness,
            self.load_share_count,
        )

    def bridge_voltage(self, stress: float) -> float:
        """Bridge output for an anchor stress, through the design's gauge."""
        return bridge_output(
            piezo_fractional_resistance(stress, self.gauge.material.pi_longitudinal),
            self.bridge_bias,
        )


@dataclass
class LorentzDesign(SensorDesign):
    """Current loop on released beams, force picked up by a gauge bridge.

    The field load is the Lorentz force on the top beam, a tip force shared
    by load_share_count anchored beams.
    """

    bridge_bias: float = field(metadata={"gt": 0})  # V
    gauge: GaugeSpec
    top_beam_length: float = field(metadata={"gt": 0})  # m, current-carrying, normal to the legs
    loop_resistance: float = field(metadata={"gt": 0})  # Ohm
    load_share_count: int = field(metadata={"ge": 1, "integer": True})  # legs plus gauge beam
    support_beam: BeamGeometry

    kind = "lorentz"
    beam_field = "support_beam"
    amplitude_bound = {"gt": 0}  # A, the loop needs current to feel a field
    tip_mass = 0.0  # kg, the loop's top beam is not modeled as a rigid mass

    def tip_force(self, drive: Drive, env: Environment, field: float) -> float:
        """Force on the top beam at `field` tesla."""
        return lorentz_force(
            drive.amplitude, self.top_beam_length, field, env.field_angle
        )


@dataclass
class FerroDesign(SensorDesign):
    """Magnetized plate on suspension beams, torque read out by the bridge.

    The field load is the plate torque, an end moment torque/suspension_count
    on each suspension beam. It enters the lumped model as the tip force of
    equal tip deflection, END_MOMENT_TIP_FORCE * moment / length.
    """

    bridge_bias: float = field(metadata={"gt": 0})  # V
    gauge: GaugeSpec
    plate_length: float = field(metadata={"gt": 0})  # m
    plate_width: float = field(metadata={"gt": 0})  # m
    plate_thickness: float = field(metadata={"gt": 0})  # m
    plate_density: float = field(metadata={"gt": 0})  # kg/m^3
    magnetization: float = field(metadata={"gt": 0})  # A/m
    suspension_count: int = field(metadata={"ge": 1, "integer": True})
    misalignment: float  # rad, post-release tilt added to the field angle
    suspension: BeamGeometry

    kind = "ferro"
    beam_field = "suspension"
    amplitude_bound = {"ge": 0}  # A, the plate feels a field undriven
    anchor_moment_ratio = 1.0 / END_MOMENT_TIP_FORCE
    _angle_fields = ("misalignment",)
    loop_resistance = 0.0  # Ohm, no drive loop, so no resistive self-heating

    @property
    def plate_volume(self) -> float:
        volume = self.plate_length * self.plate_width * self.plate_thickness
        if volume == 0.0:
            raise DomainError(
                f"plate volume underflows to 0: sensor.plate_length {self.plate_length!r} m"
                f" * sensor.plate_width {self.plate_width!r} m"
                f" * sensor.plate_thickness {self.plate_thickness!r} m"
            )
        return volume

    @property
    def plate_mass(self) -> float:
        return self.plate_volume * self.plate_density

    @property
    def load_share_count(self) -> int:
        return self.suspension_count

    @property
    def tip_mass(self) -> float:
        """The plate mass, carried equally at the suspension tips."""
        return self.plate_mass / self.suspension_count

    def tip_force(self, drive: Drive, env: Environment, field: float) -> float:
        """Tip force matching the deflection of the plate torque at `field`."""
        torque = ferro_torque(
            self.magnetization,
            self.plate_volume,
            field,
            env.field_angle + self.misalignment,
        )
        return END_MOMENT_TIP_FORCE * torque / self.suspension.length


def lorentz_force(current: float, top_beam_length: float, field: float, angle: float) -> float:
    """Force I*L*B*sin(angle) on the top beam; odd in the field."""
    return current * top_beam_length * field * math.sin(angle)


def ferro_torque(magnetization: float, plate_volume: float, field: float, angle: float) -> float:
    """Torque magnitude (M*V)*B*sin(angle) on the magnetized plate."""
    if not plate_volume > 0:
        raise ValueError("plate_volume must be > 0")
    return magnetization * plate_volume * field * math.sin(angle)


def piezo_fractional_resistance(stress: float, pi_longitudinal: float) -> float:
    """Axial-stress gauge response ΔR/R = pi_l * stress."""
    return pi_longitudinal * stress


def bridge_output(fractional_resistance: float, bias: float) -> float:
    """Single-active-arm Wheatstone output V_bias * (ΔR/R) / 4."""
    if not bias > 0:
        raise ValueError("bridge bias must be > 0")
    return bias * fractional_resistance / 4.0


def _zero_sensitivity(design, env, force_per_tesla: float, stress_per_newton: float) -> str:
    """The error for a zero sensitivity: its four factors with their
    values, named by the scenario fields they come from."""
    angle = "".join(f" + sensor.{n} {getattr(design, n)!r} rad" for n in design._angle_fields)
    film = design.gauge.material
    return (
        "sensitivity must be nonzero to resolve a field; its factors are tip force per tesla"
        f" {force_per_tesla!r} N/T at environment.field_angle {env.field_angle!r} rad{angle},"
        f" anchor stress per newton {stress_per_newton!r} Pa/N, gauge film {film.name}"
        f" pi_longitudinal {film.pi_longitudinal!r} 1/Pa, sensor.bridge_bias"
        f" {design.bridge_bias!r} V"
    )


def _current_squared(current: float, figure: str) -> float:
    try:
        return current**2
    except OverflowError:
        raise OverflowError(
            f"{figure} leaves the float range: drive current {current!r} A"
        ) from None


def joule_offset(current: float, offset_coefficient: float = DEFAULT_OFFSET_COEFFICIENT) -> float:
    """Field-independent bridge offset c*I^2 from drive self-heating."""
    if not offset_coefficient >= 0:
        raise ValueError("offset_coefficient must be >= 0")
    return offset_coefficient * _current_squared(current, "Joule offset c I^2")


def fit_power_law_offset() -> tuple[float, float]:
    """Two-point fit of offset = a*I^p, the alternate calibration mode.

    The offsets measured at OFFSET_CALIBRATION_POINTS do not sit on one
    quadratic, so this mode trades the stated square law for exact
    agreement with both points. Returns (coefficient a in V/A^p, exponent p).
    """
    (i1, v1), (i2, v2) = OFFSET_CALIBRATION_POINTS
    exponent = math.log(v2 / v1) / math.log(i2 / i1)
    coefficient = v1 / i1**exponent
    return coefficient, exponent


def power_law_offset(current: float, coefficient: float, exponent: float) -> float:
    """Offset a*|I|^p; even in the current like the quadratic mode."""
    if not math.isfinite(current):
        raise ValueError("current must be finite")
    if current == 0.0:
        return 0.0
    return coefficient * abs(current) ** exponent


def joule_temperature_rise(
    current: float, loop_resistance: float, thermal_resistance: float
) -> float:
    """Loop temperature rise I^2*R_loop*R_th in kelvin."""
    if not (current >= 0 and loop_resistance >= 0 and thermal_resistance >= 0):
        raise ValueError("current, loop_resistance, thermal_resistance must be >= 0")
    square = _current_squared(current, "temperature rise I^2 R_loop R_th")
    return square * loop_resistance * thermal_resistance
