"""Static beam mechanics for multilayer cantilevers.

Composite-stack section properties, tip deflection and anchor stress for a
tip-loaded clamped beam, the lumped second-order resonator reduction, the
anneal stress calibration table, and the two-layer mismatch-curvature model
that drives the post-release lift-up.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidCalibrationError, UnsupportedStackError
from .materials import LayerSpec

# Rayleigh effective-mass fraction for a tip-loaded uniform cantilever.
EFFECTIVE_MASS_FRACTION = 33.0 / 140.0

# Below this length/thickness ratio the slender-beam assumptions get shaky.
SLENDERNESS_WARN_LIMIT = 10.0

# Post-anneal tensile stress in the aluminum film vs anneal temperature.
# (673.15 K, 150 MPa) is the measured 30 s RTA anchor point; the 423.15 K
# entry is a synthetic as-deposited point at the evaporation temperature.
# No scenario key sets it; pass anneal_stress's `calibration` to change it.
DEFAULT_ANNEAL_TABLE = ((423.15, 30e6), (673.15, 150e6))  # (K, Pa)


@dataclass
class BeamGeometry:
    """Rectangular multilayer cantilever, layers listed bottom to top."""

    length: float = field(metadata={"gt": 0})  # m
    width: float = field(metadata={"gt": 0})  # m
    layers: list[LayerSpec]

    def __post_init__(self):
        if self.length <= 0:
            raise ValueError("beam length must be > 0")
        if self.width <= 0:
            raise ValueError("beam width must be > 0")
        if not self.layers:
            raise ValueError("beam needs at least one layer")

    @property
    def total_thickness(self) -> float:
        return sum(layer.thickness for layer in self.layers)


@dataclass
class CompositeSection:
    flexural_rigidity: float  # N*m^2, effective EI about the neutral axis
    neutral_axis_height: float  # m, from the bottom surface
    axial_stiffness: float  # N, effective EA
    mass_per_length: float  # kg/m


@dataclass
class LumpedResonator:
    stiffness: float  # N/m, tip stiffness
    effective_mass: float  # kg
    natural_frequency: float  # Hz
    quality_factor: float
    damping: float  # N*s/m


@dataclass
class LiftProfile:
    curvature: float  # 1/m, positive curls toward the top layer
    tip_angle: float  # rad
    tip_height: float  # m
    driving_stress: float  # Pa


def composite_section(geom: BeamGeometry) -> CompositeSection:
    """Transformed-section properties of the layer stack.

    EI is taken about the modulus-weighted neutral axis, so it reduces to the
    single-layer textbook value when every layer shares one material.
    """
    w = geom.width
    ea = 0.0  # sum E_i A_i
    ea_z = 0.0  # sum E_i A_i z_i (first moment, modulus weighted)
    z = 0.0  # running height of the layer bottom
    for layer in geom.layers:
        e = layer.material.youngs_modulus
        area = w * layer.thickness
        mid = z + layer.thickness / 2
        ea += e * area
        ea_z += e * area * mid
        z += layer.thickness
    if ea == 0.0:  # the neutral axis divides by it
        raise DomainError(
            f"axial stiffness sum E w t underflows to 0 at beam width {w!r} m and layer"
            f" thicknesses {', '.join(repr(layer.thickness) for layer in geom.layers)} m"
        )
    neutral = ea_z / ea

    ei = 0.0
    mass = 0.0
    z = 0.0
    for layer in geom.layers:
        e = layer.material.youngs_modulus
        t = layer.thickness
        area = w * t
        mid = z + t / 2
        try:
            ei += e * (w * t**3 / 12.0 + area * (mid - neutral) ** 2)
        except OverflowError:
            index, thick = max(enumerate(geom.layers), key=lambda item: item[1].thickness)
            raise OverflowError(
                f"flexural rigidity EI leaves the float range: layer {index}"
                f" ({thick.material.name}) thickness {thick.thickness!r} m"
            ) from None
        mass += layer.material.density * area
        z += t
    return CompositeSection(
        flexural_rigidity=ei,
        neutral_axis_height=neutral,
        axial_stiffness=ea,
        mass_per_length=mass,
    )


def tip_deflection(section: CompositeSection, length: float, tip_force: float) -> float:
    """Tip deflection F*l^3 / (3 EI) of a clamped beam under a tip force."""
    try:
        cube = length**3
    except OverflowError:
        raise DomainError(
            f"tip deflection F l^3 / (3 EI) leaves the float range: beam length {length!r} m"
        ) from None
    return tip_force * cube / (3.0 * section.flexural_rigidity)


def max_anchor_stress(
    tip_force: float,
    length: float,
    width: float,
    thickness: float,
    load_share_count: int,
) -> float:
    """Peak bending stress at the anchor, 6*l*F / (w*t^2*n).

    The tip load is shared by `load_share_count` anchored beams.
    """
    if load_share_count < 1:
        raise ValueError("load_share_count must be >= 1")
    try:
        square = thickness**2
    except OverflowError:
        raise OverflowError(
            f"anchor stress 6 l F / (w t^2 n) leaves the float range: beam thickness"
            f" {thickness!r} m"
        ) from None
    denominator = width * square * load_share_count
    if denominator == 0.0:
        raise DomainError(
            f"anchor stress 6 l F / (w t^2 n) divides by 0: w t^2 n underflows at beam width"
            f" {width!r} m and thickness {thickness!r} m"
        )
    return 6.0 * length * tip_force / denominator


def lumped_resonator(
    geom: BeamGeometry, quality_factor: float, tip_mass: float = 0.0
) -> LumpedResonator:
    """Reduce one beam to a tip-loaded spring/mass/damper.

    k = 3EI/l^3, m_eff = (33/140)*m'*l plus any rigid tip mass (a plate
    carried at the free end), D = sqrt(k*m_eff)/Q.
    """
    if quality_factor <= 0.5:
        raise ValueError("quality_factor must be > 0.5")
    if tip_mass < 0:
        raise ValueError("tip_mass must be >= 0")
    section = composite_section(geom)
    try:
        k = 3.0 * section.flexural_rigidity / geom.length**3
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"tip stiffness 3 EI / l^3 leaves the float range: beam length {geom.length!r} m"
        ) from None
    m_eff = EFFECTIVE_MASS_FRACTION * section.mass_per_length * geom.length + tip_mass
    f0 = math.sqrt(k / m_eff) / (2.0 * math.pi)
    damping = math.sqrt(k * m_eff) / quality_factor
    return LumpedResonator(
        stiffness=k,
        effective_mass=m_eff,
        natural_frequency=f0,
        quality_factor=quality_factor,
        damping=damping,
    )


def anneal_stress(anneal_temperature: float, calibration=DEFAULT_ANNEAL_TABLE) -> float:
    """Post-anneal film stress by piecewise-linear interpolation.

    `calibration` is a table of (temperature K, stress Pa) points with
    strictly increasing temperatures; queries beyond the table ends clamp to
    the end values.
    """
    table = list(calibration)
    if len(table) < 2:
        raise InvalidCalibrationError("calibration table needs at least 2 points")
    temps = np.array([p[0] for p in table], dtype=float)
    stresses = np.array([p[1] for p in table], dtype=float)
    if not np.all(np.diff(temps) > 0):
        raise InvalidCalibrationError("calibration temperatures must strictly increase")
    return float(np.interp(anneal_temperature, temps, stresses))


def bimorph_lift(geom: BeamGeometry, stress_difference: float) -> LiftProfile:
    """Curl of a two-layer beam from a stress mismatch in the top layer.

    The mismatch strain is stress_difference / E_top; the curvature is the
    classical two-layer mismatch-strain result, positive when the tensile
    top layer curls the beam upward. Requires exactly two layers of distinct
    materials.
    """
    if len(geom.layers) != 2:
        raise UnsupportedStackError(
            f"bimorph_lift needs exactly 2 layers, got {len(geom.layers)}"
        )
    bottom, top = geom.layers
    if bottom.material.name == top.material.name:
        raise UnsupportedStackError("bimorph_lift needs two distinct materials")

    e1, t1 = bottom.material.youngs_modulus, bottom.thickness
    e2, t2 = top.material.youngs_modulus, top.thickness
    eps = stress_difference / e2
    denom = (
        e1**2 * t1**4
        + 4.0 * e1 * e2 * t1**3 * t2
        + 6.0 * e1 * e2 * t1**2 * t2**2
        + 4.0 * e1 * e2 * t1 * t2**3
        + e2**2 * t2**4
    )
    curvature = 6.0 * eps * e1 * e2 * t1 * t2 * (t1 + t2) / denom

    tip_angle = curvature * geom.length
    if curvature != 0.0:
        tip_height = (1.0 - math.cos(tip_angle)) / curvature
    else:
        tip_height = 0.0
    return LiftProfile(
        curvature=curvature,
        tip_angle=tip_angle,
        tip_height=tip_height,
        driving_stress=stress_difference,
    )
