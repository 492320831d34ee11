"""Static beam mechanics for multilayer cantilevers.

Composite-stack section properties, tip deflection and anchor stress for a
tip-loaded clamped beam, the lumped second-order resonator reduction, the
anneal stress calibration table, and the force-moment curvature of a stack
of residually stressed layers, which drives the post-release lift-up.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from .errors import DomainError, UnsupportedStackError
from .materials import LayerSpec

# Rayleigh effective-mass fraction for a tip-loaded uniform cantilever.
EFFECTIVE_MASS_FRACTION = 33.0 / 140.0

# Below this length/thickness ratio the slender-beam assumptions get shaky.
SLENDERNESS_WARN_LIMIT = 10.0

# Post-anneal tensile stress in the aluminum film vs anneal temperature.
# (673.15 K, 150 MPa) is the measured 30 s RTA anchor point; the 423.15 K
# entry is a synthetic as-deposited point at the evaporation temperature.
# No scenario key sets it.
DEFAULT_ANNEAL_TABLE = ((423.15, 30e6), (673.15, 150e6))  # (K, Pa)


@dataclass
class BeamGeometry:
    """Rectangular multilayer cantilever, layers listed bottom to top."""

    length: float = field(metadata={"gt": 0})  # m
    width: float = field(metadata={"gt": 0})  # m
    layers: list[LayerSpec]

    def __post_init__(self):
        if not self.length > 0:
            raise ValueError("beam length must be > 0")
        if not self.width > 0:
            raise ValueError("beam width must be > 0")
        if not self.layers:
            raise ValueError("beam needs at least one layer")

    @property
    def total_thickness(self) -> float:
        return sum(layer.thickness for layer in self.layers)


@dataclass
class CompositeSection:
    """Transformed-section properties of a layer stack, per unit length."""

    flexural_rigidity: float  # N*m^2, effective EI about the neutral axis
    neutral_axis_height: float  # m, from the bottom surface
    axial_stiffness: float  # N, effective EA
    mass_per_length: float  # kg/m


@dataclass
class LumpedResonator:
    """Single-degree-of-freedom model of the beam's first bending mode at the tip."""

    stiffness: float  # N/m, tip stiffness
    effective_mass: float  # kg
    natural_frequency: float  # Hz
    quality_factor: float
    damping: float  # N*s/m

    def __post_init__(self):
        # Frequency ratios, periods and step bounds all divide by f0; a plate
        # mass that overflows to inf leaves 0 Hz.
        if not 0.0 < self.natural_frequency < math.inf:
            raise DomainError(
                f"resonant frequency {self.natural_frequency!r} Hz is outside (0, inf) Hz:"
                f" stiffness {self.stiffness!r} N/m, effective mass {self.effective_mass!r} kg"
            )


@dataclass
class LiftProfile:
    """Stress-driven curl of a released beam: curvature, tip angle and height."""

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
    if ei == 0.0 or not math.isfinite(ei):
        # The tip stiffness and every deflection divide by EI. It is not
        # finite when E w t overflows, which makes the neutral axis inf / inf.
        at = (
            f"at beam width {w!r} m and layer thicknesses"
            f" {', '.join(repr(layer.thickness) for layer in geom.layers)} m"
        )
        if ei == 0.0:
            raise DomainError(f"flexural rigidity EI underflows to 0 {at}")
        raise OverflowError(f"flexural rigidity EI leaves the float range {at}")
    return CompositeSection(
        flexural_rigidity=ei,
        neutral_axis_height=neutral,
        axial_stiffness=ea,
        mass_per_length=mass,
    )


def tip_deflection(section: CompositeSection, length: float, tip_force: float) -> float:
    """Tip deflection F*l^3 / (3 EI) of a clamped beam under a tip force."""
    if not length > 0:
        raise ValueError("beam length must be > 0")
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
    if not load_share_count >= 1:
        raise ValueError("load_share_count must be >= 1")
    if not width > 0:
        raise ValueError("beam width must be > 0")
    if not thickness > 0:
        raise ValueError("beam thickness must be > 0")
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
    if not quality_factor > 0.5:
        raise ValueError("quality_factor must be > 0.5")
    if not tip_mass >= 0:
        raise ValueError("tip_mass must be >= 0")
    section = composite_section(geom)
    try:
        k = 3.0 * section.flexural_rigidity / geom.length**3
    except (OverflowError, ZeroDivisionError):
        raise DomainError(
            f"tip stiffness 3 EI / l^3 leaves the float range: beam length {geom.length!r} m"
        ) from None
    if k == 0.0:  # the tip deflection F / (n k) divides by it
        raise DomainError(
            f"tip stiffness 3 EI / l^3 underflows to 0: flexural rigidity"
            f" {section.flexural_rigidity!r} N*m^2 at beam width {geom.width!r} m"
            f" and length {geom.length!r} m"
        )
    m_eff = EFFECTIVE_MASS_FRACTION * section.mass_per_length * geom.length + tip_mass
    if m_eff == 0.0:  # the resonance sqrt(k / m_eff) divides by it
        raise DomainError(
            f"effective mass (33/140) m' l underflows to 0 at beam width {geom.width!r} m"
            f" and length {geom.length!r} m"
        )
    f0 = math.sqrt(k / m_eff) / (2.0 * math.pi)
    damping = math.sqrt(k * m_eff) / quality_factor
    return LumpedResonator(
        stiffness=k,
        effective_mass=m_eff,
        natural_frequency=f0,
        quality_factor=quality_factor,
        damping=damping,
    )


def anneal_stress(anneal_temperature: float) -> float:
    """Post-anneal film stress from DEFAULT_ANNEAL_TABLE.

    Linear between the two table points and clamped to the end values
    beyond them, as np.interp gives it bit for bit (NaN stays NaN).
    """
    (t0, s0), (t1, s1) = DEFAULT_ANNEAL_TABLE
    if anneal_temperature <= t0:
        return s0
    if anneal_temperature >= t1:
        return s1
    return (s1 - s0) / (t1 - t0) * (anneal_temperature - t0) + s0


def _layer_arms(geom: BeamGeometry) -> Iterator[float]:
    """Each layer's mid-height above the neutral axis, z_i - z_n, in m, bottom to top.

    Formed as sum_j E_j t_j (z_i - z_j) / sum_j E_j t_j, with every z_i - z_j
    summed from thicknesses, so a thin layer beside a thick one does not
    lose its arm to cancellation.
    """
    t = [layer.thickness for layer in geom.layers]
    weights = [layer.material.youngs_modulus * layer.thickness for layer in geom.layers]
    total = sum(weights)
    for i in range(len(t)):
        # sum_j E_j t_j |z_i - z_j| over the layers below and above i
        below = above = 0.0
        for j in range(i):
            below += weights[j] * ((t[j] + t[i]) / 2 + sum(t[j + 1:i]))
        for j in range(i + 1, len(t)):
            above += weights[j] * ((t[i] + t[j]) / 2 + sum(t[i + 1:j]))
        yield (below - above) / total


def _layer_fiber_stress(geom: BeamGeometry, section: CompositeSection, moment: float) -> list:
    """Each layer's (bottom, top) face stress E_i M (z - z_n) / EI under moment M, in Pa.

    The faces sit half a thickness either side of the layer's arm. For one
    material the extreme faces give the familiar M c / I.
    """
    ei = section.flexural_rigidity
    stresses = []
    for layer, arm in zip(geom.layers, _layer_arms(geom)):
        e, half = layer.material.youngs_modulus, layer.thickness / 2
        stresses.append((e * moment * (arm - half) / ei, e * moment * (arm + half) / ei))
    return stresses


def stack_curvature(geom: BeamGeometry) -> float:
    """Curvature of the released stack from its layers' residual stresses.

    Each layer's stress, held while the beam is flat, is a force
    sigma_i w t_i at its mid-height z_i. Released, their moment about the
    neutral axis z_n bends the section: kappa = sum sigma_i w t_i (z_i - z_n)
    / EI, with EI from composite_section. The width cancels, so both sums
    are taken over a unit-width section, and a subnormal width loses
    nothing. Positive curls toward the top layer, as a tensile top layer
    does. For two layers this is Timoshenko's bimetal curvature; it holds
    for any number of layers. The arms z_i - z_n come from _layer_arms.
    """
    section = composite_section(replace(geom, width=1.0))
    moment = 0.0
    for layer, arm in zip(geom.layers, _layer_arms(geom)):
        if layer.residual_stress:
            moment += layer.residual_stress * layer.thickness * arm
    curvature = moment / section.flexural_rigidity
    if not math.isfinite(curvature):
        index, worst = max(enumerate(geom.layers), key=lambda item: abs(item[1].residual_stress))
        raise OverflowError(
            f"stack curvature sum sigma w t (z - z_n) / EI leaves the float range: layer"
            f" {index} ({worst.material.name}) residual stress {worst.residual_stress!r} Pa"
        )
    return curvature


def curl_tip_height(curvature: float, length: float) -> float:
    """Height (1 - cos kappa l) / kappa of the tip of a beam curled at kappa."""
    angle = curvature * length
    if not math.isfinite(angle):
        raise OverflowError(
            f"tip angle kappa l leaves the float range: curvature {curvature!r} 1/m,"
            f" beam length {length!r} m"
        )
    return (1.0 - math.cos(angle)) / curvature if curvature != 0.0 else 0.0


def bimorph_lift(geom: BeamGeometry, stress_difference: float) -> LiftProfile:
    """Curl of a two-layer beam from a stress mismatch in the top layer.

    The curvature is stack_curvature's with layer stresses (0,
    stress_difference); the layers' own residual stresses are not read.
    It is positive when the tensile top layer curls the beam upward.
    Requires exactly two layers of distinct materials.
    """
    if len(geom.layers) != 2:
        raise UnsupportedStackError(
            f"bimorph_lift needs exactly 2 layers, got {len(geom.layers)}"
        )
    bottom, top = geom.layers
    if bottom.material.name == top.material.name:
        raise UnsupportedStackError("bimorph_lift needs two distinct materials")

    layers = [replace(bottom, residual_stress=0.0), replace(top, residual_stress=stress_difference)]
    curvature = stack_curvature(replace(geom, layers=layers))

    return LiftProfile(
        curvature=curvature,
        tip_angle=curvature * geom.length,
        tip_height=curl_tip_height(curvature, geom.length),
        driving_stress=stress_difference,
    )
