"""Noise budget for the bridge output.

Johnson noise of the active gauge, Hooge flicker noise, and the suspension's
thermomechanical force noise referred to output volts through the same
static force-to-voltage gain as the signal. The closed-form band integral
and the derived figures: corner frequency, RMS, SNR, minimum detectable
field.
"""

import math
from dataclasses import dataclass

from .errors import DomainError, MissingPropertyError
from .transduction import Drive, Environment, GaugeSpec, SensorDesign, sensitivity

BOLTZMANN = 1.380649e-23  # J/K

DEFAULT_QUALITY_FACTOR = 30.0


@dataclass
class NoiseBudget:
    thermal_electrical_psd: float  # V^2/Hz at the gauge
    thermal_mechanical_psd_referred: float  # V^2/Hz, force noise through the chain
    flicker_scale: float  # V^2, flicker PSD is this over f
    band: tuple  # (f_low, f_high) Hz
    rms: float  # V over the band
    corner_frequency: float  # Hz, flicker/thermal crossover
    snr: float
    min_detectable_field: float  # T

    def flicker_psd_at(self, frequency: float) -> float:
        if frequency <= 0:
            raise DomainError(f"frequency must be > 0, got {frequency}")
        return self.flicker_scale / frequency

    def total_psd_at(self, frequency: float) -> float:
        white = self.thermal_electrical_psd + self.thermal_mechanical_psd_referred
        return white + self.flicker_psd_at(frequency)


def thermal_electrical_psd(resistance: float, temperature: float) -> float:
    """Johnson voltage PSD 4*k_b*T*R."""
    if resistance <= 0 or temperature <= 0:
        raise ValueError("resistance and temperature must be > 0")
    return 4.0 * BOLTZMANN * temperature * resistance


def thermal_mechanical_psd(damping: float, temperature: float) -> float:
    """Thermomechanical force PSD 4*k_b*T*D.

    Referral to output volts multiplies by the squared static
    force-to-voltage gain of the transduction chain.
    """
    if damping < 0 or temperature <= 0:
        raise ValueError("damping must be >= 0 and temperature > 0")
    return 4.0 * BOLTZMANN * temperature * damping


def carrier_count(gauge: GaugeSpec) -> float:
    """Free carriers in the gauge volume, l*w*t*carrier_density."""
    density = gauge.material.carrier_density
    if density is None:
        raise MissingPropertyError(gauge.material.name, ("carrier_density",))
    return gauge.length * gauge.width * gauge.thickness * density


def flicker_psd(alpha: float, gauge_voltage: float, gauge: GaugeSpec, frequency: float) -> float:
    """Hooge flicker PSD alpha*V^2/(N*f) with N the gauge carrier count."""
    if frequency <= 0:
        raise DomainError(f"frequency must be > 0, got {frequency}")
    return alpha * gauge_voltage**2 / (carrier_count(gauge) * frequency)


def corner_frequency(
    alpha: float,
    gauge_voltage: float,
    carriers: float,
    resistance: float,
    temperature: float,
) -> float:
    """Frequency where flicker crosses the Johnson floor.

    Solves alpha*V^2/(N*f) = 4*k_b*T*R for f.
    """
    if min(alpha, gauge_voltage, carriers, resistance, temperature) <= 0:
        raise ValueError("all corner-frequency inputs must be > 0")
    return alpha * gauge_voltage**2 / (
        carriers * thermal_electrical_psd(resistance, temperature)
    )


def rms_noise(white_psd: float, flicker_scale: float, band: tuple) -> float:
    """Closed-form band integral of white + 1/f noise.

    sqrt(S_white*(f2 - f1) + flicker_scale*ln(f2/f1)) where flicker_scale
    is alpha*V^2/N, the flicker PSD times frequency.
    """
    f1, f2 = band
    if not 0 < f1 < f2:
        raise DomainError(f"band must satisfy 0 < f1 < f2, got {band}")
    return math.sqrt(white_psd * (f2 - f1) + flicker_scale * math.log(f2 / f1))


def min_detectable_field(sensitivity: float, rms: float, snr_target: float = 1.0) -> float:
    """Field whose output equals snr_target times the RMS noise."""
    if sensitivity <= 0:
        raise DomainError("sensitivity must be > 0 to resolve a field")
    return snr_target * rms / sensitivity


def _gauge_voltage(bridge_bias: float) -> float:
    # Each half bridge divides the bias, so the active gauge sees half.
    return bridge_bias / 2.0


def noise_budget(
    design: SensorDesign,
    drive: Drive,
    env: Environment,
    band: tuple,
    quality_factor: float = DEFAULT_QUALITY_FACTOR,
) -> NoiseBudget:
    """Full budget at the bridge output for one operating point.

    Flicker needs the gauge material's Hooge alpha and carrier density; the
    mechanical term uses the damping of the design's resonator at the given
    quality factor, referred through the bridge volts per unit tip force.
    """
    gauge = design.gauge
    if gauge.material.hooge_alpha is None:
        raise MissingPropertyError(gauge.material.name, ("hooge_alpha",))
    alpha = gauge.material.hooge_alpha
    voltage = _gauge_voltage(design.bridge_bias)

    electrical = thermal_electrical_psd(gauge.resistance, env.temperature)
    damping = design.resonator(quality_factor).damping
    gain = design.bridge_voltage(design.anchor_stress(1.0))
    mechanical = thermal_mechanical_psd(damping, env.temperature) * gain**2

    flicker_scale = alpha * voltage**2 / carrier_count(gauge)
    corner = flicker_scale / electrical

    rms = rms_noise(electrical + mechanical, flicker_scale, band)
    signal_gain = sensitivity(design, drive, env)
    signal = abs(signal_gain * env.field_magnitude)
    return NoiseBudget(
        thermal_electrical_psd=electrical,
        thermal_mechanical_psd_referred=mechanical,
        flicker_scale=flicker_scale,
        band=(band[0], band[1]),
        rms=rms,
        corner_frequency=corner,
        snr=signal / rms,
        min_detectable_field=min_detectable_field(signal_gain, rms, env.snr_target),
    )
