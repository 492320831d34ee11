"""Noise budget for the bridge output.

Johnson noise of the active gauge, Hooge flicker noise, and the suspension's
thermomechanical force noise referred to output volts through the same
static force-to-voltage gain as the signal. The closed-form band integral
and the derived figures: corner frequency, RMS, SNR, minimum detectable
field. The budget itself is a report's, `run_scenario(scenario).noise`.
"""

import math
from dataclasses import dataclass

from .errors import DomainError
from .mechanics import LumpedResonator
from .transduction import Environment, GaugeSpec, SensorDesign

BOLTZMANN = 1.380649e-23  # J/K


@dataclass
class NoiseBudget:
    """Noise at the bridge output over the measurement band, and the field it hides."""

    thermal_electrical_psd: float  # V^2/Hz at the gauge
    thermal_mechanical_psd_referred: float  # V^2/Hz, force noise through the chain
    flicker_scale: float  # V^2, flicker PSD is this over f
    band: tuple  # (f_low, f_high) Hz
    rms: float  # V over the band
    corner_frequency: float  # Hz, flicker/thermal crossover
    snr: float
    min_detectable_field: float  # T

    def flicker_psd_at(self, frequency: float) -> float:
        if not frequency > 0:
            raise DomainError(f"frequency must be > 0, got {frequency}")
        return self.flicker_scale / frequency

    def total_psd_at(self, frequency: float) -> float:
        white = self.thermal_electrical_psd + self.thermal_mechanical_psd_referred
        return white + self.flicker_psd_at(frequency)


def thermal_electrical_psd(resistance: float, temperature: float) -> float:
    """Johnson voltage PSD 4*k_b*T*R."""
    if not resistance > 0 or not temperature > 0:
        raise ValueError("resistance and temperature must be > 0")
    return 4.0 * BOLTZMANN * temperature * resistance


def thermal_mechanical_psd(damping: float, temperature: float) -> float:
    """Thermomechanical force PSD 4*k_b*T*D.

    Referral to output volts multiplies by the squared static
    force-to-voltage gain of the transduction chain.
    """
    if not damping >= 0 or not temperature > 0:
        raise ValueError("damping must be >= 0 and temperature > 0")
    return 4.0 * BOLTZMANN * temperature * damping


def carrier_count(gauge: GaugeSpec) -> float:
    """Free carriers in the gauge volume, l*w*t*carrier_density."""
    return gauge.length * gauge.width * gauge.thickness * gauge.material.carrier_density


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
    """Field whose output magnitude equals snr_target times the RMS noise.

    The sign of the sensitivity only says which way the output swings.
    """
    if not abs(sensitivity) > 0:
        raise DomainError("sensitivity must be nonzero to resolve a field")
    if not rms >= 0:
        raise DomainError(f"rms must be >= 0, got {rms}")
    if not snr_target > 0:
        raise DomainError(f"snr_target must be > 0, got {snr_target}")
    return snr_target * rms / abs(sensitivity)


def _squared(value: float) -> float:
    """value**2, or inf where that leaves the float range, so the report's
    finite check names the figure. value*value can round differently."""
    try:
        return value**2
    except OverflowError:
        return math.inf


def _noise_floor(
    design: SensorDesign,
    temperature: float,
    band: tuple,
    resonator: LumpedResonator,
    stress_per_newton: float,
) -> tuple:
    """The budget's figures that no drive or field moves: (Johnson PSD,
    referred mechanical PSD, flicker scale, corner frequency, band RMS).

    Flicker reads the gauge film's Hooge alpha and carrier density. The
    mechanical term takes the damping of `resonator`, the report's own
    design.resonator(Q), and `stress_per_newton`, design.anchor_stress(1.0),
    refers that force noise to the bridge. A report's budget is this floor
    with _with_signal's figures added, so a sweep or search can reuse the
    floor of a sensor at a given quality factor, temperature and band.
    """
    gauge = design.gauge
    alpha = gauge.material.hooge_alpha
    # Each half bridge divides the bias, so the active gauge sees half.
    voltage = design.bridge_bias / 2.0

    electrical = thermal_electrical_psd(gauge.resistance, temperature)
    if electrical == 0.0:  # the corner frequency divides by it
        raise DomainError(
            f"Johnson PSD 4 k_B T R underflows to 0 at environment.temperature "
            f"{temperature!r} K and sensor.gauge.resistance {gauge.resistance!r} Ohm"
        )
    gain = design.bridge_voltage(stress_per_newton)
    mechanical = thermal_mechanical_psd(resonator.damping, temperature) * _squared(gain)

    carriers = carrier_count(gauge)
    if carriers == 0.0:  # the flicker scale divides by it
        raise DomainError(
            f"gauge carrier count l w t n underflows to 0 at sensor.gauge.length"
            f" {gauge.length!r} m, width {gauge.width!r} m, thickness {gauge.thickness!r} m"
            f" and {gauge.material.name} carrier density {gauge.material.carrier_density!r} m^-3"
        )
    flicker_scale = alpha * _squared(voltage) / carriers
    corner = flicker_scale / electrical

    rms = rms_noise(electrical + mechanical, flicker_scale, band)
    if rms == 0.0:  # the SNR divides by it
        raise DomainError(
            f"band RMS noise underflows to 0 over noise_band {band[0]!r} to {band[1]!r} Hz "
            f"at environment.temperature {temperature!r} K"
        )
    return electrical, mechanical, flicker_scale, corner, rms


def _with_signal(floor: tuple, band: tuple, sensitivity: float, env: Environment) -> NoiseBudget:
    """The budget of a noise floor (see _noise_floor) for a signal of
    `sensitivity` V/T at env's field, SNR and minimum detectable field added.
    The sensitivity is nonzero: its one caller, explorer._report, raises the
    named zero-sensitivity error first."""
    electrical, mechanical, flicker_scale, corner, rms = floor
    signal = abs(sensitivity * env.field_magnitude)
    if math.isnan(rms):
        # A NaN rms comes from a floor figure that is not finite. It carries
        # through, so the report's finite check names that figure.
        min_field = rms
    else:
        min_field = min_detectable_field(sensitivity, rms, env.snr_target)
    return NoiseBudget(  # in field order
        electrical, mechanical, flicker_scale, (band[0], band[1]), rms, corner,
        signal / rms, min_field,
    )
