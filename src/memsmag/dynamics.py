"""Lumped second-order dynamics of the suspended structure.

Analytic frequency response of the spring/mass/damper reduction, its
closed-form resonance peak, and time-domain integration under square-wave
or dc drive with the bridge voltage computed sample by sample from the
instantaneous anchor stress.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NoPeakError, StepTooLargeError, UnsettledError
from .mechanics import LumpedResonator
from .transduction import Drive, Environment, SensorDesign

# Steps per natural period below which RK4 phase error is unacceptable.
MIN_STEPS_PER_PERIOD = 50

# Most steps one transient may take; each step stores four float64 samples.
MAX_TRANSIENT_STEPS = 10_000_000

TRANSIENT_COLUMNS = ("t_s", "x_m", "v_m_per_s", "V_out_V")  # one per TimeSeries array


@dataclass
class FrequencyResponsePoint:
    frequency: float  # Hz
    amplitude: float  # m/N, displacement per unit force
    phase: float  # rad, in (-pi, 0]


@dataclass
class TimeSeries:
    """Uniformly sampled transient; parallel arrays, one row per step."""

    dt: float  # s
    time: np.ndarray  # s
    displacement: np.ndarray  # m
    velocity: np.ndarray  # m/s
    output_voltage: np.ndarray  # V
    drive_period: Optional[float] = None  # s, None for dc drive

    def to_csv(self, path) -> None:
        data = np.column_stack(
            (self.time, self.displacement, self.velocity, self.output_voltage)
        )
        np.savetxt(
            path,
            data,
            delimiter=",",
            header=",".join(TRANSIENT_COLUMNS),
            comments="",
            fmt="%.17g",
        )


@dataclass
class SteadyState:
    displacement: float  # m, half peak-to-peak
    voltage: float  # V, half peak-to-peak


def frequency_response(resonator: LumpedResonator, frequency: float) -> FrequencyResponsePoint:
    """Displacement-per-force amplitude and phase at one drive frequency.

    amplitude = (1/k) / sqrt((1 - r^2)^2 + (r/Q)^2) with r = f/f0; the
    phase lags from 0 at dc toward -pi far above resonance.
    """
    if frequency <= 0:
        raise ValueError("frequency must be > 0")
    r = frequency / resonator.natural_frequency
    q = resonator.quality_factor
    amplitude = (1.0 / resonator.stiffness) / math.hypot(1.0 - r * r, r / q)
    phase = -math.atan2(r / q, 1.0 - r * r)
    return FrequencyResponsePoint(frequency=frequency, amplitude=amplitude, phase=phase)


def find_resonance(resonator: LumpedResonator, f_min: float, f_max: float) -> float:
    """Displacement amplitude peak, f0 * sqrt(1 - 1/(2 Q^2)).

    NoPeak is raised when the amplitude has no maximum strictly inside
    (f_min, f_max): either Q^2 <= 1/2, so it falls from dc on, or the peak
    lies outside the range.
    """
    if not 0 < f_min < f_max:
        raise ValueError("need 0 < f_min < f_max")
    q = resonator.quality_factor
    if q * q > 0.5:
        peak = resonator.natural_frequency * math.sqrt(1.0 - 0.5 / q**2)
        if f_min < peak < f_max:
            return peak
    raise NoPeakError(f"no interior amplitude peak in [{f_min}, {f_max}] Hz")


def simulate_transient(
    resonator: LumpedResonator,
    design: SensorDesign,
    drive: Drive,
    env: Environment,
    duration: float,
    dt: float,
    x0: float = 0.0,
    v0: float = 0.0,
) -> TimeSeries:
    """Integrate m x'' + D x' + k x = F(t) with classical 4th-order RK.

    RK4 on this linear system is one affine map per step, built once. The
    square waveform applies the forcing with exact sign flips every half
    period; dc applies it constantly. The voltage column maps displacement
    through instantaneous anchor stress, gauge, and bridge. Starts from rest
    unless initial conditions are given. Raises OverflowError naming the
    first step-map coefficient or output column that leaves the float range.
    """
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ValueError("duration and dt must be > 0")
    if duration / dt > MAX_TRANSIENT_STEPS:
        raise ValueError(
            f"duration / dt = {duration / dt:.3e} steps exceeds the cap of "
            f"{MAX_TRANSIENT_STEPS} steps"
        )
    f0 = resonator.natural_frequency
    if dt > 1.0 / (MIN_STEPS_PER_PERIOD * f0):
        raise StepTooLargeError(
            f"dt = {dt} exceeds 1/({MIN_STEPS_PER_PERIOD} * f0) = "
            f"{1.0 / (MIN_STEPS_PER_PERIOD * f0):.3e} s"
        )
    if drive.waveform == "square":
        if drive.frequency <= 0:
            raise ValueError("square drive needs frequency > 0")
        if duration < 10.0 / drive.frequency:
            raise ValueError("duration must cover at least 10 drive periods")
        period = 1.0 / drive.frequency
    elif drive.waveform == "dc":
        period = None
    else:
        raise ValueError(f"unknown waveform {drive.waveform!r}")

    # Bridge volts when every loaded beam deflects by one metre.
    volts_per_meter = design.bridge_voltage(
        design.anchor_stress(resonator.stiffness * design.load_share_count)
    )
    peak = design.tip_force(drive, env, env.field_magnitude) / design.load_share_count
    freq = drive.frequency
    if period is None:
        def force(t):
            return peak
    else:
        def force(t):
            return peak if math.fmod(t * freq, 1.0) < 0.5 else -peak

    # RK4 on y' = A y + b F(t), y = (x, v), is the step map y+ = P y +
    # g1 F(t) + g2 F(t + h/2) + g3 F(t + h), P the 4th-order Taylor sum of hA.
    m = resonator.effective_mass
    with np.errstate(over="ignore", invalid="ignore"):
        ha = dt * np.array(
            [[0.0, 1.0], [-resonator.stiffness / m, -resonator.damping / m]]
        )
        eye = np.eye(2)
        ha2 = ha @ ha
        ha3 = ha2 @ ha
        step = eye + ha + ha2 / 2.0 + ha3 / 6.0 + ha2 @ ha2 / 24.0
        g3 = np.array([0.0, dt / (6.0 * m)])
        g1 = (eye + ha + ha2 / 2.0 + ha3 / 4.0) @ g3
        g2 = (4.0 * eye + 2.0 * ha + ha2 / 2.0) @ g3
    step_map = np.column_stack((step, g1, g2, g3))
    bad = np.argwhere(~np.isfinite(step_map))
    if bad.size:
        row, col = bad[0]
        name = f"P[{row}][{col}]" if col < 2 else f"g{col - 1}[{row}]"
        raise OverflowError(
            f"transient step map coefficient {name} is {float(step_map[row, col])}: stiffness"
            f" {resonator.stiffness!r} N/m, damping {resonator.damping!r} N*s/m, mass {m!r} kg"
        )
    (pxx, pxv, g1x, g2x, g3x), (pvx, pvv, g1v, g2v, g3v) = step_map.tolist()

    steps = int(round(duration / dt))
    x = np.empty(steps + 1)
    v = np.empty(steps + 1)
    x[0], v[0] = x0, v0
    xi, vi = x0, v0
    for i in range(steps):
        t = i * dt
        f1, f2, f3 = force(t), force(t + 0.5 * dt), force(t + dt)
        xi, vi = (
            pxx * xi + pxv * vi + g1x * f1 + g2x * f2 + g3x * f3,
            pvx * xi + pvv * vi + g1v * f1 + g2v * f2 + g3v * f3,
        )
        x[i + 1], v[i + 1] = xi, vi

    time = np.arange(steps + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        voltage = volts_per_meter * x
    for name, column in zip(TRANSIENT_COLUMNS[1:], (x, v, voltage)):
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            value, t = float(column[bad[0]]), float(time[bad[0]])
            raise OverflowError(f"transient column {name} is {value} at t = {t!r} s")
    return TimeSeries(
        dt=dt,
        time=time,
        displacement=x,
        velocity=v,
        output_voltage=voltage,
        drive_period=period,
    )


def _half_ptp(values: np.ndarray) -> float:
    return float(values.max() - values.min()) / 2.0


def steady_state_amplitude(series: TimeSeries, settle_fraction: float = 0.5) -> SteadyState:
    """Half peak-to-peak amplitudes over the settled tail of a transient.

    Discards the leading settle_fraction of the record (the caller should
    size the run so that covers several ring-up time constants, about
    5 Q/f0), then checks the last two drive periods (or tail halves for dc)
    agree within 1% before reporting.
    """
    if not 0 <= settle_fraction < 1:
        raise ValueError("settle_fraction must be in [0, 1)")
    n = len(series.time)
    tail = series.displacement[int(settle_fraction * n) :]
    tail_v = series.output_voltage[int(settle_fraction * n) :]
    if len(tail) < 4:
        raise ValueError("too few samples after settling to measure amplitude")

    if series.drive_period is not None:
        per = max(2, int(round(series.drive_period / series.dt)))
        if len(tail) < 2 * per:
            raise ValueError("retained tail shorter than two drive periods")
        last, prev = tail[-per:], tail[-2 * per : -per]
    else:
        half = len(tail) // 2
        last, prev = tail[half:], tail[:half]

    amp_last, amp_prev = _half_ptp(last), _half_ptp(prev)
    scale = max(amp_last, amp_prev)
    if scale > 0 and abs(amp_last - amp_prev) > 0.01 * scale:
        raise UnsettledError(
            f"amplitude still changing: {amp_prev:.6e} -> {amp_last:.6e} m"
        )
    return SteadyState(displacement=_half_ptp(tail), voltage=_half_ptp(tail_v))


def __getattr__(name):
    # Only for perfbench/spans.py's lookup without a default (CHANGES.md FOUND on EXTERNAL).
    if name == "minimize_scalar":
        from scipy.optimize import minimize_scalar

        return minimize_scalar
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
