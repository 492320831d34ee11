"""Lumped second-order dynamics of the suspended structure.

Analytic frequency response of the spring/mass/damper reduction, its
closed-form resonance peak, and time-domain integration under square-wave
or dc drive with the bridge voltage computed sample by sample from the
instantaneous anchor stress.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import NoPeakError, StepTooLargeError, UnsettledError
from .mechanics import LumpedResonator
from .transduction import Drive, Environment, SensorDesign

# Steps per natural period below which RK4 phase error is unacceptable.
MIN_STEPS_PER_PERIOD = 50

# Square-drive periods a transient must cover.
MIN_DRIVE_PERIODS = 10

# Most steps one transient may take; each step stores four float64 samples.
MAX_TRANSIENT_STEPS = 10_000_000

TRANSIENT_COLUMNS = ("t_s", "x_m", "v_m_per_s", "V_out_V")  # one per TimeSeries array

# Steps one row of the transient's block product advances.
BLOCK_STEPS = 32

# Blocks one row of the second product, over block starts, advances.
GROUP_BLOCKS = 16

# Blocks per chunk of forcing samples; bounds the transient's scratch memory.
CHUNK_BLOCKS = 256

# Rows TimeSeries.to_csv formats into one string; bounds its scratch memory.
CSV_CHUNK_ROWS = 1024


@dataclass
class FrequencyResponsePoint:
    """Harmonic response of the resonator at one drive frequency."""

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
        import numpy as np

        columns = (self.time, self.displacement, self.velocity, self.output_voltage)
        # The bytes np.savetxt(fmt="%.17g", delimiter=",") writes, formatted
        # a chunk of rows per string rather than a row per call.
        line = ",".join(["%.17g"] * len(columns)) + "\n"
        with open(path, "w") as handle:
            handle.write(",".join(TRANSIENT_COLUMNS) + "\n")
            for first in range(0, len(self.time), CSV_CHUNK_ROWS):
                rows = np.column_stack([c[first : first + CSV_CHUNK_ROWS] for c in columns])
                handle.write(line * len(rows) % tuple(rows.ravel().tolist()))


@dataclass
class SteadyState:
    """Settled half peak-to-peak swing of a driven transient."""

    displacement: float  # m, half peak-to-peak
    voltage: float  # V, half peak-to-peak


def frequency_response(resonator: LumpedResonator, frequency: float) -> FrequencyResponsePoint:
    """Displacement-per-force amplitude and phase at one drive frequency.

    amplitude = (1/k) / sqrt((1 - r^2)^2 + (r/Q)^2) with r = f/f0; the
    phase lags from 0 at dc toward -pi far above resonance. Raises
    OverflowError naming the stiffness and the frequency where the
    amplitude is not finite.
    """
    if not 0 < frequency < math.inf:
        raise ValueError("frequency must be > 0 and finite")
    r = frequency / resonator.natural_frequency
    q = resonator.quality_factor
    amplitude = (1.0 / resonator.stiffness) / math.hypot(1.0 - r * r, r / q)
    if not math.isfinite(amplitude):
        raise OverflowError(
            f"frequency response amplitude (1/k) / sqrt((1 - r^2)^2 + (r/Q)^2) is {amplitude}"
            f" at frequency {frequency!r} Hz: stiffness {resonator.stiffness!r} N/m"
        )
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

    RK4 on this linear system is one affine map per step, built once and
    applied a block of BLOCK_STEPS steps per matrix product, with the
    state carried across GROUP_BLOCKS blocks per product. The square
    waveform applies the forcing with exact sign flips every half period;
    dc applies it constantly. The voltage column maps displacement
    through instantaneous anchor stress, gauge, and bridge. Starts from rest
    unless initial conditions are given. The run must cover
    MIN_DRIVE_PERIODS periods of a square drive at a step of at most
    1/(MIN_STEPS_PER_PERIOD f0). Raises OverflowError naming the first
    step-map coefficient or output column that leaves the float range.
    """
    import numpy as np

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
        if not 0 < drive.frequency < math.inf:
            raise ValueError("square drive needs a frequency > 0 and finite")
        if duration < MIN_DRIVE_PERIODS / drive.frequency:
            raise ValueError(f"duration must cover at least {MIN_DRIVE_PERIODS} drive periods")
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
    freq = None if period is None else drive.frequency

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

    # Over a block of B steps from y_s, y after j steps is P^j y_s plus the
    # zero-state sum of P^(j-1-k) [g1 g2 g3] f_k over k < j. One matrix product
    # per chunk gives every block's zero-state rows. Block ends then follow
    # the same kind of recurrence one level up, y_(b+1) = Q y_b + z_b with
    # Q = P^B and z_b the block's zero-state end, so a second product over
    # groups of G blocks gives each block end from its group's start, a scan
    # over the group starts carries the state, and products with Q^i and P^j
    # add the starts back in.
    powers, kernel = _block_tables(step_map.tobytes(), BLOCK_STEPS)
    block_map = np.column_stack((powers[:, :, -1], np.eye(2)))  # [Q I]
    group_powers, group_kernel = _block_tables(block_map.tobytes(), GROUP_BLOCKS)
    (q_xx, q_xv), (q_vx, q_vv) = group_powers[:, :, -1].tolist()
    steps = int(round(duration / dt))
    blocks = -(-steps // BLOCK_STEPS)
    # The four output columns are rows of one block; the returned columns
    # are views that drop the samples the last block runs past the end.
    # One allocation rather than four also lets glibc (which raises its heap
    # trim threshold to the largest freed mmap block) keep the pages of
    # repeated transients rather than fault them back in on every call.
    table = np.empty((len(TRANSIENT_COLUMNS), blocks * BLOCK_STEPS + 1))
    time, x, v, _ = table
    time[0], x[0], v[0] = 0.0, x0, v0
    xs, vs = x0, v0
    for first in range(0, blocks, CHUNK_BLOCKS):
        count = min(CHUNK_BLOCKS, blocks - first)
        groups = -(-count // GROUP_BLOCKS)
        rows = slice(1 + first * BLOCK_STEPS, 1 + (first + count) * BLOCK_STEPS)
        np.multiply(np.arange(rows.start, rows.stop), dt, out=time[rows])
        xb, vb = (out[rows].reshape(count, BLOCK_STEPS) for out in (x, v))
        forcing = _forcing(first * BLOCK_STEPS, count, dt, freq, peak).reshape(count, -1)
        # Zero-state block ends laid out as the group kernel reads them; the
        # blocks that pad the last group past the run's end are zero.
        ends = np.zeros((2, groups * GROUP_BLOCKS))
        with np.errstate(over="ignore", invalid="ignore"):
            for out, kern in zip((xb, vb), kernel):
                np.matmul(forcing, kern, out=out)
            ends[:, :count] = xb[:, -1], vb[:, -1]
            ends = ends.reshape(2, groups, GROUP_BLOCKS).transpose(1, 0, 2).reshape(groups, -1)
            zx, zv = (ends @ kern for kern in group_kernel)
            starts = []
            for ex, ev in zip(zx[:, -1].tolist(), zv[:, -1].tolist()):
                starts.append((xs, vs))
                xs, vs = q_xx * xs + q_xv * vs + ex, q_vx * xs + q_vv * vs + ev
            starts = np.array(starts)
            # state[i] is the state at the start of the chunk's block i.
            state = np.empty((groups * GROUP_BLOCKS + 1, 2))
            state[0] = starts[0]
            for col, (zero, power) in enumerate(zip((zx, zv), group_powers)):
                state[1:, col] = (zero + starts @ power).ravel()
            for col, (out, power) in enumerate(zip((xb, vb), powers)):
                out += state[:count] @ power
                out[:, -1] = state[1 : count + 1, col]
        xs, vs = state[count].tolist()
    time, x, v, voltage = table[:, : steps + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(volts_per_meter, x, out=voltage)
    for name, column in zip(TRANSIENT_COLUMNS[1:], (x, v, voltage)):
        if not np.isfinite(column).all():
            first = int(np.isfinite(column).argmin())
            value, t = float(column[first]), float(time[first])
            raise OverflowError(f"transient column {name} is {value} at t = {t!r} s")
    return TimeSeries(
        dt=dt,
        time=time,
        displacement=x,
        velocity=v,
        output_voltage=voltage,
        drive_period=period,
    )


def _forcing(first: int, blocks: int, dt: float, freq: Optional[float], peak: float) -> np.ndarray:
    """Forcing of steps first, first + 1, ... as (blocks, 3, BLOCK_STEPS).

    Axis 1 holds F(t), F(t + dt/2) and F(t + dt) with t = i * dt. A square
    drive of frequency freq is +peak where fmod(t * freq, 1) < 0.5 and -peak
    elsewhere; dc (freq None) is peak throughout.
    """
    import numpy as np

    if freq is None:
        return np.full((blocks, 3, BLOCK_STEPS), peak)
    out = np.empty((blocks, 3, BLOCK_STEPS))
    t = np.arange(first, first + blocks * BLOCK_STEPS).reshape(blocks, BLOCK_STEPS) * dt
    for c, at in enumerate((t, t + 0.5 * dt, t + dt)):
        phase = at * freq
        phase -= np.floor(phase)  # exactly fmod(phase, 1.0) for phase >= 0, and faster
        out[:, c] = np.where(phase < 0.5, peak, -peak)
    return out


@functools.lru_cache(maxsize=16)
def _block_tables(step_map_bytes: bytes, length: int) -> tuple:
    """Block tables of a (2, 2 + m) float64 step map [P G], given as bytes.

    The map takes y+ = P y + G u for a state y of two and an input u of m.
    Over a block of B = length steps, powers[r] is (2, B) with column
    j - 1 holding row r of P^j, j = 1..B. kernel[r] is (mB, B): entry
    (c*B + k, j - 1) is row r of P^(j-1-k) G[:, c] for k < j and 0
    otherwise, so a block's inputs, flattened input by input (as _forcing
    lays out [g1 g2 g3]'s forcing over BLOCK_STEPS steps, or as
    simulate_transient lays out [P^B I]'s block ends over GROUP_BLOCKS
    blocks), times kernel[r] is its zero-state response. The powers are
    taken in long double, where the platform has it, so each entry is
    rounded once and a block's P^B drifts no more than one step.
    Transients of one resonator at one step share the tables, which are
    kept read-only for the last few step maps; the bytes key tells -0.0
    from 0.0.
    """
    import numpy as np

    step_map = np.frombuffer(step_map_bytes).reshape(2, -1)
    steps = np.arange(length)
    power = np.empty((length + 1, 2, 2), dtype=np.longdouble)
    power[0] = np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(length):
            power[j + 1] = step_map[:, :2] @ power[j]
        gains = (power[:length] @ step_map[:, 2:]).astype(float)  # P^d G
        power = power.astype(float)
    lag = steps[None, :] - steps[:, None]  # (k, j - 1) -> j - 1 - k
    kernel = np.where((lag >= 0)[:, :, None, None], gains[np.maximum(lag, 0)], 0.0)
    kernel = kernel.transpose(2, 3, 0, 1).reshape(2, -1, length)
    powers = power[1:].transpose(1, 2, 0).copy()
    for array in (powers, kernel):
        array.setflags(write=False)
    return powers, kernel


def _half_ptp(values: np.ndarray) -> float:
    return float(values.max() - values.min()) / 2.0


def steady_state_amplitude(series: TimeSeries) -> SteadyState:
    """Half peak-to-peak amplitudes over the settled tail of a transient.

    Discards the first half of the record (the caller should size the run
    so that covers several ring-up time constants, about 5 Q/f0), then
    checks the last two drive periods (or tail halves for dc) agree within
    1% before reporting.
    """
    start = len(series.time) // 2
    tail = series.displacement[start:]
    tail_v = series.output_voltage[start:]
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
