import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memsmag import (
    Drive,
    Environment,
    NoPeakError,
    StepTooLargeError,
    TimeSeries,
    UnsettledError,
    default_scenario,
    find_resonance,
    frequency_response,
    lumped_resonator,
    run_scenario,
    simulate_transient,
    steady_state_amplitude,
)
from memsmag.dynamics import (
    BLOCK_STEPS,
    CHUNK_BLOCKS,
    CSV_CHUNK_ROWS,
    GROUP_BLOCKS,
    MAX_TRANSIENT_STEPS,
    TRANSIENT_COLUMNS,
    _block_tables,
    _forcing,
)


def _default_parts():
    scenario = default_scenario("lorentz")
    resonator = lumped_resonator(scenario.sensor.support_beam, scenario.quality_factor)
    return scenario, resonator


def test_response_at_resonance():
    _, res = _default_parts()
    point = frequency_response(res, res.natural_frequency)
    assert point.amplitude == pytest.approx(
        res.quality_factor / res.stiffness, rel=1e-12
    )
    assert point.phase == pytest.approx(-math.pi / 2, rel=1e-12)


def test_response_static_limit():
    _, res = _default_parts()
    point = frequency_response(res, res.natural_frequency * 1e-6)
    assert point.amplitude == pytest.approx(1.0 / res.stiffness, rel=1e-9)
    assert point.phase == pytest.approx(0.0, abs=1e-6)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="frequency must be > 0 and finite"):
            frequency_response(res, bad)


@pytest.mark.parametrize("frequency, amplitude", [(1.0, "inf"), (1e300, "nan")])
def test_response_amplitude_out_of_range_names_stiffness_and_frequency(frequency, amplitude):
    # 1/k overflows; far above resonance the denominator overflows too.
    res = dataclasses.replace(_default_parts()[1], stiffness=1e-310)
    with pytest.raises(OverflowError) as excinfo:
        frequency_response(res, frequency)
    assert str(excinfo.value) == (
        f"frequency response amplitude (1/k) / sqrt((1 - r^2)^2 + (r/Q)^2) is {amplitude}"
        f" at frequency {frequency!r} Hz: stiffness 1e-310 N/m"
    )


def _golden_max(fn, lo, hi):
    # Golden-section argmax, independent of the library's search.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-10 * hi:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def test_peak_location_against_golden_section():
    _, base = _default_parts()
    res = lumped_resonator(
        default_scenario("lorentz").sensor.support_beam, 20.0
    )
    f0 = res.natural_frequency
    expected = f0 * math.sqrt(1.0 - 1.0 / (2.0 * 20.0**2))
    golden = _golden_max(
        lambda f: frequency_response(res, f).amplitude, f0 / 2, 2 * f0
    )
    assert golden == pytest.approx(expected, rel=1e-6)
    assert find_resonance(res, f0 / 2, 2 * f0) == pytest.approx(golden, rel=1e-3)
    assert base.natural_frequency == pytest.approx(f0, rel=1e-12)


def test_find_resonance_sharp_peak():
    scenario = default_scenario("lorentz")
    res = lumped_resonator(scenario.sensor.support_beam, 50.0)
    f0 = res.natural_frequency
    expected = f0 * math.sqrt(1.0 - 1.0 / (2.0 * 50.0**2))
    found = find_resonance(res, f0 / 10, f0 * 10)
    assert abs(found - expected) / expected < 5e-3


@pytest.mark.parametrize("q", [5.0, 1000.0])
def test_find_resonance_is_the_closed_form_peak(q):
    res = lumped_resonator(default_scenario("lorentz").sensor.support_beam, q)
    f0 = res.natural_frequency
    expected = f0 * math.sqrt(1.0 - 1.0 / (2.0 * q**2))
    assert find_resonance(res, f0 / 10, f0 * 10) == pytest.approx(expected, rel=1e-12, abs=0)


def test_find_resonance_no_peak():
    _, res = _default_parts()
    f0 = res.natural_frequency
    with pytest.raises(NoPeakError):
        find_resonance(res, 2 * f0, 4 * f0)
    overdamped = lumped_resonator(
        default_scenario("lorentz").sensor.support_beam, 0.6
    )
    with pytest.raises(NoPeakError):
        find_resonance(overdamped, f0 / 10, f0 * 10)


def test_find_resonance_argument_checks():
    _, res = _default_parts()
    with pytest.raises(ValueError):
        find_resonance(res, 2e3, 1e3)


_LORENTZ_BEAM = default_scenario("lorentz").sensor.support_beam


@settings(max_examples=300, derandomize=True)
@given(
    q=st.floats(0.5, 1e6, exclude_min=True),
    low=st.floats(1e-3, 1e3),
    high=st.floats(1e-3, 1e3),
)
def test_find_resonance_is_the_interior_amplitude_maximum(q, low, high):
    # For any Q > 1/2 and 0 < f_min < f_max: a peak comes back exactly when
    # Q^2 > 1/2 and it lies strictly inside the range, and the amplitude is
    # no larger a relative 1e-3 to either side of it.
    assume(low < high)
    res = lumped_resonator(_LORENTZ_BEAM, q)
    f0 = res.natural_frequency
    f_min, f_max = low * f0, high * f0
    peak = f0 * math.sqrt(1.0 - 0.5 / q**2) if q * q > 0.5 else None
    if peak is None or not f_min < peak < f_max:
        with pytest.raises(NoPeakError):
            find_resonance(res, f_min, f_max)
        return
    assert find_resonance(res, f_min, f_max) == peak
    top = frequency_response(res, peak).amplitude
    for side in (1.0 - 1e-3, 1.0 + 1e-3):
        # Rounding alone may lift a flat maximum's neighbour by an ulp or so.
        assert frequency_response(res, peak * side).amplitude <= top * (1.0 + 1e-12)


def test_transient_zero_field_stays_at_rest():
    scenario, res = _default_parts()
    env = Environment(field_magnitude=0.0)
    series = simulate_transient(
        res,
        scenario.sensor,
        scenario.drive,
        env,
        duration=10.0 / scenario.drive.frequency,
        dt=1.0 / (200 * res.natural_frequency),
    )
    assert not np.any(series.displacement)
    assert not np.any(series.output_voltage)


def test_transient_argument_checks():
    scenario, res = _default_parts()
    args = (res, scenario.sensor, scenario.drive, scenario.environment)
    with pytest.raises(StepTooLargeError):
        simulate_transient(*args, duration=1.0, dt=1.0)
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration and dt must be > 0"):
            simulate_transient(*args, duration=bad, dt=1e-7)
        with pytest.raises(ValueError, match="duration and dt must be > 0"):
            simulate_transient(*args, duration=1e-3, dt=bad)
    ok_dt = 1.0 / (200 * res.natural_frequency)
    with pytest.raises(ValueError, match="10 drive periods"):
        simulate_transient(*args, duration=1.0 / scenario.drive.frequency, dt=ok_dt)
    bad = Drive(waveform="sawtooth", amplitude=1e-3, frequency=1e3)
    with pytest.raises(ValueError, match="waveform"):
        simulate_transient(res, scenario.sensor, bad, scenario.environment,
                           duration=0.1, dt=ok_dt)
    with pytest.raises(ValueError, match=f"cap of {MAX_TRANSIENT_STEPS} steps"):
        simulate_transient(*args, duration=1.0, dt=1e-320)
    for frequency in (0.0, math.nan, math.inf):
        nofreq = Drive(waveform="square", amplitude=1e-3, frequency=frequency)
        with pytest.raises(ValueError, match="frequency"):
            simulate_transient(res, scenario.sensor, nofreq, scenario.environment,
                               duration=0.1, dt=ok_dt)


def _textbook_rk4(resonator, design, drive, env, duration, dt, x0, v0):
    # The four stages written out, with the forcing sampled as the library
    # samples it; returns the (x, v) rows.
    m, d, k = resonator.effective_mass, resonator.damping, resonator.stiffness
    peak = design.tip_force(drive, env, env.field_magnitude) / design.load_share_count

    def rate(t, y):
        if drive.waveform == "square" and math.fmod(t * drive.frequency, 1.0) >= 0.5:
            force = -peak
        else:
            force = peak
        return np.array([y[1], (force - d * y[1] - k * y[0]) / m])

    rows = [np.array([x0, v0])]
    for i in range(int(round(duration / dt))):
        t, y = i * dt, rows[-1]
        k1 = rate(t, y)
        k2 = rate(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rate(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rate(t + dt, y + dt * k3)
        rows.append(y + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0)
    return np.array(rows)


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
@pytest.mark.parametrize("waveform", ["dc", "square"])
@pytest.mark.parametrize("start", ["rest", "moving"])
def test_transient_matches_textbook_rk4(kind, waveform, start):
    scenario = default_scenario(kind)
    sensor, env = scenario.sensor, scenario.environment
    res = sensor.resonator(scenario.quality_factor)
    f0 = res.natural_frequency
    drive = Drive(waveform, scenario.drive.amplitude, f0)
    dt = 1.0 / (200 * f0)
    x0, v0 = (0.0, 0.0) if start == "rest" else (1e-7, -2e-7 * math.pi * f0)
    series = simulate_transient(res, sensor, drive, env, 2400 * dt, dt, x0=x0, v0=v0)
    reference = _textbook_rk4(res, sensor, drive, env, 2400 * dt, dt, x0, v0)
    assert len(series.time) == len(reference) == 2401
    for column, got in enumerate((series.displacement, series.velocity)):
        want = reference[:, column]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _assert_textbook(kind, start, waveform, drive_ratio, steps):
    # Runs `steps` steps of dt = 1/(200 f0) and compares both state columns
    # with the textbook stages at 1e-12 of each column's maximum.
    scenario = default_scenario(kind)
    sensor, env = scenario.sensor, scenario.environment
    res = sensor.resonator(scenario.quality_factor)
    f0 = res.natural_frequency
    drive = Drive(waveform, scenario.drive.amplitude, drive_ratio * f0)
    dt = 1.0 / (200 * f0)
    duration = steps * dt if steps else 0.25 * dt
    x0, v0 = (0.0, 0.0) if start == "rest" else (1e-7, -2e-7 * math.pi * f0)
    series = simulate_transient(res, sensor, drive, env, duration, dt, x0=x0, v0=v0)
    reference = _textbook_rk4(res, sensor, drive, env, duration, dt, x0, v0)
    assert len(series.time) == len(reference) == steps + 1
    for column, got in enumerate((series.displacement, series.velocity)):
        want = reference[:, column]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
@pytest.mark.parametrize("start", ["rest", "moving"])
@pytest.mark.parametrize("drive_ratio", [0.937, 9.3, 150.0])
def test_transient_matches_textbook_rk4_off_the_step_grid(kind, start, drive_ratio):
    # Half drive periods of 106.7, 10.75 and 0.67 steps: flips fall between
    # steps, and at 150 f0 more than once inside one.
    _assert_textbook(kind, start, "square", drive_ratio, 2400)


_B, _G, _CHUNK = BLOCK_STEPS, BLOCK_STEPS * GROUP_BLOCKS, BLOCK_STEPS * CHUNK_BLOCKS


# Block, group and chunk edges; the last run ends in a chunk of 22 blocks,
# one whole group and a group of 6 padded to 16.
@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
@pytest.mark.parametrize("start", ["rest", "moving"])
@pytest.mark.parametrize("waveform, steps", [
    ("dc", 0), ("dc", 1), ("dc", _B - 1), ("dc", _B), ("dc", _B + 1),
    ("dc", _G - 1), ("square", _G), ("square", _G + 1),
    ("square", _CHUNK - 1), ("square", _CHUNK + 1), ("dc", _CHUNK + 21 * _B + 3),
])
def test_transient_matches_textbook_rk4_at_block_edges(kind, start, waveform, steps):
    _assert_textbook(kind, start, waveform, 9.3, steps)


@pytest.mark.parametrize("damped", [True, False])
def test_multi_chunk_run_is_the_step_by_step_affine_map(damped):
    # Three chunks and five steps against the affine map of one textbook RK4
    # step, y+ = P y + g1 F(t) + g2 F(t + dt/2) + g3 F(t + dt), applied one
    # step at a time in float64: both products and the scan over group
    # starts carry the state across every block, group and chunk edge.
    scenario, res = _default_parts()
    if not damped:
        res = dataclasses.replace(res, quality_factor=math.inf, damping=0.0)
    sensor, env = scenario.sensor, scenario.environment
    f0 = res.natural_frequency
    drive = Drive("square", scenario.drive.amplitude, 0.937 * f0)
    dt, steps, x0, v0 = 1.0 / (200 * f0), 3 * _CHUNK + 5, 1e-7, -2e-7 * math.pi * f0
    series = simulate_transient(res, sensor, drive, env, steps * dt, dt, x0=x0, v0=v0)

    m, d, k = res.effective_mass, res.damping, res.stiffness

    def rk4(y, forces):  # one textbook step with F(t), F(t + dt/2), F(t + dt)
        def rate(y, force):
            return np.array([y[1], (force - d * y[1] - k * y[0]) / m])

        k1 = rate(y, forces[0])
        k2 = rate(y + 0.5 * dt * k1, forces[1])
        k3 = rate(y + 0.5 * dt * k2, forces[1])
        k4 = rate(y + dt * k3, forces[2])
        return y + dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    zero, one = np.zeros(2), np.eye(2)
    (p_xx, p_vx), (p_xv, p_vv) = (rk4(column, (0.0, 0.0, 0.0)) for column in one)
    gains = [rk4(zero, tuple(unit)).tolist() for unit in np.eye(3)]
    peak = sensor.tip_force(drive, env, env.field_magnitude) / sensor.load_share_count
    rows, (x, v) = [(x0, v0)], (x0, v0)
    for i in range(steps):
        t = i * dt
        forces = [peak if math.fmod(at * drive.frequency, 1.0) < 0.5 else -peak
                  for at in (t, t + 0.5 * dt, t + dt)]
        x, v = (
            p_xx * x + p_xv * v + sum(f * g[0] for f, g in zip(forces, gains)),
            p_vx * x + p_vv * v + sum(f * g[1] for f, g in zip(forces, gains)),
        )
        rows.append((x, v))
    reference = np.array(rows)
    assert len(series.time) == len(reference) == steps + 1
    for column, got in enumerate((series.displacement, series.velocity)):
        want = reference[:, column]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("drive_ratio", [0.937, 1.0, 9.3, 150.0])
def test_forcing_signs_follow_the_fmod_rule(drive_ratio):
    # Every sample of two chunks, the second far from t = 0, against the
    # rule one step at a time applies at t, t + dt/2 and t + dt.
    _, res = _default_parts()
    f0 = res.natural_frequency
    dt, freq = 1.0 / (200 * f0), drive_ratio * f0
    for first in (0, 40 * _CHUNK):
        forcing = _forcing(first, CHUNK_BLOCKS, dt, freq, 2.0)
        assert forcing.shape == (CHUNK_BLOCKS, 3, _B)
        for i in range(_CHUNK):
            t = (first + i) * dt
            for c, at in enumerate((t, t + 0.5 * dt, t + dt)):
                want = 2.0 if math.fmod(at * freq, 1.0) < 0.5 else -2.0
                assert forcing[i // _B, c, i % _B] == want
    assert np.all(_forcing(3, 2, dt, None, 2.0) == 2.0)


def test_repeated_transient_reuses_read_only_block_tables():
    # One resonator at one step: the second run takes the kept tables and
    # gives the same bits, and no caller can write to the shared tables.
    scenario, res = _default_parts()
    dt = 1.0 / (200 * res.natural_frequency)
    args = (res, scenario.sensor, Drive("dc", scenario.drive.amplitude),
            scenario.environment, 1000 * dt, dt)
    first = simulate_transient(*args)
    hits = _block_tables.cache_info().hits
    second = simulate_transient(*args)
    # Both levels hit: the steps' tables of [P g1 g2 g3] and the groups' of [P^B I].
    assert _block_tables.cache_info().hits == hits + 2
    for name in ("time", "displacement", "velocity", "output_voltage"):
        assert np.array_equal(getattr(first, name), getattr(second, name))
    for inputs, length in ((3, BLOCK_STEPS), (2, GROUP_BLOCKS)):
        powers, kernel = _block_tables(np.full((2, 2 + inputs), 0.5).tobytes(), length)
        assert powers.shape == (2, 2, length)
        assert kernel.shape == (2, inputs * length, length)
        assert not powers.flags.writeable and not kernel.flags.writeable


def test_transient_scratch_memory_is_one_chunk():
    # A 500,000-step run may hold its four output columns and at most 1 MB
    # more at any time: no full-length forcing or interleaved buffer.
    scenario, res = _default_parts()
    dt = 1.0 / (200 * res.natural_frequency)
    drive = Drive("dc", scenario.drive.amplitude)
    steps = 500_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = simulate_transient(
            res, scenario.sensor, drive, scenario.environment, steps * dt, dt
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(series.time) == steps + 1
    assert peak <= 4 * 8 * (steps + 1) + 2**20


@pytest.mark.parametrize("kind", ["lorentz", "ferro"])
def test_settled_dc_voltage_is_the_static_output(kind):
    # After 10 Q/f0 the ring-down has decayed by e^(-10 pi); the voltage
    # column's gain must then give the static chain's field signal.
    scenario = default_scenario(kind)
    res = scenario.sensor.resonator(scenario.quality_factor)
    f0 = res.natural_frequency
    drive = Drive("dc", scenario.drive.amplitude)
    series = simulate_transient(
        res, scenario.sensor, drive, scenario.environment,
        duration=10.0 * scenario.quality_factor / f0, dt=1.0 / (100 * f0),
    )
    report = run_scenario(scenario)
    signal = report.output_at_field - report.offset
    assert series.output_voltage[-1] == pytest.approx(signal, rel=1e-9)


def _analytic_free_decay(resonator, x0, t):
    w0 = 2.0 * math.pi * resonator.natural_frequency
    zeta = 1.0 / (2.0 * resonator.quality_factor)
    wd = w0 * math.sqrt(1.0 - zeta**2)
    return np.exp(-zeta * w0 * t) * (
        x0 * np.cos(wd * t) + (zeta * w0 * x0 / wd) * np.sin(wd * t)
    )


def test_integrator_fourth_order():
    # Free decay from a displaced start has a closed form; halving dt must
    # shrink the worst-case trajectory error by about 2^4.
    scenario, res = _default_parts()
    quiet = Drive(waveform="dc", amplitude=0.0)
    period = 1.0 / res.natural_frequency
    duration = 20 * period
    x0 = 1e-6

    errors = []
    for dt in (period / 60, period / 120):
        series = simulate_transient(
            res, scenario.sensor, quiet, scenario.environment,
            duration=duration, dt=dt, x0=x0,
        )
        exact = _analytic_free_decay(res, x0, series.time)
        errors.append(np.max(np.abs(series.displacement - exact)))
    ratio = errors[0] / errors[1]
    assert 12.0 < ratio < 20.0


def test_steady_state_pure_sinusoid():
    # 2000 samples per period puts the extrema exactly on the grid.
    freq = 1.0
    dt = 1.0 / (2000 * freq)
    t = np.arange(20_001) * dt
    x = np.sin(2.0 * math.pi * freq * t)
    series = TimeSeries(
        dt=dt,
        time=t,
        displacement=x,
        velocity=np.zeros_like(t),
        output_voltage=2.0 * x,
        drive_period=1.0 / freq,
    )
    steady = steady_state_amplitude(series)
    assert steady.displacement == pytest.approx(1.0, rel=1e-9)
    assert steady.voltage == pytest.approx(2.0, rel=1e-9)


def test_steady_state_rejects_decaying_signal():
    freq = 1.0
    dt = 1.0 / (200 * freq)
    t = np.arange(2001) * dt
    tau = 10.0 / freq
    x = np.exp(-t / tau) * np.sin(2.0 * math.pi * freq * t)
    series = TimeSeries(
        dt=dt,
        time=t,
        displacement=x,
        velocity=np.zeros_like(t),
        output_voltage=x,
        drive_period=1.0 / freq,
    )
    with pytest.raises(UnsettledError):
        steady_state_amplitude(series)


def _series(x, dt=1e-3, drive_period=None):
    x = np.asarray(x, dtype=float)
    t = np.arange(len(x)) * dt
    return TimeSeries(dt=dt, time=t, displacement=x, velocity=np.zeros_like(t),
                      output_voltage=3.0 * x, drive_period=drive_period)


def test_steady_state_needs_a_long_enough_tail():
    # The first half of the record is discarded: 5 samples keep 3.
    with pytest.raises(ValueError, match="too few samples after settling"):
        steady_state_amplitude(_series([0.0, 1.0, -1.0, 1.0, -1.0]))
    # A square drive needs two whole periods in the tail: 100 samples keep
    # 50, and a 30-sample period needs 60.
    square = _series(np.sin(np.arange(100) * 2.0 * math.pi / 30.0), drive_period=30e-3)
    with pytest.raises(ValueError, match="shorter than two drive periods"):
        steady_state_amplitude(square)


def test_steady_state_of_a_dc_record_compares_tail_halves():
    # A settled dc record: each half of the tail swings by the same ripple.
    x = 2e-9 + 1e-12 * np.cos(np.arange(400) * math.pi / 10.0)
    steady = steady_state_amplitude(_series(x))
    assert steady.displacement == pytest.approx(1e-12, rel=1e-9)
    assert steady.voltage == pytest.approx(3e-12, rel=1e-9)
    # One half swinging twice as far is not settled.
    x[300:] = 2e-9 + 2e-12 * np.cos(np.arange(100) * math.pi / 10.0)
    with pytest.raises(UnsettledError):
        steady_state_amplitude(_series(x))


def test_timeseries_csv_roundtrip(tmp_path):
    scenario, res = _default_parts()
    series = simulate_transient(
        res,
        scenario.sensor,
        scenario.drive,
        scenario.environment,
        duration=10.0 / scenario.drive.frequency,
        dt=1.0 / (100 * res.natural_frequency),
    )
    path = tmp_path / "transient.csv"
    series.to_csv(path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], series.time)
    assert np.array_equal(data[:, 1], series.displacement)
    assert np.array_equal(data[:, 2], series.velocity)
    assert np.array_equal(data[:, 3], series.output_voltage)


def test_timeseries_csv_chunks_write_the_whole_table_bytes(tmp_path):
    # The chunked writer gives the bytes of one savetxt over all rows, on a
    # run three and a bit chunks long.
    scenario, res = _default_parts()
    dt = 1.0 / (200 * res.natural_frequency)
    steps = 3 * CSV_CHUNK_ROWS + 5
    series = simulate_transient(
        res, scenario.sensor, scenario.drive, scenario.environment, steps * dt, dt
    )
    path, whole = tmp_path / "chunked.csv", tmp_path / "whole.csv"
    series.to_csv(path)
    columns = (series.time, series.displacement, series.velocity, series.output_voltage)
    np.savetxt(whole, np.column_stack(columns), delimiter=",",
               header=",".join(TRANSIENT_COLUMNS), comments="", fmt="%.17g")
    assert path.read_bytes() == whole.read_bytes()
    assert path.read_text().count("\n") == steps + 2
