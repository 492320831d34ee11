"""Ring the beam up at resonance and compare with the harmonic prediction.

A square drive at the natural frequency settles to a displacement set by
the fundamental of the square wave: (4/pi) * Q * F / k.
"""

import math

from memsmag import (
    Drive,
    default_scenario,
    find_resonance,
    frequency_response,
    lorentz_force,
    simulate_transient,
    steady_state_amplitude,
)


def main():
    scenario = default_scenario("lorentz")
    sensor, env = scenario.sensor, scenario.environment
    resonator = sensor.resonator(scenario.quality_factor)
    f0 = resonator.natural_frequency

    print(f"stiffness          {resonator.stiffness:8.3f} N/m")
    print(f"effective mass     {resonator.effective_mass * 1e12:8.2f} ng")
    print(f"natural frequency  {f0:8.1f} Hz")

    peak = find_resonance(resonator, f0 / 10, f0 * 10)
    gain = frequency_response(resonator, peak)
    print(f"response peak      {peak:8.1f} Hz, {gain.amplitude:.3e} m/N")

    drive = Drive(waveform="square", amplitude=10e-3, frequency=f0)
    series = simulate_transient(
        resonator,
        sensor,
        drive,
        env,
        duration=10 * resonator.quality_factor / f0,
        dt=1.0 / (200 * f0),
    )
    steady = steady_state_amplitude(series)

    force = (
        lorentz_force(drive.amplitude, sensor.top_beam_length, env.field_magnitude,
                      env.field_angle)
        / sensor.load_share_count
    )
    expected = (4.0 / math.pi) * resonator.quality_factor * force / resonator.stiffness
    error = abs(steady.displacement - expected) / expected

    print(f"settled amplitude  {steady.displacement * 1e9:8.3f} nm")
    print(f"harmonic estimate  {expected * 1e9:8.3f} nm  ({error * 100:.3f}% apart)")
    print(f"bridge amplitude   {steady.voltage * 1e6:8.3f} uV")


if __name__ == "__main__":
    main()
