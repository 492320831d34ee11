"""Walk the current-loop sensor chain one stage at a time.

Drive current crossed with the ambient field pushes on the top beam, the
support beams turn that force into anchor stress, the gauge turns stress
into a resistance change, and the bridge reads it out as volts.
"""

from memsmag import (
    bridge_output,
    default_scenario,
    lorentz_force,
    max_anchor_stress,
    piezo_fractional_resistance,
    run_scenario,
)


def main():
    scenario = default_scenario("lorentz")
    sensor, drive, env = scenario.sensor, scenario.drive, scenario.environment
    beam = sensor.support_beam

    force = lorentz_force(
        drive.amplitude, sensor.top_beam_length, env.field_magnitude, env.field_angle
    )
    stress = max_anchor_stress(
        force, beam.length, beam.width, beam.total_thickness, sensor.load_share_count
    )
    fraction = piezo_fractional_resistance(
        stress, sensor.gauge.material.pi_longitudinal
    )
    volts = bridge_output(fraction, sensor.bridge_bias)

    print(f"drive current      {drive.amplitude * 1e3:8.2f} mA")
    print(f"ambient field      {env.field_magnitude * 1e3:8.2f} mT")
    print(f"tip force          {force * 1e9:8.3f} nN")
    print(f"anchor stress      {stress:8.1f} Pa")
    print(f"gauge dR/R         {fraction:8.2e}")
    print(f"bridge signal      {volts * 1e6:8.3f} uV")

    report = run_scenario(scenario)
    print(f"self-heat offset   {report.offset * 1e6:8.3f} uV")
    print(f"total output       {report.output_at_field * 1e6:8.3f} uV")
    print(f"sensitivity        {report.sensitivity * 1e3:8.4f} mV/T")
    print(f"min detectable     {report.min_detectable_field * 1e6:8.3f} uT")
    for warning in report.warnings:
        print(f"note: {warning}")


if __name__ == "__main__":
    main()
