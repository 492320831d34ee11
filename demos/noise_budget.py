"""Break the output noise into its three contributions.

Johnson noise of the gauge sets a white floor, Hooge flicker noise rises
as 1/f below the corner, and the suspension's thermomechanical force noise
appears at the output through the same gain as the signal.
"""

import numpy as np

from memsmag import default_scenario, noise_budget


def main():
    scenario = default_scenario("lorentz")
    budget = noise_budget(
        scenario.sensor,
        scenario.drive,
        scenario.environment,
        scenario.noise_band,
        scenario.sensor.resonator(scenario.quality_factor),
    )

    print(f"johnson floor      {budget.thermal_electrical_psd:.3e} V^2/Hz")
    print(f"mechanical (ref.)  {budget.thermal_mechanical_psd_referred:.3e} V^2/Hz")
    print(f"flicker scale      {budget.flicker_scale:.3e} V^2")
    print(f"corner frequency   {budget.corner_frequency:8.1f} Hz")
    print()
    print("frequency sweep across the band:")
    for frequency in np.geomspace(budget.band[0], budget.band[1], 9):
        flicker = budget.flicker_psd_at(frequency)
        dominant = "flicker" if flicker > budget.thermal_electrical_psd else "johnson"
        print(
            f"  {frequency:9.1f} Hz   total {budget.total_psd_at(frequency):.3e}"
            f" V^2/Hz   {dominant} dominated"
        )
    print()
    f1, f2 = budget.band
    print(f"rms over [{f1:g}, {f2:g}] Hz   {budget.rms * 1e6:.3f} uV")
    print(f"min detectable field      {budget.min_detectable_field * 1e6:.3f} uT")


if __name__ == "__main__":
    main()
