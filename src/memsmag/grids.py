"""Grid limits and defaults that the command parser needs before any
command runs, and the plain-Python point grids of sweeps and frequency
tables. The CLI imports this module without the explorer.
"""

import math

DEFAULT_CONSTRAINTS = {"max_stress_fraction": 0.5, "max_temperature_rise": 1.0}

# Most points one sweep or frequency table may hold; each keeps its row.
MAX_SWEEP_POINTS = 10_000


def _linspace(start: float, stop: float, steps: int) -> list:
    """np.linspace(start, stop, steps).tolist(), bit for bit, in plain Python."""
    div = steps - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # numpy's branch for a span whose step underflows
        values = [i / div * delta + start for i in range(div)]
    else:
        values = [i * step + start for i in range(div)]
    return values + [stop]


def _geomspace(start: float, stop: float, steps: int) -> list:
    """np.geomspace(start, stop, steps).tolist() for positive ends, in plain Python.

    The ends are `start` and `stop` exactly; each point between is 10**e,
    with the exponents spaced by _linspace between the correctly rounded
    log10 of the ends. libm's pow and numpy's may round apart, so an
    interior point can differ by 1 ulp from numpy's, where numpy's log10
    rounds correctly too. A power past the float range reads as inf, as
    numpy gives it.
    """
    # libm's log10 (math.log10) misrounds a few percent of inputs, and an
    # exponent e one ulp off moves 10**e by about ln(10)·|e| ulp; decimal's
    # log10 rounds correctly.
    from decimal import Context, Decimal

    context = Context(prec=40)
    low, high = (float(context.log10(Decimal(end))) for end in (start, stop))
    values = [start]
    for exponent in _linspace(low, high, steps)[1:-1]:
        try:
            values.append(10.0 ** exponent)
        except OverflowError:
            values.append(math.inf)
    return values + [stop]
