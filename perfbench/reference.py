"""Reference figures computed apart from the program.

Everything here works from a resolved scenario tree (the plain dict a
report echoes back) and the paper's closed forms. Nothing imports
memsmag, and nothing is a stored copy of an earlier output, so a fault in
the program's arithmetic cannot also hide in the figure it is checked
against. The film constants are the handbook inputs of the paper's
designs, repeated here on purpose.
"""

import csv
import io
import math

# (Young's modulus Pa, density kg/m^3, yield stress Pa or None,
#  longitudinal piezoresistive coefficient 1/Pa or None)
FILMS = {
    "silicon": (169e9, 2329.0, 7.0e9, 1.02e-9),
    "polysilicon": (160e9, 2330.0, 1.2e9, 4.0e-10),
    "silicon_nitride": (250e9, 3100.0, 6.4e9, None),
    "aluminum": (70e9, 2700.0, 150e6, None),
    "nickel": (200e9, 8900.0, None, None),
}
_FIELD_INDEX = {
    "youngs_modulus": 0,
    "density": 1,
    "yield_stress": 2,
    "pi_longitudinal": 3,
}

RAYLEIGH_MASS_FRACTION = 33.0 / 140.0
MAX_STRESS_FRACTION = 0.5  # optimizer default: anchor stress <= yield / 2
MAX_TEMPERATURE_RISE = 1.0  # K, optimizer default


def film(tree: dict, name: str, field: str):
    """One film constant with the scenario's material overrides applied."""
    overrides = (tree.get("material_overrides") or {}).get(name, {})
    if field in overrides:
        return overrides[field]
    return FILMS[name][_FIELD_INDEX[field]]


def beam_node(tree: dict) -> dict:
    sensor = tree["sensor"]
    return sensor["support_beam"] if sensor["kind"] == "lorentz" else sensor["suspension"]


def thickness(beam: dict) -> float:
    return sum(layer["thickness"] for layer in beam["layers"])


def flexural_rigidity(tree: dict, beam: dict) -> float:
    """EI of the layer stack about its modulus-weighted neutral axis."""
    w = beam["width"]
    tops, mods, ts = [], [], []
    z = 0.0
    for layer in beam["layers"]:
        ts.append(layer["thickness"])
        mods.append(film(tree, layer["material"], "youngs_modulus"))
        z += layer["thickness"]
        tops.append(z)
    mids = [top - t / 2 for top, t in zip(tops, ts)]
    neutral = sum(e * t * m for e, t, m in zip(mods, ts, mids)) / sum(
        e * t for e, t in zip(mods, ts)
    )
    return sum(
        e * w * (t**3 / 12.0 + t * (m - neutral) ** 2)
        for e, t, m in zip(mods, ts, mids)
    )


def mass_per_length(tree: dict, beam: dict) -> float:
    return sum(
        film(tree, layer["material"], "density") * beam["width"] * layer["thickness"]
        for layer in beam["layers"]
    )


def tip_mass(tree: dict) -> float:
    sensor = tree["sensor"]
    if sensor["kind"] == "lorentz":
        return 0.0
    plate = sensor["plate_length"] * sensor["plate_width"] * sensor["plate_thickness"]
    return plate * sensor["plate_density"] / sensor["suspension_count"]


def resonator(tree: dict) -> dict:
    """Tip stiffness, effective mass, f0 and damping of the lumped model."""
    beam = beam_node(tree)
    k = 3.0 * flexural_rigidity(tree, beam) / beam["length"] ** 3
    m = RAYLEIGH_MASS_FRACTION * mass_per_length(tree, beam) * beam["length"]
    m += tip_mass(tree)
    q = tree["quality_factor"]
    return {
        "k": k,
        "m": m,
        "f0": math.sqrt(k / m) / (2.0 * math.pi),
        "q": q,
        "damping": math.sqrt(k * m) / q,
    }


def gauge_gain(tree: dict) -> float:
    """Bridge volts per pascal at the anchor: pi_l * V_bias / 4."""
    sensor = tree["sensor"]
    pi = film(tree, sensor["gauge"]["material"], "pi_longitudinal")
    return pi * sensor["bridge_bias"] / 4.0


def stress_per_field(tree: dict) -> float:
    """Anchor stress per tesla, 6*M/(w*t^2) with the load shared by n beams."""
    sensor, env = tree["sensor"], tree["environment"]
    beam = beam_node(tree)
    section = beam["width"] * thickness(beam) ** 2
    if sensor["kind"] == "lorentz":
        force = tree["drive"]["amplitude"] * sensor["top_beam_length"]
        force *= math.sin(env["field_angle"])
        return 6.0 * beam["length"] * force / (section * sensor["load_share_count"])
    volume = sensor["plate_length"] * sensor["plate_width"] * sensor["plate_thickness"]
    moment = sensor["magnetization"] * volume
    moment *= math.sin(env["field_angle"] + sensor["misalignment"])
    return 6.0 * moment / (section * sensor["suspension_count"])


def sensitivity(tree: dict) -> float:
    """dV/dB of either chain from the paper's closed forms."""
    return stress_per_field(tree) * gauge_gain(tree)


def offset(tree: dict) -> float:
    """Field-independent self-heating offset c*I^2."""
    return tree["offset_coefficient"] * tree["drive"]["amplitude"] ** 2


def temperature_rise(tree: dict) -> float:
    sensor = tree["sensor"]
    if sensor["kind"] != "lorentz":
        return 0.0
    current = tree["drive"]["amplitude"]
    return current**2 * sensor["loop_resistance"] * tree["thermal_resistance"]


def weakest_yield(tree: dict) -> float:
    yields = [
        film(tree, layer["material"], "yield_stress")
        for layer in beam_node(tree)["layers"]
    ]
    return min(y for y in yields if y is not None)


def feasible(tree: dict, rel: float = 1e-9) -> bool:
    """Inside the optimizer's default stress and heating limits."""
    stress = abs(stress_per_field(tree) * tree["environment"]["field_magnitude"])
    stress_ok = stress <= MAX_STRESS_FRACTION * weakest_yield(tree) * (1 + rel)
    return stress_ok and temperature_rise(tree) <= MAX_TEMPERATURE_RISE * (1 + rel)


def temperature_limited_current(tree: dict) -> float:
    """Largest drive current whose loop heating stays within the limit."""
    r_loop = tree["sensor"]["loop_resistance"]
    return math.sqrt(MAX_TEMPERATURE_RISE / (r_loop * tree["thermal_resistance"]))


def stress_limited_sensitivity(tree: dict) -> float:
    """(sigma_y,min / 2) * pi_l * V_b / (4 B): the best any stress-bound design reaches."""
    field = tree["environment"]["field_magnitude"]
    return MAX_STRESS_FRACTION * weakest_yield(tree) * gauge_gain(tree) / field


def harmonic_amplitude(res: dict, frequency: float) -> tuple:
    """(|x/F|, phase) of the driven spring/mass/damper."""
    r = frequency / res["f0"]
    amp = (1.0 / res["k"]) / math.hypot(1.0 - r * r, r / res["q"])
    return amp, -math.atan2(r / res["q"], 1.0 - r * r)


def peak_frequency(res: dict) -> float:
    return res["f0"] * math.sqrt(1.0 - 1.0 / (2.0 * res["q"] ** 2))


def cantilever_tip(ei: float, length: float, force: float) -> float:
    return force * length**3 / (3.0 * ei)


def damped_free_response(res: dict, x0: float, times) -> list:
    """Exact displacement of the free, underdamped resonator released at x0."""
    w0 = 2.0 * math.pi * res["f0"]
    zeta = 1.0 / (2.0 * res["q"]) if res["q"] != math.inf else 0.0
    wd = w0 * math.sqrt(1.0 - zeta**2)
    return [
        math.exp(-zeta * w0 * t)
        * (x0 * math.cos(wd * t) + zeta * w0 * x0 / wd * math.sin(wd * t))
        for t in times
    ]


def observed_order(steps, tips) -> float:
    """Least-squares slope of log|successive tip change| against log h."""
    diffs = [abs(a - b) for a, b in zip(tips, tips[1:])]
    xs = [math.log(h) for h in steps[:-1]]
    ys = [math.log(d) for d in diffs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def linear_fit_residual(xs, ys) -> float:
    """Relative residual norm of the least-squares line through (xs, ys)."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )
    resid = [y - (my + slope * (x - mx)) for x, y in zip(xs, ys)]
    return math.sqrt(sum(r * r for r in resid)) / math.sqrt(sum(y * y for y in ys))


def csv_table(text: str) -> list:
    """Rows of a csv file as dicts, '#' comment lines skipped."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))
