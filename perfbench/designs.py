"""Seeded batches of distinct, valid sensor designs.

Each design is a partial scenario tree merged over the packaged default
of its kind. Both kinds appear, with stacks of one to three films, both
gauge films and material overrides on some designs. Every range keeps
the design valid and its sensitivity positive, so no design fails.
"""

import math
import random

STACKS = (
    (("silicon", 80e-9, 200e-9), ("silicon_nitride", 150e-9, 400e-9), ("aluminum", 0.5e-6, 1.5e-6)),
    (("polysilicon", 100e-9, 400e-9), ("silicon_nitride", 150e-9, 400e-9), ("aluminum", 0.5e-6, 1.5e-6)),
    (("silicon_nitride", 200e-9, 500e-9), ("aluminum", 0.5e-6, 1.5e-6)),
    (("polysilicon", 0.5e-6, 1.5e-6), ("aluminum", 0.3e-6, 1.0e-6)),
    (("silicon", 0.5e-6, 2.0e-6),),
)

# (film, field, lowest and highest factor on the handbook value)
OVERRIDES = (
    ("silicon", "pi_longitudinal", 1.02e-9, 0.8, 1.2),
    ("polysilicon", "pi_longitudinal", 4.0e-10, 0.8, 1.2),
    ("aluminum", "youngs_modulus", 70e9, 0.9, 1.1),
    ("silicon_nitride", "density", 3100.0, 0.9, 1.1),
    ("silicon", "hooge_alpha", 4e-6, 0.5, 1.5),
)


def _beam(rng, length, width) -> dict:
    stack = rng.choice(STACKS)
    return {
        "length": rng.uniform(*length),
        "width": rng.uniform(*width),
        "layers": [{"material": m, "thickness": rng.uniform(lo, hi)} for m, lo, hi in stack],
    }


def _gauge(rng) -> dict:
    return {
        "material": rng.choice(("silicon", "polysilicon")),
        "thickness": rng.uniform(80e-9, 300e-9),
        "resistance": rng.uniform(500.0, 3000.0),
    }


def _overrides(rng) -> dict:
    chosen = {}
    for name, field, base, lo, hi in rng.sample(OVERRIDES, rng.randint(0, 3)):
        chosen.setdefault(name, {})[field] = base * rng.uniform(lo, hi)
    return chosen


def design(rng, kind: str) -> dict:
    if kind == "lorentz":
        sensor = {
            "kind": "lorentz",
            "top_beam_length": rng.uniform(300e-6, 900e-6),
            "loop_resistance": rng.uniform(50.0, 200.0),
            "bridge_bias": rng.uniform(1.0, 5.0),
            "support_beam": _beam(rng, (200e-6, 800e-6), (5e-6, 40e-6)),
            "gauge": _gauge(rng),
        }
        drive = {"waveform": "square", "amplitude": rng.uniform(1e-3, 20e-3),
                 "frequency": rng.uniform(1e3, 1e4)}
        field = rng.uniform(1e-4, 1e-2)
        angle = rng.uniform(0.3, math.pi - 0.3)
    else:
        sensor = {
            "kind": "ferro",
            "plate_length": rng.uniform(50e-6, 200e-6),
            "plate_width": rng.uniform(30e-6, 100e-6),
            "plate_thickness": rng.uniform(0.3e-6, 1.0e-6),
            "magnetization": rng.uniform(2e5, 4.8e5),
            "suspension_count": rng.randint(1, 4),
            "misalignment": rng.uniform(0.0, 0.2),
            "bridge_bias": rng.uniform(1.0, 5.0),
            "suspension": _beam(rng, (100e-6, 500e-6), (5e-6, 30e-6)),
            "gauge": _gauge(rng),
        }
        drive = {"waveform": "dc", "amplitude": 0.0}
        field = rng.uniform(0.05, 0.5)
        angle = rng.uniform(0.3, math.pi - 0.5)
    return {
        "sensor": sensor,
        "drive": drive,
        "environment": {"field_magnitude": field, "field_angle": angle,
                        "temperature": rng.uniform(250.0, 350.0)},
        "quality_factor": rng.uniform(5.0, 100.0),
        "material_overrides": _overrides(rng),
    }


def batch(seed: int, round_index: int, size: int) -> list:
    """`size` designs, fixed by the seed and the round they belong to.

    The kinds alternate, so per-report call counts do not depend on the seed.
    """
    rng = random.Random(seed * 1_000_003 + round_index)
    return [design(rng, ("lorentz", "ferro")[i % 2]) for i in range(size)]
