"""Thin-film material records and the built-in catalog.

The catalog covers the five films used in the sensor stacks. Values not
measured in-house are frozen handbook constants; every entry carries a
provenance comment so the numbers can be audited and overridden from a
scenario config instead of silently edited here.
"""

from dataclasses import dataclass, field, fields, replace

from .errors import MissingPropertyError, NotFoundError

# Optional properties each capability needs at call time.
CAPABILITY_FIELDS = {
    "piezoresistive": ("pi_longitudinal", "hooge_alpha", "carrier_density"),
    "magnetic": ("saturation_magnetization",),
    "plastic": ("yield_stress",),
    "conductive": ("resistivity",),
}


def requirement(ge=None, gt=None, lt=None) -> str:
    """A declared bound as violations word it: "must be > gt", "must be >=
    ge", or "must be in [ge, lt)"."""
    if lt is not None:
        return f"must be in [{ge}, {lt})"
    return f"must be > {gt}" if gt is not None else f"must be >= {ge}"


def within(value, ge=None, gt=None, lt=None) -> bool:
    """Whether `value` keeps the bounds; NaN keeps none."""
    return (gt is None or value > gt) and (ge is None or value >= ge) and (lt is None or value < lt)


@dataclass(frozen=True)
class Material:
    """One film material. SI units throughout; optional fields may be None.

    A set field is held at construction to the bound its metadata declares;
    optional fields are only required when an operation needs them (see
    validate_for).
    """

    name: str
    youngs_modulus: float = field(metadata={"gt": 0})  # Pa
    poisson_ratio: float = field(metadata={"ge": 0, "lt": 0.5})
    density: float = field(metadata={"gt": 0})  # kg/m^3
    cte: float  # 1/K, coefficient of thermal expansion
    yield_stress: float | None = field(default=None, metadata={"gt": 0})  # Pa, flow/fracture
    resistivity: float | None = field(default=None, metadata={"gt": 0})  # Ohm*m
    pi_longitudinal: float | None = None  # 1/Pa, longitudinal piezoresistive coeff
    hooge_alpha: float | None = field(default=None, metadata={"ge": 0})  # flicker parameter
    carrier_density: float | None = field(default=None, metadata={"gt": 0})  # 1/m^3
    saturation_magnetization: float | None = None  # A/m

    def __post_init__(self):
        broken = [
            f"{name} {requirement(ge, gt, lt)}"
            for name, ge, gt, lt in _BOUNDED_FIELDS
            if (value := getattr(self, name)) is not None and not within(value, ge, gt, lt)
        ]
        if broken:
            raise ValueError(f"{self.name}: " + "; ".join(broken))


# (name, ge, gt, lt) of each Material field that declares a bound.
_BOUNDED_FIELDS = tuple(
    (f.name, *map(f.metadata.get, ("ge", "gt", "lt"))) for f in fields(Material) if f.metadata
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a beam stack, bottom to top. Tensile stress is positive."""

    material: Material
    thickness: float = field(metadata={"gt": 0})  # m
    residual_stress: float = field(default=0.0, metadata={"optional": True})  # Pa, tensile positive

    def __post_init__(self):
        if self.thickness <= 0:
            raise ValueError("layer thickness must be > 0")


# Built-in catalog. Per-field provenance:
#   silicon          n-doped monocrystalline device layer (gauges, SOI stack)
#   polysilicon      n-doped LPCVD film (gauges in the bulk process)
#   silicon_nitride  stoichiometric LPCVD film
#   aluminum         e-gun evaporated film (self-assembly driver layer)
#   nickel           evaporated magnetic plate
_CATALOG = {
    "silicon": Material(
        name="silicon",
        youngs_modulus=169e9,  # Pa, <110> in-plane value for (100) wafers
        poisson_ratio=0.28,  # isotropic approximation for (100) silicon
        density=2329.0,  # kg/m^3, crystalline Si
        cte=2.6e-6,  # 1/K at room temperature
        yield_stress=7.0e9,  # Pa, fracture strength of defect-free microbeams
        resistivity=1.5e-5,  # Ohm*m, phosphorus-doped ~5e19 cm^-3
        pi_longitudinal=1.02e-9,  # 1/Pa, |pi_11| of n-Si; sign folded into the
        # bridge orientation convention (tensile stress raises R)
        hooge_alpha=4e-6,  # midpoint of the 2e-6..6e-6 single-crystal range
        carrier_density=5e25,  # 1/m^3, matches the doping behind resistivity
    ),
    "polysilicon": Material(
        name="polysilicon",
        youngs_modulus=160e9,  # Pa, LPCVD polysilicon
        poisson_ratio=0.22,
        density=2330.0,  # kg/m^3
        cte=2.8e-6,  # 1/K
        yield_stress=1.2e9,  # Pa, fracture strength of LPCVD poly films
        resistivity=2.0e-5,  # Ohm*m, n-doped film
        pi_longitudinal=4.0e-10,  # 1/Pa, grain averaging reduces the
        # single-crystal coefficient by roughly 2-3x
        hooge_alpha=2e-5,  # poly sits about an order above single crystal
        carrier_density=5e25,  # 1/m^3
    ),
    "silicon_nitride": Material(
        name="silicon_nitride",
        youngs_modulus=250e9,  # Pa, stoichiometric LPCVD Si3N4
        poisson_ratio=0.23,
        density=3100.0,  # kg/m^3
        cte=1.6e-6,  # 1/K
        yield_stress=6.4e9,  # Pa, fracture strength of LPCVD nitride
        # insulator: no electrical, piezoresistive, or magnetic entries
    ),
    "aluminum": Material(
        name="aluminum",
        youngs_modulus=70e9,  # Pa, evaporated film
        poisson_ratio=0.35,
        density=2700.0,  # kg/m^3
        cte=23.1e-6,  # 1/K
        yield_stress=150e6,  # Pa, thin-film flow stress; consistent with the
        # ~150 MPa tensile stress the film holds after a 400 C anneal
        resistivity=2.82e-8,  # Ohm*m, pure Al
    ),
    "nickel": Material(
        name="nickel",
        youngs_modulus=200e9,  # Pa
        poisson_ratio=0.31,
        density=8900.0,  # kg/m^3
        cte=13.4e-6,  # 1/K
        resistivity=6.99e-8,  # Ohm*m
        saturation_magnetization=4.8e5,  # A/m, handbook Ms of Ni
        # (mu0*Ms ~ 0.61 T)
    ),
}

BUILTIN_NAMES = tuple(sorted(_CATALOG))


def builtin_material(name: str) -> Material:
    """Return the built-in record for one of the five catalog films."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise NotFoundError(
            f"unknown material '{name}'; valid names: {', '.join(BUILTIN_NAMES)}"
        ) from None


def validate_for(material: Material, capability: str) -> None:
    """Raise MissingPropertyError unless `material` supports `capability`."""
    try:
        needed = CAPABILITY_FIELDS[capability]
    except KeyError:
        raise NotFoundError(
            f"unknown capability '{capability}'; valid: {', '.join(CAPABILITY_FIELDS)}"
        ) from None
    missing = [f for f in needed if getattr(material, f) is None]
    if missing:
        raise MissingPropertyError(material.name, missing)


def override_material(base: Material, **overrides) -> Material:
    """Copy `base` with selected fields replaced (scenario-file overrides)."""
    valid = Material.__dataclass_fields__.keys()
    bad = set(overrides) - valid
    if bad:
        raise NotFoundError(
            f"unknown material field(s) {sorted(bad)}; valid fields: {sorted(valid)}"
        )
    return replace(base, **overrides)
