"""Thin-film material records and the built-in catalog.

The catalog covers the five films used in the sensor stacks. Values not
measured in-house are frozen handbook constants; every entry carries a
provenance comment so the numbers can be audited and overridden from a
scenario config instead of silently edited here.
"""

from dataclasses import dataclass, field, fields, replace

from .errors import NotFoundError


def requirement(ge=None, gt=None) -> str:
    """A declared bound as violations word it: "must be > gt" or "must be >= ge"."""
    return f"must be > {gt}" if gt is not None else f"must be >= {ge}"


def within(value, ge=None, gt=None) -> bool:
    """Whether `value` keeps the bounds; NaN keeps none."""
    return (gt is None or value > gt) and (ge is None or value >= ge)


@dataclass(frozen=True)
class Material:
    """One film material. SI units throughout; optional fields may be None.

    A set field is held at construction to the bound its metadata declares;
    optional fields are only required where a record reads them (a gauge
    film needs the piezoresistive ones, see transduction.GaugeSpec).
    """

    name: str
    youngs_modulus: float = field(metadata={"gt": 0})  # Pa
    density: float = field(metadata={"gt": 0})  # kg/m^3
    yield_stress: float | None = field(default=None, metadata={"gt": 0})  # Pa, flow/fracture
    pi_longitudinal: float | None = None  # 1/Pa, longitudinal piezoresistive coeff
    hooge_alpha: float | None = field(default=None, metadata={"ge": 0})  # flicker parameter
    carrier_density: float | None = field(default=None, metadata={"gt": 0})  # 1/m^3

    def __post_init__(self):
        broken = [
            f"{name} {requirement(ge, gt)}"
            for name, ge, gt in _BOUNDED_FIELDS
            if (value := getattr(self, name)) is not None and not within(value, ge, gt)
        ]
        if broken:
            raise ValueError(f"{self.name}: " + "; ".join(broken))


# (name, ge, gt) of each Material field that declares a bound.
_BOUNDED_FIELDS = tuple(
    (f.name, f.metadata.get("ge"), f.metadata.get("gt")) for f in fields(Material) if f.metadata
)


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a beam stack, bottom to top. Tensile stress is positive."""

    material: Material
    thickness: float = field(metadata={"gt": 0})  # m
    residual_stress: float = field(default=0.0, metadata={"optional": True})  # Pa, tensile positive

    def __post_init__(self):
        if not self.thickness > 0:
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
        density=2329.0,  # kg/m^3, crystalline Si
        yield_stress=7.0e9,  # Pa, fracture strength of defect-free microbeams
        pi_longitudinal=1.02e-9,  # 1/Pa, |pi_11| of n-Si; sign folded into the
        # bridge orientation convention (tensile stress raises R)
        hooge_alpha=4e-6,  # midpoint of the 2e-6..6e-6 single-crystal range
        carrier_density=5e25,  # 1/m^3, phosphorus doping ~5e19 cm^-3
    ),
    "polysilicon": Material(
        name="polysilicon",
        youngs_modulus=160e9,  # Pa, LPCVD polysilicon
        density=2330.0,  # kg/m^3
        yield_stress=1.2e9,  # Pa, fracture strength of LPCVD poly films
        pi_longitudinal=4.0e-10,  # 1/Pa, grain averaging reduces the
        # single-crystal coefficient by roughly 2-3x
        hooge_alpha=2e-5,  # poly sits about an order above single crystal
        carrier_density=5e25,  # 1/m^3
    ),
    "silicon_nitride": Material(
        name="silicon_nitride",
        youngs_modulus=250e9,  # Pa, stoichiometric LPCVD Si3N4
        density=3100.0,  # kg/m^3
        yield_stress=6.4e9,  # Pa, fracture strength of LPCVD nitride
        # insulator: no piezoresistive entries
    ),
    "aluminum": Material(
        name="aluminum",
        youngs_modulus=70e9,  # Pa, evaporated film
        density=2700.0,  # kg/m^3
        yield_stress=150e6,  # Pa, thin-film flow stress; consistent with the
        # ~150 MPa tensile stress the film holds after a 400 C anneal
    ),
    "nickel": Material(
        name="nickel",
        youngs_modulus=200e9,  # Pa
        density=8900.0,  # kg/m^3
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


def override_material(base: Material, **overrides) -> Material:
    """Copy `base` with selected fields replaced (scenario-file overrides)."""
    valid = Material.__dataclass_fields__.keys()
    bad = set(overrides) - valid
    if bad:
        raise NotFoundError(
            f"unknown material field(s) {sorted(bad)}; valid fields: {sorted(valid)}"
        )
    return replace(base, **overrides)
