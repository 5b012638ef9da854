"""Material constants, Stark Hamiltonians and experimental feasibility.

The linear and quadratic Stark Hamiltonians of an acceptor-bound hole are
encoded as six real coefficients (d0, d1..d5) in meV:

    H = d0 * I + sum_a d_a * gamma_a

so the Kramers doublets sit at eps_pm = d0 +/- |d| and the gap is 2|d|.
Fields are in V/m, lengths in Angstrom; see units.py.

d is linear in E, or quadratic: d(E) = B(E, E) for one symmetric bilinear
form B.  A path step from a to b therefore changes d by exactly
J(E_mid) dE = d(b) - d(a) (d_increment), the input of the transport.

The two regimes are kept strictly separate (explicit ``regime`` argument,
no automatic crossover): the linear effect applies at small fields, the
quadratic one at large fields.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import default_basis
from .errors import InvalidInput, UnknownMaterial, is_finite_number, load_json
from .units import MEV_PER_ANGSTROM_V_PER_M, PLANCK_MEV_S

REGIMES = ("linear", "quadratic")

# quadratic (alpha, beta, delta) and linear (chi) coefficients plus mean
# ground-state radius; chi for Ge is a literature lower limit (estimates up
# to 0.26 exist) -- override with dataclasses.replace if needed.
_COEFFICIENTS = {
    "Ge": dict(alpha=1.0, beta=-0.3, delta=-0.36, chi=0.7e-3, rbar_angstrom=91.0),
    "Si": dict(alpha=1.0, beta=-0.2, delta=-0.42, chi=1.0e-2, rbar_angstrom=34.4),
}

_IONIZATION_MEV = {
    ("Ge", "B"): 10.4,
    ("Ge", "Al"): 10.2,
    ("Ge", "Ga"): 10.8,
    ("Si", "B"): 45.0,
    ("Si", "Al"): 57.0,
    ("Si", "Ga"): 65.0,
}


@dataclass(frozen=True)
class MaterialParams:
    """Per-(material, dopant) constants with unit conventions.

    alpha, beta, delta are the dimensionless quadratic coefficients, chi the
    dimensionless linear one, rbar_angstrom the mean ground-state radius and
    ionization_meV the acceptor ionization energy.
    """

    name: str
    dopant: str
    alpha: float
    beta: float
    delta: float
    chi: float
    rbar_angstrom: float
    ionization_meV: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.rbar_angstrom > 0 and self.ionization_meV > 0):
            raise InvalidInput(
                f"material {self.name}:{self.dopant} needs alpha, rbar, ionization > 0"
            )

    @property
    def dipole_mev_per_field(self):
        """e * rbar as meV per (V/m); doubles as the linear-regime p = e*a_B
        with the effective radius standing in for the Bohr radius."""
        return self.rbar_angstrom * MEV_PER_ANGSTROM_V_PER_M

    def spherical(self):
        """Isotropic idealization: impose beta = delta / sqrt(3)."""
        return replace(self, beta=self.delta / math.sqrt(3.0))


def builtin_materials():
    """All built-in (material, dopant) entries."""
    out = []
    for (name, dopant), ion in sorted(_IONIZATION_MEV.items()):
        out.append(MaterialParams(name=name, dopant=dopant, ionization_meV=ion,
                                  **_COEFFICIENTS[name]))
    return tuple(out)


def material_lookup(material, dopant, table=None):
    """Constants for a (material, dopant) pair.

    ``table`` maps (material, dopant) to MaterialParams and takes precedence
    over the built-in entries.  Raises UnknownMaterial when the pair is in
    neither; callers must then supply constants themselves.
    """
    if table and (material, dopant) in table:
        return table[(material, dopant)]
    key = (material, dopant)
    if key not in _IONIZATION_MEV:
        raise UnknownMaterial(
            f"no constants for {material}:{dopant}; supply a user material table"
        )
    return MaterialParams(name=material, dopant=dopant,
                          ionization_meV=_IONIZATION_MEV[key], **_COEFFICIENTS[material])


_MATERIAL_CONSTANTS = ("alpha", "beta", "delta", "chi", "rbar_angstrom", "ionization_meV")


def load_material_table(path):
    """Read a user material table (JSON list of records) into a lookup dict.

    Each record is an object carrying the strings material and dopant and
    the finite numbers alpha, beta, delta, chi, rbar_angstrom,
    ionization_meV.
    """
    records = load_json(path)
    if not isinstance(records, list):
        raise InvalidInput(f"{path}: expected a JSON list of material records")
    table = {}
    for rec in records:
        if not isinstance(rec, dict):
            raise InvalidInput(f"{path}: material record must be an object, got {rec!r}")
        for key in ("material", "dopant") + _MATERIAL_CONSTANTS:
            if key not in rec:
                raise InvalidInput(f"{path}: material record missing key {key!r}")
            if not (isinstance(rec[key], str) if key in ("material", "dopant")
                    else is_finite_number(rec[key])):
                raise InvalidInput(f"{path}: bad value {rec[key]!r} for material key {key!r}")
        m = MaterialParams(name=rec["material"], dopant=rec["dopant"],
                           **{k: rec[k] for k in _MATERIAL_CONSTANTS})
        table[(m.name, m.dopant)] = m
    return table


@dataclass(frozen=True)
class DVector:
    """Six coefficients of a Stark Hamiltonian, in meV."""

    d0: float
    d: np.ndarray  # (5,)
    regime: str

    def __post_init__(self):
        _check_regime(self.regime)
        d = np.ascontiguousarray(self.d, dtype=float)
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        if self.regime == "linear":
            if self.d0 != 0.0 or d[3] != 0.0 or d[4] != 0.0:
                raise InvalidInput("linear regime requires d0 = d4 = d5 = 0")

    @property
    def norm(self):
        return float(np.linalg.norm(self.d))


def _check_regime(regime):
    if regime not in REGIMES:
        raise InvalidInput(f"regime must be one of {REGIMES}, got {regime!r}")


def _quadratic_form(e, f, m):
    """Bilinear form B(e, f) (..., 6) holding the quadratic coefficients:
    d(E) = B(E, E) and d(b) - d(a) = 2 B((a+b)/2, b - a).  Mixed terms sum
    their two orderings at half weight, so B(E, E) rounds like one product."""
    p0 = m.dipole_mev_per_field
    kappa = -(p0 * p0) / m.ionization_meV  # meV per (V/m)^2
    hd = 0.5 * kappa * m.delta
    ex, ey, ez = np.moveaxis(e, -1, 0)
    fx, fy, fz = np.moveaxis(f, -1, 0)
    xx, yy, zz = ex * fx, ey * fy, ez * fz
    out = np.empty(e.shape[:-1] + (6,))
    out[..., 0] = kappa * m.alpha * (xx + yy + zz)
    out[..., 1] = hd * ez * fy + hd * fz * ey
    out[..., 2] = hd * ez * fx + hd * fz * ex
    out[..., 3] = hd * ex * fy + hd * fx * ey
    out[..., 4] = kappa * (math.sqrt(3.0) / 2.0) * m.beta * (xx - yy)
    out[..., 5] = kappa * 0.5 * m.beta * (2 * zz - xx - yy)
    return out


def d_components(e, m, regime):
    """Vectorized d-vector components: e of shape (..., 3) -> (..., 6).

    Used by the transport integrators; d_vector wraps single points into
    DVector values.  InvalidInput if d overflows float64 (field too strong).
    """
    _check_regime(regime)
    e = np.asarray(e, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if regime == "linear":
            out = np.zeros(e.shape[:-1] + (6,))
            out[..., 1:4] = m.dipole_mev_per_field * m.chi * e
        else:
            out = _quadratic_form(e, e, m)
    if not np.all(np.isfinite(out)):
        raise InvalidInput("field too strong for float64: the d-vector overflows"
                           if np.all(np.isfinite(e)) else "field must be finite")
    return out


def d_increment(e, de, m, regime):
    """J(e) de for d_1..d_5, shape (..., 5).  At the chord midpoint
    e = (a + b)/2 with de = b - a it is exactly d(b) - d(a), free of the
    cancellation of taking that difference."""
    if regime == "quadratic":
        return 2.0 * _quadratic_form(np.asarray(e, dtype=float), de, m)[..., 1:]
    return d_components(de, m, regime)[..., 1:]  # linear: J is constant


def d_vector(e, m, regime):
    """DVector of the Stark Hamiltonian at one field point e (3,)."""
    c = d_components(e, m, regime)
    return DVector(d0=float(c[0]), d=c[1:], regime=regime)


def d_linear(e, m):
    """Linear-regime d-vector: d_{1..3} = p * chi * E, d0 = d4 = d5 = 0."""
    return d_vector(e, m, "linear")


def d_quadratic(e, m):
    """Quadratic-regime d-vector with prefactor -(e rbar)^2 E^2 / ionization."""
    return d_vector(e, m, "quadratic")


def hamiltonian(d):
    """4x4 Hermitian Stark Hamiltonian d0*I + d_a gamma_a, in meV."""
    h = d.d0 * np.eye(4, dtype=complex)
    h = h + np.einsum("a,aij->ij", d.d, default_basis().gamma)
    return h


def eigen_split(d):
    """(eps_minus, eps_plus, gap) of the Kramers doublets: d0 -/+ |d|, 2|d|."""
    n = d.norm
    return (d.d0 - n, d.d0 + n, 2 * n)


def direction_grid(n=200):
    """Deterministic unit directions: symmetry axes plus a Fibonacci sphere.

    The axes, face diagonals and body diagonals are included explicitly since
    the quadratic gap takes its extremes at these symmetry points.
    """
    special = [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1),
        (1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1),
    ]
    dirs = [np.array(s, dtype=float) / np.linalg.norm(s) for s in special]
    golden = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(n):
        z = 1.0 - 2.0 * (k + 0.5) / n
        r = math.sqrt(max(0.0, 1.0 - z * z))
        dirs.append(np.array([r * math.cos(golden * k), r * math.sin(golden * k), z]))
    return np.array(dirs)


@dataclass(frozen=True)
class FeasibilityReport:
    """Static experimental budget at one field magnitude and rotation rate."""

    material: str
    dopant: str
    regime: str
    e_mag: float
    rotation_freq_hz: float
    gap_min_meV: float
    gap_max_meV: float
    drive_quantum_meV: float
    adiabaticity_ratio: float
    ionization_margin_meV: float
    adiabaticity_flag: bool
    ionization_flag: bool

    @property
    def flags(self):
        out = []
        if self.adiabaticity_flag:
            out.append("adiabaticity")
        if self.ionization_flag:
            out.append("ionization")
        return out


def feasibility_report(e_mag, m, rotation_freq, regime="quadratic"):
    """Gap extremes over field directions, ionization margin and adiabaticity.

    The drive quantum is h*f for rotation frequency f; the adiabaticity ratio
    is (min gap)/(h*f) and is flagged below 100.  The ionization margin is the
    worst-direction distance of either level shift |eps_pm| from the
    ionization energy, flagged when negative.
    """
    if not e_mag > 0:
        raise InvalidInput("field magnitude must be positive")
    if not np.isfinite(e_mag):
        raise InvalidInput("field too strong for float64: |E| overflows")
    if not (np.isfinite(rotation_freq) and rotation_freq > 0):
        raise InvalidInput("rotation frequency must be positive")
    _check_regime(regime)
    comps = d_components(direction_grid() * e_mag, m, regime)
    norms = np.linalg.norm(comps[:, 1:], axis=1)
    gaps = 2.0 * norms
    eps_minus = comps[:, 0] - norms
    eps_plus = comps[:, 0] + norms
    worst_shift = max(np.abs(eps_minus).max(), np.abs(eps_plus).max())
    drive_quantum = PLANCK_MEV_S * rotation_freq
    gap_min = float(gaps.min())
    ratio = gap_min / drive_quantum
    margin = float(m.ionization_meV - worst_shift)
    return FeasibilityReport(
        material=m.name, dopant=m.dopant, regime=regime, e_mag=float(e_mag),
        rotation_freq_hz=float(rotation_freq), gap_min_meV=gap_min,
        gap_max_meV=float(gaps.max()), drive_quantum_meV=float(drive_quantum),
        adiabaticity_ratio=float(ratio), ionization_margin_meV=margin,
        adiabaticity_flag=bool(ratio < 100.0), ionization_flag=bool(margin < 0.0),
    )
