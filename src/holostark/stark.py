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

from ._linalg import pow2_exponent, scaled_norm
from .algebra import default_basis
from .errors import InvalidInput, UnknownMaterial, _ArgumentError, is_finite_number
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


_MATERIAL_CONSTANTS = ("alpha", "beta", "delta", "chi", "rbar_angstrom", "ionization_meV")


@dataclass(frozen=True)
class MaterialParams:
    """Per-(material, dopant) constants with unit conventions.

    alpha, beta, delta are the dimensionless quadratic coefficients, chi the
    dimensionless linear one, rbar_angstrom the mean ground-state radius and
    ionization_meV the acceptor ionization energy.  Construction requires
    all six finite, and alpha, rbar_angstrom and ionization_meV > 0.
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
        for key in _MATERIAL_CONSTANTS:
            if not math.isfinite(getattr(self, key)):
                raise InvalidInput(f"material {self.name}:{self.dopant} needs finite "
                                   f"constants, got {key} = {getattr(self, key)}")
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


_BUILTIN = {(name, dopant): MaterialParams(name=name, dopant=dopant, ionization_meV=ion,
                                           **_COEFFICIENTS[name])
            for (name, dopant), ion in _IONIZATION_MEV.items()}


def builtin_materials():
    """All built-in (material, dopant) entries."""
    return tuple(_BUILTIN[key] for key in sorted(_BUILTIN))


def material_lookup(material, dopant, table=None):
    """Constants for a (material, dopant) pair.

    ``table`` maps (material, dopant) to MaterialParams and takes precedence
    over the built-in entries.  Raises UnknownMaterial when the pair is in
    neither; callers must then supply constants themselves.
    """
    key = (material, dopant)
    if table and key in table:
        return table[key]
    if key not in _BUILTIN:
        raise UnknownMaterial(
            f"no constants for {material}:{dopant}; supply a user material table"
        )
    return _BUILTIN[key]


def material_table(records, path):
    """A user material table as a lookup dict.  ``records`` is the parsed
    JSON of the file ``path``, which every error names: a list of objects,
    each with the strings material and dopant and the finite numbers alpha,
    beta, delta, chi, rbar_angstrom, ionization_meV in MaterialParams'
    ranges."""
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
        try:
            m = MaterialParams(name=rec["material"], dopant=rec["dopant"],
                               **{k: rec[k] for k in _MATERIAL_CONSTANTS})
        except InvalidInput as exc:  # a constant out of range
            raise InvalidInput(f"{path}: {exc}") from None
        table[(m.name, m.dopant)] = m
    return table


def _quadratic_form(e, f, m):
    """Bilinear form B(e, f) (6, ...) of component rows e, f (3, ...):
    d(E) = B(E, E) and d(b) - d(a) = 2 B((a+b)/2, b - a).  Mixed terms sum
    their two orderings at half weight, so B(E, E) rounds like one product."""
    p0 = m.dipole_mev_per_field
    kappa = -(p0 * p0) / m.ionization_meV  # meV per (V/m)^2
    hd = 0.5 * kappa * m.delta
    ex, ey, ez = e
    fx, fy, fz = f
    xx, yy, zz = ex * fx, ey * fy, ez * fz
    out = np.empty((6,) + np.shape(xx))
    out[0] = kappa * m.alpha * (xx + yy + zz)
    out[1] = hd * ez * fy + hd * fz * ey
    out[2] = hd * ez * fx + hd * fz * ex
    out[3] = hd * ex * fy + hd * fx * ey
    out[4] = kappa * (math.sqrt(3.0) / 2.0) * m.beta * (xx - yy)
    out[5] = kappa * 0.5 * m.beta * (2 * zz - xx - yy)
    return out


def d_components(e, m, regime):
    """The d-vector (d0, d1..d5) in meV: e of shape (..., 3) -> (..., 6).

    The shapes are the contract; the storage is component-major: the result
    is the transpose of C-ordered (6, ...) rows, and e is read as the rows
    of its transpose, contiguous when e is itself such a transpose
    (FieldPath.points).  d_{1..3} = p * chi * E in the linear regime
    (d0 = d4 = d5 = 0), B(E, E) in the quadratic one (below 0.5 V/m as
    B(E', E') 2^2k at E' = E 2^-k, so no E_i E_j underflows).  One field
    point gives the row that hamiltonian, eigen_split, projectors and
    connection_d take.  InvalidInput if d overflows (too strong) or a
    nonzero field's d1..d5 round to 0 (too weak)."""
    if regime not in REGIMES:
        raise InvalidInput(f"regime must be one of {REGIMES}, got {regime!r}")
    e = np.asarray(e, dtype=float).T
    k = pow2_exponent(e)
    with np.errstate(over="ignore", invalid="ignore"):
        if regime == "linear":
            out = np.zeros((6,) + e.shape[1:])
            out[1:4] = m.dipole_mev_per_field * m.chi * e
        elif k < 0:  # scaled up only: scaling down rounds off small components
            scaled = np.ldexp(e, -k)
            out = _quadratic_form(scaled, scaled, m)
            np.ldexp(out, 2 * k, out=out)
        else:
            out = _quadratic_form(e, e, m)
    if not np.all(np.isfinite(out)):
        raise InvalidInput("field too strong for float64: the d-vector overflows"
                           if np.all(np.isfinite(e)) else "field must be finite")
    if k < 0 and not np.any(out[1:]) and np.any(
            d_components(np.ldexp(e, -k).T, m, regime)[..., 1:]):
        raise InvalidInput("field too weak for float64: the d-vector underflows")
    return out.T


def d_increment(e, de, m, regime):
    """J(e) de for d_1..d_5, shape (..., 5), stored component-major like
    d_components.  At the chord midpoint e = (a + b)/2 with de = b - a it is
    exactly d(b) - d(a), free of the cancellation of taking that
    difference."""
    if regime == "quadratic":
        e, de = np.asarray(e, dtype=float), np.asarray(de, dtype=float)
        return (2.0 * _quadratic_form(e.T, de.T, m)[1:]).T
    return d_components(de, m, regime)[..., 1:]  # linear: J is constant


def hamiltonian(d):
    """4x4 Hermitian Stark Hamiltonian d0*I + d_a gamma_a, in meV, for the
    d_components row d = (d0, d1..d5) of one field point."""
    return (d[0] * np.eye(4, dtype=complex)
            + np.einsum("a,aij->ij", d[1:], default_basis().gamma))


def eigen_split(d):
    """(eps_minus, eps_plus, gap) of the Kramers doublets of the row d:
    d0 -/+ |d|, 2|d|."""
    d0, n = float(d[0]), float(scaled_norm(d[1:]))
    return (d0 - n, d0 + n, 2 * n)


@dataclass(frozen=True)
class FeasibilityReport:
    """Static experimental budget at one field magnitude and rotation rate."""

    gap_min_meV: float
    gap_max_meV: float
    drive_quantum_meV: float
    adiabaticity_ratio: float
    ionization_margin_meV: float

    @property
    def adiabaticity_flag(self):
        return self.adiabaticity_ratio < 100.0

    @property
    def ionization_flag(self):
        return self.ionization_margin_meV < 0.0

    @property
    def flags(self):
        return [name for name, raised in (("adiabaticity", self.adiabaticity_flag),
                                          ("ionization", self.ionization_flag)) if raised]


# the three cubic axes <100> and the four body diagonals <111>
_CUBIC_DIRECTIONS = np.array([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1),
                              (1, 1, -1), (1, -1, 1), (-1, 1, 1)], dtype=float)
_CUBIC_DIRECTIONS /= np.linalg.norm(_CUBIC_DIRECTIONS, axis=1, keepdims=True)


def feasibility_report(e_mag, m, rotation_freq, regime="quadratic"):
    """Gap extremes over field directions, ionization margin and adiabaticity.

    For a unit field with S = ex^2 ey^2 + ey^2 ez^2 + ez^2 ex^2 in [0, 1/3],
    _quadratic_form gives |d|^2 = kappa^2 |E|^4 [beta^2 + (delta^2 - 3 beta^2) S]:
    the gap is extremal on <100> (S = 0) and <111> (S = 1/3), and so are the
    level shifts |d0| + |d|, as d0 is isotropic; the linear gap is isotropic.
    The seven cubic directions therefore give every extreme.  The drive
    quantum is h*f for rotation frequency f; the adiabaticity ratio is (min
    gap)/(h*f) and is flagged below 100.  The ionization margin is the
    worst-direction distance of either level shift |eps_pm| from the
    ionization energy, flagged when negative.  InvalidInput unless h*f is
    finite and positive and the ratio finite.
    """
    if not e_mag > 0:
        raise InvalidInput("field magnitude must be positive")
    if not np.isfinite(e_mag):
        raise InvalidInput("field too strong for float64: |E| overflows")
    comps = d_components(_CUBIC_DIRECTIONS * e_mag, m, regime)
    norms = scaled_norm(comps[:, 1:], axis=1)
    worst_shift = (np.abs(comps[:, 0]) + norms).max()  # max |d0 -/+ |d||
    drive_quantum = PLANCK_MEV_S * float(rotation_freq)
    gap_min = float(2.0 * norms.min())
    ratio = gap_min / drive_quantum if drive_quantum > 0 else math.inf
    if not (math.isfinite(drive_quantum) and math.isfinite(ratio)):
        raise _ArgumentError("rotation_freq", f"h*f = {drive_quantum!r} meV at "
                             f"{rotation_freq!r} Hz leaves no finite adiabaticity ratio")
    return FeasibilityReport(
        gap_min_meV=gap_min, gap_max_meV=float(2.0 * norms.max()),
        drive_quantum_meV=drive_quantum, adiabaticity_ratio=ratio,
        ionization_margin_meV=float(m.ionization_meV - worst_shift),
    )
