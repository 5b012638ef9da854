import numpy as np
import pytest

from holostark import make_spherical_triangle
from holostark._linalg import PAULI, clifford_exp, ordered_product
from holostark.connection import transport_exponents
from holostark.stark import d_components

from util import expm_antiherm, random_su2


@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_clifford_exp_matches_eigh_on_transport_exponents(ge_spherical, regime):
    pts = make_spherical_triangle(0.7, 1.1, 1e6).points(50)
    exponents = transport_exponents(pts, regime, ge_spherical)
    assert np.abs(clifford_exp(exponents) - expm_antiherm(exponents)).max() <= 1e-14


def test_clifford_exp_matches_eigh_on_schrodinger_steps(ge_b, basis, rng):
    # step exponents -i (dt/hbar) d.gamma with rotation angles |d| dt/hbar
    # from exactly 0 (giving exactly I) to 10, well past pi
    comps = d_components(rng.normal(size=(40, 3)) * 1e6, ge_b, "quadratic")
    dt_over_hbar = np.linspace(0.0, 10.0, 40) / np.linalg.norm(comps[:, 1:], axis=1)
    x = (-1j * dt_over_hbar)[:, None, None] * np.einsum(
        "ka,aij->kij", comps[:, 1:], basis.gamma)
    out = clifford_exp(x)
    assert np.array_equal(out[0], np.eye(4))
    assert np.abs(out - expm_antiherm(x)).max() <= 1e-14


def test_clifford_exp_matches_eigh_on_su2_generators(rng):
    # X = i v.sigma squares to -|v|^2 I; |v| from exactly 0 (giving exactly I)
    # to 10, well past pi
    v = rng.normal(size=(40, 3))
    v *= (np.linspace(0.0, 10.0, 40) / np.linalg.norm(v, axis=1))[:, None]
    x = 1j * np.einsum("kc,cij->kij", v, PAULI)
    out = clifford_exp(x)
    assert np.array_equal(out[0], np.eye(2))
    assert np.abs(out - expm_antiherm(x)).max() <= 1e-13


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
def test_ordered_product_matches_sequential_loop(rng, k):
    units = np.array([random_su2(rng) for _ in range(k)])
    expected = np.eye(2, dtype=complex)
    for u in units:
        expected = u @ expected
    assert np.abs(ordered_product(units) - expected).max() <= 1e-14
