import tracemalloc

import numpy as np
import pytest

from holostark import (DegeneratePoint, Drive, adiabatic_fidelity, evolve,
                       make_latitude_loop, make_spherical_triangle, sampled_path,
                       wilson_loop)
from holostark._linalg import (BLOCK, blocked_product, clifford_steps, exp_coefficients,
                               ordered_product)
from holostark.algebra import PAULI, step_table, wedge
from holostark.connection import gap_norms, transport_exponents
from holostark.dynamics import _drive_steps, _propagate
from holostark.stark import d_components
from holostark.units import HBAR_MEV_S

from util import (clifford_exp, d_dot_gamma_einsum, expm_antiherm,
                  midpoint_exponents_einsum, midpoint_loop, midpoint_rows, one_product,
                  propagate_point_major, random_su2, rotor_rows_point_major,
                  rotors_complex, transport_matrices)


@pytest.mark.parametrize("k", [1, 2, 3, 7, 8])
def test_ordered_product_matches_sequential_loop(rng, k):
    units = np.array([random_su2(rng) for _ in range(k)])
    expected = np.eye(2, dtype=complex)
    for u in units:
        expected = u @ expected
    assert np.abs(ordered_product(units) - expected).max() <= 1e-14


def _real_form_cases(ge_b, rng):
    """(table, rows, angles or None, complex exponents) of the midpoint
    transport exponents in both regimes, the Schrodinger steps and the 2x2
    oracles, each with a zero row first; the Schrodinger and SU(2) step
    angles run from exactly 0 to 10, well past pi."""
    pts = make_spherical_triangle(0.7, 1.1, 1e6).points(50)
    cases = []
    for regime in ("linear", "quadratic"):
        b = np.vstack([np.zeros(10), midpoint_rows(pts, regime, ge_b)])
        cases.append((step_table("transport"), b, None, transport_matrices(b)))
    comps = d_components(rng.normal(size=(40, 3)) * 1e6, ge_b, "quadratic")
    dt_over_hbar = np.linspace(0.0, 10.0, 40) / np.linalg.norm(comps[:, 1:], axis=1)
    x = (-1j * dt_over_hbar)[:, None, None] * d_dot_gamma_einsum(comps)
    cases.append((step_table("schrodinger"), dt_over_hbar[:, None] * comps[:, 1:],
                  dt_over_hbar * gap_norms(comps), x))
    v = rng.normal(size=(40, 3))
    v *= (np.linspace(0.0, 10.0, 40) / np.linalg.norm(v, axis=1))[:, None]
    cases.append((step_table("pauli"), v, None, 1j * np.einsum("kc,cij->kij", v, PAULI)))
    return cases


def test_real_form_steps_match_eigh(ge_b, rng):
    for table, rows, theta, x in _real_form_cases(ge_b, rng):
        n = x.shape[-1]
        steps = clifford_steps(table, exp_coefficients(rows, theta))
        assert steps.shape == (len(rows), 2 * n, 2 * n) and steps.dtype == float
        assert np.array_equal(steps[0], np.eye(2 * n))
        assert np.abs(steps @ np.swapaxes(steps, 1, 2) - np.eye(2 * n)).max() <= 1e-14
        want = expm_antiherm(x)
        assert np.abs(steps[:, :n, :n] + 1j * steps[:, n:, :n] - want).max() <= 1e-14
        assert np.abs(steps[:, n:, n:] - 1j * steps[:, :n, n:] - want).max() <= 1e-14


def test_row_norms_are_the_step_angles(ge_b, rng):
    # theta = |B| for the simple transport bivectors, (dt/hbar)|d| for the
    # Schrodinger steps, |v| for i v . sigma: each is ||X||_F / sqrt(n) for
    # the n x n X
    for table, rows, theta, x in _real_form_cases(ge_b, rng):
        n = x.shape[-1]
        want = np.linalg.norm(x, axis=(1, 2)) / np.sqrt(n)
        got = np.sqrt(np.einsum("ka,ka->k", rows, rows)) if theta is None else theta
        assert np.abs(got - want).max() <= 1e-15 * want.max()
        square = x @ x + (got ** 2)[:, None, None] * np.eye(n)  # X^2 = -theta^2 I
        assert np.abs(square).max() <= 1e-14 * want.max() ** 2


def test_step_tables_round_each_entry_once():
    # a step entry is the sum of two coefficients, such as R_0 + R_ab or
    # cos(theta) + c_a sinc(theta), one rounding, or one coefficient, so a
    # step has the same bits in a block of any length
    for kind, nonzeros in (("transport", 2), ("schrodinger", 2), ("pauli", 1)):
        table = step_table(kind)
        assert set(np.abs(table).ravel()) == {0.0, 1.0}
        assert (table != 0).sum(axis=0).max() <= nonzeros


# BLOCK = 2048: the step counts next to one, two and four blocks
@pytest.mark.parametrize("k", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1,
                               2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 3, 4 * BLOCK + 3])
def test_blocked_product_has_the_bits_of_one_ordered_product(rng, k):
    # all three tables: the transport rows are the rotors h a between random
    # unit pairs, the other two the exponentials of random rows
    u, v = rng.normal(size=(2, k, 5))
    a = u / np.linalg.norm(u, axis=1)[:, None]
    h = v / np.linalg.norm(v, axis=1)[:, None]
    r = np.column_stack([np.einsum("ka,ka->k", h, a), wedge(h, a)])
    blocked = blocked_product(k, step_table("transport"), lambda lo, hi: r[lo:hi])
    assert np.array_equal(blocked, one_product(step_table("transport"), r))
    theta = np.linalg.norm(u, axis=1)
    blocked = blocked_product(k, step_table("schrodinger"),
                              lambda lo, hi: exp_coefficients(u[lo:hi], theta[lo:hi]))
    assert np.array_equal(blocked, one_product(step_table("schrodinger"),
                                               exp_coefficients(u, theta)))
    w = v[:, :3]
    blocked = blocked_product(k, step_table("pauli"),
                              lambda lo, hi: exp_coefficients(w[lo:hi]))
    assert np.array_equal(blocked, one_product(step_table("pauli"), exp_coefficients(w)))


@pytest.mark.parametrize("k", [1, 4, BLOCK + 3])
def test_blocked_product_batches_the_axes_after_the_first(rng, k):
    # rows (k, 2, 3, m): six products at once, each with the bits of its own call
    for kind, m, n in (("pauli", 3, 2), ("schrodinger", 5, 4)):
        table, c = step_table(kind), rng.normal(size=(k, 2, 3, m))
        batched = blocked_product(k, table, lambda lo, hi: exp_coefficients(c[lo:hi]))
        assert batched.shape == (2, 3, n, n)
        for i, j in np.ndindex(2, 3):
            alone = blocked_product(k, table,
                                    lambda lo, hi: exp_coefficients(c[lo:hi, i, j]))
            assert np.array_equal(batched[i, j], alone)


@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_wilson_loop_has_the_bits_of_one_ordered_product(ge_b, regime):
    path = make_spherical_triangle(0.7, 1.1, 1e6)
    single = one_product(step_table("transport"),
                         transport_exponents(path.points(20000), regime, ge_b))
    assert np.array_equal(wilson_loop(path, regime, ge_b, 20000).full, single)


@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_propagate_has_the_bits_of_one_ordered_product(ge_b, regime):
    # the Schrodinger steps are the traceless exp(-i (dt/hbar) d . gamma)
    drive = Drive(make_spherical_triangle(0.7, 1.1, 1e6), 2e-9, 20000)
    pts = drive.path.points(drive.time_steps)
    comps = d_components(0.5 * (pts[1:] + pts[:-1]), ge_b, regime)
    scale = drive.total_time / len(comps) / HBAR_MEV_S
    single = one_product(step_table("schrodinger"), exp_coefficients(
        scale * comps[:, 1:], scale * gap_norms(comps)))
    steps, norms, dt = _drive_steps(drive, regime, ge_b)
    assert np.array_equal(steps, comps)
    psi = _propagate(steps, norms, dt, np.eye(4))
    assert np.array_equal(psi, single @ np.eye(4))


_SAMPLED = sampled_path([[0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6], [0, 0, 1e6]])
# one step per chord between 100 random directions: dhat turns by up to
# about 120 degrees a step (quadratic) or nearly pi (linear), the largest
# rotor coefficients, where another order of the einsum sums shows
_DIRECTIONS = np.random.default_rng(7).normal(size=(100, 3))
_DIRECTIONS *= 1e6 / np.linalg.norm(_DIRECTIONS, axis=1)[:, None]
_COARSE = sampled_path(np.vstack([_DIRECTIONS, _DIRECTIONS[:1]]))


# the loops' data are stored component-major, so a Wilson loop compared with
# one product of its own transport_exponents cannot see a layout change that
# moves the einsum sums of both; the point-major chain of tests/util.py can
@pytest.mark.parametrize("regime", ["linear", "quadratic"])
@pytest.mark.parametrize("material, path, steps", [
    ("ge_b", make_spherical_triangle(0.7, 1.1, 1e6), 400),
    ("ge_b", make_spherical_triangle(0.7, 1.1, 1e6), 5000),
    ("ge_b", make_spherical_triangle(0.7, 1.1, 1e6), 20000),
    ("si_b", make_spherical_triangle(2.1375, 4.4411, 0.534), 400),
    ("si_b", make_spherical_triangle(2.1375, 4.4411, 0.534), 5000),
    ("si_b", make_spherical_triangle(2.1375, 4.4411, 0.534), 20000),
    ("ge_b", make_latitude_loop(1.1, 2e5), 8193),
    ("si_b", _SAMPLED, 5000),
    ("ge_b", make_spherical_triangle(2.2, -2.0, 2e-3), 5000),
    ("ge_b", _COARSE, 100), ("si_b", _COARSE, 400)],
    ids=["ge-400", "ge-5000", "ge-20000", "si-400", "si-5000", "si-20000",
         "latitude-8193", "sampled-5000", "below-half-V-per-m", "coarse-ge-100",
         "coarse-si-400"])
def test_wilson_loop_has_the_bits_of_the_point_major_chain(request, material, path,
                                                           steps, regime):
    m = request.getfixturevalue(material)
    rows = rotor_rows_point_major(path.points(steps), regime, m)
    assert np.array_equal(wilson_loop(path, regime, m, steps).full,
                          one_product(step_table("transport"), rows))


@pytest.mark.parametrize("regime", ["linear", "quadratic"])
@pytest.mark.parametrize("path", [make_spherical_triangle(0.7, 1.1, 1e6), _SAMPLED],
                         ids=["triangle", "sampled"])
def test_propagate_has_the_bits_of_the_point_major_chain(ge_b, regime, path):
    drive = Drive(path, 2e-9, 3 * BLOCK)
    psi = _propagate(*_drive_steps(drive, regime, ge_b), np.eye(4))
    assert np.array_equal(psi, propagate_point_major(drive, regime, ge_b, np.eye(4)))


@pytest.mark.parametrize("path", [
    make_spherical_triangle(0.7, 1.1, 1e6), make_spherical_triangle(2.2, -2.0, 1e6),
    sampled_path([[0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6], [0, 0, 1e6]])],
    ids=["triangle", "obtuse-triangle", "sampled"])
@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_wilson_loop_agrees_with_the_complex_kernel(ge_b, regime, path):
    # the complex 4x4 rotors (1 + B A)/|1 + B A| of independently built
    # dhat . gamma matrices
    single = ordered_product(rotors_complex(path.points(20000), regime, ge_b))
    assert np.abs(wilson_loop(path, regime, ge_b, 20000).full - single).max() <= 1e-12


@pytest.mark.parametrize("path", [
    make_spherical_triangle(0.7, 1.1, 1e6), make_spherical_triangle(2.2, -2.0, 1e6),
    sampled_path([[0, 0, 1e6], [1e6, 0, 1e6], [0, 3e6, 2e6], [0, 0, 1e6]])],
    ids=["triangle", "obtuse-triangle", "sampled"])
@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_midpoint_reference_agrees_with_the_complex_kernel(ge_b, regime, path):
    # the midpoint scheme of tests/util.py on the step table, against the
    # complex 4x4 steps clifford_exp(X) of its independently built exponents;
    # the rotor, second order like it, is within 1e-7 of it at 20 000 steps
    pts = path.points(20000)
    midpoint = midpoint_loop(path, regime, ge_b, 20000)
    single = ordered_product(clifford_exp(midpoint_exponents_einsum(pts, regime, ge_b)))
    assert np.abs(midpoint - single).max() <= 1e-12
    assert np.abs(wilson_loop(path, regime, ge_b, 20000).full - midpoint).max() <= 1e-7


@pytest.mark.parametrize("regime", ["linear", "quadratic"])
def test_transport_exponents_match_einsum(ge_b, regime):
    pts = make_spherical_triangle(0.7, 1.1, 1e6).points(500)
    expected = rotors_complex(pts, regime, ge_b)
    got = transport_matrices(transport_exponents(pts, regime, ge_b))
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_schrodinger_generators_match_einsum(ge_b, rng):
    comps = d_components(rng.normal(size=(500, 3)) * 1e6, ge_b, "quadratic")
    expected = -1j * d_dot_gamma_einsum(comps)
    rows = (comps[:, 1:] @ step_table("schrodinger")[1:]).reshape(-1, 8, 8)
    got = rows[:, :4, :4] + 1j * rows[:, 4:, :4]
    assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()


def test_degeneracy_check_spans_blocks(ge_b):
    # linear regime, |E| stepping down from 1e6 V/m to 1e-5 V/m, three
    # segments at 1e-5 V/m, and back up: |d| min/max is 7e-12 over the loop,
    # below DEGENERACY_RTOL, yet at 40000 steps each segment is longer than a
    # block, so every aligned block spans at most two adjacent levels
    z = [[0.0, 0.0, r] for r in (1e6, 1e2, 1e-2, 1e-5)]
    path = sampled_path(z + [[1e-5, 0.0, 0.0], [0.0, 1e-5, 0.0]] + z[::-1])
    pts = path.points(40000)
    comps = d_components(pts, ge_b, "linear")
    for lo in range(0, len(comps), BLOCK):
        gap_norms(comps[lo:lo + BLOCK])  # a per-block check passes everywhere
    with pytest.raises(DegeneratePoint):
        wilson_loop(path, "linear", ge_b, 40000)
    with pytest.raises(DegeneratePoint):
        evolve(Drive(path, 1e-7, 40000), "linear", ge_b, np.eye(4)[0])


def test_wilson_loop_evaluates_d_once_per_point(ge_b, monkeypatch):
    # the blocks reuse the components of the global gap check; the one more
    # point is the basepoint of the band frames
    from holostark import connection, holonomy
    points = []
    for module in (connection, holonomy):
        original = module.d_components
        monkeypatch.setattr(module, "d_components", lambda e, m, regime, f=original:
                            points.append(np.size(e) // 3) or f(e, m, regime))
    hol = wilson_loop(make_spherical_triangle(0.7, 1.1, 1e6), "quadratic", ge_b,
                      3 * BLOCK)
    assert sum(points) == hol.steps + 2


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_wilson_loop_memory_is_bounded_by_a_block(ge_b):
    path = make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6)
    assert _peak_mb(lambda: wilson_loop(path, "quadratic", ge_b, 40000)) < 12.0


def test_adiabatic_fidelity_memory_is_bounded_by_a_block(ge_b):
    drive = Drive(make_spherical_triangle(np.pi / 2, np.pi / 2, 1e6), 2e-7, 30000)
    peak = _peak_mb(lambda: adiabatic_fidelity(drive, "quadratic", ge_b, wl_steps=20000))
    assert peak < 12.0
