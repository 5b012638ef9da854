import numpy as np
import pytest

from holostark import gamma_basis, spin_matrices
from holostark.algebra import CliffordBasis

from util import NoIntertwiner, basis_intertwiner, canonical_gamma, random_unit


def comm(a, b):
    return a @ b - b @ a


class TestSpinMatrices:
    def test_sz_is_diagonal_convention(self, spin):
        assert np.allclose(spin.sz, np.diag([1.5, 0.5, -0.5, -1.5]), atol=0)

    def test_first_ladder_element(self, spin):
        assert spin.sx[0, 1] == pytest.approx(np.sqrt(3) / 2, abs=1e-15)

    def test_commutation_relations(self, spin):
        sx, sy, sz = spin.sx, spin.sy, spin.sz
        assert np.abs(comm(sx, sy) - 1j * sz).max() <= 1e-14
        assert np.abs(comm(sy, sz) - 1j * sx).max() <= 1e-14
        assert np.abs(comm(sz, sx) - 1j * sy).max() <= 1e-14

    def test_casimir(self, spin):
        s2 = spin.sx @ spin.sx + spin.sy @ spin.sy + spin.sz @ spin.sz
        assert np.abs(s2 - 3.75 * np.eye(4)).max() <= 1e-14

    def test_spectra(self, spin):
        expected = np.array([-1.5, -0.5, 0.5, 1.5])
        for s in (spin.sx, spin.sy, spin.sz):
            assert np.allclose(np.linalg.eigvalsh(s), expected, atol=1e-14)

    def test_hermitian(self, spin):
        for s in (spin.sx, spin.sy, spin.sz):
            assert np.abs(s - s.conj().T).max() <= 1e-15


def clifford_defect(b):
    worst = 0.0
    for a in range(5):
        for c in range(5):
            target = 2.0 * (a == c) * np.eye(4)
            worst = max(worst, np.abs(
                b.gamma[a] @ b.gamma[c] + b.gamma[c] @ b.gamma[a] - target).max())
    return worst


class TestGammaBasis:
    def test_clifford_anticommutation(self, basis):
        assert clifford_defect(basis) <= 1e-13

    def test_gamma5_in_sz_basis(self, basis):
        assert np.allclose(basis.gamma[4], np.diag([1, -1, -1, 1]), atol=1e-14)

    def test_each_gamma_spectrum(self, basis):
        for g in basis.gamma:
            assert np.allclose(np.linalg.eigvalsh(g), [-1, -1, 1, 1], atol=1e-13)

    def test_generators_traceless_antisymmetric(self, basis):
        for a in range(5):
            for c in range(5):
                assert abs(np.trace(basis.gammab[a, c])) <= 1e-13
                assert np.abs(basis.gammab[a, c] + basis.gammab[c, a]).max() <= 1e-13

    def test_generators_match_definition(self, basis):
        for a in range(5):
            for c in range(5):
                expected = comm(basis.gamma[a], basis.gamma[c]) / 2j
                assert np.abs(basis.gammab[a, c] - expected).max() <= 1e-13

    def test_unit_vector_contraction_squares_to_identity(self, basis, rng):
        for _ in range(100):
            n = random_unit(rng, 5)
            ng = np.einsum("a,aij->ij", n, basis.gamma)
            assert np.abs(ng @ ng - np.eye(4)).max() <= 1e-12

    def test_trace_orthogonality(self, basis):
        for a in range(5):
            for c in range(5):
                assert np.trace(basis.gamma[a] @ basis.gamma[c]) == pytest.approx(
                    4.0 * (a == c), abs=1e-13)


class TestCanonicalGamma:
    def test_block_forms(self):
        b = canonical_gamma()
        assert np.allclose(b.gamma[4], np.diag([1, 1, -1, -1]), atol=0)
        anti = np.zeros((4, 4))
        anti[0, 2] = anti[1, 3] = anti[2, 0] = anti[3, 1] = 1.0
        assert np.allclose(b.gamma[3], anti, atol=0)

    def test_clifford_exact(self):
        assert clifford_defect(canonical_gamma()) <= 1e-15

    def test_gamma_12_is_diag_sigma3(self):
        # direct multiplication of the block forms
        b = canonical_gamma()
        s3 = np.diag([1.0, -1.0])
        expected = np.block([[s3, np.zeros((2, 2))], [np.zeros((2, 2)), s3]])
        assert np.abs(b.gammab[0, 1] - expected).max() <= 1e-14


class TestIntertwiner:
    def test_identity_case(self, basis):
        q = basis_intertwiner(basis, basis)
        for g in basis.gamma:
            assert np.abs(q @ g @ q.conj().T - g).max() <= 1e-10

    def test_sz_to_canonical(self, basis):
        target = canonical_gamma()
        q = basis_intertwiner(basis, target)
        assert np.abs(q @ q.conj().T - np.eye(4)).max() <= 1e-12
        for g_from, g_to in zip(basis.gamma, target.gamma):
            assert np.abs(q @ g_from @ q.conj().T - g_to).max() <= 1e-10

    def test_gamma12_after_intertwining(self, basis):
        # the Sz-basis generator maps onto the canonical diag(sigma3, sigma3)
        target = canonical_gamma()
        q = basis_intertwiner(basis, target)
        mapped = q @ basis.gammab[0, 1] @ q.conj().T
        assert np.abs(mapped - target.gammab[0, 1]).max() <= 1e-10

    def test_flipped_gamma5_has_no_intertwiner(self, basis):
        flipped = np.array(basis.gamma)
        flipped[4] = -flipped[4]
        bad = CliffordBasis(gamma=flipped, gammab=basis.gammab)
        with pytest.raises(NoIntertwiner):
            basis_intertwiner(basis, bad)


def test_gamma_basis_from_fresh_spin_matches_default(basis):
    rebuilt = gamma_basis(spin_matrices())
    assert np.abs(rebuilt.gamma - basis.gamma).max() == 0.0
