"""Small dense linear-algebra helpers (4x4 and 2x2 scale)."""

import numpy as np

from .errors import NotUnitary

# steps per block of blocked_product; a power of two, so that every full
# block is a whole subtree of ordered_product's pairwise tree
BLOCK = 2048


def dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def pow2_exponent(a):
    """k that puts the largest |a_i| in [0.5, 1) as np.ldexp(a, -k), exact
    unless a value turns subnormal; 0 for a zero, empty or non-finite a."""
    return int(np.frexp(max(np.max(a, initial=0.0), -np.min(a, initial=0.0)))[1])


def scaled_norm(x, axis=None):
    """np.linalg.norm(x) of a 1-D x, or norm(x, axis=axis), at x 2^-k scaled
    back (Blue 1978): its bits where its squares stay normal, exact elsewhere."""
    y = np.array(x, dtype=float)  # contiguous, so the exponent is a fast pass
    k = pow2_exponent(y)
    np.ldexp(y, -k, out=y)  # the two forms round differently: dot, add.reduce(y * y)
    sq = y.dot(y) if axis is None else np.add.reduce(np.multiply(y, y, out=y), axis=axis)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(sq), k)


def ordered_product(units):
    """Later-to-the-left product units[k-1] ... units[1] units[0] of a
    (k, ..., n, n) stack, k >= 1, as a pairwise tree of batched matmuls."""
    while len(units) > 1:
        pairs = units[1::2] @ units[:-1:2]
        units = np.concatenate([pairs, units[-1:]]) if len(units) % 2 else pairs
    return units[0]


def clifford_steps(table, c, theta=None):
    """Real forms (k, ..., 2n, 2n) of the n x n exp(X_j) = cos(theta_j) I +
    sin(theta_j) / theta_j X_j, X_j = sum_a c[j, ..., a] X_a, from real rows
    c (k, ..., m) and the flattened real forms of I, X_1 .. X_m in table
    (1 + m, 4n^2) (algebra.step_table).  Each X_j must square to -theta_j^2 I;
    theta defaults to the row norms.  One real matmul builds all the steps; a
    zero row gives exactly I.

    The default theta's bits depend on the memory layout of c, not only on
    its values: einsum sums a C-ordered row in another order than a strided
    one (on numpy 2.4, the squared norms of 45 638 of 200 000 random
    3-vectors, default_rng(1), differ between C and F order).  The transport
    rows reach this kernel column-ordered, as the transpose of (10, k)
    storage (algebra.wedge), and the 2x2 oracles' rows row-ordered; a
    change of either layout can change a step's bits, the more often the
    larger its angle."""
    if theta is None:
        theta = np.sqrt(np.einsum("...a,...a->...", c, c))
    coef = np.empty((len(table),) + c.shape[:-1])  # component-major
    np.cos(theta, out=coef[0])
    np.multiply(np.sinc(theta / np.pi), np.moveaxis(c, -1, 0), out=coef[1:])
    # the tables hold 0 and +-1, at most two nonzeros a column: each entry
    # rounds once, to the same bits on any BLAS path, at any row count and
    # in any layout of the coefficients
    size = int(table.shape[1] ** 0.5)
    return (coef.reshape(len(table), -1).T @ table).reshape(c.shape[:-1] + (size, size))


def blocked_product(k, table, coeffs, theta=None):
    """The complex n x n ordered product of k clifford_steps, built BLOCK steps
    at a time from coeffs(lo, hi), the rows c_lo to c_{hi-1}, and theta, all k
    angles if given; any axes after the first batch the products.  Every full
    block is a whole subtree of the single product's pairwise tree, so the
    result has the bits of one ordered_product over all k real-form steps, in
    memory bounded by one block; a single block is that product itself.  BLAS
    multiplies the real 8x8 forms of the 4x4 steps about three times faster
    than the complex 4x4 ones."""
    blocks = [ordered_product(clifford_steps(
        table, coeffs(lo, min(lo + BLOCK, k)), None if theta is None else
        theta[lo:lo + BLOCK])) for lo in range(0, k, BLOCK)]
    r = blocks[0] if k <= BLOCK else ordered_product(np.stack(blocks))
    n = r.shape[-1] // 2
    return r[..., :n, :n] + 1j * r[..., n:, :n]


def unitarity_defect(u):
    u = np.asarray(u)
    return float(np.abs(dagger(u) @ u - np.eye(u.shape[-1])).max())


def require_unitary(u, tol=1e-8, what="matrix"):
    defect = unitarity_defect(u)
    if not defect <= tol:
        raise NotUnitary(f"{what} is not unitary: defect {defect:.3e} > {tol:.1e}")


def projector_frame(p):
    """Deterministic orthonormal basis (columns) of range(P) for a rank-2
    projector P.

    Gram-Schmidt over the projector columns in index order; each accepted
    vector is rotated so its largest-magnitude component is real positive.
    """
    vs = []
    for j in range(p.shape[0]):
        v = p[:, j].copy()
        for u in vs:
            v = v - (np.conj(u) @ v) * u
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            v = v / nv
            k = int(np.argmax(np.abs(v)))
            v = v * np.exp(-1j * np.angle(v[k]))
            vs.append(v)
        if len(vs) == 2:
            break
    if len(vs) != 2:
        raise np.linalg.LinAlgError("projector does not have rank 2")
    return np.stack(vs, axis=1)
