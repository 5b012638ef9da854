"""Small dense linear-algebra helpers (4x4 and 2x2 scale)."""

import threading

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


def exp_coefficients(c, theta=None, out=None):
    """The coefficient rows (k, ..., 1 + m) of exp(X_j) = cos(theta_j) I +
    sin(theta_j) / theta_j X_j, X_j = sum_a c[j, ..., a] X_a, for
    clifford_steps: [cos theta, sinc theta * c] from real rows c (k, ..., m).
    Each X_j must square to -theta_j^2 I; theta defaults to the row norms.
    The shapes are the contract; the storage is component-major, the
    transpose of (1 + m, k, ...) rows, written into ``out`` when given (a
    C-ordered (1 + m, k, ...) array, such as the buffer blocked_product
    hands its coeffs).  A zero row gives exactly I.

    The default theta's bits depend on the memory layout of c, not only on
    its values: einsum sums a C-ordered row in another order than a strided
    one (on numpy 2.4, the squared norms of 45 638 of 200 000 random
    3-vectors, default_rng(1), differ between C and F order).  The 2x2
    oracles' rows reach it row-ordered, and the Schrodinger steps bring
    their own theta; a change of either layout can change a step's bits, the
    more often the larger its angle."""
    if theta is None:
        theta = np.sqrt(np.einsum("...a,...a->...", c, c))
    coef = np.empty((1 + c.shape[-1],) + c.shape[:-1]) if out is None else out
    np.cos(theta, out=coef[0])
    # transposes, not moveaxis: 0.1 against 3 us, on 2x2 oracle calls of 30 us
    np.multiply(np.sinc(theta / np.pi), c.transpose((c.ndim - 1,) + tuple(range(c.ndim - 1))),
                out=coef[1:])
    return coef.transpose(tuple(range(1, coef.ndim)) + (0,))


def clifford_steps(table, coef, out=None):
    """Real forms (k, ..., 2n, 2n) of the n x n steps sum_j coef[..., j] X_j
    from coefficient rows (k, ..., 1 + m) and the flattened real forms of
    X_0 = I, X_1 .. X_m in table (1 + m, 4n^2) (algebra.step_table): one real
    matmul builds all the steps, into ``out`` when given (a C-ordered array
    of the result's shape).  The rows are read component-major, as the
    transpose of (1 + m, k, ...) storage, the layout in which
    exp_coefficients and connection.transport_exponents return them."""
    rows = coef.transpose((coef.ndim - 1,) + tuple(range(coef.ndim - 1)))
    size = int(table.shape[1] ** 0.5)
    if out is None:
        out = np.empty(coef.shape[:-1] + (size, size))
    # the tables hold 0 and +-1, at most two nonzeros a column: each entry
    # rounds once, to the same bits on any BLAS path, at any row count and
    # in any layout of the coefficients
    np.matmul(rows.reshape(len(table), -1).T, table, out=out.reshape(-1, size * size))
    return out


def complex_block(r):
    """The complex n x n matrices (..., n, n) of real forms r (..., 2n, 2n),
    [[Re, -Im], [Im, Re]] as algebra.step_table builds them."""
    n = r.shape[-1] // 2
    return r[..., :n, :n] + 1j * r[..., n:, :n]


# one workspace per thread for blocked_product, grown to the largest seen
# and never shrunk: a warm call allocates no per-block array of 128 KB or
# more, so the allocator neither maps nor trims ~1 MB for every block
_workspace = threading.local()


def _workspace_floats(size):
    """The calling thread's workspace, grown to at least size floats."""
    buf = getattr(_workspace, "buf", None)
    if buf is None or buf.size < size:
        buf = _workspace.buf = np.empty(size)
    return buf


def blocked_product(k, table, coeffs):
    """The complex n x n ordered product of k clifford_steps, built BLOCK
    steps at a time.  coeffs(lo, hi, out) returns the coefficient rows
    (hi - lo, 1 + m) of steps lo to hi - 1, written into out, a C-ordered
    (1 + m, hi - lo) buffer, when it can (the ``out`` of exp_coefficients
    and connection.transport_exponents); rows of its own serve as well.  It
    must not run blocked_product itself, which would write over its
    caller's workspace.  Every full block is a whole subtree of the single
    product's pairwise tree, so the result has the bits of one
    ordered_product over all k real-form steps.  Each block's coefficient
    rows, real-form steps and tree levels, and the block products, in that
    order, sit in the calling thread's workspace (about 1.75 MB for the
    transport table at BLOCK = 2048, plus 512 bytes a block), so a warm
    call allocates no per-block array.  BLAS multiplies the real 8x8 forms
    of the 4x4 steps about three times faster than the complex 4x4 ones.
    A batch of short products, such as the 2x2 oracles' four factors on an
    angle array, is one ordered_product of their clifford_steps instead."""
    unit = table.shape[1]  # floats a real-form step
    width = int(unit ** 0.5)
    length, nblocks = min(k, BLOCK), -(-k // BLOCK)
    a = len(table) * length
    b = a + length * unit
    c = b + (length + 1) // 2 * unit
    buf = _workspace_floats(c + nblocks * unit)
    spare = buf[b:c].reshape(-1, width, width)
    blocks = buf[c:c + nblocks * unit].reshape(nblocks, width, width)
    for i, lo in enumerate(range(0, k, BLOCK)):
        hi = min(lo + BLOCK, k)
        out = buf[:len(table) * (hi - lo)].reshape(len(table), hi - lo)
        steps = buf[a:a + (hi - lo) * unit].reshape(hi - lo, width, width)
        blocks[i] = _tree_product(clifford_steps(table, coeffs(lo, hi, out), out=steps), spare)
    return complex_block(ordered_product(blocks))


def _tree_product(units, spare):
    """ordered_product of the stack units, level by level between units and
    spare (at least half as long), with its bits: the products of each
    level's pairs, then its odd last entry.  Overwrites both."""
    while len(units) > 1:
        pairs, odd = len(units) // 2, len(units) % 2
        np.matmul(units[1::2], units[:-1:2], spare[:pairs])
        if odd:
            spare[pairs] = units[-1]
        units, spare = spare[:pairs + odd], units
    return units[0]


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
