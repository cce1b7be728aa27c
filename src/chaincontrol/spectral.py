"""Derivation checks and spectral structure of the drift matrix.

The drift of a linear system acts on the algebra as a derivation D.  This
module validates that property, splits the space by the sign of the real
part of the spectrum, expresses D in level-ordered coordinates where it is
lower block triangular, and certifies exponential decay rates used by the
chain-set bounds.
"""

import numpy as np
from scipy.linalg import expm, schur

from .errors import NotHyperbolicError, ValidationError

DERIVATION_ATOL = 1e-10  # Leibniz residual a derivation may carry
GRADED_ATOL = 1e-12  # upper graded blocks of a series-preserving map; the
# commutator [D, D^T] of a normal block in decay_constants, relative to the
# square of its smallest |Re lambda|
CENTER_TOL = 1e-8  # |Re lambda| at or below this counts as center spectrum
# decay_constants: share of the spectral gap, grid step, horizon in units
# of 1 / mu, and the stride of the coarse nodes behind raw
RATE_SCALE, DECAY_STEP, DECAY_HORIZON, COARSE_EVERY = 0.9, 1e-3, 50.0, 10


def _norm2(m):
    return np.linalg.norm(m, 2) if m.size else 0.0


def check_derivation(algebra, matrix):
    """Largest Leibniz residual |D[a,b] - [Da,b] - [a,Db]| over basis pairs.

    Raises ValidationError above DERIVATION_ATOL; returns the residual
    otherwise.
    """
    d = np.asarray(matrix, dtype=float)
    c = algebra.structure
    if d.shape != (algebra.dim, algebra.dim):
        raise ValidationError(f"derivation shape {d.shape} mismatches dim {algebra.dim}")
    lhs = np.einsum("abk,mk->abm", c, d)
    rhs = np.einsum("ia,ibm->abm", d, c) + np.einsum("jb,ajm->abm", d, c)
    residual = float(np.max(np.abs(lhs - rhs))) if c.size else 0.0
    if residual > DERIVATION_ATOL:
        raise ValidationError(f"Leibniz rule fails, residual {residual:.3e}")
    return residual


class SpectralSplit:
    """Invariant splitting of a matrix by sign of the real part of eigenvalues.

    Three independently sorted real Schur factorizations give orthonormal
    bases of the stable, center, and unstable invariant subspaces; the
    projections along the complementary pair come from one linear solve.
    """

    def __init__(self, matrix):
        d = np.asarray(matrix, dtype=float)
        n = d.shape[0]
        if d.shape != (n, n):
            raise ValidationError("matrix must be square")
        self.matrix = d
        self.eigenvalues = np.sort_complex(np.linalg.eigvals(d))

        def cluster(keep):
            _, z, sdim = schur(d, output="real", sort=keep)
            return z[:, :sdim]

        self.stable_basis = cluster(lambda re, im: re < -CENTER_TOL)
        self.center_basis = cluster(lambda re, im: abs(re) <= CENTER_TOL)
        self.unstable_basis = cluster(lambda re, im: re > CENTER_TOL)

        dims = (self.stable_basis.shape[1], self.center_basis.shape[1],
                self.unstable_basis.shape[1])
        if sum(dims) != n:
            raise ValidationError(f"invariant subspace dims {dims} do not sum to {n}")
        self.dims = dims

        stacked = np.hstack([self.stable_basis, self.center_basis, self.unstable_basis])
        try:
            coeffs = np.linalg.solve(stacked, np.eye(n))
        except np.linalg.LinAlgError as exc:
            raise ValidationError(f"subspace bases are degenerate: {exc}")
        cuts = np.cumsum([0, *dims])
        parts = []
        rows = []
        for i, basis in enumerate((self.stable_basis, self.center_basis,
                                   self.unstable_basis)):
            rows.append(coeffs[cuts[i]:cuts[i + 1], :])
            parts.append(basis @ rows[-1])
        self.pi_stable, self.pi_center, self.pi_unstable = parts
        # coefficient rows: pi = basis @ rows, handy for subspace propagation
        self.stable_rows, self.unstable_rows = rows[0], rows[2]

        ident = self.pi_stable + self.pi_center + self.pi_unstable
        if np.max(np.abs(ident - np.eye(n))) > 1e-9:
            raise ValidationError("projections do not sum to identity")
        for pi in parts:
            if _norm2(pi @ pi - pi) > 1e-8:
                raise ValidationError("projection is not idempotent")
            if _norm2(pi @ d - d @ pi) > 1e-7 * max(1.0, _norm2(d)):
                raise ValidationError("projection does not commute with matrix")


class GradedBlocks:
    """A linear map written in level-ordered coordinates, sliced by level."""

    def __init__(self, algebra, matrix):
        self.levels = algebra.nilpotency_class
        self.slices = algebra.level_slices
        self.matrix = algebra.frame.T @ np.asarray(matrix, dtype=float) @ algebra.frame

    def block(self, i, j):
        """Block mapping level j into level i (1-based)."""
        return self.matrix[self.slices[i - 1], self.slices[j - 1]]

    def upper_residual(self):
        worst = 0.0
        for i in range(1, self.levels + 1):
            for j in range(i + 1, self.levels + 1):
                b = self.block(i, j)
                if b.size:
                    worst = max(worst, float(np.max(np.abs(b))))
        return worst


def block_decompose(algebra, matrix):
    """Derivation in graded coordinates; must be lower block triangular.

    D U^p inside U^p for every step of the descending series is exactly
    the vanishing of the blocks above the diagonal in the graded frame.
    """
    blocks = GradedBlocks(algebra, matrix)
    residual = blocks.upper_residual()
    if residual > GRADED_ATOL:
        raise ValidationError(f"upper graded blocks nonzero, residual {residual:.3e}")
    return blocks


def power_stack(mat, start, count):
    """[start, M start, M^2 start, ..., M^count start] as one array.

    With nodes 0..m-1 filled, one batched product by M^m fills m..2m-1, and
    M^m becomes M^{2m}: about log2(count) matrix products in all.
    """
    stack = np.empty((count + 1, *start.shape))
    stack[0] = start
    power = mat
    filled = 1
    while filled <= count:
        take = min(filled, count + 1 - filled)
        np.matmul(power, stack[:take], out=stack[filled:filled + take])
        power = power @ power
        filled += take
    return stack


def decay_constants(matrix):
    """Certified exponential rate and overshoot for a hyperbolic matrix.

    Returns dict with rate mu > 0 and constant kappa >= 1 such that on a
    refined time grid |e^{tD} P_stable| <= kappa e^{-mu t} and
    |e^{-tD} P_unstable| <= kappa e^{-mu t} for t >= 0.

    mu is RATE_SCALE times the smallest |Re lambda|, and a rate too small
    for a grid of at most 5M steps is refused.  A normal matrix (one whose
    commutator with its transpose is within GRADED_ATOL times the square
    of the smallest |Re lambda|, a test that does not depend on the
    matrix's scale) needs no grid: its spectral projections are
    orthogonal, and e^{tD} contracts the stable one (e^{-tD} the unstable
    one) at least at the smallest |Re lambda| >= mu, so kappa = 1 and raw,
    the norm at t = 0, is 1.  Otherwise one grid of step DECAY_STEP runs
    out to DECAY_HORIZON / mu.  kappa starts from
    raw, the sup over every COARSE_EVERY-th node (node 0 holds the
    projection norms), is set to 1 when raw stays below 1, inflated by 5
    percent otherwise, and then rechecked on every node.
    """
    d = np.asarray(matrix, dtype=float)
    eigs = np.linalg.eigvals(d)
    real_parts = np.abs(eigs.real)
    if d.shape[0] == 0:
        return {"mu": np.inf, "kappa": 1.0, "raw": 0.0}
    if np.min(real_parts) <= CENTER_TOL:
        raise NotHyperbolicError(
            "matrix has spectrum on the imaginary axis, no decay rate exists")
    gap = float(np.min(real_parts))
    mu = RATE_SCALE * gap
    n_steps = int(np.ceil(DECAY_HORIZON / mu / DECAY_STEP))
    if n_steps > 5_000_000:
        raise ValidationError("rate too small to certify on a time grid")
    if np.max(np.abs(d @ d.T - d.T @ d)) <= GRADED_ATOL * gap * gap:
        return {"mu": mu, "kappa": 1.0, "raw": 1.0}

    split = SpectralSplit(d)
    if split.dims[1] != 0:
        raise ValidationError("center subspace must be empty here")
    weights = np.exp(mu * DECAY_STEP * np.arange(n_steps + 1))

    # propagate inside each invariant subspace: e^{tD} pi = Q e^{tS} C with
    # S = Q^T D Q, pi = Q C.  All modes of e^{tS} (stable) and e^{-tS}
    # (unstable) decay, so repeated multiplication stays well conditioned,
    # and |Q M|_2 = |M|_2 for orthonormal Q.
    raw = fine = 0.0
    for basis, rows, sign in ((split.stable_basis, split.stable_rows, 1.0),
                              (split.unstable_basis, split.unstable_rows, -1.0)):
        if not basis.shape[1]:
            continue
        # node k holds P^k C, P = e^{h S}
        stack = power_stack(expm(DECAY_STEP * sign * (basis.T @ d @ basis)),
                            rows, n_steps)
        scaled = np.linalg.norm(stack, ord=2, axis=(1, 2)) * weights
        raw = max(raw, float(np.max(scaled[::COARSE_EVERY])))
        fine = max(fine, float(np.max(scaled)))

    kappa = 1.0 if raw <= 1.0 + 1e-12 else 1.05 * raw
    if fine > kappa * (1.0 + 1e-9):
        raise ValidationError(
            f"decay certificate failed on refinement: {fine:.6f} > {kappa:.6f}")
    return {"mu": mu, "kappa": float(kappa), "raw": float(raw)}

