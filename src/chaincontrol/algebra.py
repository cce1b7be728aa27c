"""Nilpotent Lie algebra arithmetic in a fixed linear basis.

A bracket tensor c with [e_i, e_j] = sum_k c[i, j, k] e_k defines the
algebra.  Everything downstream (graded splitting, group products, flows)
is built from this tensor, so the constructor validates it hard.
"""

import itertools
import math

import numpy as np

from .errors import ValidationError

MAX_CLASS = 4
MAX_DIM = 8

_RANK_TOL = 1e-10
STRUCTURE_ATOL = 1e-12  # antisymmetry and Jacobi residuals of a bracket tensor


def bch_dynkin(bracket, x, y, max_class=MAX_CLASS):
    """Baker-Campbell-Hausdorff product summed straight from the Dynkin series.

    Slow reference implementation kept deliberately independent of the
    closed-form product: it enumerates words and right-nested brackets
    with the textbook combinatorial coefficients.  Used as an oracle in
    tests and nowhere else.

    bracket: callable (v, w) -> [v, w] on plain vectors.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = x + y  # n = 1 terms (1,0) and (0,1) give x and y outright
    letters = {0: x, 1: y}

    # pairs (r, s) of x/y repetition counts per block, at least one letter
    pairs = [(r, s) for r in range(max_class + 1) for s in range(max_class + 1)
             if 1 <= r + s <= max_class]

    for n in range(1, max_class + 1):
        for combo in itertools.product(pairs, repeat=n):
            degree = sum(r + s for r, s in combo)
            if degree > max_class or degree < 2:
                continue  # degree-1 terms already in `total`
            word = []
            for r, s in combo:
                word.extend([0] * r)
                word.extend([1] * s)
            # right-nested bracket [w1,[w2,[...,[w_{m-1}, w_m]...]]]
            if word[-1] == word[-2]:
                continue  # innermost [a, a] kills the term
            value = letters[word[-1]]
            for letter in reversed(word[:-1]):
                value = bracket(letters[letter], value)
            denom = degree
            for r, s in combo:
                denom *= math.factorial(r) * math.factorial(s)
            coeff = (-1.0) ** (n - 1) / n / denom
            total = total + coeff * value
    return total


def preset_structure(name):
    """Bracket tensor for a named example algebra.

    heisenberg3        [e1,e2] = e3
    abelian:N          zero bracket in dimension N
    filiform4          [e1,e2] = e3, [e1,e3] = e4
    filiform5          filiform4 plus [e1,e4] = e5 (class 4)
    """
    def tensor(dim, relations):
        c = np.zeros((dim, dim, dim))
        for i, j, k in relations:
            c[i, j, k] = 1.0
            c[j, i, k] = -1.0
        return c

    if name == "heisenberg3":
        return tensor(3, [(0, 1, 2)])
    if name.startswith("abelian:"):
        tail = name.split(":", 1)[1]
        dim = int(tail) if tail.isdigit() else 0
        if not 1 <= dim <= MAX_DIM:
            raise ValidationError(f"abelian preset dim out of range: {tail}")
        return np.zeros((dim, dim, dim))
    if name == "filiform4":
        return tensor(4, [(0, 1, 2), (0, 2, 3)])
    if name == "filiform5":
        return tensor(5, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    raise ValidationError(f"unknown algebra preset: {name}")


def structure_residuals(c):
    """(antisymmetry, Jacobi) sup residuals of a bracket tensor."""
    c = np.asarray(c, dtype=float)
    if not c.size:
        return 0.0, 0.0
    anti = float(np.max(np.abs(c + c.transpose(1, 0, 2))))
    # Jacobi: [a,[b,c]] + [b,[c,a]] + [c,[a,b]] = 0 on basis triples
    t1 = np.einsum("bcl,alm->abcm", c, c)
    t2 = np.einsum("cal,blm->abcm", c, c)
    t3 = np.einsum("abl,clm->abcm", c, c)
    return anti, float(np.max(np.abs(t1 + t2 + t3)))


def _orthonormal_range(columns):
    """Orthonormal basis of the column span, rank decided by singular values."""
    if columns.size == 0:
        return np.zeros((columns.shape[0], 0))
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    if s.size == 0 or s[0] < _RANK_TOL:
        return np.zeros((columns.shape[0], 0))
    rank = int(np.sum(s > _RANK_TOL * max(1.0, s[0])))
    return u[:, :rank]


def _projector_basis(proj):
    """Canonical orthonormal basis of a projector's range.

    Pivoted QR keeps the output aligned with coordinate axes whenever the
    projector is axis aligned, and the sign convention (largest entry of
    each column positive) makes graded coordinates reproducible.
    """
    from scipy.linalg import qr

    rank = int(round(np.trace(proj)))
    if rank == 0:
        return np.zeros((proj.shape[0], 0))
    q, _, _ = qr(proj, mode="economic", pivoting=True)
    basis = q[:, :rank].copy()
    for j in range(rank):
        col = basis[:, j]
        lead = np.argmax(np.abs(col))
        if col[lead] < 0:
            basis[:, j] = -col
    return basis


class NilpotentAlgebra:
    """Finite-dimensional nilpotent Lie algebra with graded orthogonal split.

    Validates antisymmetry and the Jacobi identity, computes the descending
    central series, and fixes the orthogonal complements V_i of each series
    step.  Coordinates ordered by level (columns of `frame`) make every
    structural map lower block triangular.
    """

    def __init__(self, structure):
        c = np.asarray(structure, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValidationError(f"structure tensor must be (n,n,n), got {c.shape}")
        n = c.shape[0]
        if n > MAX_DIM:
            raise ValidationError(f"dimension {n} exceeds supported maximum {MAX_DIM}")

        anti, jac = structure_residuals(c)
        if anti > STRUCTURE_ATOL:
            raise ValidationError(f"bracket not antisymmetric, residual {anti:.3e}")
        if jac > STRUCTURE_ATOL:
            raise ValidationError(f"Jacobi identity fails, residual {jac:.3e}")

        self.dim = n
        self.structure = c
        self._structure_rows = c.reshape(n * n, n)  # row i*n + j holds [e_i, e_j]

        # descending central series: U^1 = g, U^{p+1} = [g, U^p]
        bases = [np.eye(n)]
        for _ in range(MAX_CLASS):
            prev = bases[-1]
            if prev.shape[1] == 0:
                break
            spanned = np.einsum("ijk,jl->kil", c, prev).reshape(n, -1)
            bases.append(_orthonormal_range(spanned))
        if bases[-1].shape[1] != 0:
            raise ValidationError(f"series not exhausted within class {MAX_CLASS}")
        while bases[-1].shape[1] == 0 and len(bases) > 1:
            bases.pop()
        self.nilpotency_class = len(bases)
        bases.append(np.zeros((n, 0)))
        self.series_bases = bases  # index p-1 holds U^p, last entry empty

        # V_i = orthogonal complement of U^{i+1} inside U^i
        frames = []
        for i in range(self.nilpotency_class):
            big, sub = bases[i], bases[i + 1]
            proj = big @ big.T - sub @ sub.T
            v = _projector_basis(proj)
            expected = big.shape[1] - sub.shape[1]
            if v.shape[1] != expected:
                raise ValidationError(
                    f"graded component {i + 1} has rank {v.shape[1]}, expected {expected}")
            frames.append(v)
        self.component_frames = frames
        self.component_dims = [v.shape[1] for v in frames]
        frame = np.hstack(frames)
        ortho = np.max(np.abs(frame.T @ frame - np.eye(n))) if n else 0.0
        if ortho > 1e-10:
            raise ValidationError(f"graded frame not orthogonal, residual {ortho:.3e}")
        self.frame = frame  # columns: V_1 then V_2 ... V_k

        starts = np.cumsum([0] + self.component_dims)
        self.level_slices = [slice(int(a), int(b)) for a, b in zip(starts, starts[1:])]

    @classmethod
    def from_preset(cls, name):
        return cls(preset_structure(name))

    # -- basic operations ------------------------------------------------

    def bracket(self, x, y):
        """[x, y], batched over leading axes with broadcasting.

        One matmul: the outer product x_i y_j, flattened over (i, j),
        against the structure tensor flattened the same way.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        outer = x[..., :, None] * y[..., None, :]
        return outer.reshape(outer.shape[:-2] + (self.dim * self.dim,)) \
            @ self._structure_rows

    def ad(self, x):
        """Matrix of ad(x) = [x, .], batched over leading axes of x."""
        return np.einsum("ijk,...i->...kj", self.structure, x)

    def bch(self, x, y):
        """Group product in exponential coordinates, exact through class 4.

        x + y + [x,y]/2 + ([x,[x,y]] - [y,[x,y]])/12 - [y,[x,[x,y]]]/24,
        batched over leading axes with broadcasting.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = x + y
        if self.nilpotency_class < 2:
            return out  # abelian: every bracket vanishes
        b = self.bracket(x, y)
        out = out + 0.5 * b
        if self.nilpotency_class >= 3:
            out = out + (self.bracket(x, b) - self.bracket(y, b)) / 12.0
        if self.nilpotency_class >= 4:
            out = out - self.bracket(y, self.bracket(x, b)) / 24.0
        return out

    # -- graded structure ------------------------------------------------

    def component(self, x, level):
        """Component of x in V_level, batched."""
        v = self.component_frames[level - 1]
        return np.einsum("ij,...j->...i", v @ v.T, x)

    def to_graded(self, x):
        """Coordinates of x in the level-ordered orthonormal frame."""
        return np.einsum("ji,...j->...i", self.frame, x)

    def from_graded(self, xg):
        return np.einsum("ij,...j->...i", self.frame, xg)


def quotient_by_central(algebra, keep):
    """Quotient algebra by the span of the coordinate axes keep leaves out.

    keep: boolean mask over the coordinates.  The dropped axes must be
    central (every bracket with them vanishes); the quotient map then keeps
    the other coordinates, so its structure constants are the kept block.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (algebra.dim,):
        raise ValidationError("quotient mask has wrong ambient dimension")
    central_residual = np.max(np.abs(algebra.structure[:, ~keep]), initial=0.0)
    if central_residual > 1e-10:
        raise ValidationError(
            f"kernel is not central, bracket residual {central_residual:.3e}")
    return NilpotentAlgebra(algebra.structure[np.ix_(keep, keep, keep)])
