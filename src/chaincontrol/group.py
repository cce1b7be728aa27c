"""Group models: twisted torus actions and semidirect products.

The ambient group is T^m x_rho N where N is a simply connected nilpotent
group in exponential coordinates, optionally with some central coordinates
wrapped into circle factors.  Points are flat arrays (angles first, then
nilpotent coordinates) so that every operation batches over leading axes.
When every action generator is skew (`RhoAction.orthogonal`), the torus
acts by rotations, and the distance, a norm of the nilpotent part, skips
rho altogether.

The sampled residuals of the drift flow and of the quotient map draw their
N_SAMPLES in the order of a loop over samples and evaluate them in one
stacked pass, each sample with the bits of a call of its own.  A sample
that is not finite makes its residual NaN, which validate_linear_flow
refuses.
"""

import math

import numpy as np
from scipy.linalg import expm

from .algebra import quotient_by_central
from .errors import ValidationError
from .spectral import check_derivation

TWO_PI = 2.0 * np.pi
ACTION_ATOL = 1e-8  # integrality of the action spectrum, joint diagonality
FLOW_ATOL = 1e-8  # automorphism and intertwining residuals of the drift flow
N_SAMPLES = 20  # random samples behind each identity residual


def wrap_angle(values):
    """Reduce angles into [-pi, pi)."""
    return np.mod(np.asarray(values, dtype=float) + np.pi, TWO_PI) - np.pi


class RhoAction:
    """Action of the torus factor on the nilpotent algebra by automorphisms.

    One commuting derivation per torus coordinate, exponentiated through a
    joint complex eigenbasis.  Periodicity of each coordinate forces every
    generator's spectrum onto i*Z, which is validated, and lets rho(h) be
    evaluated for batches of h through phase multiplication.

    orthogonal holds when every generator is skew within ACTION_ATOL, so
    every rho(h) is a rotation: it keeps norms, and the torus acts by
    isometries.
    """

    def __init__(self, algebra, generators):
        self.algebra = algebra
        n = algebra.dim
        gens = [np.asarray(g, dtype=float) for g in generators]
        for g in gens:
            if g.shape != (n, n):
                raise ValidationError("action generator has wrong shape")
            check_derivation(algebra, g)
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                comm = gens[i] @ gens[j] - gens[j] @ gens[i]
                if np.max(np.abs(comm)) > 1e-10:
                    raise ValidationError("action generators do not commute")
        self.generators = gens
        self.n_params = len(gens)
        self.dim = n
        self.orthogonal = all(np.max(np.abs(g + g.T)) <= ACTION_ATOL
                              for g in gens)

        if not gens:
            self.basis = np.eye(n, dtype=complex)
            self.basis_inv = np.eye(n, dtype=complex)
            self.freqs = np.zeros((0, n), dtype=complex)
            return

        for g in gens:
            eigs = np.linalg.eigvals(g)
            if np.max(np.abs(eigs.real)) > ACTION_ATOL:
                raise ValidationError(
                    "angular generator has spectrum off the imaginary axis")
            if np.max(np.abs(eigs.imag - np.round(eigs.imag))) > ACTION_ATOL:
                raise ValidationError("angular generator frequencies are not integers")

        # joint diagonalization through a generic real combination
        rng = np.random.default_rng(913)
        basis = None
        for _ in range(8):
            combo = sum(rng.standard_normal() * g for g in gens)
            vals, vecs = np.linalg.eig(combo)
            if np.linalg.cond(vecs) > 1e6:
                continue
            inv = np.linalg.inv(vecs)
            residual = max(
                float(np.max(np.abs(inv @ g @ vecs - np.diag(np.diag(inv @ g @ vecs)))))
                for g in gens)
            if residual < ACTION_ATOL:
                basis = vecs
                break
        if basis is None:
            raise ValidationError("could not jointly diagonalize the action generators")
        self.basis = basis
        self.basis_inv = np.linalg.inv(basis)
        freqs = np.stack([np.diag(self.basis_inv @ g @ basis) for g in gens])
        # snap to exact i*integers so rho is exactly 2pi periodic
        snapped = 1j * np.round(freqs.imag)
        if np.max(np.abs(freqs - snapped)) > ACTION_ATOL:
            raise ValidationError("joint spectrum is not integral")
        self.freqs = snapped

    def matrix(self, h):
        """rho(h) as a real matrix, batched over the leading axes of h: h
        (..., m) gives (..., n, n) when the torus has a dimension."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if self.n_params == 0:
            return np.eye(self.dim)
        phases = np.exp(h @ self.freqs)
        out = (self.basis * phases[..., None, :]) @ self.basis_inv
        if np.max(np.abs(out.imag)) > 1e-9:
            raise ValidationError("action matrix came out non-real")
        return out.real

    def apply(self, h, x, owner=None):
        """rho(h) x, batched: h (..., m), x (..., n), broadcasting leading axes;
        with an index array owner, rho(h[owner]) x from one phase per row of h."""
        if self.n_params == 0:
            return np.asarray(x, dtype=float)
        h = np.asarray(h, dtype=float)
        x = np.asarray(x, dtype=float)
        phases = np.exp(h @ self.freqs)
        if owner is not None:
            phases = phases[owner]
        coords = x @ self.basis_inv.T
        out = (coords * phases) @ self.basis.T
        return out.real


class SemidirectGroup:
    """T^m x_rho N with points stored as arrays (..., m + n).

    Coordinates: m torus angles, one per action generator, then n
    exponential coordinates of N.  The torus is flat and written additively;
    a translation drift h -> h + t s with s != 0 moves the identity, so it
    is not an automorphism flow and the torus part of every drift is
    trivial.  angular_x_mask marks central coordinates of N that are
    themselves wrapped into circle factors; those directions must be killed
    by the bracket and by every action generator.
    """

    def __init__(self, algebra, action, angular_x_mask=None):
        if action.algebra is not algebra:
            raise ValidationError("action is bound to a different algebra")
        self.algebra = algebra
        self.action = action
        m, n = action.n_params, algebra.dim
        self.h_dim, self.x_dim = m, n
        self.dim = m + n

        mask = np.zeros(n, dtype=bool) if angular_x_mask is None else np.asarray(
            angular_x_mask, dtype=bool)
        if mask.shape != (n,):
            raise ValidationError("angular mask has wrong shape")
        if mask.any():
            c = algebra.structure
            touched = max(
                float(np.max(np.abs(c[mask]))),
                float(np.max(np.abs(c[:, mask]))),
                float(np.max(np.abs(c[:, :, mask]))),
            )
            if touched > 0.0:
                raise ValidationError(
                    "angular nilpotent directions must be central and unreached")
            for g in action.generators:
                if np.max(np.abs(g[:, mask])) > 0 or np.max(np.abs(g[mask, :])) > 0:
                    raise ValidationError(
                        "action must act trivially on angular nilpotent directions")
        self.x_mask = mask

        full = np.zeros(self.dim, dtype=bool)
        full[:m] = True
        full[m:] = mask
        self.angular_mask = full

    # -- point plumbing ----------------------------------------------------

    def coordinate_names(self):
        """Column names of a point: theta0.. for the torus, x0.. for N."""
        return [f"theta{j}" for j in range(self.h_dim)] + \
            [f"x{j}" for j in range(self.x_dim)]

    def split(self, g):
        g = np.asarray(g, dtype=float)
        return g[..., :self.h_dim], g[..., self.h_dim:]

    def join(self, h, x):
        h = np.asarray(h, dtype=float)
        x = np.asarray(x, dtype=float)
        lead = np.broadcast_shapes(h.shape[:-1], x.shape[:-1])
        return np.concatenate([
            np.broadcast_to(h, lead + (self.h_dim,)),
            np.broadcast_to(x, lead + (self.x_dim,)),
        ], axis=-1)

    def normalize(self, g):
        """Wrap every angular coordinate into [-pi, pi)."""
        g = np.array(g, dtype=float, copy=True)
        g[..., self.angular_mask] = wrap_angle(g[..., self.angular_mask])
        return g

    # -- group operations --------------------------------------------------

    def multiply(self, a, b):
        h_a, x_a = self.split(a)
        h_b, x_b = self.split(b)
        h = wrap_angle(h_a + h_b)
        x = self.algebra.bch(x_a, self.action.apply(h_a, x_b))
        return self.normalize(self.join(h, x))

    def distance(self, a, b, owner=None):
        """Left-invariant distance d(a, b) = d_H part + |x part of a^{-1} b|.

        d_H is the norm of the wrapped angle difference.  The nilpotent
        part of a^{-1} b is rho(-h_a) bch(-x_a, x_b); angular nilpotent
        coordinates are wrapped before taking the norm.  rho fixes them, so
        the wrap commutes with rho, and an orthogonal action keeps the
        norm: then the norm is taken of bch(-x_a, x_b) itself, with no
        rotation.  With an index array owner: d(a[owner], b), bit for bit,
        one phase per a row.
        """
        h_a, x_a = self.split(np.asarray(a, dtype=float))
        h_b, x_b = self.split(np.asarray(b, dtype=float))
        h_row, x_row = (h_a, x_a) if owner is None else (h_a[owner], x_a[owner])
        d_h = (np.linalg.norm(wrap_angle(h_b - h_row), axis=-1)
               if self.h_dim else 0.0)
        # bch returns a fresh array, and so does apply
        x_rel = self.algebra.bch(-x_row, x_b)
        if not self.action.orthogonal:
            x_rel = self.action.apply(-h_a, x_rel, owner)
        if self.x_mask.any():
            x_rel[..., self.x_mask] = wrap_angle(x_rel[..., self.x_mask])
        # norm's squares overflow past about 1e154, where hypot's do not
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(x_rel, axis=-1)
        finite = np.isfinite(norm)
        if not finite.all():
            norm = np.where(finite, norm, np.hypot.reduce(x_rel, axis=-1))
        return d_h + norm

    def linear_flow(self, t, g, matrix):
        """(h, x) -> (h, e^{t matrix} x) for the drift derivation matrix.

        An array t broadcasts against the leading axes of g, one propagator
        per entry from one stacked expm; each row then meets its own
        propagator alone, so it keeps the bits of a call with its scalar t.
        """
        h, x = self.split(np.asarray(g, dtype=float))
        t = np.asarray(t, dtype=float)
        prop = expm(t[..., None, None] * np.asarray(matrix, dtype=float))
        if t.ndim:
            x = (x[..., None, :] @ np.swapaxes(prop, -1, -2))[..., 0, :]
        else:
            x = x @ prop.T
        return self.normalize(self.join(h, x))


def _draws(n, draw):
    """n draws of draw(), each a tuple, stacked field by field: the rng
    calls keep the order of a loop over samples."""
    return [np.array(field) for field in zip(*(draw() for _ in range(n)))]


@np.errstate(all="ignore")  # a non-finite sample reads NaN
def compatibility_residual(group, matrix):
    """Sup over samples of |e^{tD} rho(h) - rho(h) e^{tD}|; NaN when a
    sample is not finite."""
    rng = np.random.default_rng(8)
    h, t = _draws(N_SAMPLES, lambda: (
        rng.uniform(-np.pi, np.pi, size=group.h_dim), rng.uniform(-2.0, 2.0)))
    prop = expm(t[:, None, None] * np.asarray(matrix, dtype=float))
    rho = group.action.matrix(h)
    return float(np.max(np.abs(prop @ rho - rho @ prop)))


def _finite(worst, name):
    """The residual worst, refused when a sample made it NaN or inf."""
    if not math.isfinite(worst):
        raise ValidationError(f"{name} residual is not finite")
    return worst


@np.errstate(all="ignore")  # an overflowing flow is refused, not warned of
def validate_linear_flow(group, matrix):
    """Drift flow must consist of group automorphisms.

    Checks phi_t(ab) = phi_t(a) phi_t(b) on random pairs together with the
    action compatibility e^{tD} rho(h) = rho(h) e^{tD}, each over its
    N_SAMPLES in one stacked pass with one stacked expm (ab, a and b share
    their sample's propagator).  Raises unless both residuals are at
    most FLOW_ATOL: beyond it, or not finite when some sample overflows.
    """
    d = np.asarray(matrix, dtype=float)
    if d.shape != (group.x_dim, group.x_dim):
        raise ValidationError("drift matrix has wrong shape")
    if group.x_mask.any() and np.max(np.abs(d[:, group.x_mask])) > 0:
        raise ValidationError("drift must annihilate angular nilpotent directions")
    check_derivation(group.algebra, d)

    worst_compat = _finite(compatibility_residual(group, d),
                           "drift intertwining")
    if worst_compat > FLOW_ATOL:
        raise ValidationError(
            f"drift does not intertwine the action, residual {worst_compat:.3e}")

    rng = np.random.default_rng(8)
    a, b, t = _draws(N_SAMPLES, lambda: (
        _random_point(group, rng), _random_point(group, rng),
        rng.uniform(-1.5, 1.5)))
    # ab, a and b under each sample's one propagator
    ab_t, a_t, b_t = group.linear_flow(
        t, np.stack([group.multiply(a, b), a, b]), d)
    worst = _finite(float(np.max(group.distance(
        ab_t, group.multiply(a_t, b_t)))), "flow automorphism")
    if worst > FLOW_ATOL:
        raise ValidationError(
            f"flow automorphism residual {worst:.3e} exceeds {FLOW_ATOL:.1e}")
    return max(worst, worst_compat)


def _random_point(group, rng):
    h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
    x = rng.standard_normal(group.x_dim)
    return group.normalize(np.concatenate([h, x]))


class ConjugationMap:
    """Quotient homomorphism onto the hyperbolic part of the model.

    Drops the declared flow-trivial central coordinate axes of N: every
    angular nilpotent coordinate, plus the extra_kernel indices, which must
    lie in ker D.  keep masks the coordinates that stay; algebra, action
    and derivation become their kept blocks.  The result is again a
    semidirect model, and psi intertwines products and drift flows by
    construction; both are validated on samples.  Whether the kept block
    is hyperbolic is not checked here: the eigenvalue_match row of
    verify.quotient_run decides it.
    """

    def __init__(self, group, matrix, extra_kernel=()):
        d = np.asarray(matrix, dtype=float)
        keep = ~group.x_mask
        keep[list(extra_kernel)] = False
        self.group = group
        self.matrix = d
        self.keep = keep
        if keep.all():
            # nothing to quotient: psi is the identity map
            self.matrix_hat = d
            self.target = group
            return
        if not keep.any():
            raise ValidationError(
                "the quotient keeps no nilpotent coordinate; "
                "conjugation.extra_kernel and the angular coordinates "
                "drop all of them")
        if np.max(np.abs(d[:, ~keep])) > 1e-10:
            raise ValidationError("declared kernel is not inside ker D")
        # generators must preserve the kernel for the quotient action to exist
        for g in group.action.generators:
            if np.max(np.abs(g[np.ix_(keep, ~keep)])) > 1e-10:
                raise ValidationError("action does not preserve the kernel")

        quot_alg = quotient_by_central(group.algebra, keep)
        self.matrix_hat = d[np.ix_(keep, keep)]
        gens_hat = [g[np.ix_(keep, keep)] for g in group.action.generators]
        self.target = SemidirectGroup(quot_alg, RhoAction(quot_alg, gens_hat))

    def apply(self, g):
        h, x = self.group.split(np.asarray(g, dtype=float))
        return self.target.join(h, x[..., self.keep])

    @np.errstate(all="ignore")
    def homomorphism_residual(self):
        """Sup over samples of d(psi(ab), psi(a) psi(b)), in one stacked
        pass; NaN when a sample is not finite."""
        rng = np.random.default_rng(9)
        a, b = _draws(N_SAMPLES, lambda: (_random_point(self.group, rng),
                                          _random_point(self.group, rng)))
        lhs = self.apply(self.group.multiply(a, b))
        rhs = self.target.multiply(self.apply(a), self.apply(b))
        return float(np.max(self.target.distance(lhs, rhs)))

    @np.errstate(all="ignore")
    def flow_equivariance_residual(self):
        """Sup over samples of d(psi(phi_t(g)), phi^_t(psi(g))), in one
        stacked pass; NaN when a sample is not finite."""
        rng = np.random.default_rng(10)
        g, t = _draws(N_SAMPLES, lambda: (_random_point(self.group, rng),
                                          rng.uniform(-2.0, 2.0)))
        lhs = self.apply(self.group.linear_flow(t, g, self.matrix))
        rhs = self.target.linear_flow(t, self.apply(g), self.matrix_hat)
        return float(np.max(self.target.distance(lhs, rhs)))
