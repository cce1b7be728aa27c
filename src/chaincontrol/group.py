"""Group models: tori, twisted actions, and semidirect products.

The ambient group is T^m x_rho N where N is a simply connected nilpotent
group in exponential coordinates, optionally with some central coordinates
wrapped into circle factors.  Points are flat arrays (angles first, then
nilpotent coordinates) so that every operation batches over leading axes.
"""

import numpy as np
from scipy.linalg import expm

from .errors import (
    IncompatibleActionError,
    NotAutomorphismError,
    ValidationError,
)
from .spectral import check_derivation

TWO_PI = 2.0 * np.pi
ACTION_ATOL = 1e-8  # integrality of the action spectrum, joint diagonality
FLOW_ATOL = 1e-8  # automorphism and intertwining residuals of the drift flow
N_SAMPLES = 20  # random samples behind each identity residual


def wrap_angle(values):
    """Reduce angles into [-pi, pi)."""
    return np.mod(np.asarray(values, dtype=float) + np.pi, TWO_PI) - np.pi


class TorusGroup:
    """Flat torus T^m written additively.

    A translation drift h -> h + t s with s != 0 moves the identity, so it
    is not an automorphism flow; the torus part of every drift is trivial.
    """

    def __init__(self, dim):
        if dim < 0:
            raise ValidationError("torus dimension must be nonnegative")
        self.dim = int(dim)

    def add(self, a, b):
        return wrap_angle(np.asarray(a, dtype=float) + b)

    def distance(self, a, b):
        """Bi-invariant distance: norm of the wrapped coordinate difference."""
        diff = wrap_angle(np.asarray(b, dtype=float) - a)
        return np.linalg.norm(diff, axis=-1)


class RhoAction:
    """Action of the torus factor on the nilpotent algebra by automorphisms.

    One commuting derivation per torus coordinate, exponentiated through a
    joint complex eigenbasis.  Periodicity of each coordinate forces every
    generator's spectrum onto i*Z, which is validated, and lets rho(h) be
    evaluated for batches of h through phase multiplication.
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
                    raise IncompatibleActionError(
                        "action generators do not commute")
        self.generators = gens
        self.n_params = len(gens)
        self.dim = n

        if not gens:
            self.basis = np.eye(n, dtype=complex)
            self.basis_inv = np.eye(n, dtype=complex)
            self.freqs = np.zeros((0, n), dtype=complex)
            return

        for g in gens:
            eigs = np.linalg.eigvals(g)
            if np.max(np.abs(eigs.real)) > ACTION_ATOL:
                raise IncompatibleActionError(
                    "angular generator has spectrum off the imaginary axis")
            if np.max(np.abs(eigs.imag - np.round(eigs.imag))) > ACTION_ATOL:
                raise IncompatibleActionError(
                    "angular generator frequencies are not integers")

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
            raise IncompatibleActionError(
                "could not jointly diagonalize the action generators")
        self.basis = basis
        self.basis_inv = np.linalg.inv(basis)
        freqs = np.stack([np.diag(self.basis_inv @ g @ basis) for g in gens])
        # snap to exact i*integers so rho is exactly 2pi periodic
        snapped = 1j * np.round(freqs.imag)
        if np.max(np.abs(freqs - snapped)) > ACTION_ATOL:
            raise IncompatibleActionError("joint spectrum is not integral")
        self.freqs = snapped

    def matrix(self, h):
        """rho(h) as a real matrix for a single parameter vector h."""
        h = np.atleast_1d(np.asarray(h, dtype=float))
        if self.n_params == 0:
            return np.eye(self.dim)
        phases = np.exp(h @ self.freqs)
        out = (self.basis * phases) @ self.basis_inv
        if np.max(np.abs(out.imag)) > 1e-9:
            raise IncompatibleActionError("action matrix came out non-real")
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

    Coordinates: m torus angles, then n exponential coordinates of N.
    angular_x_mask marks central coordinates of N that are themselves
    wrapped into circle factors; those directions must be killed by the
    bracket and by every action generator.
    """

    def __init__(self, torus, algebra, action, angular_x_mask=None):
        if action.algebra is not algebra:
            raise ValidationError("action is bound to a different algebra")
        if action.n_params != torus.dim:
            raise ValidationError(
                "need exactly one action generator per torus coordinate")
        self.torus = torus
        self.algebra = algebra
        self.action = action
        m, n = torus.dim, algebra.dim
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

    def identity(self):
        return np.zeros(self.dim)

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
        h = self.torus.add(h_a, h_b)
        x = self.algebra.bch(x_a, self.action.apply(h_a, x_b))
        return self.normalize(self.join(h, x))

    def distance(self, a, b, owner=None):
        """Left-invariant distance d(a, b) = d_H part + |x part of a^{-1} b|.

        The nilpotent part of a^{-1} b is rho(-h_a) bch(-x_a, x_b); angular
        nilpotent coordinates are wrapped before taking the norm.  With an
        index array owner: d(a[owner], b), bit for bit, one phase per a row.
        """
        h_a, x_a = self.split(np.asarray(a, dtype=float))
        h_b, x_b = self.split(np.asarray(b, dtype=float))
        h_row, x_row = (h_a, x_a) if owner is None else (h_a[owner], x_a[owner])
        d_h = self.torus.distance(h_row, h_b) if self.h_dim else 0.0
        x_rel = self.action.apply(-h_a, self.algebra.bch(-x_row, x_b), owner)
        if self.x_mask.any():
            x_rel = np.array(x_rel, copy=True)
            x_rel[..., self.x_mask] = wrap_angle(x_rel[..., self.x_mask])
        # norm's squares overflow past about 1e154, where hypot's do not
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(x_rel, axis=-1)
        finite = np.isfinite(norm)
        if not finite.all():
            norm = np.where(finite, norm, np.hypot.reduce(x_rel, axis=-1))
        return d_h + norm

    def linear_flow(self, t, g, matrix):
        """(h, x) -> (h, e^{t matrix} x) for the drift derivation matrix."""
        h, x = self.split(np.asarray(g, dtype=float))
        prop = expm(float(t) * np.asarray(matrix, dtype=float))
        return self.normalize(self.join(h, x @ prop.T))


def compatibility_residual(group, matrix):
    """Sup over samples of |e^{tD} rho(h) - rho(h) e^{tD}|."""
    rng = np.random.default_rng(8)
    d = np.asarray(matrix, dtype=float)
    worst = 0.0
    for _ in range(N_SAMPLES):
        h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
        t = rng.uniform(-2.0, 2.0)
        prop = expm(t * d)
        lhs = prop @ group.action.matrix(h)
        rhs = group.action.matrix(h) @ prop
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def validate_linear_flow(group, matrix):
    """Drift flow must consist of group automorphisms.

    Checks phi_t(ab) = phi_t(a) phi_t(b) on random pairs together with the
    action compatibility e^{tD} rho(h) = rho(h) e^{tD}.  Raises beyond
    FLOW_ATOL.
    """
    d = np.asarray(matrix, dtype=float)
    if d.shape != (group.x_dim, group.x_dim):
        raise ValidationError("drift matrix has wrong shape")
    if group.x_mask.any() and np.max(np.abs(d[:, group.x_mask])) > 0:
        raise NotAutomorphismError(
            "drift must annihilate angular nilpotent directions")
    check_derivation(group.algebra, d)

    worst_compat = compatibility_residual(group, d)
    if worst_compat > FLOW_ATOL:
        raise IncompatibleActionError(
            f"drift does not intertwine the action, residual {worst_compat:.3e}")

    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(N_SAMPLES):
        a = _random_point(group, rng)
        b = _random_point(group, rng)
        t = rng.uniform(-1.5, 1.5)
        lhs = group.linear_flow(t, group.multiply(a, b), d)
        rhs = group.multiply(group.linear_flow(t, a, d), group.linear_flow(t, b, d))
        worst = max(worst, float(group.distance(lhs, rhs)))
    if worst > FLOW_ATOL:
        raise NotAutomorphismError(
            f"flow automorphism residual {worst:.3e} exceeds {FLOW_ATOL:.1e}")
    return max(worst, worst_compat)


def _random_point(group, rng):
    h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
    x = rng.standard_normal(group.x_dim)
    return group.normalize(np.concatenate([h, x]))


class ConjugationMap:
    """Quotient homomorphism onto the hyperbolic part of the model.

    Drops the declared flow-trivial central directions of N (all angular
    nilpotent coordinates plus any extra central directions inside ker D)
    and compresses algebra, action, and derivation to the orthogonal
    complement.  The result is again a semidirect model, and psi intertwines
    products and drift flows by construction; both are validated on samples.
    """

    def __init__(self, group, matrix, extra_kernel=None):
        from .algebra import quotient_by_central
        from .spectral import quotient_derivation

        d = np.asarray(matrix, dtype=float)
        cols = [np.eye(group.x_dim)[:, group.x_mask]]
        if extra_kernel is not None:
            extra = np.atleast_2d(np.asarray(extra_kernel, dtype=float))
            if extra.shape[0] != group.x_dim:
                raise ValidationError("extra kernel has wrong ambient dimension")
            cols.append(extra)
        kernel = np.hstack(cols)
        if kernel.shape[1] == 0:
            # nothing to quotient: psi is the identity map
            self.group = group
            self.matrix = d
            self.matrix_hat = d
            self.w = np.eye(group.x_dim)
            self.target = group
            return
        if np.max(np.abs(d @ kernel)) > 1e-10:
            raise ValidationError("declared kernel is not inside ker D")
        # generators must preserve the kernel for the quotient action to exist
        proj = kernel @ np.linalg.pinv(kernel)
        for g in group.action.generators:
            image = g @ kernel
            if np.max(np.abs(image - proj @ image)) > 1e-10:
                raise ValidationError("action does not preserve the kernel")

        quot_alg, w = quotient_by_central(group.algebra, kernel)
        d_hat = quotient_derivation(d, w)
        gens_hat = [w.T @ g @ w for g in group.action.generators]
        quot_action = RhoAction(quot_alg, gens_hat)
        self.group = group
        self.matrix = d
        self.matrix_hat = d_hat
        self.w = w
        self.target = SemidirectGroup(group.torus, quot_alg, quot_action)

    def apply(self, g):
        h, x = self.group.split(np.asarray(g, dtype=float))
        return self.target.join(h, x @ self.w)

    def homomorphism_residual(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(N_SAMPLES):
            a = _random_point(self.group, rng)
            b = _random_point(self.group, rng)
            lhs = self.apply(self.group.multiply(a, b))
            rhs = self.target.multiply(self.apply(a), self.apply(b))
            worst = max(worst, float(self.target.distance(lhs, rhs)))
        return worst

    def flow_equivariance_residual(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(N_SAMPLES):
            g = _random_point(self.group, rng)
            t = rng.uniform(-2.0, 2.0)
            lhs = self.apply(self.group.linear_flow(t, g, self.matrix))
            rhs = self.target.linear_flow(t, self.apply(g), self.matrix_hat)
            worst = max(worst, float(self.target.distance(lhs, rhs)))
        return worst
