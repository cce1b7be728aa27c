"""Controlled dynamics on semidirect-product groups.

A system pairs the drift (a derivation flow on the nilpotent part) with
control fields that are right-invariant extensions of fixed algebra
directions.  The module provides the field, frozen once per control value
into a map of the state, RK4 whose step doubling estimates the error and
sizes the next step (the full and first half step share their first stage
and take the other three in one stacked pass: 8 field passes, 11 stages,
per attempt), the structural identity residuals (left translation and
cocycle, from two integrate_runs calls), and the level-by-level
closed-form solver.  Independent runs advance in lockstep
(integrate_runs): their rows are stacked for the field passes, the RK4
arithmetic and the estimate, while each run keeps its own steps and
record.
"""

import itertools
import math

import numpy as np
from scipy.linalg import expm

from .errors import IntegratorBudgetError, ValidationError
from .group import validate_linear_flow
from .spectral import block_decompose, power_stack

BUDGET_RATE, FRACTION = 1e-8, 0.01  # integrate's error budget; per-step share
SAFETY, SHRINK, GROW, MIN_STEP = 0.9, 0.2, 5.0, 1e-6  # its step controller
RANGE_TOL = 1e-9  # slack of ControlRange.contains on each bound


class ControlRange:
    """Compact box of admissible control values, 0 strictly inside."""

    def __init__(self, lower, upper):
        self.lower = np.atleast_1d(np.asarray(lower, dtype=float))
        self.upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if self.lower.shape != self.upper.shape or self.lower.ndim != 1:
            raise ValidationError("control bounds must be two equal-length vectors")
        if np.any(self.upper <= self.lower):
            raise ValidationError("control range must have positive volume")
        # zero must be an interior point with definite margin
        if np.any(self.lower > -1e-6) or np.any(self.upper < 1e-6):
            raise ValidationError(
                "zero control must lie in the interior of the range")
        self.m = self.lower.size

    @property
    def center(self):
        return 0.5 * (self.lower + self.upper)

    def contains(self, u):
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lower - RANGE_TOL)
                    and np.all(u <= self.upper + RANGE_TOL))

    def sample_family(self):
        """Default control-value family: vertices, center, and the points
        halfway from the center to each face barycenter.  Deduplicated and
        lexicographically sorted, so the family is deterministic."""
        c = self.center
        points = [c]
        for corner in itertools.product(*zip(self.lower, self.upper)):
            points.append(np.array(corner))
        for axis in range(self.m):
            for bound in (self.lower[axis], self.upper[axis]):
                p = c.copy()
                p[axis] = 0.5 * (c[axis] + bound)
                points.append(p)
        arr = np.vstack(points)
        return np.unique(np.round(arr, 12), axis=0)


class ControlFunction:
    """Piecewise-constant control: values[i] on [breaks[i], breaks[i+1])."""

    def __init__(self, breaks, values):
        self.breaks = np.asarray(breaks, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        self.values = values
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise ValidationError("need at least one control piece")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValidationError("switching times must be strictly increasing")
        if self.values.shape[0] != self.breaks.size - 1:
            raise ValidationError("need one control value per piece")

    @classmethod
    def constant(cls, value, t_begin, t_end):
        return cls([t_begin, t_end], [np.atleast_1d(np.asarray(value, dtype=float))])

    @property
    def t_begin(self):
        return float(self.breaks[0])

    @property
    def t_end(self):
        return float(self.breaks[-1])

    def value(self, t):
        if t < self.t_begin - 1e-12 or t > self.t_end + 1e-12:
            raise ValidationError(f"control undefined at time {t}")
        idx = int(np.searchsorted(self.breaks, t, side="right")) - 1
        idx = min(max(idx, 0), self.values.shape[0] - 1)
        return self.values[idx]

    def shift(self, s):
        """Time shift: the returned control at time r equals self at r + s."""
        return ControlFunction(self.breaks - s, self.values)

    def pieces_over(self, a, b):
        """Clip to [a, b]: list of (duration, value) in forward time order."""
        if b <= a:
            raise ValidationError("empty control span requested")
        if a < self.t_begin - 1e-9 or b > self.t_end + 1e-9:
            raise ValidationError(
                f"control undefined on [{a}, {b}] (domain "
                f"[{self.t_begin}, {self.t_end}])")
        pieces = []
        for i in range(self.values.shape[0]):
            lo = max(float(self.breaks[i]), a)
            hi = min(float(self.breaks[i + 1]), b)
            if hi - lo > 1e-12:
                pieces.append((hi - lo, self.values[i]))
        if not pieces:
            pieces.append((b - a, self.value(0.5 * (a + b))))
        return pieces


class Trajectory:
    """Integrated path: times[k] to points[k]; points may carry batch axes."""

    def __init__(self, times, points, stats):
        self.times = np.asarray(times, dtype=float)
        self.points = np.asarray(points, dtype=float)
        self.stats = stats

    @property
    def endpoint(self):
        return self.points[-1]


class LinearControlSystem:
    """Drift derivation plus right-invariant control fields on H x_rho U.

    control_vectors: (m, n) rows in the nilpotent algebra.
    torus_controls: optional (m, h_dim) rows of compact-part control speeds.
    The drift moves only the nilpotent part: a translation flow on the
    torus is not by automorphisms, so SemidirectGroup carries none.
    """

    def __init__(self, group, derivation, control_vectors, control_range,
                 torus_controls=None):
        self.group = group
        self.algebra = group.algebra
        self.derivation = np.asarray(derivation, dtype=float)
        self.range = control_range
        m = control_range.m

        z = np.atleast_2d(np.asarray(control_vectors, dtype=float))
        if z.shape != (m, group.x_dim):
            raise ValidationError(
                f"need {m} control vectors of dimension {group.x_dim}")
        self.z = z
        if torus_controls is None:
            yh = np.zeros((m, group.h_dim))
        else:
            yh = np.atleast_2d(np.asarray(torus_controls, dtype=float))
            if yh.shape != (m, group.h_dim):
                raise ValidationError(
                    f"torus control block must be {m} x {group.h_dim}")
        self.torus_vectors = yh

        # the drift flow must be automorphisms compatible with the action
        self.flow_residual = validate_linear_flow(group, self.derivation)
        self.blocks = block_decompose(self.algebra, self.derivation)

        self.gen_stack = (np.stack(group.action.generators)
                          if group.action.generators
                          else np.zeros((0, group.x_dim, group.x_dim)))
        # the tangent at (h, x) is u [Y | Z] + x lin(u), plus (0, [x,[x,v]]/12)
        # from class 3 on, and lin(u) = D^T + sum_i u_i (ad(z_i)^T/2 + sum_l
        # Y_il G_l^T), with zero torus columns, is affine in u: frozen_field
        # reads both with one matmul each, which keeps a freeze cheap where
        # every row has its own control
        h_dim = group.h_dim
        self._start_rows = np.hstack([yh, z])
        lin = np.zeros((m + 1, group.x_dim, group.dim))
        lin[0, :, h_dim:] = self.derivation.T
        lin[1:, :, h_dim:] = (np.swapaxes(self.algebra.ad(z), -1, -2) / 2
                              + np.einsum("il,lab->iba", yh, self.gen_stack))
        self._lin_drift, self._lin_rows = lin[0], lin[1:].reshape(m, -1)
        norm_d = float(np.linalg.norm(self.derivation, 2)) if group.x_dim else 0.0
        self.step_limit = 1e-3 / max(1.0, norm_d)
        # the latest drift-flow powers and anchor table of a chain run, which
        # chains._anchor_table fills and reads
        self.run_tables = {}

    # -- field -------------------------------------------------------------

    def frozen_field(self, u):
        """The field of control value u as a map g -> tangent vector at g.

        The right-invariant extension of v is d/dt|0 bch(t v, x) = v -
        [x,v]/2 + [x,[x,v]]/12 through class 4, where the ad(x)^3 Bernoulli
        coefficient is zero.  With the torus velocity w = u Y and v = u Z
        the tangent is (w, v + x lin + [x,[x,v]]/12): lin = D^T + ad(v)^T/2
        + sum_l w_l G_l^T holds every term linear in x (the drift, -[x,v]/2
        and the action generators).  (w, v) and lin are built once per
        value, u and g may both batch.  x lin is a fixed-order sequence of
        multiply-adds, one column of x at a time, each into the whole
        tangent (lin has zero torus columns), so a row's bits do not depend
        on the rows that share the call.
        """
        u = np.asarray(u, dtype=float)
        alg, h_dim = self.algebra, self.group.h_dim
        start = u @ self._start_rows
        v = start[..., h_dim:]
        lin = self._lin_drift + (u @ self._lin_rows).reshape(
            u.shape[:-1] + self._lin_drift.shape)
        (j0, col0), *rest = [(h_dim + j, lin[..., j, :])
                             for j in range(self.group.x_dim)]
        cubic = alg.nilpotency_class >= 3

        def field(g):
            out = start + g[..., j0, None] * col0
            for j, col in rest:
                out += g[..., j, None] * col
            if cubic:
                x = g[..., h_dim:]
                out[..., h_dim:] += (1.0 / 12.0) * alg.bracket(
                    x, alg.bracket(x, v))
            return out
        return field

    def field(self, u, g):
        """Full tangent vector at g for control value u; both may batch."""
        return self.frozen_field(u)(np.asarray(g, dtype=float))


def _rk4_step(f, y, h, k1=None):
    """One RK4 step of the map f; h may be an array that broadcasts against
    y, which then takes several steps in one stacked pass."""
    k1 = f(y) if k1 is None else k1
    half = 0.5 * h
    k2 = f(y + half * k1)
    k3 = f(y + half * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _state_scale(y, t):
    """sup over rows of |y|, by hypot so a finite state cannot overflow it;
    a state that is no longer finite ends the run."""
    return _finite_scale(float(np.hypot.reduce(y, axis=-1).max()), t)


def _finite_scale(scale, t):
    if not math.isfinite(scale):
        raise IntegratorBudgetError(f"state is not finite at t = {t:.6g}")
    return scale


class _Run:
    """One run of integrate_runs: its pieces, its state and its record.
    Construction validates the run; start puts it at time 0."""

    def __init__(self, system, duration, g0, control):
        if not duration > 0:
            raise ValidationError(f"duration must be positive, got {duration}")
        pieces = control.pieces_over(0.0, duration)
        for _, value in pieces:
            if not system.range.contains(value):
                raise ValidationError(
                    "control function leaves the admissible range")
        self.duration, self.g0, self.pieces = duration, g0, iter(pieces)
        self.trajectory = None

    def start(self, group):
        y = group.normalize(self.g0)
        self.shape = y.shape
        self.y = y.reshape(-1, y.shape[-1])  # the run's rows
        self.t = self.end = 0.0
        self.times, self.points = [0.0], [y]
        self.err = np.zeros(len(self.y))
        self.peak = _state_scale(y, self.t)  # sup of |y| along the run
        self.steps = self.rejected = 0

    def next_piece(self, step_limit):
        """Enter the next control piece, from step_limit; False when the
        run has none left."""
        while self.t == self.end:
            piece = next(self.pieces, None)
            if piece is None:
                return False
            length, self.u = piece
            self.end = self.t + length
            self.size = min(step_limit, length)
        return True

    def finish(self):
        total = float(np.max(self.err))
        budget = BUDGET_RATE * self.duration * max(1.0, self.peak)
        if not total <= budget:  # also catches the NaN of an overflowing state
            raise IntegratorBudgetError(
                f"integrator error estimate {total:.3e} exceeds budget {budget:.3e}")
        self.trajectory = Trajectory(
            self.times, self.points,
            {"steps": self.steps, "rejected": self.rejected,
             "error_estimate": total, "error_budget": budget})


@np.errstate(all="ignore")  # overflow ends a run; a zero estimate grows h
def integrate_runs(system, runs):
    """Error-controlled RK4 of independent (duration, g0, control) runs,
    each over [0, duration], duration > 0; returns one Trajectory per run.

    A step at h and two at h/2 estimate its error by their distance / 15.
    A run's two-half-step result is accepted when its largest row is at
    most target = FRACTION * BUDGET_RATE * h * max(1, sup |y|), else
    retried (stats["rejected"]); its h then scales by min(GROW, max(SHRINK,
    SAFETY * (target / estimate) ** (1/4))), from step_limit at each
    control piece.  A run's summed estimates must stay below
    stats["error_budget"], BUDGET_RATE * duration * max(1, sup |y|), or
    IntegratorBudgetError is raised, as it is for a non-finite trial and a
    step below MIN_STEP * step_limit.  Every run is validated before the
    first step, and the first run to fail raises its own error.

    The runs advance in lockstep.  The rows of a run share its steps and
    separate runs never do: each keeps its own h, piece, estimate, sup
    |y|, budget and record.  One attempt stacks the rows of every active
    run and takes, for all of them at once, the field passes (frozen from
    one control per row whenever some run enters a piece or ends), the
    RK4 arithmetic with a per-row h, and one distance.  The full and first
    half step share their first stage and take the other three in one
    stacked pass: 8 field passes, 11 stages.  Every row's bits are those
    of its run alone.
    """
    group, limit, m = system.group, system.step_limit, system.range.m
    runs = [_Run(system, *run) for run in runs]
    for run in runs:
        run.start(group)
        run.next_piece(limit)
    # the full step and the first half step, stacked on a leading axis
    split = np.array([1.0, 0.5])[:, None, None]
    active, f = runs, None
    while active:
        if f is None:  # a run entered a piece or ended
            rows = [len(r.y) for r in active]
            firsts = np.cumsum([0] + rows[:-1])
            f = system.frozen_field(np.concatenate([
                np.broadcast_to(r.u, r.shape[:-1] + (m,)).reshape(-1, m)
                for r in active]))
        y = np.concatenate([r.y for r in active])
        for r in active:
            # land on the piece end; stretch a step rather than leave a sliver
            r.t_next = r.end if r.end - r.t <= 1.01 * r.size else r.t + r.size
        hs = [r.t_next - r.t for r in active]
        h = np.repeat(hs, rows)[:, None]
        k1 = f(y)  # the full and first half step share it
        full, mid = _rk4_step(f, y, split * h, k1)
        half = _rk4_step(f, mid, 0.5 * h)
        estimate = group.distance(full, half) / 15.0
        worsts = np.maximum.reduceat(estimate, firsts)
        settled = group.normalize(half)
        scales = np.maximum.reduceat(np.hypot.reduce(settled, axis=-1), firsts)
        for r, lo, n, h_r, worst, scale in zip(active, firsts, rows, hs,
                                               worsts, scales):
            rows_r = slice(lo, lo + n)
            if not math.isfinite(worst):
                _state_scale(np.stack((full[rows_r], half[rows_r])), r.t_next)
                raise IntegratorBudgetError(
                    f"integrator error estimate is not finite at t = {r.t_next:.6g}")
            target = FRACTION * BUDGET_RATE * h_r * max(1.0, r.peak)
            r.size = h_r * min(GROW, max(SHRINK, SAFETY * (target / worst) ** 0.25))
            if worst > target:
                r.rejected += 1
                if r.size < MIN_STEP * limit:
                    raise IntegratorBudgetError(
                        f"integrator step {r.size:.3e} too small at t = {r.t:.6g}")
                continue
            r.err = r.err + estimate[rows_r]
            r.y = settled[rows_r]
            r.t = r.t_next
            r.peak = max(r.peak, _finite_scale(float(scale), r.t))
            r.steps += 1
            r.times.append(r.t)
            r.points.append(r.y.reshape(r.shape))
            if r.t == r.end:
                f = None
                if not r.next_piece(limit):
                    r.finish()
        active = [r for r in active if r.trajectory is None]
    return [r.trajectory for r in runs]


def integrate(system, duration, g0, control):
    """Error-controlled RK4 over [0, duration]: the one-run call of
    integrate_runs, whose docstring gives the step controller."""
    return integrate_runs(system, [(duration, g0, control)])[0]


def flow_identity_residuals(system, translation, cocycle):
    """Residuals of the two structural identities of the controlled flow:
    one array per (t, h_point, g_point, control) translation sample and one
    per (t, s, g, control) cocycle sample, as two lists.

    Left translation: the trajectory from a product h*g equals the
    trajectory from h, right-multiplied by the drift flow of g.  Cocycle:
    the full run over t + s equals the restart after time s.  Points may
    carry batch axes.  The two translation runs of every sample and the
    full and first cocycle runs share one integrate_runs call, the
    restarts another.
    """
    group = system.group
    n = 2 * len(translation)
    first = integrate_runs(system, [
        run for t, h_point, g_point, control in translation
        for run in ((t, group.multiply(h_point, g_point), control),
                    (t, h_point, control))] + [
        run for t, s, g, control in cocycle
        for run in ((t + s, g, control), (s, g, control))])
    then = integrate_runs(system, [
        (t, mid.endpoint, control.shift(s))
        for (t, s, _, control), mid in zip(cocycle, first[n + 1::2])])
    translated = [group.distance(lhs.endpoint, group.multiply(
                      moving.endpoint,
                      group.linear_flow(t, g_point, system.derivation)))
                  for (t, _, g_point, _), lhs, moving
                  in zip(translation, first[:n:2], first[1:n:2])]
    restarted = [group.distance(full.endpoint, restart.endpoint)
                 for full, restart in zip(first[n::2], then)]
    return translated, restarted


# -- level-by-level closed solution -----------------------------------------


def level_source(system, level, x, u_val):
    """Source term of the given level: project the nilpotent velocity onto
    the level and subtract the diagonal-block contribution.

    By triangularity this depends only on levels strictly below, which
    triangular_solve asserts numerically on every call.
    """
    alg, group = system.algebra, system.group
    h = np.zeros(np.shape(x)[:-1] + (group.h_dim,))
    vel = system.field(u_val, group.join(h, x))[..., group.h_dim:]
    sl = alg.level_slices[level - 1]
    graded_vel = vel @ alg.frame
    graded_x = x @ alg.frame
    b = system.blocks.block(level, level)
    return graded_vel[..., sl] - np.einsum("ij,...j->...i", b, graded_x[..., sl])


def _cumulative_simpson(f, h):
    """Cumulative integral of sampled f on a uniform grid with an even
    number of intervals: composite Simpson at even nodes, the half-panel
     4th-order rule plus shifted Simpson cells at odd nodes."""
    n = f.shape[0] - 1
    out = np.zeros_like(f)
    even = (h / 3.0) * (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    out[2::2] = np.cumsum(even, axis=0)
    out[1] = (h / 12.0) * (5.0 * f[0] + 8.0 * f[1] - f[2])
    if n >= 4:
        odd = (h / 3.0) * (f[1:-2:2] + 4.0 * f[2:-1:2] + f[3::2])
        out[3::2] = out[1] + np.cumsum(odd, axis=0)
    return out


class TriangularSolution:
    def __init__(self, components, combined):
        self.components = components
        self.combined = combined


def triangular_solve(system, duration, g0, control):
    """Nilpotent part of the trajectory by variation of constants per level.

    Marches the graded levels from the top: each level is a linear ODE with
    the diagonal block as generator and the already-computed lower levels
    feeding the source, integrated with kernel-weighted composite Simpson.
    Requires pure nilpotent-direction controls (no compact-part components),
    so the compact coordinate is constant and plays no role.
    """
    if np.any(system.torus_vectors != 0.0):
        raise ValidationError(
            "closed-form solve needs controls without compact-part components")
    if not duration > 0:
        raise ValidationError(f"duration must be positive, got {duration}")
    alg = system.algebra
    group = system.group
    _, x0 = group.split(np.asarray(g0, dtype=float))
    if x0.ndim != 1:
        raise ValidationError("closed-form solve takes a single start point")

    pieces = control.pieces_over(0.0, duration)
    for _, value in pieces:
        if not system.range.contains(value):
            raise ValidationError("control function leaves the admissible range")

    # uniform grid per piece with an even interval count; pieces share
    # boundary nodes, where the trailing piece recomputes its own source
    layout = []
    node_total = 0
    for length, value in pieces:
        n = 2 * max(1, math.ceil(length / (2.0 * system.step_limit)))
        h = length / n
        layout.append((node_total, n, h, value))
        node_total += n
    n_nodes = node_total + 1

    xg0 = alg.to_graded(x0)
    ambient = np.zeros((n_nodes, alg.dim))
    components = []
    rng = np.random.default_rng(77)

    for level in range(1, alg.nilpotency_class + 1):
        sl = alg.level_slices[level - 1]
        d = sl.stop - sl.start
        b = system.blocks.block(level, level)
        x_level = np.zeros((n_nodes, d))
        e_start = np.eye(d)
        p_start = np.eye(d)
        i_start = np.zeros(d)
        for start, n, h, value in layout:
            pts = ambient[start:start + n + 1]
            g_nodes = level_source(system, level, pts, value)

            # the source must ignore the levels it is about to produce
            probe = pts[min(n, 1)]
            noise = np.zeros(alg.dim)
            for j in range(level, alg.nilpotency_class + 1):
                frame_j = alg.component_frames[j - 1]
                noise = noise + frame_j @ rng.standard_normal(frame_j.shape[1])
            shifted = level_source(system, level, probe + noise, value)
            base = level_source(system, level, probe, value)
            if np.max(np.abs(shifted - base)) > 1e-10:
                raise ValidationError(
                    f"level {level} source depends on levels >= {level}")

            decay = power_stack(expm(-h * b), np.eye(d), n)
            grow = power_stack(expm(h * b), np.eye(d), n)
            f = np.einsum("kab,kb->ka", decay, g_nodes) @ e_start.T
            integral = _cumulative_simpson(f, h) + i_start
            x_piece = np.einsum(
                "kab,kb->ka", grow, xg0[sl] + integral) @ p_start.T
            x_level[start:start + n + 1] = x_piece
            e_start = e_start @ decay[n]
            p_start = p_start @ grow[n]
            i_start = integral[-1]
        ambient = ambient + x_level @ alg.component_frames[level - 1].T
        components.append(alg.component(ambient[-1], level))

    return TriangularSolution(components, ambient[-1])


def cross_check_residual(system, duration, g0, control, end):
    """Max per-level relative gap between the closed solve and end, the
    endpoint the caller integrated from g0 under control."""
    sol = triangular_solve(system, duration, g0, control)
    _, x_end = system.group.split(end)
    worst = 0.0
    for level, part in enumerate(sol.components, start=1):
        ref = system.algebra.component(x_end, level)
        gap = float(np.linalg.norm(part - ref))
        worst = max(worst, gap / max(1.0, float(np.linalg.norm(ref))))
    return worst
