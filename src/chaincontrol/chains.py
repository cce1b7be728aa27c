"""Grid approximation of chain control sets on semidirect-product groups.

The state window is a finite grid: each torus angle (and each angular
nilpotent coordinate) carries a uniform circular grid, each remaining
nilpotent coordinate a uniform box grid.  Every cell center is run under
each constant control of a finite family; endpoints sampled at durations
inside [tau, 2*tau] that land within eps plus the cell slack of another
center become directed edges.  The exact distance decides every edge; its
kd-tree prefilter has a certified radius (`GridWindow.query_radii`).
Strongly connected components with at least one internal edge approximate
chain control sets; the per-level bound formula turns empirical source
suprema into boundedness diagnostics.

Cell runs come from the translation identity of a linear system,
phi(t, g, u) = phi(t, e, u) * phi_t(g): the run from g is the run from the
identity (the anchor), right-multiplied by the drift flow of g.  One
batched RK4 run over the first grid step gives the anchors of the whole
control family (later anchors follow from the same identity), and each
cell's state at step k is the group product with (h_g, e^{k h D} x_g), one
affine map per control and step.  Truncation keeps its meaning: the window
box is tested on every step, and a run freezes at the first step it leaves.
`_propagate`, which integrates every cell directly, is kept as the slow,
independent oracle behind `audit_edges`.  Exact distances take the action's
phases once per landing and skip pairs that have a smaller (u, t) witness.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import TauTooSmallError, ValidationError
from .lcs import _power_stack, _rk4_step
from .spectral import decay_constants

NODE_LIMIT = 1_500_000
# rows (controls x starts x kept snapshots) one anchored run may hold; larger
# families are run in slices of controls so memory stays bounded
ANCHOR_ROW_LIMIT = 1 << 21
FIBER_TOL = 1e-9  # ties in the free-coordinate norm of central_fiber_nodes
AUDIT_REFINE = 10  # audit_edges re-integrates at this many times finer a step
EDGE_CHUNK = 65_536  # rows write_edges_csv joins per write


def _cell_centers(lower, count, delta):
    return lower + (np.arange(count) + 0.5) * delta


class GridWindow:
    """Uniform cell grid over a compact window of a semidirect group.

    Axes are ordered: torus angles first, then nilpotent coordinates in
    ambient order.  Angular nilpotent coordinates (the group's x_mask) get
    circular grids like torus angles; the rest get box grids with
    per-coordinate bounds and cell size delta.  Nodes are cell centers,
    enumerated in C order over the axis grid, which fixes determinism.
    """

    def __init__(self, group, x_lower, x_upper, x_delta, angle_cells=(),
                 masked_cells=()):
        self.group = group
        m, n = group.h_dim, group.x_dim
        mask = group.x_mask
        n_masked = int(mask.sum())

        angle_cells = [int(k) for k in np.atleast_1d(np.asarray(angle_cells))] \
            if np.size(angle_cells) else []
        masked_cells = [int(k) for k in np.atleast_1d(np.asarray(masked_cells))] \
            if np.size(masked_cells) else []
        if len(angle_cells) != m:
            raise ValidationError(f"need one angle cell count per torus "
                                  f"coordinate, got {len(angle_cells)} for {m}")
        if len(masked_cells) != n_masked:
            raise ValidationError("need one cell count per angular nilpotent "
                                  "coordinate")
        if any(k < 1 for k in angle_cells + masked_cells):
            raise ValidationError("angle grids need at least one cell")

        free = ~mask
        try:
            x_lower = np.broadcast_to(np.asarray(x_lower, dtype=float),
                                      (int(free.sum()),)).astype(float)
            x_upper = np.broadcast_to(np.asarray(x_upper, dtype=float),
                                      (int(free.sum()),)).astype(float)
            x_delta = np.broadcast_to(np.asarray(x_delta, dtype=float),
                                      (int(free.sum()),)).astype(float)
        except ValueError:
            raise ValidationError(
                f"window bounds and cell sizes need one entry, or one per "
                f"box coordinate ({int(free.sum())})")
        if np.any(x_delta <= 0.0):
            raise ValidationError("cell sizes must be positive")
        if np.any(x_upper <= x_lower):
            raise ValidationError("window bounds must have positive extent")
        counts = (x_upper - x_lower) / x_delta
        snapped = np.rint(counts)
        if np.any(np.abs(counts - snapped) > 1e-6) or np.any(snapped < 1):
            raise ValidationError(
                "window extent must be a whole number of cells per coordinate")
        # refused before any per-axis grid is allocated
        n_nodes = float(np.prod(snapped)) * math.prod(angle_cells + masked_cells)
        if n_nodes > NODE_LIMIT:
            raise ValidationError(f"window has {n_nodes:.0f} cells, over the "
                                  f"{NODE_LIMIT} limit")
        self.n_nodes = int(n_nodes)

        # per-axis grids in enumeration order: torus, then x in ambient order
        axis_centers = []
        axis_delta = []
        axis_kind = []
        for j in range(m):
            k = angle_cells[j]
            d = 2.0 * np.pi / k
            axis_centers.append(_cell_centers(-np.pi, k, d))
            axis_delta.append(d)
            axis_kind.append("angle")
        free_pos = 0
        masked_pos = 0
        for j in range(n):
            if mask[j]:
                k = masked_cells[masked_pos]
                masked_pos += 1
                d = 2.0 * np.pi / k
                axis_centers.append(_cell_centers(-np.pi, k, d))
                axis_delta.append(d)
                axis_kind.append("angle")
            else:
                k = int(snapped[free_pos])
                lo = x_lower[free_pos]
                d = x_delta[free_pos]
                axis_centers.append(_cell_centers(lo, k, d))
                axis_delta.append(d)
                axis_kind.append("box")
                free_pos += 1
        self.axis_centers = axis_centers
        self.axis_delta = np.asarray(axis_delta, dtype=float)
        self.axis_kind = axis_kind
        self.shape = tuple(len(c) for c in axis_centers)
        self.n_axes = len(axis_centers)
        self.x_lower = x_lower
        self.x_upper = x_upper
        self.x_delta = x_delta
        self.free_columns = group.h_dim + np.flatnonzero(free)

        grids = np.meshgrid(*axis_centers, indexing="ij")
        self.points = np.stack([g.reshape(-1) for g in grids], axis=1)
        self.half_diameter = self._measure_half_diameter()

    # -- geometry ------------------------------------------------------------

    def axis_indices(self, nodes=None):
        """Per-axis grid indices, shape (len(nodes), n_axes)."""
        if nodes is None:
            nodes = np.arange(self.n_nodes)
        idx = np.unravel_index(np.asarray(nodes, dtype=np.int64), self.shape)
        return np.stack(idx, axis=-1)

    def _measure_half_diameter(self):
        """Max distance from sampled cell centers to their cell corners.

        The exact metric bends nilpotent coordinate offsets by the group
        product, so the half-diameter is measured, not assumed, and padded
        by 2 percent.
        """
        stride = max(1, self.n_nodes // 256)
        sample = self.points[::stride]
        if len(sample) > 512:
            sample = sample[:512]
        offsets = 0.5 * self.axis_delta
        corners = np.array(list(np.ndindex(*(2,) * self.n_axes)), dtype=float)
        corners = (2.0 * corners - 1.0) * offsets
        shifted = sample[:, None, :] + corners[None, :, :]
        base = np.broadcast_to(sample[:, None, :], shifted.shape)
        dist = self.group.distance(self.group.normalize(base),
                                   self.group.normalize(shifted))
        return 1.02 * float(np.max(dist))

    def embed(self, states):
        """Isometry-friendly coordinates for radius queries.

        Angles map to unit-circle pairs (chord length bounds arc length
        from below), box coordinates stay as they are.
        """
        states = np.asarray(states, dtype=float)
        cols = []
        for a in range(self.n_axes):
            col = states[..., a]
            if self.axis_kind[a] == "angle":
                cols.extend([np.cos(col), np.sin(col)])
            else:
                cols.append(col)
        return np.stack(cols, axis=-1)

    def query_radii(self, landed, cut):
        """Per-landing kd-tree radius that holds every center within group
        distance `cut`, so the ball query drops no edge.

        A center with d(a, b) = |h_z| + |x_z| <= cut is b = a z.  Angles
        and masked coordinates (central, unreached, fixed by rho) move by
        the entries of z, and chords are at most those.  The rest moves by
        bch(x_a, y) - x_a, y = rho(h_a) x_z, whose BCH terms are bounded
        with |y| <= rho |x_z| (rho = cond_2 of the action's eigenbasis >=
        sup_h |rho(h)|), |[x_a, v]| <= A |v| (A = |ad(x_a)|_F) and
        |[u, v]| <= kap |u| |v| (kap = |structure|_F).  So the embedded gap
        is at most f(a) d(a, b), with nilpotency class k and
        f = rho (1 + A/2 + [k>=3] (A^2/12 + kap A rho cut/12)
                 + [k>=4] kap A^2 rho cut/24) >= 1,
        padded by 1e-9 relative for rounding.
        """
        alg = self.group.algebra
        k = alg.nilpotency_class
        rho = float(np.linalg.cond(self.group.action.basis))
        ky = float(np.linalg.norm(alg.structure)) * rho * cut  # kap rho cut
        a = np.linalg.norm(alg.ad(self.group.split(landed)[1]), axis=(-2, -1))
        f = 1.0 + a / 2.0 + (k >= 3) * a * (a + ky) / 12.0 \
            + (k >= 4) * a * a * ky / 24.0
        return rho * f * cut * (1.0 + 1e-9)

    def inflated_bounds(self, pad):
        """Box bounds enlarged by pad plus one cell on each free coordinate."""
        margin = pad + self.x_delta
        return self.x_lower - margin, self.x_upper + margin

    def boundary_layer(self, nodes=None):
        """(len(nodes), n_free, 2) flags: node sits in the first or last cell
        layer of each box coordinate."""
        idx = self.axis_indices(nodes)
        flags = []
        for a in range(self.n_axes):
            if self.axis_kind[a] != "box":
                continue
            k = self.shape[a]
            flags.append(np.stack([idx[:, a] == 0, idx[:, a] == k - 1], axis=-1))
        if not flags:
            return np.zeros((idx.shape[0], 0, 2), dtype=bool)
        return np.stack(flags, axis=1)

    def identity_cells(self):
        """Nodes whose cell contains the group identity (ties included)."""
        tol = 0.5 * self.axis_delta + 1e-9
        inside = np.abs(self.points) <= tol
        return np.flatnonzero(inside.all(axis=1))

    @classmethod
    def from_bounds(cls, group, level_bounds, x_delta, angle_cells=(),
                    masked_cells=(), factor=1.5):
        """Default window: per-level theoretical bounds inflated by factor.

        Every free coordinate inherits the bound of its graded level; the
        resulting box strictly contains the bound box because factor > 1
        (cell counts round outward).
        """
        if factor <= 1.0 + 1e-9:
            raise ValidationError("inflation factor must exceed 1")
        alg = group.algebra
        level_bounds = np.asarray(level_bounds, dtype=float)
        if level_bounds.shape != (alg.nilpotency_class,) or np.any(level_bounds <= 0):
            raise ValidationError("need one positive bound per level")
        if not np.all(np.isfinite(level_bounds)):
            raise ValidationError("default windows need finite bounds")
        free = ~group.x_mask
        # ambient coordinate -> graded level via the dominant frame row
        graded_weight = np.abs(alg.frame)
        coord_level = np.empty(alg.dim, dtype=int)
        for j in range(alg.dim):
            weights = [np.max(graded_weight[j, sl]) for sl in alg.level_slices]
            coord_level[j] = int(np.argmax(weights))
        bound = level_bounds[coord_level[free]]
        x_delta = np.broadcast_to(np.asarray(x_delta, dtype=float),
                                  bound.shape).astype(float)
        half_cells = np.ceil(factor * bound / x_delta)
        lower = -half_cells * x_delta
        upper = half_cells * x_delta
        return cls(group, lower, upper, x_delta, angle_cells, masked_cells)


@dataclass
class ChainGraph:
    """Directed cell graph; an edge means one sampled (u, T) run lands one
    cell within the acceptance radius of another."""

    window: GridWindow
    eps: float
    tau: float
    radius: float
    control_family: np.ndarray
    time_samples: np.ndarray
    snapshot_steps: np.ndarray
    step: float
    n_steps: int
    src: np.ndarray
    dst: np.ndarray
    witness_u: np.ndarray
    witness_t: np.ndarray
    truncated: np.ndarray
    inflated_lower: np.ndarray
    inflated_upper: np.ndarray

    @property
    def n_nodes(self):
        return self.window.n_nodes

    @property
    def n_edges(self):
        return int(self.src.size)


def _default_time_samples(tau):
    return tau * np.array([1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0])


def _step_grid(system, tau):
    """The fixed RK4 grid on [0, 2*tau]: step h, step count, and the drift
    flows F_k = (e^{hD})^k for k = 0..n_steps, one (n, n) each."""
    h_nominal = system.step_limit * 10.0
    n_steps = max(1, int(math.ceil(2.0 * tau / h_nominal)))
    h = 2.0 * tau / n_steps
    return h, n_steps, _power_stack(expm(h * system.derivation), n_steps)


def _control_slices(n_controls, rows_per_control):
    """Slices of a control family whose anchored runs stay within
    ANCHOR_ROW_LIMIT rows."""
    width = max(1, ANCHOR_ROW_LIMIT // max(1, rows_per_control))
    return [slice(a, a + width) for a in range(0, n_controls, width)]


def _propagate(system, starts, u_val, h, n_steps, steps,
               box_lower, box_upper, free_columns):
    """Fixed-step batched integration with window truncation.

    Rows whose free coordinates leave [box_lower, box_upper] freeze at
    their last inside state and stop being alive.  Returns the frames, one
    (states, alive mask) pair per entry of steps (step 0 is the start), and
    the truncation mask.

    Integrates every row directly; the graph builds its runs from anchors
    (`_propagate_family`), and this path is kept as their oracle.
    """
    group = system.group
    y = group.normalize(np.array(starts, dtype=float))
    alive = np.ones(len(y), dtype=bool)
    truncated = np.zeros(len(y), dtype=bool)
    u = np.asarray(u_val, dtype=float)

    want = {int(s) for s in steps}
    frames = {0: (y.copy(), alive.copy())} if 0 in want else {}
    for step in range(1, n_steps + 1):
        advanced = group.normalize(_rk4_step(system, y, u, h))
        free = advanced[:, free_columns]
        out = np.any((free < box_lower) | (free > box_upper), axis=1)
        leave = alive & out
        truncated |= leave
        moved = alive & ~out
        y = np.where(moved[:, None], advanced, y)
        alive = moved
        if step in want:
            frames[step] = (y.copy(), alive.copy())
    return [frames[int(s)] for s in steps], truncated


def _translate(group, anchor, flow, starts, u_of):
    """Rows anchor[u_of] * (h_g, flow x_g) of starts (h_g, x_g), u_of sorted.

    With y = rho(h_a) flow x_g and nilpotency class k, bch(x_a, y) = x_a
    + (I + ad(x_a)/2 + [k>=3] ad(x_a)^2/12) y - [k>=3] [y,[x_a,y]]/12
    - [k>=4] [y,[x_a,[x_a,y]]]/24: one affine map per anchor, applied as
    one matmul per control, plus the terms quadratic in y.
    """
    alg, m = group.algebra, group.h_dim
    k = alg.nilpotency_class
    h_a, x_a = group.split(anchor)
    ad = alg.ad(x_a)
    # rho(h_a) flow, one (n, n) per anchor: rho applied to flow's columns
    rho_f = np.broadcast_to(np.swapaxes(
        group.action.apply(h_a[:, None, :], flow.T), -1, -2), ad.shape)
    lin = np.eye(group.x_dim) + ad / 2.0
    if k >= 3:
        lin += ad @ ad / 12.0
    mats = np.zeros((len(anchor), group.dim, group.dim))
    mats[:, :m, :m] = np.eye(m)
    mats[:, m:, m:] = lin @ rho_f
    bounds = np.searchsorted(u_of, np.arange(len(anchor) + 1)).tolist()
    out = np.empty_like(starts)
    for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        out[lo:hi] = starts[lo:hi] @ mats[j].T + anchor[j]
    if k >= 3:
        x_row = x_a[u_of]
        y = np.einsum("rij,rj->ri", rho_f[u_of], group.split(starts)[1])
        b = alg.bracket(x_row, y)
        out[:, m:] -= alg.bracket(y, b) / 12.0 + (k >= 4) * alg.bracket(
            y, alg.bracket(x_row, b)) / 24.0
    return group.normalize(out)


def _propagate_family(system, starts, family, h, flows, steps,
                      box_lower, box_upper, free_columns):
    """`_propagate` for every control of a family at once, from anchors.

    The anchor a_k = phi(k h, e, u) of each control comes from the
    translation identity itself: one batched RK4 run over the first grid
    step, at the step limit `integrate` uses, gives a_1, and then
    a_{k+1} = a_1 * Phi_h(a_k).  (Running RK4 over the whole grid instead
    lets its relative error act on anchors that an expanding drift drives
    far out, |a| ~ 22 on heisenberg-expanding, and put landings 1.4e-8 off
    direct integration.)  The state of start g at step k is then
    a_k * (h_g, F_k x_g) with F_k = flows[k], an affine map (`_translate`);
    the box is tested on every step and only rows still alive are moved.

    Same contract as `_propagate` (n_steps = len(flows) - 1), with a
    leading control axis on every array: frame states (U, N, dim) and
    alive masks (U, N), and the truncation mask (U, N).
    """
    group = system.group
    family = np.atleast_2d(np.asarray(family, dtype=float))
    y0 = group.normalize(np.array(starts, dtype=float))
    n_u, n_rows = len(family), len(y0)

    # a_1 for every control, then a_k = a_1 * Phi_h(a_{k-1}) in the loop
    n_sub = max(1, math.ceil(h / system.step_limit - 1e-9))
    first = np.zeros((n_u, group.dim))
    for _ in range(n_sub):
        first = group.normalize(_rk4_step(system, first, family, h / n_sub))
    anchor = group.identity()

    # flat row r runs control r // n_rows from start r % n_rows
    states = np.tile(y0, (n_u, 1))  # last state of each row while alive
    alive = np.ones(n_u * n_rows, dtype=bool)
    rows = np.arange(n_u * n_rows)
    u_of, start_of = np.divmod(rows, n_rows)
    current = states.copy()  # states of the alive rows, aligned with rows

    def frame():
        states[rows] = current
        return (states.reshape(n_u, n_rows, -1).copy(),
                alive.reshape(n_u, n_rows).copy())

    want = {int(s) for s in steps}
    frames = {0: frame()} if 0 in want else {}
    for step in range(1, len(flows)):
        h_k, x_k = group.split(anchor)
        anchor = group.multiply(first, group.join(h_k, x_k @ flows[1].T))
        if rows.size:
            advanced = _translate(group, anchor, flows[step], y0[start_of],
                                  u_of)
            free = advanced[:, free_columns]
            out = np.any((free < box_lower) | (free > box_upper), axis=1)
            if out.any():
                states[rows[out]] = current[out]
                alive[rows[out]] = False
                keep = ~out
                rows, u_of, start_of = rows[keep], u_of[keep], start_of[keep]
                advanced = advanced[keep]
            current = advanced
        if step in want:
            frames[step] = frame()
    return [frames[int(s)] for s in steps], ~alive.reshape(n_u, n_rows)


def build_chain_graph(system, window, eps, tau, control_family=None,
                      time_samples=None):
    """Build the (eps, tau) cell reachability graph.

    Edge a -> b iff some sampled constant control u and duration T in
    [tau, 2*tau] move center_a to within eps + q of center_b, where q is
    the measured cell half-diameter (cell quantization slack).  Runs that
    leave the inflated window are truncated; the source node keeps a
    boundary flag and the run stops producing edges.
    """
    if eps <= 0 or tau <= 0:
        raise ValidationError("eps and tau must be positive")
    if window.n_nodes == 0:
        raise ValidationError("window is empty")
    if window.group is not system.group:
        raise ValidationError("window was built for a different group")

    if control_family is None:
        control_family = system.range.sample_family()
    control_family = np.atleast_2d(np.asarray(control_family, dtype=float))
    if control_family.size == 0:
        raise ValidationError("no controls to sample")
    if control_family.shape[1] != system.range.m:
        raise ValidationError("control family has the wrong dimension")
    for u in control_family:
        if not system.range.contains(u):
            raise ValidationError(f"control sample {u} outside the range")

    if time_samples is None:
        time_samples = _default_time_samples(tau)
    time_samples = np.sort(np.unique(np.asarray(time_samples, dtype=float)))
    if time_samples.size == 0:
        raise ValidationError("need at least one time sample")
    if np.any(time_samples < tau - 1e-9) or np.any(time_samples > 2 * tau + 1e-9):
        raise ValidationError("time samples must lie in [tau, 2*tau]")

    h, n_steps, flows = _step_grid(system, tau)
    snap = np.rint(time_samples / h).astype(int)
    snap = np.clip(snap, int(math.ceil(tau / h - 1e-9)), n_steps)
    snap = np.unique(snap)
    times_used = snap * h

    radius = eps + window.half_diameter
    cut = radius + 1e-12
    lo_inf, hi_inf = window.inflated_bounds(radius)
    tree = cKDTree(window.embed(window.points))

    # kept: sorted src * n_nodes + dst keys with witnesses u * n_t + t, and
    # a sentinel above every key.  Blocks run in (u, t) order, so a pair's
    # first witness is its smallest, and a kept key needs no exact distance.
    centers = window.points
    n_nodes, n_t = window.n_nodes, snap.size
    truncated = np.zeros(n_nodes, dtype=bool)
    kept = np.array([np.iinfo(np.int64).max])
    witness = np.array([-1], dtype=np.int64)
    n_u = len(control_family)
    for part in _control_slices(n_u, n_nodes * (n_t + 2)):
        frames, trunc = _propagate_family(
            system, centers, control_family[part], h, flows, snap,
            lo_inf, hi_inf, window.free_columns)
        truncated |= trunc.any(axis=0)
        for j, u_idx in enumerate(range(n_u)[part]):
            for t_idx, (states, alive) in enumerate(frames):
                rows = np.flatnonzero(alive[j])
                if rows.size == 0:
                    continue
                landed = states[j, rows]
                balls = tree.query_ball_point(
                    window.embed(landed), window.query_radii(landed, cut),
                    return_sorted=False)
                owner = np.repeat(np.arange(rows.size), [len(b) for b in balls])
                if owner.size == 0:
                    continue
                flat_dst = np.concatenate(
                    [np.asarray(b, dtype=np.int64) for b in balls if len(b)])
                key = rows[owner] * n_nodes + flat_dst
                fresh = kept[np.searchsorted(kept, key)] != key
                d = system.group.distance(landed, centers[flat_dst[fresh]],
                                          owner[fresh])
                key = np.sort(key[fresh][d <= cut])
                at = np.searchsorted(kept, key)
                kept = np.insert(kept, at, key)
                witness = np.insert(witness, at, u_idx * n_t + t_idx)

    src, dst = np.divmod(kept[:-1], n_nodes)
    w_u, w_t = np.divmod(witness[:-1], n_t)

    return ChainGraph(
        window=window, eps=float(eps), tau=float(tau), radius=float(radius),
        control_family=control_family, time_samples=times_used,
        snapshot_steps=snap, step=h, n_steps=n_steps,
        src=src, dst=dst, witness_u=w_u, witness_t=w_t,
        truncated=truncated, inflated_lower=lo_inf, inflated_upper=hi_inf)


def strongly_connected_components(graph):
    """Partition of the nodes into strongly connected components.

    Runs in linear time via the compiled sparse graph routine; components
    are relabeled by their smallest node index so the output order never
    depends on library internals.
    """
    n = graph.n_nodes
    data = np.ones(graph.n_edges, dtype=np.int8)
    adj = csr_matrix((data, (graph.src, graph.dst)), shape=(n, n))
    _, labels = connected_components(adj, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    boundaries = np.flatnonzero(np.diff(labels[order])) + 1
    groups = np.split(order, boundaries)
    groups = [np.sort(g) for g in groups]
    groups.sort(key=lambda g: int(g[0]))
    return groups


@dataclass
class ChainControlSetApprox:
    """One extracted chain control set candidate."""

    nodes: np.ndarray
    internal_edges: int
    extents: np.ndarray
    contains_identity: bool
    contains_central_fiber: bool
    boundary_touch: np.ndarray  # (n_free, 2) low/high per box coordinate

    @property
    def touches_boundary(self):
        return bool(self.boundary_touch.any())

    @property
    def size(self):
        return int(self.nodes.size)


def level_extents(algebra, x, x_mask=None):
    """Per-level sup of graded component norms over the rows of x.

    Angular nilpotent coordinates are excluded: they live on circles, so a
    box extent would be meaningless.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x_mask is not None and x_mask.any():
        x = np.array(x, copy=True)
        x[..., x_mask] = 0.0
    graded = x @ algebra.frame
    out = np.zeros(algebra.nilpotency_class)
    if len(x):
        for i, sl in enumerate(algebra.level_slices):
            out[i] = float(np.max(np.linalg.norm(graded[:, sl], axis=-1)))
    return out


def central_fiber_nodes(window):
    """Nodes closest to x = 0 within every compact-coordinate combination.

    For each combination of angle-axis indices (torus and angular nilpotent
    alike) the cells minimizing the free-coordinate norm are kept, ties
    within FIBER_TOL included.  With no compact axes this is just the cells
    nearest the origin.
    """
    group = window.group
    x = window.points[:, group.h_dim:]
    free = x[:, ~group.x_mask] if x.shape[1] else np.zeros((window.n_nodes, 0))
    r = np.linalg.norm(free, axis=1)

    idx = window.axis_indices()
    angle_axes = [a for a in range(window.n_axes)
                  if window.axis_kind[a] == "angle"]
    if angle_axes:
        key = np.zeros(window.n_nodes, dtype=np.int64)
        for a in angle_axes:
            key = key * window.shape[a] + idx[:, a]
    else:
        key = np.zeros(window.n_nodes, dtype=np.int64)
    n_keys = int(key.max()) + 1 if window.n_nodes else 0
    best = np.full(n_keys, np.inf)
    np.minimum.at(best, key, r)
    return np.flatnonzero(r <= best[key] + FIBER_TOL)


def extract_chain_sets(graph):
    """Strongly connected components with at least one internal edge.

    The internal-edge requirement is the discrete stand-in for carrying a
    full trajectory; self-loops count.  Sets come back ordered by their
    smallest node index with per-level extents and containment flags.
    """
    if graph.n_edges == 0:
        return []
    components = strongly_connected_components(graph)
    n = graph.n_nodes
    label = np.empty(n, dtype=np.int64)
    for i, comp in enumerate(components):
        label[comp] = i
    internal = label[graph.src] == label[graph.dst]
    counts = np.bincount(label[graph.src][internal], minlength=len(components))

    group = graph.window.group
    fiber = central_fiber_nodes(graph.window)
    identity_nodes = graph.window.identity_cells()
    sets = []
    for i, comp in enumerate(components):
        if counts[i] == 0:
            continue
        x = graph.window.points[comp][:, group.h_dim:]
        extents = level_extents(group.algebra, x, group.x_mask)
        member = np.zeros(n, dtype=bool)
        member[comp] = True
        layer = graph.window.boundary_layer(comp)
        sets.append(ChainControlSetApprox(
            nodes=comp,
            internal_edges=int(counts[i]),
            extents=extents,
            contains_identity=bool(member[identity_nodes].any())
            if identity_nodes.size else False,
            contains_central_fiber=bool(member[fiber].all())
            if fiber.size else False,
            boundary_touch=layer.any(axis=0)))
    return sets


def main_set(sets):
    """The largest extracted set (the first one on ties), None if none."""
    return max(sets, key=lambda s: s.size) if sets else None


# -- theoretical bound ---------------------------------------------------


@dataclass
class LevelBounds:
    """Per-level boundedness diagnostic from the decay certificate."""

    bounds: np.ndarray
    kappa: np.ndarray
    mu: np.ndarray
    contraction: np.ndarray  # kappa_i e^{-tau mu_i}, must be < 1
    c_estimates: np.ndarray
    tau: float


def theoretical_bound(system, tau, c_estimates):
    """Per-level bound B_i = 2 C_i (1 + kappa_i/mu_i) / (1 - kappa_i e^{-tau mu_i}).

    Each graded diagonal block must be hyperbolic and tau large enough that
    kappa_i e^{-tau mu_i} < 1.  The C_i are empirical source suprema (see
    estimate_source_constants), so the result is a diagnostic, not a
    certificate.
    """
    if tau <= 0:
        raise ValidationError("tau must be positive")
    alg = system.algebra
    c_estimates = np.asarray(c_estimates, dtype=float)
    if c_estimates.shape != (alg.nilpotency_class,) or np.any(c_estimates < 0):
        raise ValidationError("need one nonnegative source constant per level")

    kappa = np.empty(alg.nilpotency_class)
    mu = np.empty(alg.nilpotency_class)
    for i in range(1, alg.nilpotency_class + 1):
        block = system.blocks.block(i, i)
        dec = decay_constants(block)
        kappa[i - 1] = dec["kappa"]
        mu[i - 1] = dec["mu"]
    contraction = kappa * np.exp(-tau * mu)
    if np.any(contraction >= 1.0):
        bad = int(np.argmax(contraction)) + 1
        raise TauTooSmallError(
            f"kappa e^(-tau mu) = {contraction[bad - 1]:.6f} >= 1 at level "
            f"{bad}; increase tau")
    d_i = c_estimates * (1.0 + kappa / mu)
    bounds = 2.0 * d_i / (1.0 - contraction)
    return LevelBounds(bounds=bounds, kappa=kappa, mu=mu,
                       contraction=contraction, c_estimates=c_estimates,
                       tau=float(tau))


def estimate_source_constants(system, window, tau, control_family=None):
    """Empirical per-level source constants C_i for theoretical_bound.

    Integrates the family of constant controls over [0, 2*tau] from the
    central-fiber cells (at most 256 of them, evenly strided), truncating
    runs that leave the window, and records the sup of each level's source
    term (the level component of the velocity minus its diagonal-block
    part) every fifth step.  The action norm sup over the window's compact
    part is added per the bound's jump-size constant.
    """
    group = system.group
    alg = system.algebra
    if control_family is None:
        control_family = system.range.sample_family()
    control_family = np.atleast_2d(np.asarray(control_family, dtype=float))
    seeds = central_fiber_nodes(window)
    if seeds.size == 0:
        raise ValidationError("no seed nodes to sample trajectories from")
    if seeds.size > 256:
        stride = int(math.ceil(seeds.size / 256))
        seeds = seeds[::stride]
    starts = window.points[seeds]

    h, n_steps, flows = _step_grid(system, tau)
    steps = range(0, n_steps + 1, 5)
    sup = np.zeros(alg.nilpotency_class)
    mask = group.x_mask
    for part in _control_slices(len(control_family), len(starts) * len(steps)):
        family = control_family[part]
        frames, _ = _propagate_family(
            system, starts, family, h, flows, steps, window.x_lower,
            window.x_upper, window.free_columns)
        for states, alive in frames:
            if not alive.any():
                continue
            u_idx, rows = np.nonzero(alive)
            pts = states[u_idx, rows]
            x = pts[:, group.h_dim:]
            xdot = group.split(system.field(family[u_idx], pts))[1]
            if mask.any():
                x = np.array(x, copy=True)
                xdot = np.array(xdot, copy=True)
                x[:, mask] = 0.0
                xdot[:, mask] = 0.0
            graded_x = x @ alg.frame
            graded_v = xdot @ alg.frame
            for i, sl in enumerate(alg.level_slices):
                b = system.blocks.block(i + 1, i + 1)
                src = graded_v[:, sl] - graded_x[:, sl] @ b.T
                sup[i] = max(sup[i], float(np.max(np.linalg.norm(src, axis=-1))))

    if group.h_dim:
        stride = max(1, window.n_nodes // 128)
        h_sample = window.points[::stride][:256, :group.h_dim]
        c_norm = max(float(np.linalg.norm(system.group.action.matrix(hh), 2))
                     for hh in h_sample)
        c_norm = max(c_norm, 1.0)
    else:
        c_norm = 1.0
    return sup + c_norm


# -- verification reports --------------------------------------------------


@dataclass
class UniquenessReport:
    """Outcome of the uniqueness and containment checks; failures are
    itemized rather than raised."""

    n_sets: int
    unique: bool
    fiber_contained: bool
    missing_fiber_nodes: int
    extents_ok: bool
    boundary_touched: bool
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures


def verify_uniqueness_and_containment(sets, fiber_nodes, bounds=None):
    """Check: exactly one extracted set, all central-fiber nodes inside it,
    per-level extents within the supplied bounds, no window-boundary touch."""
    fiber_nodes = np.asarray(fiber_nodes, dtype=np.int64)
    failures = []
    n_sets = len(sets)
    unique = n_sets == 1
    if n_sets == 0:
        failures.append("no chain control set extracted")
    elif n_sets > 1:
        failures.append(f"{n_sets} chain control sets extracted, expected 1")

    fiber_contained = False
    missing = int(fiber_nodes.size)
    extents_ok = True
    boundary_touched = False
    if n_sets:
        main = main_set(sets)
        if fiber_nodes.size:
            inside = np.isin(fiber_nodes, main.nodes)
            missing = int((~inside).sum())
            fiber_contained = missing == 0
            if not fiber_contained:
                failures.append(
                    f"{missing} of {fiber_nodes.size} central-fiber nodes "
                    f"outside the main set")
        else:
            fiber_contained = True
            missing = 0
        if bounds is not None:
            limit = bounds.bounds if isinstance(bounds, LevelBounds) \
                else np.asarray(bounds, dtype=float)
            bad = main.extents > limit
            extents_ok = not bad.any()
            if not extents_ok:
                failures.append(
                    "per-level extents exceed the bound at levels "
                    f"{[int(i) + 1 for i in np.flatnonzero(bad)]}")
        boundary_touched = main.touches_boundary
        if boundary_touched:
            failures.append("extracted set touches the window boundary")
    return UniquenessReport(
        n_sets=n_sets, unique=unique, fiber_contained=fiber_contained,
        missing_fiber_nodes=missing, extents_ok=extents_ok,
        boundary_touched=boundary_touched, failures=failures)


# -- audit -------------------------------------------------------------------


def audit_edges(system, graph, fraction=0.01, seed=1234):
    """Re-integrate a random sample of edges with an AUDIT_REFINE times finer
    step and check each lands within the acceptance radius of its target
    center.

    Returns a dict with the sample size, failure count, and worst excess
    over the radius.  A sound graph audits with zero failures.
    """
    if graph.n_edges == 0:
        return {"checked": 0, "failures": 0, "worst_excess": 0.0}
    rng = np.random.default_rng(seed)
    k = max(1, int(math.ceil(fraction * graph.n_edges)))
    pick = np.sort(rng.choice(graph.n_edges, size=k, replace=False))
    window = graph.window
    h_fine = graph.step / AUDIT_REFINE

    failures = 0
    worst = -np.inf
    key = graph.witness_u[pick].astype(np.int64) * len(graph.snapshot_steps) \
        + graph.witness_t[pick].astype(np.int64)
    for group_key in np.unique(key):
        sel = pick[key == group_key]
        u_idx = int(group_key) // len(graph.snapshot_steps)
        t_idx = int(group_key) % len(graph.snapshot_steps)
        n_fine = int(graph.snapshot_steps[t_idx]) * AUDIT_REFINE
        [(states, alive)], _ = _propagate(
            system, window.points[graph.src[sel]],
            graph.control_family[u_idx], h_fine, n_fine, [n_fine],
            graph.inflated_lower, graph.inflated_upper, window.free_columns)
        d = system.group.distance(states, window.points[graph.dst[sel]])
        excess = d - graph.radius
        bad = ~alive | (excess > 1e-6)
        failures += int(bad.sum())
        worst = max(worst, float(np.max(excess)))
    return {"checked": int(k), "failures": int(failures),
            "worst_excess": worst}


# -- structured output -------------------------------------------------------


def write_nodes_csv(path, graph, sets):
    """Node table: index, coordinates, component id (-1 if in no set)."""
    window = graph.window
    group = window.group
    member = np.full(window.n_nodes, -1, dtype=np.int64)
    for i, s in enumerate(sets):
        member[s.nodes] = i
    names = [f"theta{j}" for j in range(group.h_dim)] + \
        [f"x{j}" for j in range(group.x_dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node"] + names + ["set_id", "truncated"])
        for i in range(window.n_nodes):
            writer.writerow([i] + [f"{v:.12g}" for v in window.points[i]]
                            + [int(member[i]), int(graph.truncated[i])])


def write_edges_csv(path, graph):
    """Edge table with the (u, T) witness of each edge: csv.writer's bytes
    (no field needs quoting) from strings formatted once per node and per
    witness, joined EDGE_CHUNK rows at a time."""
    names = [str(i) for i in range(graph.n_nodes)]
    heads = [s + "," for s in names]
    tails = ["," + ",".join([*(f"{v:.12g}" for v in u), f"{t:.12g}"]) + "\r\n"
             for u in graph.control_family for t in graph.time_samples]
    witness = graph.witness_u * len(graph.time_samples) + graph.witness_t
    u_names = [f"u{j}" for j in range(graph.control_family.shape[1])]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["src", "dst", *u_names, "T"]) + "\r\n")
        for lo in range(0, graph.n_edges, EDGE_CHUNK):
            chunk = slice(lo, lo + EDGE_CHUNK)
            fh.write("".join([heads[a] + names[b] + tails[w] for a, b, w in zip(
                graph.src[chunk].tolist(), graph.dst[chunk].tolist(),
                witness[chunk].tolist())]))


def sets_to_records(sets, bounds=None):
    """JSON-ready descriptions of extracted sets."""
    records = []
    for i, s in enumerate(sets):
        rec = {
            "set_id": i,
            "size": s.size,
            "internal_edges": s.internal_edges,
            "extents": [float(v) for v in s.extents],
            "contains_identity": bool(s.contains_identity),
            "contains_central_fiber": bool(s.contains_central_fiber),
            "touches_boundary": bool(s.touches_boundary),
            "boundary_touch": s.boundary_touch.astype(int).tolist(),
        }
        if bounds is not None:
            limit = bounds.bounds if isinstance(bounds, LevelBounds) \
                else np.asarray(bounds, dtype=float)
            rec["bounds"] = [float(v) for v in limit]
            rec["within_bounds"] = bool(np.all(s.extents <= limit))
        records.append(rec)
    return records


def write_sets_jsonl(path, sets, bounds=None):
    with open(path, "w") as fh:
        for rec in sets_to_records(sets, bounds):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_plot_slice(path, graph, chain_set, columns=(0, 1)):
    """2D or 3D coordinate slice of a set's member cells, for plotting."""
    if len(columns) not in (2, 3):
        raise ValidationError("plot slices are 2D or 3D")
    dim = graph.window.points.shape[1]
    if any(c < 0 or c >= dim for c in columns):
        raise ValidationError(f"slice columns {columns} outside dimension {dim}")
    pts = graph.window.points[chain_set.nodes][:, list(columns)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in columns])
        for row in pts:
            writer.writerow([f"{v:.12g}" for v in row])
