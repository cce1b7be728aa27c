"""Grid approximation of chain control sets on semidirect-product groups.

The state window is a finite grid: each torus angle (and each angular
nilpotent coordinate) carries a uniform circular grid, each remaining
nilpotent coordinate a uniform box grid.  Every cell center is run under
each constant control of a finite family; endpoints sampled at durations
inside [tau, 2*tau] that land within eps plus the cell slack of another
center become directed edges.  The exact distance decides every edge; its
kd-tree prefilter, periodic on the circle axes, has a certified radius
(`GridWindow.query_radii`) from the spectral norm of the linear BCH part
at each landing.
Strongly connected components with at least one internal edge approximate
chain control sets; the per-level bound formula turns empirical source
suprema into boundedness diagnostics.  One decay record per run
(`LevelBounds`) holds each graded level's constants, the refusal line of a
bound that cannot exist, and the bound once formed.

Cell runs come from the translation identity of a linear system,
phi(t, g, u) = phi(t, e, u) * phi_t(g): the run from g is the run from the
identity (the anchor), right-multiplied by the drift flow of g.  One
batched RK4 run over the first grid step gives the first anchor of every
control, and the same identity gives the rest by doubling, in about log2 of
the step count batched products.  Each cell's state at step k is the group
product with (h_g, e^{k h D} x_g), one affine map per control and step,
and the cells move in blocks of steps, one call per block, with no Python
loop per step.  Truncation keeps its meaning: the window box is tested on
every step, and a run ends at the first step it leaves.
Each snapshot holds only the runs still alive, as flat row indices
u * n_starts + start in increasing order with their states.  Exact
distances take the action's phases once per landing, and none when the
action is orthogonal.

The graph is built from one slice of the circle shifts.  Let k be a
right translation the drift flow fixes: a masked central circle, or a torus
angle.  Then phi(t, g k, u) = phi(t, g, u) k, so every landing moves with
its source.  Conjugation by k keeps the metric when k is central, and for a
torus angle when rho(k) is orthogonal (skew generators), so d(a k, b k) =
d(a, b).  Right translation by k leaves the box coordinates alone, so
truncation is invariant too.  Whole-cell shifts of those axes
(`GridWindow.symmetric_axes`), the group A, therefore map the graph onto
itself: only the sources with index 0 on every symmetric axis, the slice,
are run, and only their rows are kept.  Each hit is one int64 code (src *
n_nodes + dst) * n_w + w, with witness w = u * n_T + t of n_w = n_U * n_T;
one sort leaves CSR rows of int32 targets with one witness code per edge.
The graph is their lift around every shift, which no stage stores:
`extract_chain_sets` reads its strong components off the slice as a
voltage graph, and the writer writes the slice rows, whose lift the shift
sizes and strides determine.  The graph's slow, independent oracles (direct
integration, an edge audit, the lift by the rule alone) live in the tests.
"""

import csv
import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree

from .errors import NotHyperbolicError, ValidationError
from .lcs import _rk4_step
from .spectral import decay_constants, power_stack

NODE_LIMIT = 1_500_000
# rows one anchored run may hold, per control its kept states (starts x kept
# snapshots) and steps + 1 anchors; larger families run in control slices
ANCHOR_ROW_LIMIT = 1 << 21
# row-steps (rows x steps) one `_translate` call moves at once; more live
# rows than this go in row blocks of one step
STEP_BLOCK = 1 << 14
# candidate pairs one block of landings may bring (their a-priori bound, one
# landing at least): its kd-tree lists (about 36 bytes per candidate), its
# exact distances (about 200 bytes per pair) and its hit codes
PAIR_LIMIT = 1 << 14
# stored edges (slice rows) a graph may keep: its int64 codes, merged and
# sorted, stay within about 600 MB
EDGE_LIMIT = 1 << 24
FIBER_TOL = 1e-9  # ties in the box-coordinate norm of central_fiber_nodes
ACTION_BLOCK = 4096  # torus cells action_norm_sup takes rho(h) of at once
EDGE_CHUNK = 65_536  # stored edges write_edges_csv formats per write


class GridWindow:
    """Uniform cell grid over a compact window of a semidirect group.

    One axis per group coordinate, in the group's order: torus angles, then
    nilpotent coordinates.  box = ~group.angular_mask is the only record of
    which axes are circles.  A circle (a torus angle or an angular nilpotent
    coordinate) spans [-pi, pi) in 2 pi / k cells, with one count k per
    circle in angle_cells, in coordinate order; a box coordinate spans its
    bounds in cells of size delta.  lower, upper, delta and shape hold one
    entry per coordinate.  Nodes are cell centers, enumerated in C order over
    the axes, which fixes determinism.  points comes from one meshgrid, so
    every combination of circle indices carries the same box coordinates,
    bit for bit.

    symmetric_axes are the circle axes whose whole-cell shifts map the cell
    graph of any linear system on the group onto itself (see
    build_chain_graph): every angular nilpotent axis, and the torus axes
    when the action is orthogonal (`RhoAction.orthogonal`: every generator
    skew within ACTION_ATOL).  They are fixed when the window is built,
    with the group A of their shifts: shift_sizes and shift_strides hold
    each symmetric axis's cell count and stride in node numbers, and
    n_shifts = |A|.
    """

    def __init__(self, group, box_lower, box_upper, box_delta,
                 angle_cells=()):
        self.group = group
        self.box = box = ~group.angular_mask
        n_box = int(box.sum())
        cells = [int(k) for k in np.ravel(angle_cells)]
        if len(cells) != group.dim - n_box:
            raise ValidationError(
                f"need one cell count per circle coordinate, got "
                f"{len(cells)} for {group.dim - n_box}")
        if any(k < 1 for k in cells):
            raise ValidationError("angle grids need at least one cell")
        try:
            lo, hi, d = (np.broadcast_to(np.asarray(v, dtype=float), (n_box,))
                         for v in (box_lower, box_upper, box_delta))
        except ValueError:
            raise ValidationError(
                f"window bounds and cell sizes need one entry, or one per "
                f"box coordinate ({n_box})")
        if np.any(d <= 0.0):
            raise ValidationError("cell sizes must be positive")
        if np.any(hi <= lo):
            raise ValidationError("window bounds must have positive extent")
        counts = (hi - lo) / d
        snapped = np.rint(counts)
        if np.any(np.abs(counts - snapped) > 1e-6) or np.any(snapped < 1):
            raise ValidationError(
                "window extent must be a whole number of cells per coordinate")
        # refused before any per-axis grid is allocated
        n_nodes = float(np.prod(snapped)) * math.prod(cells)
        if n_nodes > NODE_LIMIT:
            raise ValidationError(f"window has {n_nodes:.7g} cells, over the "
                                  f"{NODE_LIMIT} limit")
        self.n_nodes = int(n_nodes)

        shape = np.empty(group.dim, dtype=np.int64)
        shape[box], shape[~box] = snapped, cells
        self.shape = tuple(int(k) for k in shape)
        self.lower = np.full(group.dim, -np.pi)
        self.upper = np.full(group.dim, np.pi)
        self.delta = 2.0 * np.pi / shape
        self.lower[box], self.upper[box], self.delta[box] = lo, hi, d
        self._symmetric_axes = tuple(
            a for a in range(group.dim)
            if not box[a] and (a >= group.h_dim or group.action.orthogonal))
        sym = list(self.symmetric_axes)
        self.shift_sizes = shape[sym]
        self.shift_strides = (np.cumprod(shape[::-1])[::-1] // shape)[sym]
        self.n_shifts = math.prod(self.shift_sizes.tolist())

        grids = np.meshgrid(*(
            self.lower[a] + (np.arange(k) + 0.5) * self.delta[a]
            for a, k in enumerate(self.shape)), indexing="ij")
        self.points = np.stack([g.reshape(-1) for g in grids], axis=1)
        self.half_diameter = self._measure_half_diameter()

    # -- geometry ------------------------------------------------------------

    def axis_indices(self, nodes=None):
        """Per-axis grid indices, shape (len(nodes), group.dim)."""
        if nodes is None:
            nodes = np.arange(self.n_nodes)
        idx = np.unravel_index(np.asarray(nodes, dtype=np.int64), self.shape)
        return np.stack(idx, axis=-1)

    @property
    def symmetric_axes(self):
        """The circle axes of A, fixed when the window is built."""
        return self._symmetric_axes

    def shift_split(self, nodes):
        """(base, cyc) of nodes: cyc holds each node's indices on the
        symmetric axes, and base = node - cyc @ stride is its slice node,
        at index 0 on every symmetric axis."""
        nodes = np.asarray(nodes, dtype=np.int64)
        cyc = nodes[:, None] // self.shift_strides % self.shift_sizes
        return nodes - (cyc * self.shift_strides).sum(axis=1), cyc

    def _measure_half_diameter(self):
        """Max distance from sampled cell centers to their cell corners.

        The exact metric bends nilpotent coordinate offsets by the group
        product, so the half-diameter is measured, not assumed, and padded
        by 2 percent.
        """
        sample = self.points[::max(1, self.n_nodes // 256)]  # <= 511 rows
        offsets = 0.5 * self.delta
        corners = np.array(list(np.ndindex(*(2,) * len(self.shape))),
                           dtype=float)
        corners = (2.0 * corners - 1.0) * offsets
        shifted = sample[:, None, :] + corners[None, :, :]
        base = np.broadcast_to(sample[:, None, :], shifted.shape)
        dist = self.group.distance(self.group.normalize(base),
                                   self.group.normalize(shifted))
        return 1.02 * float(np.max(dist))

    def query_radii(self, landed, cut):
        """Per-landing kd-tree radius that holds every center within group
        distance `cut`, so the ball query drops no edge.

        A center with d(a, b) = |h_z| + |x_z| <= cut is b = a z.  Angles
        and masked coordinates (central, unreached, fixed by rho) move by
        the entries of z, and their gaps wrapped around the circle are at
        most those.  The rest moves by bch(x_a, y) - x_a, y = rho(h_a) x_z,
        which is L_a y - [k>=3] [y,[x_a,y]]/12 - [k>=4] [y,[x_a,[x_a,y]]]/24
        for nilpotency class k, with the linear BCH part
        L_a = I + ad(x_a)/2 + [k>=3] ad(x_a)^2/12.  Its terms are bounded
        with |y| <= rho |x_z| (rho = cond_2 of the action's eigenbasis >=
        sup_h |rho(h)|), |L_a y| <= |L_a|_2 |y|, |[x_a, v]| <= A |v|
        (A = |ad(x_a)|_F) and |[u, v]| <= kap |u| |v| (kap =
        |structure|_F).  So the gap, the norm of the per-axis differences
        with the circle axes wrapped, is at most f(a) d(a, b), with
        f = rho (|L_a|_2 + [k>=3] kap A rho cut/12
                 + [k>=4] kap A^2 rho cut/24) >= 1,
        since L_a is unipotent (ad(x_a) is nilpotent), so |L_a|_2 >= 1.
        f is padded by 1e-9 relative for rounding.

        In an abelian algebra ad(x_a) = 0, so L_a = I and f = 1: every
        radius is rho cut (1 + 1e-9), the bits of the general form, with no
        per-landing SVD.
        """
        alg = self.group.algebra
        k = alg.nilpotency_class
        rho = float(np.linalg.cond(self.group.action.basis))
        if k < 2:
            return np.full(len(landed), rho * cut * (1.0 + 1e-9))
        ky = float(np.linalg.norm(alg.structure)) * rho * cut  # kap rho cut
        ad = alg.ad(self.group.split(landed)[1])
        a = np.linalg.norm(ad, axis=(-2, -1))
        f = np.linalg.norm(_bch_linear_part(alg, ad), 2, axis=(-2, -1)) \
            + (k >= 3) * a * ky / 12.0 + (k >= 4) * a * a * ky / 24.0
        return rho * f * cut * (1.0 + 1e-9)

    def ball_cells(self, radii):
        """A-priori bound on the centers a kd-tree ball of each radius
        holds: along each axis an interval of length 2 r holds at most
        floor(2 r / delta) + 1 of its centers, and never more than the axis
        has."""
        per_axis = np.floor(2.0 * np.asarray(radii)[:, None] / self.delta) + 1
        return np.minimum(per_axis, self.shape).prod(axis=1)

    def inflated_bounds(self, pad):
        """Box bounds enlarged by pad plus one cell on each box coordinate."""
        margin = pad + self.delta[self.box]
        return self.lower[self.box] - margin, self.upper[self.box] + margin

    def boundary_layer(self, nodes=None):
        """(len(nodes), n_box, 2) flags: node sits in the first or last cell
        layer of each box coordinate."""
        idx = self.axis_indices(nodes)[:, self.box]
        last = np.array(self.shape)[self.box] - 1
        return np.stack([idx == 0, idx == last], axis=-1)

    def identity_cells(self):
        """Nodes whose cell contains the group identity (ties included)."""
        tol = 0.5 * self.delta + 1e-9
        inside = np.abs(self.points) <= tol
        return np.flatnonzero(inside.all(axis=1))


@dataclass
class ChainGraph:
    """Directed cell graph; an edge means one sampled (u, T) run lands one
    cell within the acceptance radius of another.

    Only the slice rows are kept: source a's edges are indptr[a]:indptr[a +
    1], empty unless a is in the slice, with targets dst (int32 node
    numbers, so an edge's shift is its target's) and witness codes u *
    len(snapshot_steps) + t of their smallest sampled (u, t).  The graph is
    their lift, node base + c having base's row with every target moved by c:
    n_edges = dst.size * window.n_shifts.  truncated holds one flag per node.
    """

    window: GridWindow
    eps: float
    tau: float
    radius: float
    control_family: np.ndarray
    time_samples: np.ndarray
    snapshot_steps: np.ndarray
    step: float
    n_steps: int
    indptr: np.ndarray
    dst: np.ndarray
    witness: np.ndarray
    truncated: np.ndarray
    inflated_lower: np.ndarray
    inflated_upper: np.ndarray

    @property
    def n_nodes(self):
        return self.window.n_nodes

    @property
    def n_edges(self):
        return int(self.dst.size) * self.window.n_shifts


def _default_time_samples(tau):
    return tau * np.array([1.0, 4.0 / 3.0, 5.0 / 3.0, 2.0])


def _step_grid(system, tau):
    """The fixed RK4 grid on [0, 2*tau]: step h and step count."""
    h_nominal = system.step_limit * 10.0
    n_steps = max(1, int(math.ceil(2.0 * tau / h_nominal)))
    return 2.0 * tau / n_steps, n_steps


def _control_slices(n_controls, rows_per_control, n_steps):
    """Slices of a control family whose anchored runs stay within
    ANCHOR_ROW_LIMIT rows, rows_per_control kept states and n_steps + 1
    anchors per control; one control over the limit is refused, which also
    bounds the flow table (n_steps + 1 matrices)."""
    per_control = rows_per_control + n_steps + 1
    if per_control > ANCHOR_ROW_LIMIT:
        raise ValidationError(
            f"one control needs {rows_per_control} kept states and {n_steps + 1} "
            f"anchors, over ANCHOR_ROW_LIMIT ({ANCHOR_ROW_LIMIT}) rows; use "
            f"coarser cells (chain.delta) or a shorter chain.tau")
    width = ANCHOR_ROW_LIMIT // per_control
    return [slice(a, a + width) for a in range(0, n_controls, width)]


def _bch_linear_part(alg, ad):
    """L_a = I + ad(x_a)/2 + [k>=3] ad(x_a)^2/12 from ad = ad(x_a), batched:
    the part of y -> bch(x_a, y) - x_a that is linear in y, for nilpotency
    class k."""
    lin = np.eye(alg.dim) + ad / 2.0
    if alg.nilpotency_class >= 3:
        lin += ad @ ad / 12.0
    return lin


def _rows_times(mats, u_of, v):
    """mats[:, u_of[r]] @ v[r] for every row r: (B, n_u, p, q) matrices, (R,)
    controls and (R, q) vectors give (B, R, p).  Multiply-adds one column of
    v at a time, in a fixed order, so a row's bits do not depend on the rows
    or steps that share the call."""
    out = v[:, 0, None] * mats[..., 0][:, u_of]
    for j in range(1, v.shape[1]):
        out += v[:, j, None] * mats[..., j][:, u_of]
    return out


def _translate(group, anchor, flow, starts, u_of):
    """States anchor[b, u_of[r]] * (h_g, flow[b] x_g) of starts (h_g, x_g).

    B steps at once: anchors (B, n_u, dim), flows (B, n, n) and starts
    (R, dim) give (B, R, dim).  With y = rho(h_a) flow x_g and nilpotency
    class k, bch(x_a, y) = x_a + L_a y (`_bch_linear_part`)
    - [k>=3] [y,[x_a,y]]/12 - [k>=4] [y,[x_a,[x_a,y]]]/24: one affine map
    per anchor, plus the terms quadratic in y through `bracket`.  The
    affine map is a fixed-order sequence of multiply-adds (`_rows_times`),
    never a matmul over rows, so a row's bits are the same in any block of
    rows and steps.
    """
    alg = group.algebra
    k = alg.nilpotency_class
    h_a, x_a = group.split(anchor)
    h_g, x_g = group.split(starts)
    ad = alg.ad(x_a)
    # rho(h_a) flow, one (n, n) per anchor: rho applied to flow's columns
    rho_f = np.broadcast_to(np.swapaxes(group.action.apply(
        h_a[..., None, :], np.swapaxes(flow, -1, -2)[:, None]), -1, -2),
        ad.shape)
    x = _rows_times(_bch_linear_part(alg, ad) @ rho_f, u_of, x_g)
    x += x_a[:, u_of]
    if k >= 3:
        x_row = x_a[:, u_of]
        y = _rows_times(rho_f, u_of, x_g)
        b = alg.bracket(x_row, y)
        x -= alg.bracket(y, b) / 12.0
        if k >= 4:
            x -= alg.bracket(y, alg.bracket(x_row, b)) / 24.0
    return group.normalize(np.concatenate([h_a[:, u_of] + h_g, x], axis=-1))


def _anchor_table(system, family, h, n_steps):
    """(flows, anchors) on the grid of n_steps steps of h: the drift-flow
    powers F_k = (e^{hD})^k, (n_steps + 1, n, n), and the anchors a_k =
    phi(k h, e, u) of every control of family, (n_steps + 1, U, dim).

    One batched RK4 run over the first grid step, at the step limit
    `integrate` uses, gives a_1; the exact identity a_{m+j} = a_m *
    Phi_{mh}(a_j) then fills the table a_0..a_n by doubling, a_{m+1}..a_{2m}
    in one batched product per m = 1, 2, 4, ..., as `power_stack` fills its
    powers.  (Running RK4 over the whole grid instead lets its relative
    error act on anchors that an expanding drift drives far out, |a| ~ 22
    on heisenberg-expanding, and put landings 1.4e-8 off direct
    integration.)

    The system keeps its latest flows and anchor table, read-only, in
    run_tables, so the graph build and the source-constant estimate of one
    run build them once: the flows whenever the grid matches, the anchors
    when the control slice does too.
    """
    memo = system.run_tables
    grid = (h, n_steps)
    if memo.get("flows", (None,))[0] != grid:
        flows = power_stack(expm(h * system.derivation),
                            np.eye(system.algebra.dim), n_steps)
        flows.flags.writeable = False
        memo["flows"] = (grid, flows)
    flows = memo["flows"][1]
    key = grid + (family.shape, family.tobytes())
    if memo.get("anchors", (None,))[0] == key:
        return flows, memo["anchors"][1]

    group = system.group
    n_sub = max(1, math.ceil(h / system.step_limit - 1e-9))
    first = np.zeros((len(family), group.dim))
    field = system.frozen_field(family)
    for _ in range(n_sub):
        first = group.normalize(_rk4_step(field, first, h / n_sub))
    anchors = np.zeros((n_steps + 1, len(family), group.dim))
    anchors[1] = first
    filled = 1  # a_0..a_filled are in the table
    while filled < n_steps:
        take = min(filled, n_steps - filled)
        h_j, x_j = group.split(anchors[1:take + 1])
        anchors[filled + 1:filled + take + 1] = group.multiply(
            anchors[filled], group.join(h_j, x_j @ flows[filled].T))
        filled += take
    anchors.flags.writeable = False
    memo["anchors"] = (key, anchors)
    return flows, anchors


def _propagate_family(system, starts, family, h, n_steps, steps,
                      box_lower, box_upper, box):
    """Fixed-step runs of every start under every control of a family,
    truncated when their box coordinates (the columns box selects) leave
    [box_lower, box_upper]: one (rows, states) pair per entry of steps (step
    0 is the start), the flat rows r = u * len(starts) + start still alive in
    increasing order and their states, and the (U, N) truncation mask.

    The state of start g at step k is a_k * (h_g, F_k x_g), with the
    anchor a_k = phi(k h, e, u) of its control and the drift flow F_k =
    (e^{hD})^k (`_anchor_table`), an affine map (`_translate`).

    The runs move in blocks of steps, each at most STEP_BLOCK row-steps:
    one step per block while more than STEP_BLOCK rows are alive, and then
    the rows too go in blocks of STEP_BLOCK.  Each `_translate` call gives
    its rows' states on every step of its block; only the steps wanted are
    kept.  The box is tested on every step, and a cumulative OR of the
    exits over the block's steps ends each row at its first exit, so a row
    that leaves and comes back within a block is in no later frame.  Only
    rows still alive enter the next block.

    With s0 = min(steps) > 0 the rows are first sieved at s0: blocks of
    that one step give each row's state there, and the rows outside the
    box are truncated unmoved.  The sieve is exact: a row's state has the
    same bits in any block, so a dropped row is in no frame, and a kept
    row, which may have left and come back, is still tested on every step.
    Steps that include 0 (`estimate_source_constants`) have no sieve.
    """
    group = system.group
    family = np.atleast_2d(np.asarray(family, dtype=float))
    y0 = group.normalize(np.array(starts, dtype=float))
    n_u, n_rows = len(family), len(y0)
    flows, anchors = _anchor_table(system, family, h, n_steps)

    def block(rows, lo, hi, keep):
        """The (hi - lo, rows) masks of steps lo..hi-1 outside the box, and
        the states of rows on the steps lo + keep, (len(keep), rows, dim)."""
        width = max(1, STEP_BLOCK // (hi - lo))
        states, out = [], []
        for at in range(0, rows.size, width):
            u_of, start_of = np.divmod(rows[at:at + width], n_rows)
            moved = _translate(group, anchors[lo:hi], flows[lo:hi],
                               y0[start_of], u_of)
            # a fancy index, not compress: it holds the box axis outermost,
            # so np.any below reduces across rows, not along each short row
            coords = moved[..., box]
            out.append(np.any((coords < box_lower) | (coords > box_upper),
                              axis=-1))
            states.append(moved[keep])
        return np.concatenate(states, axis=1), np.concatenate(out, axis=1)

    rows = np.arange(n_u * n_rows)
    truncated = np.zeros(n_u * n_rows, dtype=bool)
    want = sorted({int(s) for s in steps})
    if want and want[0] > 0 and rows.size:
        _, (out,) = block(rows, want[0], want[0] + 1, [])
        truncated[rows[out]] = True
        rows = rows[~out]
    frames = {0: (rows, y0[rows % n_rows])} if 0 in want else {}
    step = 1
    while step <= n_steps and rows.size:
        stop = min(n_steps + 1, step + max(1, STEP_BLOCK // rows.size))
        keep = [s - step for s in want if step <= s < stop]
        states, out = block(rows, step, stop, keep)
        # gone[i]: the rows that have left by step + i
        gone = np.logical_or.accumulate(out, axis=0)
        for j, k in enumerate(keep):
            alive = ~gone[k]
            frames[step + k] = (rows[alive], states[j][alive])
        truncated[rows[gone[-1]]] = True
        rows = rows[~gone[-1]]
        step = stop
    # steps after the last row left hold no run
    dead = (rows, np.zeros((0, group.dim)))
    return ([frames.get(int(s), dead) for s in steps],
            truncated.reshape(n_u, n_rows))


def _block_hits(group, tree, offset, centers, landed, radii, cut):
    """(owner, dst) of the centers within the cut of one block of landings:
    the kd-tree candidates within each landing's radius, decided by the
    exact distance PAIR_LIMIT pairs at a time.  The kd-tree's lists are
    flattened in two passes over them, the sizes and then every target,
    with no array per landing, and the candidate centers are gathered by
    take, not fancy indexing of rows."""
    balls = tree.query_ball_point(landed + offset, radii,
                                  return_sorted=False)
    sizes = np.fromiter(map(len, balls), dtype=np.int64, count=len(balls))
    owner = np.repeat(np.arange(len(landed)), sizes)
    dst = np.fromiter(itertools.chain.from_iterable(balls), dtype=np.int64,
                      count=owner.size)
    del balls  # Python lists: about 36 bytes per candidate
    hit = np.concatenate([np.zeros(0, dtype=bool)] + [
        group.distance(landed,
                       centers.take(dst[lo:lo + PAIR_LIMIT], axis=0),
                       owner[lo:lo + PAIR_LIMIT]) <= cut
        for lo in range(0, owner.size, PAIR_LIMIT)])
    return owner[hit], dst[hit]


def _first_per_pair(code, n_w):
    """Edge codes (src * n_nodes + dst) * n_w + w sorted and cut to the
    first code of each (src, dst) pair, the one of its smallest witness."""
    code.sort()
    pair = code // n_w
    first = np.empty(code.size, dtype=bool)
    first[:1] = True
    np.not_equal(pair[1:], pair[:-1], out=first[1:])
    del pair
    return code[first]


def _merge_due(held, merged):
    """The kept codes are merged once they pass twice their last merged
    size plus PAIR_LIMIT: they stay within about three times the merged
    pairs, and at least as many codes arrive between two merges as the
    first of them kept, so a merge costs a bounded amount per code."""
    return held > 2 * merged + PAIR_LIMIT


def _merge_codes(kept, n_w):
    """The list kept of blocks of codes, emptied, as one sorted block with
    each pair at its smallest witness; more than EDGE_LIMIT pairs are
    refused."""
    code = np.concatenate(kept)
    kept.clear()
    code = _first_per_pair(code, n_w)
    if code.size > EDGE_LIMIT:
        raise ValidationError(
            f"graph has over {EDGE_LIMIT} stored edges (EDGE_LIMIT); use "
            f"coarser cells (chain.delta) or a smaller chain.eps")
    return code


def build_chain_graph(system, window, eps, tau, control_family=None,
                      time_samples=None):
    """Build the (eps, tau) cell reachability graph.

    Edge a -> b iff some sampled constant control u and duration T in
    [tau, 2*tau] move center_a to within eps + q of center_b, where q is
    the measured cell half-diameter (cell quantization slack).  Runs that
    leave the inflated window are truncated; the source node keeps a
    boundary flag and the run stops producing edges.

    Only the slice of sources with index 0 on every symmetric axis is run,
    and only their rows are kept.  Their shifts are right translations by
    elements the drift flow fixes, which act by isometries and leave the box
    coordinates alone.  So every whole-cell shift of those axes carries the
    slice's edges, smallest witnesses and truncation flags to its shifted
    sources.  With no symmetric axis the slice is the whole window.  A
    window and tau whose kept states and anchors overflow one control's run
    (`_control_slices`) are refused before the kd-tree is built.

    Every transient array of the build is bounded by the block constants.
    The runs move at most STEP_BLOCK row-steps per `_translate` call
    (`_propagate_family`), and the query radii are taken STEP_BLOCK
    landings at a time.  The landings of a snapshot go to the kd-tree in
    blocks whose a-priori candidate count (`GridWindow.ball_cells`) fits in
    PAIR_LIMIT, one landing at least, and each block's hit codes are sorted
    and cut to their first code per pair, its smallest witness.  The kept
    codes are merged the same way whenever they pass twice their last merged
    size plus PAIR_LIMIT, so the minimum witness of each pair survives and
    the graph has the same bits as one sort of every hit.  The kept codes
    themselves are bounded only by the graph: more than EDGE_LIMIT stored
    edges are refused.
    """
    if eps <= 0 or tau <= 0:
        raise ValidationError("eps and tau must be positive")
    if window.group is not system.group:
        raise ValidationError("window was built for a different group")

    if control_family is None:
        control_family = system.range.sample_family()
    control_family = np.atleast_2d(np.asarray(control_family, dtype=float))
    if control_family.size == 0:
        raise ValidationError("no controls to sample")
    if control_family.shape[1] != system.range.m:
        raise ValidationError("control family has the wrong dimension")
    if time_samples is None:
        time_samples = _default_time_samples(tau)
    time_samples = np.sort(np.unique(np.asarray(time_samples, dtype=float)))
    if time_samples.size == 0:
        raise ValidationError("need at least one time sample")
    outside = time_samples[(time_samples < tau - 1e-9)
                           | (time_samples > 2 * tau + 1e-9)]
    if outside.size:
        raise ValidationError(
            f"time samples {', '.join(f'{t:g}' for t in outside)} (chain.times) "
            f"lie outside [tau, 2*tau] = [{tau:g}, {2 * tau:g}]; move them "
            f"inside it or change chain.tau")

    h, n_steps = _step_grid(system, tau)
    snap = np.rint(time_samples / h).astype(int)
    snap = np.clip(snap, int(math.ceil(tau / h - 1e-9)), n_steps)
    snap = np.unique(snap)
    times_used = snap * h

    n_nodes, n_t = window.n_nodes, snap.size
    n_w = len(control_family) * n_t
    # an edge is one int64 code (src * n_nodes + dst) * n_w + witness
    if n_nodes ** 2 * n_w > np.iinfo(np.int64).max:
        raise ValidationError(
            f"{n_nodes} cells and {n_w} (control, time) samples overflow the "
            f"int64 edge code")
    for u in control_family:
        if not system.range.contains(u):
            raise ValidationError(f"control sample {u} outside the range")

    centers = window.points
    base, _ = window.shift_split(np.arange(n_nodes))
    sources = np.flatnonzero(base == np.arange(n_nodes))
    parts = _control_slices(len(control_family), sources.size * (n_t + 2),
                            n_steps)

    radius = eps + window.half_diameter
    cut = radius + 1e-12
    lo_inf, hi_inf = window.inflated_bounds(radius)
    # circle axes shifted into [0, 2 pi) and periodic; a boxsize of 0 leaves
    # a box axis flat
    offset = np.where(window.box, 0.0, np.pi)
    tree = cKDTree(window.points + offset, boxsize=2.0 * offset)

    # the hit codes of each block of landings, cut to their first code per
    # pair, and merged as they grow (see above)
    truncated = np.zeros(n_nodes, dtype=bool)
    kept, held, merged = [np.zeros(0, dtype=np.int64)], 0, 0
    for part in parts:
        frames, trunc = _propagate_family(
            system, centers[sources], control_family[part], h, n_steps, snap,
            lo_inf, hi_inf, window.box)
        truncated[sources] |= trunc.any(axis=0)
        for t_idx, (rows, landed) in enumerate(frames):
            radii = np.concatenate([np.zeros(0)] + [
                window.query_radii(landed[lo:lo + STEP_BLOCK], cut)
                for lo in range(0, rows.size, STEP_BLOCK)])
            reach = np.cumsum(window.ball_cells(radii))
            lo = 0
            while lo < rows.size:
                hi = max(lo + 1, int(np.searchsorted(
                    reach, PAIR_LIMIT + (reach[lo - 1] if lo else 0),
                    side="right")))
                owner, dst = _block_hits(system.group, tree, offset, centers,
                                         landed[lo:hi], radii[lo:hi], cut)
                u_of, start_of = np.divmod(rows[lo:hi][owner], sources.size)
                kept.append(_first_per_pair(
                    (sources[start_of] * n_nodes + dst) * n_w
                    + (part.start + u_of) * n_t + t_idx, n_w))
                held += kept[-1].size
                if _merge_due(held, merged):
                    kept = [_merge_codes(kept, n_w)]
                    held = merged = kept[0].size
                lo = hi
    del frames
    # the sorted codes are CSR rows, and row a starts at the first code of
    # src a
    code = _merge_codes(kept, n_w)
    del kept
    indptr = np.searchsorted(code, np.arange(n_nodes + 1) * (n_nodes * n_w))
    witness = (code % n_w).astype(np.min_scalar_type(n_w - 1))
    code //= n_w
    code %= n_nodes
    dst = code.astype(np.int32)
    # a node's truncation flag is its slice source's
    truncated = truncated[base]

    return ChainGraph(
        window=window, eps=float(eps), tau=float(tau), radius=float(radius),
        control_family=control_family, time_samples=times_used,
        snapshot_steps=snap, step=h, n_steps=n_steps,
        indptr=indptr, dst=dst, witness=witness,
        truncated=truncated, inflated_lower=lo_inf, inflated_upper=hi_inf)


@dataclass
class ChainControlSetApprox:
    """One extracted chain control set candidate."""

    nodes: np.ndarray
    internal_edges: int
    extents: np.ndarray
    contains_identity: bool
    contains_central_fiber: bool
    boundary_touch: np.ndarray  # (n_box, 2) low/high per box coordinate

    @property
    def touches_boundary(self):
        return bool(self.boundary_touch.any())

    @property
    def size(self):
        return int(self.nodes.size)


def level_extents(algebra, x):
    """Per-level sup of graded component norms over the rows of x."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    graded = x @ algebra.frame
    out = np.zeros(algebra.nilpotency_class)
    if len(x):
        for i, sl in enumerate(algebra.level_slices):
            out[i] = float(np.max(np.linalg.norm(graded[:, sl], axis=-1)))
    return out


def central_fiber_nodes(window):
    """Nodes closest to x = 0 within every compact-coordinate combination.

    For each combination of circle-axis indices (torus and angular nilpotent
    alike) the cells minimizing the box-coordinate norm are kept, ties
    within FIBER_TOL included.  Every combination carries the same box
    coordinates (GridWindow), so each one's minimum is the global one.  With
    no circle axes this is just the cells nearest the origin.
    """
    r = np.linalg.norm(window.points[:, window.box], axis=1)
    return np.flatnonzero(r <= r.min() + FIBER_TOL)


def extract_chain_sets(graph):
    """Strongly connected components with at least one internal edge.

    The internal-edge requirement is the discrete stand-in for carrying a
    full trajectory; self-loops count.  Sets come back ordered by their
    smallest node index with per-level extents and containment flags.

    With each edge s -> d read as s -> base(d) carrying the voltage cyc(d)
    in A, the slice is a voltage graph and the lift its derived graph
    (Gross, "Voltage graphs", Discrete Math. 9, 1974).  In a strong
    component C of the slice, potentials p along a BFS tree give each edge
    a defect p(s) + cyc(d) - p(base(d)); the defects generate C's net
    voltage group H_C.  Node base + c of the lift lies in the component of
    the coset c - p(base) + H_C, with e_C |H_C| internal edges.
    """
    if graph.n_edges == 0:
        return []
    window, n, n_a = graph.window, graph.n_nodes, graph.window.n_shifts
    sizes = window.shift_sizes
    # A numbered in C order over sizes: element a has indices elements[a]
    place = np.cumprod(sizes[::-1])[::-1] // sizes
    elements = np.arange(n_a)[:, None] // place % sizes
    base, cyc = window.shift_split(np.arange(n))
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    tgt = base[graph.dst]
    adj = csr_matrix((np.ones(tgt.size, dtype=np.int8), tgt, graph.indptr),
                     shape=(n, n))
    _, label = connected_components(adj, directed=True, connection="strong")
    inner = label[src] == label[tgt]
    src, tgt = src[inner], tgt[inner]
    # take gathers the rows of 2-D arrays, several times faster than fancy
    # indexing
    volt = cyc.take(graph.dst[inner], axis=0)

    # a BFS forest: node n roots every component at its first node, and
    # only edges within a component are followed; then the potentials, the
    # voltage sums from the root along the tree, by pointer doubling
    _, roots = np.unique(label, return_index=True)
    forest = csr_matrix((np.ones(src.size + roots.size), (
        np.append(src, np.full(roots.size, n)), np.append(tgt, roots))),
        shape=(n + 1, n + 1))
    pred = breadth_first_order(forest, n)[1].astype(np.int64)
    pred[n] = n
    # any edge pred(v) -> v is a tree edge for v
    on_tree = src == pred[tgt]
    pot = np.zeros((n + 1, sizes.size), dtype=np.int64)
    pot[tgt[on_tree]] = volt[on_tree]
    while np.any(pred != n):
        pot = (pot + pot.take(pred, axis=0)) % sizes
        pred = pred[pred]
    defect = (pot.take(src, axis=0) + volt
              - pot.take(tgt, axis=0)) % sizes @ place

    # coset[r][a]: the smallest element of a + H, one row per component with
    # a nonzero defect; row 0 is H = {0}
    coset, row_of = [np.arange(n_a)], np.zeros(n, dtype=np.int64)
    gens = np.unique((label[src] * n_a + defect)[defect != 0])
    comps, first = np.unique(gens // n_a, return_index=True)
    for c, comp_gens in zip(comps, np.split(gens % n_a, first[1:])):
        low = coset[0]
        for g in comp_gens:
            if low[g]:  # g is not in H yet
                # the minimum over a + k g, k < 2, 4, 8, ... up to the cycle
                step = (elements + elements[g]) % sizes @ place
                for _ in range(n_a.bit_length()):
                    low = np.minimum(low, low[step])
                    step = step[step]
        row_of[c] = len(coset)
        coset.append(low)
    coset = np.stack(coset)
    e_c = (np.bincount(label[src], minlength=n)
           * np.count_nonzero(coset == 0, axis=1)[row_of])
    label = label[base]
    keys, label = np.unique(label * n_a + coset[
        row_of[label], (cyc - pot.take(base, axis=0)) % sizes @ place],
        return_inverse=True)
    counts = e_c[keys // n_a]
    # each component's members in node order, from one stable sort; sets
    # are ordered by their smallest node, never by library internals
    size = np.bincount(label)
    members = np.argsort(label, kind="stable")
    starts = np.cumsum(size) - size
    kept = np.flatnonzero(counts)
    kept = kept[np.argsort(members[starts[kept]])]

    group = graph.window.group
    fiber = central_fiber_nodes(graph.window)
    identity_nodes = graph.window.identity_cells()
    sets = []
    for c in kept:
        comp = members[starts[c]:starts[c] + size[c]]
        # circle coordinates carry no level extent
        x = np.where(graph.window.box, graph.window.points[comp],
                     0.0)[:, group.h_dim:]
        extents = level_extents(group.algebra, x)
        member = np.zeros(n, dtype=bool)
        member[comp] = True
        layer = graph.window.boundary_layer(comp)
        sets.append(ChainControlSetApprox(
            nodes=comp,
            internal_edges=int(counts[c]),
            extents=extents,
            contains_identity=bool(member[identity_nodes].any()),
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
    """Per-level decay record of the graded diagonal blocks at one tau, and
    the bound formed from it (theoretical_bound).

    kappa and mu hold each level's decay constants, NaN on a level whose
    block is not hyperbolic, where notes holds the reason (None on the
    others).  contraction holds kappa_i e^{-tau mu_i}.  refusal is the line
    that refuses the bound, or None.  c_estimates and bounds are None until
    the bound is formed.
    """

    kappa: np.ndarray
    mu: np.ndarray
    notes: list
    contraction: np.ndarray
    refusal: str
    c_estimates: np.ndarray = None
    bounds: np.ndarray = None

    @property
    def hyperbolic(self):
        """Every graded diagonal block is hyperbolic."""
        return all(note is None for note in self.notes)


def decay_certificate(system, tau):
    """The decay record of every graded level at tau, refused or not.

    decay_constants runs once per graded diagonal block.  A block that is
    not hyperbolic refuses the bound as an unbounded direction (the first
    such level's note); else a contraction of at least 1 refuses it as too
    short a tau.  The record reads only the drift and tau, so a run asks for
    it before it estimates any source constant.
    """
    if tau <= 0:
        raise ValidationError("tau must be positive")
    levels = system.algebra.nilpotency_class
    kappa, mu = np.full((2, levels), np.nan)
    notes = [None] * levels
    for i in range(levels):
        try:
            dec = decay_constants(system.blocks.block(i + 1, i + 1))
        except NotHyperbolicError as exc:
            notes[i] = str(exc)
            continue
        kappa[i], mu[i] = dec["kappa"], dec["mu"]
    contraction = kappa * np.exp(-tau * mu)
    flat = [note for note in notes if note is not None]
    refusal = f"unbounded direction detected: {flat[0]}" if flat else None
    if not flat and np.any(contraction >= 1.0):
        bad = int(np.argmax(contraction)) + 1
        refusal = (f"no contraction at this tau: kappa e^(-tau mu) = "
                   f"{contraction[bad - 1]:.6f} >= 1 at level {bad}; "
                   f"increase tau")
    return LevelBounds(kappa=kappa, mu=mu, notes=notes,
                       contraction=contraction, refusal=refusal)


def theoretical_bound(certificate, c_estimates):
    """The record with the C_i and the per-level bound
    B_i = 2 C_i (1 + kappa_i/mu_i) / (1 - kappa_i e^{-tau mu_i}) filled in.

    A refused record (decay_certificate) has no bound.  The C_i are
    empirical source suprema (see estimate_source_constants), so the result
    is a diagnostic, not a certificate.
    """
    if certificate.refusal is not None:
        raise ValidationError(f"no bound: {certificate.refusal}")
    c_estimates = np.asarray(c_estimates, dtype=float)
    if c_estimates.shape != certificate.kappa.shape or np.any(c_estimates < 0):
        raise ValidationError("need one nonnegative source constant per level")
    d_i = c_estimates * (1.0 + certificate.kappa / certificate.mu)
    return replace(certificate, c_estimates=c_estimates,
                   bounds=2.0 * d_i / (1.0 - certificate.contraction))


def estimate_source_constants(system, window, tau, control_family=None):
    """Empirical per-level source constants C_i for theoretical_bound.

    Integrates the family of constant controls over [0, 2*tau] from one
    copy of the central fiber's box cells (index 0 on every circle axis; at
    most 2 tied cells per box axis), truncating runs that leave the window,
    and records the sup of each level's source term (the level component of
    the velocity minus its diagonal-block part) every fifth step.  The other
    copies add nothing: a run's box coordinates never read its start's
    circle coordinates (an angle enters only h = h_a + h_g; a masked circle
    is central, fixed by the action and annihilated by D), the source term
    zeroes the circle columns, and truncation tests box coordinates only.
    The action norm sup over the torus cells (`action_norm_sup`) is added
    per the bound's jump-size constant.  The frames of a control slice are
    joined and evaluated STEP_BLOCK rows at a time: one field pass, two
    matmuls and the per-level norms per block.  The runs read the system's
    drift-flow powers and anchor table (`_anchor_table`), which the graph
    build of the same run has built when its control slice is the same.
    """
    group = system.group
    alg = system.algebra
    if control_family is None:
        control_family = system.range.sample_family()
    control_family = np.atleast_2d(np.asarray(control_family, dtype=float))
    seeds = central_fiber_nodes(window)
    seeds = seeds[~window.axis_indices(seeds)[:, ~window.box].any(axis=1)]
    starts = window.points[seeds]

    h, n_steps = _step_grid(system, tau)
    steps = range(0, n_steps + 1, 5)
    sup = np.zeros(alg.nilpotency_class)
    box = window.box
    for part in _control_slices(len(control_family),
                                 len(starts) * len(steps), n_steps):
        family = control_family[part]
        frames, _ = _propagate_family(
            system, starts, family, h, n_steps, steps, window.lower[box],
            window.upper[box], box)
        joined_rows, joined_pts = map(np.concatenate, zip(*frames))
        for lo in range(0, len(joined_rows), STEP_BLOCK):
            rows = joined_rows[lo:lo + STEP_BLOCK]
            pts = joined_pts[lo:lo + STEP_BLOCK]
            # circle coordinates carry no level extent
            x = np.where(box, pts, 0.0)[:, group.h_dim:]
            xdot = np.where(box, system.field(family[rows // len(starts)], pts),
                            0.0)[:, group.h_dim:]
            graded_x = x @ alg.frame
            graded_v = xdot @ alg.frame
            for i, sl in enumerate(alg.level_slices):
                b = system.blocks.block(i + 1, i + 1)
                src = graded_v[:, sl] - graded_x[:, sl] @ b.T
                sup[i] = max(sup[i],
                             float(np.max(np.linalg.norm(src, axis=-1))))

    return sup + action_norm_sup(window)


def action_norm_sup(window):
    """max(1, sup |rho(h)|_2) over every torus-angle cell center h of the
    window: the product of the torus axes' grids, ACTION_BLOCK at a time."""
    group = window.group
    if not group.h_dim:
        return 1.0
    # the centers at index 0 on every nilpotent axis, one per torus cell,
    # and of each its torus coordinates
    angles = window.points.reshape(*window.shape, group.dim)[
        (slice(None),) * group.h_dim + (0,) * group.x_dim
        + (slice(None, group.h_dim),)].reshape(-1, group.h_dim)
    c_norm = 1.0
    for lo in range(0, len(angles), ACTION_BLOCK):
        mats = group.action.matrix(angles[lo:lo + ACTION_BLOCK])
        c_norm = max(c_norm, float(np.max(np.linalg.norm(
            mats, 2, axis=(-2, -1)))))
    return c_norm


# -- structured output -------------------------------------------------------


def write_nodes_csv(path, graph, sets):
    """Node table: index, coordinates, component id (-1 if in no set).

    csv.writer's bytes (no field needs quoting), built per column: each
    axis's cell centers and each (set_id, truncated) tail are formatted
    once, and the rows are joined from per-column arrays of strings.
    np.unique merges 0.0 and -0.0, but a cell center, lower plus a positive
    product, is never -0.0."""
    window = graph.window
    member = np.full(window.n_nodes, -1, dtype=np.int64)
    for i, s in enumerate(sets):
        member[s.nodes] = i
    rows = np.arange(window.n_nodes).astype(str).astype(object)
    for column in window.points.T:
        values, at = np.unique(column, return_inverse=True)
        rows += np.array([f",{v:.12g}" for v in values], dtype=object)[at]
    rows += np.array([f",{i},{t}\r\n" for i in range(-1, len(sets))
                      for t in (0, 1)], dtype=object)[
        2 * (member + 1) + graph.truncated]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["node"] + window.group.coordinate_names()
                                + ["set_id", "truncated"])
        fh.write("".join(rows.tolist()))


def write_edges_csv(path, graph):
    """Edge table of the stored rows with the (u, T) witness of each edge:
    csv.writer's bytes (no field needs quoting).  With symmetric axes these
    are the slice's rows, and each row src,dst,w... stands for the rows
    src+c,dst+c,w... of every shift c in A; with none they are the whole
    graph.  Rows go out in blocks of whole source rows,
    about EDGE_CHUNK edges each.  Each node name and witness tail is
    formatted once; a row is its edges' target name and tail pieces, joined
    with its source name and comma."""
    names = np.array([str(i).encode() for i in range(graph.n_nodes)],
                     dtype=object)
    tails = np.array([
        ("," + ",".join([*(f"{v:.12g}" for v in u), f"{t:.12g}"])
         + "\r\n").encode()
        for u in graph.control_family for t in graph.time_samples],
        dtype=object)
    indptr = graph.indptr
    u_names = [f"u{j}" for j in range(graph.control_family.shape[1])]
    with open(path, "wb") as fh:
        fh.write((",".join(["src", "dst", *u_names, "T"]) + "\r\n").encode())
        lo = 0
        while lo < graph.n_nodes:
            hi = max(lo + 1, int(np.searchsorted(
                indptr, indptr[lo] + EDGE_CHUNK, side="right")) - 1)
            block = slice(indptr[lo], indptr[hi])
            pieces = (names[graph.dst[block]]
                      + tails[graph.witness[block]]).tolist()
            ends = (indptr[lo + 1:hi + 1] - indptr[lo]).tolist()
            rows, at = [], 0
            for name, end in zip(names[lo:hi].tolist(), ends):
                if end > at:
                    prefix = name + b","
                    rows.append(prefix + prefix.join(pieces[at:end]))
                    at = end
            fh.write(b"".join(rows))
            lo = hi


def sets_to_records(sets, bounds=None):
    """JSON-ready descriptions of extracted sets, each held to the per-level
    bounds when given."""
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
            rec["bounds"] = [float(v) for v in bounds]
            rec["within_bounds"] = bool(np.all(s.extents <= bounds))
        records.append(rec)
    return records


def write_sets_jsonl(path, sets, bounds=None):
    with open(path, "w") as fh:
        for rec in sets_to_records(sets, bounds):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_plot_slice(path, graph, chain_set, columns=(0, 1)):
    """2D or 3D coordinate slice of a set's member cells, for plotting.

    csv.writer's bytes (no field needs quoting), built per column as in
    write_nodes_csv: each distinct value of a column is formatted once.
    np.unique merges 0.0 and -0.0 (one would print as the other), but a
    cell center, lower plus a positive product, is never -0.0."""
    if len(columns) not in (2, 3):
        raise ValidationError("plot slices are 2D or 3D")
    dim = graph.window.points.shape[1]
    if any(c < 0 or c >= dim for c in columns):
        raise ValidationError(f"slice columns {columns} outside dimension {dim}")
    pts = graph.window.points[chain_set.nodes][:, list(columns)]
    rows = np.full(len(pts), "", dtype=object)
    for j, column in enumerate(pts.T):
        values, at = np.unique(column, return_inverse=True)
        sep = "," if j else ""
        rows += np.array([f"{sep}{v:.12g}" for v in values], dtype=object)[at]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([f"c{j}" for j in columns])
        fh.write("".join((rows + "\r\n").tolist()))
