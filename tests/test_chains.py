import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from chaincontrol import chains
from chaincontrol import config as cfg
from chaincontrol import verify
from chaincontrol.algebra import NilpotentAlgebra, preset_structure
from chaincontrol.cli import main
from chaincontrol.chains import (
    ANCHOR_ROW_LIMIT,
    EDGE_CHUNK,
    FIBER_TOL,
    PAIR_LIMIT,
    ChainControlSetApprox,
    ChainGraph,
    GridWindow,
    LevelBounds,
    _bch_linear_part,
    _block_hits,
    _control_slices,
    _default_time_samples,
    _propagate_family,
    _step_grid,
    _translate,
    action_norm_sup,
    build_chain_graph,
    central_fiber_nodes,
    decay_certificate,
    estimate_source_constants,
    extract_chain_sets,
    level_extents,
    theoretical_bound,
    write_edges_csv,
    write_nodes_csv,
    write_plot_slice,
    write_sets_jsonl,
)
from chaincontrol.errors import ValidationError
from chaincontrol.group import RhoAction, SemidirectGroup
from chaincontrol.lcs import ControlRange, LinearControlSystem, _rk4_step
from chaincontrol.spectral import power_stack

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def scalar_system(rate):
    alg = NilpotentAlgebra(preset_structure("abelian:1"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    return LinearControlSystem(group, [[rate]], [[1.0]],
                               ControlRange([-1.0], [1.0]))


def scalar_window(system, half=2.0, delta=0.05):
    return GridWindow(system.group, [-half], [half], [delta])


def lift_rows(src, dst, sizes, strides):
    """The lift of rows src -> dst by the shifts c of A, from the rule alone:
    each row once per c, both ends moved by c (index v // stride % size to
    (index + c_a) % size on each axis), in CSR order, with each one's row."""
    ends = np.stack([src, dst]).astype(np.int64)
    moved = []
    for c in np.ndindex(*sizes):
        v = ends.copy()
        for k, size, stride in zip(c, sizes, strides):
            at = v // stride % size
            v += ((at + k) % size - at) * stride
        moved.append(v)
    src, dst = np.concatenate(moved, axis=1)
    order = np.lexsort((dst, src))
    return src[order], dst[order], order % ends.shape[1]


def stored_columns(graph):
    """(src, dst, u, t) per stored edge (the slice rows), in CSR order, each
    witness code split into its control and snapshot indices."""
    src = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    u, t = np.divmod(graph.witness.astype(np.int64), len(graph.snapshot_steps))
    return src, graph.dst, u, t


def edge_columns(graph):
    """`stored_columns` of the graph's lift (`lift_rows`)."""
    src, dst, u, t = stored_columns(graph)
    src, dst, row = lift_rows(src, dst, graph.window.shift_sizes.tolist(),
                              graph.window.shift_strides.tolist())
    return src, dst, u[row], t[row]


def with_edges(graph, src, dst, witness):
    """graph with other edges, given in order of their sources: indptr is
    rebuilt from those."""
    indptr = np.searchsorted(src, np.arange(graph.n_nodes + 1))
    return dataclasses.replace(graph, indptr=indptr, dst=dst, witness=witness)


def wrapped_gap(window, a, b):
    """Norm of the per-axis differences a - b, the circle axes wrapped into
    [-pi, pi): the metric of the graph's periodic kd-tree."""
    d = a - b
    circle = ~window.box
    d[:, circle] = (d[:, circle] + np.pi) % (2.0 * np.pi) - np.pi
    return np.linalg.norm(d, axis=1)


def edge_pairs(graph):
    src, dst, _, _ = edge_columns(graph)
    return set(zip(src.tolist(), dst.tolist()))


# Sampled durations used by the scalar reference runs.  The lower sample
# must stay in (1.263, 1.391): below that fringe cells of the contracting
# case keep a self-loop, above it the expanding case loses the bridge onto
# its outermost cells.
SCALAR_TIMES = [1.35, 2.0]


@pytest.fixture(scope="module")
def stable_setup():
    system = scalar_system(-1.0)
    window = scalar_window(system)
    graph = build_chain_graph(system, window, eps=0.1, tau=1.0,
                              time_samples=SCALAR_TIMES)
    return system, window, graph


@pytest.fixture(scope="module")
def unstable_setup():
    system = scalar_system(1.0)
    window = scalar_window(system)
    graph = build_chain_graph(system, window, eps=0.1, tau=1.0,
                              time_samples=SCALAR_TIMES)
    return system, window, graph


# -- grid window -------------------------------------------------------------


def test_grid_window_centers():
    system = scalar_system(-1.0)
    window = scalar_window(system)
    assert window.n_nodes == 80
    pts = window.points[:, 0]
    assert pts[0] == pytest.approx(-1.975)
    assert pts[-1] == pytest.approx(1.975)
    assert np.allclose(np.diff(pts), 0.05)
    # half diameter of a 1d cell is half the spacing, plus the safety pad
    assert window.half_diameter == pytest.approx(0.0255, abs=1e-9)


def test_grid_window_validation():
    system = scalar_system(-1.0)
    group = system.group
    with pytest.raises(ValidationError):
        GridWindow(group, [-1.0], [1.0], [0.3])  # cells do not tile the span
    with pytest.raises(ValidationError):
        GridWindow(group, [-1.0], [1.0], [-0.1])
    with pytest.raises(ValidationError):
        GridWindow(group, [1.0], [1.0], [0.1])  # empty extent
    with pytest.raises(ValidationError):
        GridWindow(group, [-1.0], [1.0], [0.1], angle_cells=(8,))


def test_grid_window_boundary_layer():
    system = scalar_system(-1.0)
    window = scalar_window(system)
    layer = window.boundary_layer()
    assert layer.shape == (80, 1, 2)
    assert layer[0, 0, 0] and not layer[0, 0, 1]
    assert layer[-1, 0, 1] and not layer[-1, 0, 0]
    assert not layer[1:-1].any()


def test_identity_and_fiber_cells_scalar():
    system = scalar_system(-1.0)
    window = scalar_window(system)
    ids = window.identity_cells()
    # centers at +-0.025 straddle the origin, both within half a cell
    assert list(window.points[ids, 0]) == pytest.approx([-0.025, 0.025])
    assert np.array_equal(central_fiber_nodes(window), ids)


def test_central_fiber_nodes_torus():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, [ROT]))
    window = GridWindow(group, [-1.0, -1.0], [1.0, 1.0], [0.5, 0.5],
                        angle_cells=(8,))
    fiber = central_fiber_nodes(window)
    # four x-cells tie for the minimal norm in each of the 8 angle cells
    assert fiber.size == 32
    theta_idx = window.axis_indices(fiber)[:, 0]
    assert set(theta_idx.tolist()) == set(range(8))
    x = window.points[fiber][:, 1:]
    assert np.allclose(np.abs(x), 0.25)


def _skewed_rotation(n):
    """S ROT S^-1 on the first plane with S = diag(1, 3), zero elsewhere: a
    torus generator whose rho(h) stretches by up to 3."""
    g = np.zeros((n, n))
    g[:2, :2] = np.diag([1.0, 3.0]) @ ROT @ np.diag([1.0, 1.0 / 3.0])
    return g


def _radii_case(name):
    if name == "conjugation-upstairs":
        return cfg.build_system(cfg.preset_config(name)).group
    if name.startswith("skewed-"):
        alg = NilpotentAlgebra(preset_structure(name.removeprefix("skewed-")))
        action = RhoAction(alg, [_skewed_rotation(alg.dim)])
        return SemidirectGroup(alg, action)
    alg = NilpotentAlgebra(preset_structure(name))
    return SemidirectGroup(alg, RhoAction(alg, []))


@pytest.mark.parametrize("name", sorted(cfg.PRESETS))
def test_symmetric_axes_of_presets(name):
    # axes: torus angles, then one per nilpotent coordinate.  Both circle
    # presets have a skew torus angle (axis 0); conjugation-upstairs adds
    # its masked central circle x2 (axis 3).  The rest have no circle.
    c = cfg.preset_config(name)
    window = cfg.build_window(c, cfg.build_system(c))
    want = {"rotation-plane": (0,), "conjugation-upstairs": (0, 3)}
    assert window.symmetric_axes == want.get(name, ())


# conjugation-upstairs with its torus generator skewed, 4 cells on every
# axis: x2 stays a masked circle, the torus angle is no symmetry
SKEWED_MASKED_CONFIG = copy.deepcopy(cfg.PRESETS["conjugation-upstairs"])
SKEWED_MASKED_CONFIG["torus"]["generators"] = [_skewed_rotation(3).tolist()]
SKEWED_MASKED_CONFIG["chain"].update(x_lower=[-1.0, -1.0],
                                     x_upper=[1.0, 1.0], delta=[0.5, 0.5],
                                     angle_cells=[4, 4])


def _preset_case(name, angle_cells=None):
    """(config, system, window) of a preset, or of SKEWED_MASKED_CONFIG for
    "skewed-masked", with angle_cells changed when given."""
    raw = copy.deepcopy(SKEWED_MASKED_CONFIG if name == "skewed-masked"
                        else cfg.PRESETS[name])
    if angle_cells is not None:
        raw["chain"]["angle_cells"] = angle_cells
    c = cfg.parse_config(raw)
    system = cfg.build_system(c)
    return c, system, cfg.build_window(c, system)


def test_symmetric_axes_skip_a_skewed_torus():
    # rho(h) of a skewed generator is not orthogonal, so its torus axis
    # stays out; the masked circle x2 stays in
    _, _, window = _preset_case("skewed-masked")
    assert window.box.tolist() == [False, True, True, False]
    assert window.symmetric_axes == (3,)


def test_symmetric_axes_are_fixed_at_construction():
    # a graph lifts around its window's shift group, which nothing can
    # change after the build
    _, window, graph = _small_graph("rotation-plane-small")
    with pytest.raises(AttributeError):
        window.symmetric_axes = ()
    assert window.symmetric_axes == (0,)
    assert graph.n_edges == graph.dst.size * 16


def _fiber_by_search(window):
    """The central fiber searched per combination of circle indices: the
    cells within FIBER_TOL of the least box-coordinate norm of their own
    combination."""
    r = np.linalg.norm(window.points[:, window.box], axis=1)
    idx = window.axis_indices()
    key = np.zeros(window.n_nodes, dtype=np.int64)
    for a in np.flatnonzero(~window.box):
        key = key * window.shape[a] + idx[:, a]
    best = np.full(int(key.max()) + 1, np.inf)
    np.minimum.at(best, key, r)
    return np.flatnonzero(r <= best[key] + FIBER_TOL)


@pytest.mark.parametrize("name", [*sorted(cfg.PRESETS), "skewed-masked"])
def test_central_fiber_matches_the_per_combination_search(name):
    _, _, window = _preset_case(name)
    assert np.array_equal(central_fiber_nodes(window),
                          _fiber_by_search(window))


@pytest.mark.parametrize("name", ["skewed-abelian:2", "skewed-heisenberg3",
                                  "filiform4", "filiform5",
                                  "conjugation-upstairs"])
@pytest.mark.parametrize("cut", [0.3, 2.0])
def test_query_radii_cover_group_balls(name, cut):
    # every b = a z with |z| <= cut lies within the query radius of a, the
    # circle axes wrapped, for landings a far from the identity (|x_a| up to
    # 10, where the class-3 and class-4 terms of the radius dominate)
    group = _radii_case(name)
    window = GridWindow(group, -1.0, 1.0, 0.5,
                        angle_cells=(4,) * int(group.angular_mask.sum()))
    rng = np.random.default_rng(17)
    n = 20_000
    x_a = rng.standard_normal((n, group.x_dim))
    x_a *= rng.uniform(0.0, 10.0, (n, 1)) / np.linalg.norm(x_a, axis=1,
                                                          keepdims=True)
    a = group.normalize(np.hstack([rng.uniform(-np.pi, np.pi,
                                               (n, group.h_dim)), x_a]))
    # z on the sphere |h_z| + |x_z| = s cut, s in (0, 1]
    w = rng.standard_normal((n, group.dim))
    h_z, x_z = group.split(w)
    share = rng.uniform(0.0, 1.0, (n, 1)) if group.h_dim else np.zeros((n, 1))
    size = cut * rng.uniform(0.0, 1.0, (n, 1)) ** 0.25
    z = np.hstack([
        share * size * h_z / np.maximum(np.linalg.norm(h_z, axis=1,
                                                       keepdims=True), 1e-300),
        (1.0 - share) * size * x_z / np.linalg.norm(x_z, axis=1,
                                                    keepdims=True)])
    b = group.multiply(a, z)
    assert np.all(group.distance(a, b) <= cut * (1.0 + 1e-9))
    radii = window.query_radii(a, cut)
    assert np.all(radii >= cut)
    gap = wrapped_gap(window, a, b)
    assert np.all(gap <= radii), float(np.max(gap / radii))


def first_order_radii(window, landed, cut):
    """The query radii from the first-order factor of the linear BCH part,
    1 + A/2 + [k>=3] A^2/12 (A = |ad(x_a)|_F) in place of |L_a|_2."""
    group = window.group
    alg = group.algebra
    k = alg.nilpotency_class
    rho = float(np.linalg.cond(group.action.basis))
    ky = float(np.linalg.norm(alg.structure)) * rho * cut
    a = np.linalg.norm(alg.ad(group.split(landed)[1]), axis=(-2, -1))
    f = 1.0 + a / 2.0 + (k >= 3) * a * (a + ky) / 12.0 \
        + (k >= 4) * a * a * ky / 24.0
    return rho * f * cut * (1.0 + 1e-9)


@pytest.mark.parametrize("name", ["abelian:2", "skewed-abelian:2",
                                  "heisenberg3", "skewed-heisenberg3",
                                  "filiform4", "filiform5",
                                  "conjugation-upstairs"])
def test_spectral_radii_never_exceed_the_first_order_factor(name):
    # |L_a|_2 <= 1 + |ad(x_a)|_2/2 + |ad(x_a)|_2^2/12 and the spectral norm
    # is at most the Frobenius one, on landings of classes 1-4 with |x_a| up
    # to 10 and at the identity, where both factors are 1; on an abelian
    # algebra L_a = I and the radii do not move
    group = _radii_case(name)
    window = GridWindow(group, -1.0, 1.0, 0.5,
                        angle_cells=(4,) * int(group.angular_mask.sum()))
    rng = np.random.default_rng(19)
    n = 20_000
    x_a = rng.standard_normal((n, group.x_dim))
    x_a *= rng.uniform(0.0, 10.0, (n, 1)) / np.linalg.norm(x_a, axis=1,
                                                          keepdims=True)
    x_a[0] = 0.0
    a = group.normalize(np.hstack([rng.uniform(-np.pi, np.pi,
                                               (n, group.h_dim)), x_a]))
    cut = 0.9
    radii = window.query_radii(a, cut)
    old = first_order_radii(window, a, cut)
    assert np.all(radii <= old)
    assert radii[0] == old[0]
    if group.algebra.nilpotency_class == 1:
        assert np.array_equal(radii, old)
    else:
        assert np.median(radii / old) < 0.95


@pytest.mark.parametrize("name", ["abelian:2", "heisenberg3", "filiform4",
                                  "filiform5", "conjugation-upstairs"])
def test_query_radii_of_a_snapshot_with_no_live_row(name):
    # a snapshot after every run has left the window holds no landing: the
    # batched spectral norm meets an empty stack and gives no radius
    group = _radii_case(name)
    window = GridWindow(group, -1.0, 1.0, 0.5,
                        angle_cells=(4,) * int(group.angular_mask.sum()))
    radii = window.query_radii(np.zeros((0, group.dim)), 0.5)
    assert radii.shape == (0,)


def svd_radii(window, landed, cut):
    """query_radii's general form on every algebra: |L_a|_2 from a batched
    SVD per landing, with the class-3 and class-4 terms."""
    group = window.group
    alg = group.algebra
    k = alg.nilpotency_class
    rho = float(np.linalg.cond(group.action.basis))
    ky = float(np.linalg.norm(alg.structure)) * rho * cut
    ad = alg.ad(group.split(landed)[1])
    a = np.linalg.norm(ad, axis=(-2, -1))
    f = np.linalg.norm(_bch_linear_part(alg, ad), 2, axis=(-2, -1)) \
        + (k >= 3) * a * ky / 12.0 + (k >= 4) * a * a * ky / 24.0
    return rho * f * cut * (1.0 + 1e-9)


@pytest.mark.parametrize("name", ["abelian:2", "skewed-abelian:2",
                                  "conjugation-upstairs", "heisenberg3",
                                  "filiform4"])
def test_abelian_radii_keep_the_bits_of_the_svd_form(name):
    # ad(x_a) = 0 on an abelian algebra, so L_a = I and every radius is
    # rho cut (1 + 1e-9) with no SVD; the other classes take the SVD form
    group = _radii_case(name)
    window = GridWindow(group, -1.0, 1.0, 0.5,
                        angle_cells=(4,) * int(group.angular_mask.sum()))
    rng = np.random.default_rng(29)
    a = group.normalize(np.hstack([
        rng.uniform(-np.pi, np.pi, (3000, group.h_dim)),
        5.0 * rng.standard_normal((3000, group.x_dim))]))
    for cut in (0.3, 0.9, 2.0):
        radii = window.query_radii(a, cut)
        assert radii.shape == (3000,)
        assert np.array_equal(radii, svd_radii(window, a, cut))


def test_spectral_radii_cut_candidates_not_edges(monkeypatch):
    # on the graph-expanding bench input the spectral radii take 25,858
    # kd-tree candidates where the first-order factor took 43,706; the
    # exact distance decides the same 10,446 edges, every graph byte kept
    c, system, window = _coarse_expanding_case()
    counts = []

    class Counting(cKDTree):
        def query_ball_point(self, *args, **kwargs):
            balls = super().query_ball_point(*args, **kwargs)
            counts.append(sum(len(b) for b in balls))
            return balls

    monkeypatch.setattr("chaincontrol.chains.cKDTree", Counting)

    def build():
        counts.clear()
        return build_chain_graph(system, window, c.eps, c.tau,
                                 control_family=c.family,
                                 time_samples=c.times)

    graph = build()
    assert sum(counts) == 25_858
    assert graph.n_edges == 10_446
    digest = hashlib.sha256()
    for part in (graph.indptr, graph.dst, graph.witness, graph.truncated):
        digest.update(part.tobytes())
    assert digest.hexdigest() == \
        "f23e09d51528593de059b44be233dac48cf62983149041267f8668aeae07e3db"
    monkeypatch.setattr(GridWindow, "query_radii", first_order_radii)
    first_order = build()
    assert sum(counts) == 43_706
    for part in ("indptr", "dst", "witness", "truncated"):
        assert np.array_equal(getattr(first_order, part), getattr(graph, part))


@pytest.mark.parametrize("name", ["skewed-abelian:2", "skewed-heisenberg3",
                                  "filiform4", "filiform5",
                                  "conjugation-upstairs"])
def test_translate_matches_group_product(name):
    # the affine map per anchor, plus the quadratic BCH terms of classes 3
    # and 4, is the group product a_b * (h_g, F_b x_g) for any matrices F_b,
    # on every step b of a block, with distinct anchors and flows per step
    group = _radii_case(name)
    rng = np.random.default_rng(23)
    n_b, n_u, n = 3, 5, 400
    anchor = group.normalize(np.concatenate([
        rng.uniform(-np.pi, np.pi, (n_b, n_u, group.h_dim)),
        rng.uniform(-3.0, 3.0, (n_b, n_u, group.x_dim))], axis=-1))
    starts = group.normalize(np.hstack([
        rng.uniform(-np.pi, np.pi, (n, group.h_dim)),
        rng.standard_normal((n, group.x_dim))]))
    flow = np.eye(group.x_dim) + 0.5 * rng.standard_normal(
        (n_b, group.x_dim, group.x_dim))
    u_of = rng.integers(0, n_u, n)
    got = _translate(group, anchor, flow, starts, u_of)
    assert got.shape == (n_b, n, group.dim)
    h_g, x_g = group.split(starts)
    for b in range(n_b):
        want = group.multiply(anchor[b, u_of],
                              group.join(h_g, x_g @ flow[b].T))
        scale = 1.0 + np.linalg.norm(group.split(want)[1], axis=1)
        gap = group.distance(want, got[b])
        assert np.all(gap <= 1e-12 * scale), float(np.max(gap / scale))
    # a row's bits are the same alone, in a block of one step, as among
    # other rows and steps: the affine map runs no matmul over rows
    for r in (0, 7, n - 1):
        alone = _translate(group, anchor[1:2], flow[1:2], starts[r:r + 1],
                           u_of[r:r + 1])
        assert np.array_equal(alone[0, 0], got[1, r])


# -- graph construction ------------------------------------------------------


def test_graph_shape_and_witnesses(stable_setup):
    _, window, graph = stable_setup
    assert graph.n_nodes == 80
    assert graph.n_edges > 0
    src, dst, u, t = edge_columns(graph)
    assert src.shape == dst.shape
    assert np.all(u >= 0)
    assert np.all(u < len(graph.control_family))
    assert np.all(t >= 0)
    assert np.all(t < len(graph.snapshot_steps))
    assert_slice_rows(graph)
    # snapped durations stay inside [tau, 2 tau]
    assert np.all(graph.time_samples >= graph.tau - 1e-9)
    assert np.all(graph.time_samples <= 2 * graph.tau + 1e-9)
    assert len(edge_pairs(graph)) == graph.n_edges


def assert_slice_rows(graph):
    """The edge record: CSR row pointers over every node, rows at the slice
    sources only, int32 targets and one unsigned witness code per edge, at
    most 8 bytes per lifted edge in all."""
    base, _ = graph.window.shift_split(np.arange(graph.n_nodes))
    assert graph.indptr.shape == (graph.n_nodes + 1,)
    assert graph.indptr[0] == 0
    assert np.all(np.diff(graph.indptr) >= 0)
    assert np.all(np.diff(graph.indptr)[base != np.arange(graph.n_nodes)]
                  == 0)
    assert graph.indptr[-1] == graph.dst.size
    assert graph.n_edges == graph.dst.size * graph.window.n_shifts
    assert graph.dst.dtype == np.int32
    assert graph.witness.shape == graph.dst.shape
    assert graph.witness.dtype.kind == "u"
    assert np.all(graph.witness < len(graph.control_family)
                  * len(graph.snapshot_steps))
    assert (graph.indptr.nbytes + graph.dst.nbytes + graph.witness.nbytes
            <= 8 * graph.n_edges)


def test_graph_keeps_slice_rows_only():
    # conjugation-upstairs-small: 64 shifts of a torus angle and a masked
    # circle, one slice source in 64
    system, window, graph = _small_graph("conjugation-upstairs-small")
    assert window.n_shifts == 64
    assert_slice_rows(graph)
    assert np.count_nonzero(np.diff(graph.indptr)) <= window.n_nodes // 64
    assert graph.truncated.shape == (window.n_nodes,)
    # the lifted rows are CSR rows: sources in order, targets sorted and
    # distinct within each row, and each node's row is as long as its base's
    src, dst, _, _ = edge_columns(graph)
    assert src.size == graph.n_edges
    key = src * graph.n_nodes + dst
    assert np.all(np.diff(key) > 0)
    base, _ = window.shift_split(np.arange(graph.n_nodes))
    assert np.array_equal(np.bincount(src, minlength=graph.n_nodes),
                          np.diff(graph.indptr)[base])


def test_graph_validation():
    system = scalar_system(-1.0)
    window = scalar_window(system)
    with pytest.raises(ValidationError):
        build_chain_graph(system, window, eps=0.0, tau=1.0)
    with pytest.raises(ValidationError):
        build_chain_graph(system, window, eps=0.1, tau=-1.0)
    with pytest.raises(ValidationError):
        build_chain_graph(system, window, eps=0.1, tau=1.0,
                          control_family=[[2.0]])
    with pytest.raises(ValidationError):
        build_chain_graph(system, window, eps=0.1, tau=1.0,
                          time_samples=[0.5])
    with pytest.raises(ValidationError):
        build_chain_graph(system, window, eps=0.1, tau=1.0,
                          time_samples=[2.5])
    other = scalar_system(1.0)
    with pytest.raises(ValidationError):
        build_chain_graph(other, window, eps=0.1, tau=1.0)


def test_graph_determinism(stable_setup):
    system, window, graph = stable_setup
    again = build_chain_graph(system, window, eps=0.1, tau=1.0,
                              time_samples=SCALAR_TIMES)
    for ours, theirs in zip(edge_columns(graph), edge_columns(again)):
        assert np.array_equal(ours, theirs)


def test_edge_monotone_in_controls_and_times():
    system = scalar_system(-1.0)
    window = GridWindow(system.group, [-1.0], [1.0], [0.1])
    base = build_chain_graph(system, window, eps=0.1, tau=1.0,
                             control_family=[[-1.0], [0.0], [1.0]],
                             time_samples=[1.35])
    more_u = build_chain_graph(system, window, eps=0.1, tau=1.0,
                               time_samples=[1.35])
    more_t = build_chain_graph(system, window, eps=0.1, tau=1.0,
                               control_family=[[-1.0], [0.0], [1.0]],
                               time_samples=SCALAR_TIMES)
    pairs = edge_pairs(base)
    assert pairs <= edge_pairs(more_u)
    assert pairs <= edge_pairs(more_t)


def test_truncation_empties_graph():
    # expanding dynamics on a window strictly right of the equilibria:
    # every run exits the inflated window before the first snapshot
    system = scalar_system(1.0)
    window = GridWindow(system.group, [3.0], [5.0], [0.1])
    graph = build_chain_graph(system, window, eps=0.1, tau=2.0,
                              control_family=[[0.0]])
    assert graph.n_edges == 0
    assert graph.truncated.all()
    assert extract_chain_sets(graph) == []


# -- chain control set extraction -------------------------------------------


def test_scalar_stable_reference_set(stable_setup):
    _, window, graph = stable_setup
    sets = extract_chain_sets(graph)
    assert len(sets) == 1
    s = sets[0]
    pts = window.points[s.nodes, 0]
    assert pts.min() == pytest.approx(-1.125)
    assert pts.max() == pytest.approx(1.125)
    assert s.contains_identity and s.contains_central_fiber
    assert not s.touches_boundary
    assert s.internal_edges > 0
    # hull endpoints approximate the exact region [-1, 1] within eps + 2 delta
    assert abs(pts.min() + 1.0) <= 0.2
    assert abs(pts.max() - 1.0) <= 0.2


def test_scalar_unstable_reference_set(unstable_setup):
    _, window, graph = unstable_setup
    sets = extract_chain_sets(graph)
    assert len(sets) == 1
    s = sets[0]
    pts = window.points[s.nodes, 0]
    assert pts.min() == pytest.approx(-1.025)
    assert pts.max() == pytest.approx(1.025)
    assert s.contains_identity
    assert not s.touches_boundary


def test_scc_partition(stable_setup):
    # hand-made edges on the scalar window: the cycles 70 -> 2 -> 70 and
    # 6 -> 5 -> 6, a self-loop at 40, and a bridge 10 -> 11 with no cycle
    _, _, graph = stable_setup
    src, dst = np.array(sorted([[70, 2], [2, 70], [6, 5], [5, 6], [5, 5],
                                [40, 40], [10, 11], [11, 40]])).T
    sets = extract_chain_sets(with_edges(graph, src, dst, np.zeros_like(dst)))
    assert [s.nodes.tolist() for s in sets] == [[2, 70], [5, 6], [40]]
    assert [s.internal_edges for s in sets] == [2, 3, 1]
    # on a real graph too: each set sorted, the sets disjoint and ordered
    # by their smallest node
    sets = extract_chain_sets(graph)
    for s in sets:
        assert np.all(np.diff(s.nodes) > 0)
    nodes = np.concatenate([s.nodes for s in sets])
    assert len(np.unique(nodes)) == len(nodes)
    starts = [int(s.nodes[0]) for s in sets]
    assert starts == sorted(starts)


def voltage_graph(n_slice, cells, edges):
    """A graph whose slice rows are edges, (s, t, shift) triples: slice
    source s to slice node t moved by shift, one index per circle.  The
    window is a box axis of n_slice cells times one masked circle per entry
    of cells, each a symmetric axis; slice node s is box cell s."""
    alg = NilpotentAlgebra(preset_structure(f"abelian:{1 + len(cells)}"))
    group = SemidirectGroup(alg, RhoAction(alg, []),
                            angular_x_mask=[False] + [True] * len(cells))
    window = GridWindow(group, [0.0], [float(n_slice)], [1.0], cells)
    n_a = window.n_shifts
    # the circle axes are innermost: node t * n_a + shift, in C order
    code = sorted({(s * window.n_nodes + t) * n_a
                   + int(np.ravel_multi_index(shift, cells))
                   for s, t, shift in edges})
    src, dst = np.divmod(np.array(code, dtype=np.int64), window.n_nodes)
    graph = edge_graph(window.n_nodes, src, dst, np.zeros_like(dst),
                       [[0.0]], [1.0])
    return dataclasses.replace(graph, window=window)


@st.composite
def voltage_graphs(draw):
    cells = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
    n_slice = draw(st.integers(1, 5))
    shift = st.tuples(*(st.integers(0, k - 1) for k in cells))
    edge = st.tuples(st.integers(0, n_slice - 1),
                     st.integers(0, n_slice - 1), shift)
    return n_slice, cells, draw(st.lists(edge, max_size=12))


# the explicit cases: one self-loop whose voltage 2 generates the proper
# subgroup {0, 2} of Z_4; a 2-cycle whose voltages add up to (0, 2) in
# Z_2 x Z_4, with a bridge out of it; two loops that generate all of Z_6
# together but neither alone
@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=voltage_graphs())
@example(case=(1, [4], [(0, 0, (2,))]))
@example(case=(3, [2, 4], [(0, 1, (1, 3)), (1, 0, (1, 3)), (1, 2, (0, 1))]))
@example(case=(2, [6], [(0, 0, (2,)), (0, 0, (3,)), (1, 1, (0,))]))
def test_voltage_graph_sets_match_the_explicit_lift(case):
    graph = voltage_graph(*case)
    sets = extract_chain_sets(graph)
    # the lift written out by the rule alone
    src, dst, _, _ = edge_columns(graph)
    assert src.size == graph.n_edges
    n = graph.n_nodes
    adj = csr_matrix((np.ones(src.size), (src, dst)), shape=(n, n))
    _, label = connected_components(adj, directed=True, connection="strong")
    inner = label[src] == label[dst]
    internal = np.bincount(label[src[inner]], minlength=n)
    want = sorted((np.flatnonzero(label == c).tolist(), int(internal[c]))
                  for c in np.flatnonzero(internal))
    assert [(s.nodes.tolist(), s.internal_edges) for s in sets] == want


def test_sixteen_circle_cells_split_into_65_sets():
    # conjugation-upstairs with 16 cells per circle: 256 shifts of 36 slice
    # sources.  4 slice cells with 3 self-loops each lift to 16 sets each,
    # their loops' voltages generating a subgroup of order 16; the rest of
    # the slice lifts to one set of 8,192 nodes
    raw = copy.deepcopy(cfg.PRESETS["conjugation-upstairs"])
    raw["chain"]["angle_cells"] = [16, 16]
    c = cfg.parse_config(raw)
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    graph = build_chain_graph(system, window, c.eps, c.tau)
    assert window.n_shifts == 256
    assert graph.n_edges == 6_653_952
    sets = extract_chain_sets(graph)
    assert len(sets) == 65
    assert sorted((s.size, s.internal_edges) for s in sets) == \
        [(16, 48)] * 64 + [(8192, 5_922_816)]
    nodes = np.concatenate([s.nodes for s in sets])
    assert np.unique(nodes).size == nodes.size == 64 * 16 + 8192


def test_zero_control_collapses_to_origin_cluster():
    # with u = 0 only, the contraction leaves nothing but a cluster of
    # cells around the identity
    system = scalar_system(-1.0)
    window = scalar_window(system)
    graph = build_chain_graph(system, window, eps=0.1, tau=1.0,
                              control_family=[[0.0]],
                              time_samples=SCALAR_TIMES)
    sets = extract_chain_sets(graph)
    assert len(sets) == 1
    s = sets[0]
    assert s.contains_identity
    assert np.max(np.abs(window.points[s.nodes, 0])) < 0.2


def test_eps_shrink_nests_sets(stable_setup):
    system, window, graph = stable_setup
    tight = build_chain_graph(system, window, eps=0.05, tau=1.0,
                              time_samples=SCALAR_TIMES)
    wide_sets = extract_chain_sets(graph)
    tight_sets = extract_chain_sets(tight)
    assert wide_sets and tight_sets
    wide_main = max(wide_sets, key=lambda s: s.size)
    tight_main = max(tight_sets, key=lambda s: s.size)
    assert tight_main.contains_identity
    assert set(tight_main.nodes.tolist()) <= set(wide_main.nodes.tolist())


def test_full_torus_fiber_single_set():
    # free spinning on the circle with a contracting line attached: the
    # unique chain control set covers every angle cell
    alg = NilpotentAlgebra(preset_structure("abelian:1"))
    group = SemidirectGroup(alg, RhoAction(alg, [np.zeros((1, 1))]))
    system = LinearControlSystem(group, [[-1.0]], [[0.0]],
                                 ControlRange([-1.0], [1.0]),
                                 torus_controls=[[1.0]])
    window = GridWindow(group, [-0.5], [0.5], [0.25], angle_cells=(16,))
    graph = build_chain_graph(system, window, eps=0.3, tau=1.0)
    sets = extract_chain_sets(graph)
    assert len(sets) == 1
    s = sets[0]
    assert s.contains_central_fiber
    theta = window.axis_indices(s.nodes)[:, 0]
    assert set(theta.tolist()) == set(range(16))


def test_rotation_plane_small_window():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, [ROT]))
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    system = LinearControlSystem(group, -np.eye(2), z,
                                 ControlRange([-1.0] * 2, [1.0] * 2),
                                 torus_controls=np.array([[1.0], [0.0]]))
    window = GridWindow(group, [-1.0, -1.0], [1.0, 1.0], [0.5, 0.5],
                        angle_cells=(16,))
    graph = build_chain_graph(system, window, eps=0.1, tau=1.0)
    sets = extract_chain_sets(graph)
    assert len(sets) == 1
    s = sets[0]
    # coarse cells make the acceptance radius fat, so the set fills the
    # small window; this checks connectivity across the fibers only
    assert s.contains_central_fiber
    theta = window.axis_indices(s.nodes)[:, 0]
    assert set(theta.tolist()) == set(range(16))


def test_level_extents_heisenberg():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    x = np.array([[0.3, -0.4, 0.0], [0.0, 0.0, 0.7]])
    ext = level_extents(alg, x)
    graded = x @ alg.frame
    s1, s2 = alg.level_slices
    assert ext[0] == pytest.approx(np.max(np.linalg.norm(graded[:, s1], axis=1)))
    assert ext[1] == pytest.approx(np.max(np.linalg.norm(graded[:, s2], axis=1)))


def test_set_extents_skip_the_circle_coordinates():
    # conjugation-upstairs wraps x2 into a circle: a set's extents come from
    # its box coordinates x0 and x1 alone, though its cells spread along x2
    _, window, graph = _small_graph("conjugation-upstairs-small")
    assert window.box.tolist() == [False, True, True, False]
    sets = extract_chain_sets(graph)
    assert sets
    for s in sets:
        pts = window.points[s.nodes]
        assert s.extents[0] == np.max(np.linalg.norm(pts[:, 1:3], axis=1))
        assert np.max(np.abs(pts[:, 3])) > s.extents[0]


def test_level_extents_empty():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    ext = level_extents(alg, np.zeros((0, 3)))
    assert ext.shape == (2,)
    assert np.all(ext == 0.0)


# -- bounds ------------------------------------------------------------------


def test_theoretical_bound_scalar_frozen():
    system = scalar_system(-1.0)
    lb = theoretical_bound(decay_certificate(system, 1.0), [1.0])
    assert lb.kappa[0] == pytest.approx(1.0)
    assert lb.mu[0] == pytest.approx(0.9)
    assert lb.contraction[0] == pytest.approx(np.exp(-0.9))
    # 2 * 1 * (1 + 1/0.9) / (1 - e^{-0.9})
    assert lb.bounds[0] == pytest.approx(7.11497, abs=1e-4)


def test_theoretical_bound_tau_monotone():
    system = scalar_system(-1.0)
    taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [theoretical_bound(decay_certificate(system, t), [1.0]).bounds[0]
            for t in taus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # large tau limit: 2 C (1 + kappa/mu)
    assert vals[-1] == pytest.approx(2 * (1 + 1 / 0.9), rel=1e-3)


def test_theoretical_bound_heisenberg_levels():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.diag([1.0, 2.0, 3.0]),
                                 [[1.0, 1.0, 0.0]],
                                 ControlRange([-1.0], [1.0]))
    lb = theoretical_bound(decay_certificate(system, 1.0), [1.0, 1.0])
    assert lb.bounds.shape == (2,)
    assert np.all(lb.contraction < 1.0)
    assert np.all(lb.bounds > 0.0)


def _drift_system(preset, derivation):
    """A system on preset's algebra with the given drift, one control per
    coordinate."""
    alg = NilpotentAlgebra(preset_structure(preset))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    n = alg.dim
    return LinearControlSystem(group, derivation, np.eye(n),
                               ControlRange([-1.0] * n, [1.0] * n))


def test_theoretical_bound_tau_too_small():
    # a refused bound is a value of the record, not an exception
    system = _drift_system("abelian:2", [[1.0, 4.0], [0.0, 1.2]])
    record = decay_certificate(system, 0.01)
    assert record.hyperbolic and record.notes == [None]
    assert record.bounds is None and record.contraction[0] >= 1.0
    assert record.refusal.startswith(
        "no contraction at this tau: kappa e^(-tau mu) = ")
    assert record.refusal.endswith(" >= 1 at level 1; increase tau")
    with pytest.raises(ValidationError):
        theoretical_bound(record, [1.0])
    # a long enough dwell restores the contraction
    lb = theoretical_bound(decay_certificate(system, 10.0), [1.0])
    assert lb.refusal is None and lb.contraction[0] < 1.0


def test_theoretical_bound_not_hyperbolic():
    system = _drift_system("abelian:2", np.diag([0.0, -1.0]))
    record = decay_certificate(system, 1.0)
    assert not record.hyperbolic and record.bounds is None
    assert np.isnan(record.kappa[0]) and np.isnan(record.mu[0])
    assert record.notes[0] == ("matrix has spectrum on the imaginary axis, "
                               "no decay rate exists")
    assert record.refusal == f"unbounded direction detected: {record.notes[0]}"


def test_decay_record_reads_every_level_and_a_flat_one_wins():
    # a flat first level leaves the second level's constants in the record
    record = decay_certificate(_drift_system(
        "heisenberg3", np.diag([0.0, -1.0, -1.0])), 1.0)
    assert record.notes[0] is not None and record.notes[1] is None
    assert record.kappa[1] == 1.0 and record.mu[1] == pytest.approx(0.9)
    assert record.refusal.startswith("unbounded direction detected")
    # a non-normal first level overshoots at this short a tau, and the flat
    # centre (trace 0) still decides the refusal
    record = decay_certificate(_drift_system(
        "heisenberg3", [[1.0, 4.0, 0.0], [0.0, -1.0, 0.0],
                        [0.0, 0.0, 0.0]]), 0.01)
    assert record.contraction[0] >= 1.0 and record.notes[1] is not None
    assert record.refusal.startswith("unbounded direction detected")


def test_theoretical_bound_validation():
    system = scalar_system(-1.0)
    with pytest.raises(ValidationError):
        decay_certificate(system, -1.0)
    certificate = decay_certificate(system, 1.0)
    with pytest.raises(ValidationError):
        theoretical_bound(certificate, [1.0, 2.0])
    with pytest.raises(ValidationError):
        theoretical_bound(certificate, [-1.0])


def test_estimate_source_constants_scalar(stable_setup):
    system, window, _ = stable_setup
    c = estimate_source_constants(system, window, 1.0)
    assert c.shape == (1,)
    # source term is exactly u, sup |u| = 1 over the family, plus the
    # trivial jump factor 1
    assert c[0] == pytest.approx(2.0, abs=1e-6)
    lb = theoretical_bound(decay_certificate(system, 1.0), c)
    assert lb.bounds[0] == pytest.approx(14.2299, abs=1e-3)


@pytest.mark.parametrize("name", ["rotation-plane", "skewed-masked",
                                  "conjugation-upstairs"])
def test_box_coordinates_ignore_the_circle_coordinates_of_a_start(name):
    # why estimate_source_constants runs one copy of the fiber's box cells:
    # a box cell and every circle shift of it run to the same box
    # coordinates and truncate on the same step, bit for bit.  The box is
    # the window's less a quarter cell.  Runs toward x0 = +-1 leave it on
    # rotation-plane, and so do runs the skewed torus control stretches;
    # on conjugation-upstairs the plane turns rigidly and contracts
    c, system, window = _preset_case(name)
    box = window.box
    idx = window.axis_indices()
    # the fiber's box cells and the box's first corner, every copy of each
    cells = [*central_fiber_nodes(window)[:1], 0]
    copies = np.stack([np.flatnonzero((idx[:, box] == idx[a, box]).all(
        axis=1)) for a in cells])
    assert copies.shape[1] == math.prod(np.array(window.shape)[~box])
    family = system.range.sample_family() if c.family is None else c.family
    h, n_steps = _step_grid(system, c.tau)
    steps = range(0, n_steps + 1, 5)
    quarter = window.delta[box] / 4.0
    frames, truncated = _propagate_family(
        system, window.points[copies.ravel()], family, h, n_steps, steps,
        window.lower[box] + quarter, window.upper[box] - quarter, box)
    truncated = truncated.reshape(len(family), *copies.shape)
    assert np.array_equal(truncated, np.broadcast_to(truncated[..., :1],
                                                     truncated.shape))
    assert truncated.any() == (name != "conjugation-upstairs")
    coords = np.full((len(steps), copies.size * len(family), box.sum()),
                     np.nan)
    for at, (rows, states) in zip(coords, frames):
        at[rows] = states[:, box]
    coords = coords.reshape(len(steps), len(family), *copies.shape, -1)
    assert np.array_equal(coords, np.broadcast_to(coords[..., :1, :],
                                                  coords.shape),
                          equal_nan=True)


@pytest.mark.parametrize("angle_cells", [[64], [128]])
def test_source_constants_seed_one_copy_of_the_fiber(monkeypatch,
                                                     angle_cells):
    # rotation-plane's fiber holds 4 box cells in every angle cell; one copy
    # of them, all 4, seeds the estimate (an evenly strided 256 of the 512
    # cells at 128 angles held only 2 of the 4)
    c, system, window = _preset_case("rotation-plane", angle_cells)
    fiber = central_fiber_nodes(window)
    assert fiber.size == 4 * angle_cells[0]
    starts = []

    def keep(system, seeds, *args):
        starts.append(seeds)
        return _propagate_family(system, seeds, *args)

    monkeypatch.setattr("chaincontrol.chains._propagate_family", keep)
    estimate_source_constants(system, window, c.tau)
    [seeds] = starts
    assert seeds.shape[0] == 4
    assert np.all(seeds[:, ~window.box] == window.points[0, ~window.box])
    assert {tuple(p) for p in seeds[:, window.box]} \
        == {tuple(p) for p in window.points[fiber][:, window.box]}


def test_jump_constant_reads_every_torus_cell(monkeypatch):
    # |rho(h)|_2 of the skewed generator S ROT S^-1 peaks at h = +-pi/2: on
    # 261 angle cells, nearest the odd cells 65 and 195.  A sample of every
    # 50th of the 6,525 nodes reads every second angle cell and misses both
    c = cfg.parse_config(copy.deepcopy(SKEWED_ROTATION_CONFIG))
    system = cfg.build_system(c)
    window = GridWindow(system.group, -0.5, 0.5, [0.2, 0.2], (261,))
    assert window.n_nodes // 128 == 2 * 25
    centers = -np.pi + (np.arange(261) + 0.5) * 2.0 * np.pi / 261
    norms = np.array([np.linalg.norm(system.group.action.matrix([h]), 2)
                      for h in centers])
    assert set(np.argsort(norms)[-2:].tolist()) == {65, 195}
    assert norms[::2].max() < norms.max() - 1e-4

    def no_runs(system, starts, family, h, n_steps, steps, *box):
        # every run ends at once, so the estimate is its jump constant
        empty = (np.zeros(0, dtype=np.int64), np.zeros((0, len(window.shape))))
        return [empty] * len(steps), None

    monkeypatch.setattr("chaincontrol.chains._propagate_family", no_runs)
    c_est = estimate_source_constants(system, window, c.tau)
    assert c_est == pytest.approx([norms.max()] * c_est.size, rel=1e-12)


def test_jump_constant_reads_every_cell_of_a_two_torus(monkeypatch):
    # T^2 with coupled generators g and -g: rho(h1, h2) = exp((h1 - h2) g)
    # is the identity on the diagonal h1 = h2 and stretches by up to 3 off
    # it, so only the product of the two angle grids reaches the sup
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    g = _skewed_rotation(2)
    group = SemidirectGroup(alg, RhoAction(alg, [g, -g]))
    window = GridWindow(group, -0.5, 0.5, [0.25, 0.5], (12, 10))
    grids = [-np.pi + (np.arange(k) + 0.5) * 2.0 * np.pi / k for k in (12, 10)]
    norms = np.array([[np.linalg.norm(group.action.matrix([a, b]), 2)
                       for b in grids[1]] for a in grids[0]])
    diagonal = max(np.linalg.norm(group.action.matrix([a, a]), 2)
                   for a in grids[0])
    assert diagonal < 1.0 + 1e-9 < 2.0 < norms.max()
    # blocks of 7 of the 120 torus cells, the last one short
    monkeypatch.setattr("chaincontrol.chains.ACTION_BLOCK", 7)
    assert action_norm_sup(window) == pytest.approx(norms.max(), rel=1e-12)


# -- verification report -----------------------------------------------------


def _fake_set(nodes, extents, touch=False, identity=True):
    n_free = 1
    bt = np.zeros((n_free, 2), dtype=bool)
    if touch:
        bt[0, 1] = True
    return ChainControlSetApprox(
        nodes=np.asarray(nodes, dtype=np.int64), internal_edges=len(nodes),
        extents=np.asarray(extents, dtype=float), contains_identity=identity,
        contains_central_fiber=identity, boundary_touch=bt)


def _level_bounds(limit):
    """A decay record with the given per-level bounds (None: refused as a
    flat direction); the rest is filler."""
    if limit is None:
        return LevelBounds(kappa=np.full(1, np.nan), mu=np.full(1, np.nan),
                           notes=["flat direction"],
                           contraction=np.full(1, np.nan),
                           refusal="unbounded direction detected: flat "
                                   "direction")
    ones = np.ones(len(limit))
    return LevelBounds(kappa=ones, mu=ones, notes=[None] * len(limit),
                       contraction=0.5 * ones, refusal=None,
                       c_estimates=ones, bounds=np.asarray(limit, dtype=float))


def _verdicts(monkeypatch, sets, fiber, limit, require_interior):
    """verdict_run's policy on fake sets, with the central fiber and the
    per-level bounds given (None refuses the bound as a flat direction)."""
    record = _level_bounds(limit)
    monkeypatch.setattr(verify, "central_fiber_nodes",
                        lambda window: np.asarray(fiber, dtype=np.int64))
    monkeypatch.setattr(verify, "decay_certificate", lambda *args: record)
    monkeypatch.setattr(verify, "estimate_source_constants",
                        lambda *args, **kwargs: None)
    monkeypatch.setattr(verify, "theoretical_bound", lambda *args: record)
    config = SimpleNamespace(tau=1.0, family=None,
                             require_interior=require_interior)
    return verify.verdict_run(config, None, None, sets)


def test_verify_report_passes(monkeypatch):
    s = _fake_set([3, 4, 5], [0.5])
    for interior in (False, True):
        rec = _verdicts(monkeypatch, [s], [4], [1.0], interior)
        assert rec.failures == [] and rec.bound.refusal is None
        assert rec.verdicts == {"unique": True, "fiber_containment": True,
                                "extents": True,
                                "interior": True if interior else "n/a"}
        assert all(row["passed"] for row in rec.residuals)
        names = [row["name"] for row in rec.residuals]
        assert names == ["extra_chain_sets", "missing_fiber_nodes",
                         "level_1_extent"] + ["boundary_touches"] * interior


def test_verify_report_itemizes_failures(monkeypatch):
    a = _fake_set([0, 1, 2], [2.0], touch=True)
    b = _fake_set([10], [0.1])
    touch = "extracted set touches the window boundary"
    for interior in (False, True):
        rec = _verdicts(monkeypatch, [a, b], [5], [1.0], interior)
        assert rec.failures == [
            "2 chain control sets extracted, expected 1",
            "1 of 1 central-fiber nodes outside the main set",
            "per-level extents exceed the bound at levels [1]",
        ] + [touch] * interior
        # the boundary touch is a verdict, and a failure, only on request
        assert rec.verdicts["interior"] == (False if interior else "n/a")
        rows = {row["name"]: row for row in rec.residuals}
        assert rows["extra_chain_sets"]["value"] == 1
        assert rows["missing_fiber_nodes"]["value"] == 1
        assert rows["level_1_extent"]["passed"] is False
        assert ("boundary_touches" in rows) is interior


def test_verify_report_no_sets(monkeypatch):
    for interior in (False, True):
        rec = _verdicts(monkeypatch, [], [0], None, interior)
        assert rec.bound.bounds is None
        assert rec.bound.refusal.startswith("unbounded direction detected")
        assert rec.verdicts["unique"] is False
        assert rec.verdicts["fiber_containment"] is False
        assert rec.verdicts["extents"] == "n/a"
        # one failure per False verdict; "n/a" adds none
        assert rec.failures == [
            "no chain control set extracted",
            "1 of 1 central-fiber nodes outside the main set"]
        assert [row["value"] for row in rec.residuals] == [1, 1]


def _refused_run(monkeypatch, raw):
    """verdict_run on raw's system and window with no sets, with the source
    constants estimate replaced by one that fails the test if it runs."""
    def never(*args, **kwargs):
        raise AssertionError("source constants estimated for a refused bound")

    monkeypatch.setattr(verify, "estimate_source_constants", never)
    config = cfg.parse_config(raw)
    system = cfg.build_system(config)
    return verify.verdict_run(config, system,
                              cfg.build_window(config, system), [])


def test_verdict_run_refuses_a_flat_direction_before_the_constants(
        monkeypatch):
    rec = _refused_run(monkeypatch, cfg.preset_raw("halfstable-w2"))
    assert rec.bound.bounds is None and rec.verdicts["extents"] == "n/a"
    assert not rec.bound.hyperbolic
    assert rec.bound.refusal == (
        "unbounded direction detected: matrix has spectrum on the imaginary "
        "axis, no decay rate exists")


def test_verdict_run_refuses_a_short_tau_before_the_constants(monkeypatch):
    # a contracting but non-normal drift overshoots at this short a dwell
    raw = cfg.preset_raw("halfstable-w2")
    raw["derivation"] = [[-1.0, 4.0], [0.0, -1.2]]
    raw["chain"].update(tau=0.01, times=[0.01, 0.02])
    rec = _refused_run(monkeypatch, raw)
    assert rec.bound.bounds is None and rec.verdicts["extents"] == "n/a"
    assert rec.bound.hyperbolic
    assert rec.bound.refusal.startswith("no contraction at this tau: kappa "
                                        "e^(-tau mu) = ")
    assert rec.bound.refusal.endswith(" >= 1 at level 1; increase tau")


# -- audit -------------------------------------------------------------------

AUDIT_REFINE = 10  # audit_edges re-integrates at this many times finer a step


def audit_edges(system, graph, fraction, seed):
    """Re-integrate a sample of the lift's edges (`edge_columns`), each from
    its own source, with an AUDIT_REFINE times finer step (`_propagate`), and
    count those landing past the acceptance radius of their target.  A re-run
    that leaves the window fails its edge and has no excess; the worst excess
    is None when no re-run stays inside.  A sound graph has no failures."""
    if graph.n_edges == 0:
        return {"checked": 0, "failures": 0, "worst_excess": 0.0}
    rng = np.random.default_rng(seed)
    k = max(1, int(math.ceil(fraction * graph.n_edges)))
    pick = np.sort(rng.choice(graph.n_edges, size=k, replace=False))
    src, dst, u, t = (col[pick] for col in edge_columns(graph))
    points = graph.window.points
    failures = 0
    worst = -np.inf
    for u_idx, t_idx in np.unique(np.column_stack([u, t]), axis=0).tolist():
        sel = (u == u_idx) & (t == t_idx)
        n_fine = int(graph.snapshot_steps[t_idx]) * AUDIT_REFINE
        [(rows, states)], _ = _propagate(
            system, points[src[sel]], graph.control_family[u_idx],
            graph.step / AUDIT_REFINE, n_fine, [n_fine],
            graph.inflated_lower, graph.inflated_upper, graph.window.box)
        # a fine re-run that leaves the window fails its edge
        excess = system.group.distance(states, points[dst[sel][rows]]) \
            - graph.radius
        failures += int(sel.sum()) - rows.size + int(np.sum(excess > 1e-6))
        worst = max(worst, float(np.max(excess, initial=-np.inf)))
    return {"checked": int(k), "failures": int(failures),
            "worst_excess": worst if worst > -np.inf else None}


def test_audit_edges_clean(stable_setup):
    system, _, graph = stable_setup
    report = audit_edges(system, graph, fraction=0.05, seed=99)
    assert report["checked"] > 0
    assert report["failures"] == 0
    assert report["worst_excess"] <= 1e-6


def test_audit_counts_corrupted_and_truncated_edges(stable_setup):
    system, window, graph = stable_setup
    # the edges of one witness, all audited in one fine re-run; every third
    # has its target moved to the far end of the window, over 2 from the
    # true target and so past twice the radius from its landing
    src, dst, u, t = edge_columns(graph)
    one = (u == u[0]) & (t == t[0])
    sub = with_edges(graph, src[one], dst[one], graph.witness[one])
    bad = np.arange(sub.n_edges) % 3 == 0
    far = np.where(window.points[sub.dst, 0] > 0.0, 0, graph.n_nodes - 1)
    corrupted = dataclasses.replace(sub, dst=np.where(bad, far, sub.dst))
    report = audit_edges(system, corrupted, fraction=1.0, seed=5)
    assert report["checked"] == sub.n_edges
    assert report["failures"] == int(bad.sum())
    assert report["worst_excess"] > 1.0
    # a box no run reaches truncates every fine re-run at its first step:
    # each sampled edge fails, and no excess is left to measure
    beyond = graph.inflated_upper + 1.0
    shut = dataclasses.replace(sub, inflated_lower=beyond,
                               inflated_upper=beyond)
    report = audit_edges(system, shut, fraction=1.0, seed=5)
    assert report["checked"] == sub.n_edges
    assert report["failures"] == sub.n_edges
    assert report["worst_excess"] is None
    # the row stays JSON-safe: reports are dumped with allow_nan=False
    assert json.loads(json.dumps(report, allow_nan=False)) == report


# -- writers -----------------------------------------------------------------


def edge_graph(n_nodes, src, dst, witness, family, times):
    """A graph with the given edges, in order of their sources, over
    n_nodes cells of a line: no symmetric axis, so the rows are the whole
    graph.  Only what write_edges_csv reads is filled in."""
    system = scalar_system(-1.0)
    window = GridWindow(system.group, [0.0], [float(n_nodes)], [1.0])
    src = np.asarray(src, dtype=np.int64)
    return ChainGraph(
        window=window, eps=0.1, tau=1.0, radius=0.1,
        control_family=np.asarray(family, dtype=float),
        time_samples=np.asarray(times, dtype=float),
        snapshot_steps=np.arange(len(times)), step=0.1, n_steps=10,
        indptr=np.searchsorted(src, np.arange(n_nodes + 1)),
        dst=np.asarray(dst, dtype=np.int32),
        witness=np.asarray(witness, dtype=np.uint8),
        truncated=np.zeros(n_nodes, dtype=bool),
        inflated_lower=None, inflated_upper=None)


def csv_writer_bytes(graph, columns):
    """The bytes csv.writer writes for the edges (src, dst, u, t) of
    columns, under edges.csv's header."""
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    n_u = graph.control_family.shape[1]
    writer.writerow(["src", "dst", *(f"u{j}" for j in range(n_u)), "T"])
    writer.writerows(
        [a, b, *(f"{v:.12g}" for v in graph.control_family[u]),
         f"{graph.time_samples[t]:.12g}"]
        for a, b, u, t in zip(*(c.tolist() for c in columns)))
    return fh.getvalue().encode()


def assert_csv_writer_bytes(tmp_path, graph):
    """write_edges_csv writes the bytes csv.writer writes for the stored
    rows."""
    path = tmp_path / "edges.csv"
    write_edges_csv(path, graph)
    assert path.read_bytes() == csv_writer_bytes(graph, stored_columns(graph))
    return path.read_bytes()


def lift_edges_csv(raw, lift):
    """edges.csv lifted by a report's "lift" rule (`lift_rows`): each row
    src,dst,w... once per shift c of A, both ends moved by c, in CSR order."""
    header, *rows = raw.split(b"\r\n")[:-1]
    cols = [row.split(b",", 2) for row in rows]
    src, dst = np.array([[int(a), int(b)] for a, b, _ in cols],
                        dtype=np.int64).reshape(-1, 2).T
    src, dst, row = lift_rows(src, dst, lift["sizes"], lift["strides"])
    return b"".join([header + b"\r\n", *(
        b"%d,%d,%s\r\n" % (a, b, cols[i][2])
        for a, b, i in zip(src.tolist(), dst.tolist(), row.tolist()))])


def test_edges_csv_without_edges_is_its_header(tmp_path):
    graph = edge_graph(5, [], [], [], [[-1.0], [1.0]], [1.0, 2.0])
    assert assert_csv_writer_bytes(tmp_path, graph) == b"src,dst,u0,T\r\n"


def test_edges_csv_skips_empty_source_rows(tmp_path):
    # sources 1, 2, 4-6 and 8-11 have no edges, the last source among them
    graph = edge_graph(12, [0, 3, 3, 7], [11, 0, 3, 7], [0, 1, 3, 2],
                       [[-1.0], [1.0]], [1.0, 2.0])
    raw = assert_csv_writer_bytes(tmp_path, graph)
    assert raw.splitlines()[1:] == [b"0,11,-1,1", b"3,0,-1,2", b"3,3,1,2",
                                    b"7,7,1,1"]


def test_edges_csv_across_name_length_boundaries(tmp_path):
    # names of one to four digits, as sources and as targets
    names = [8, 9, 10, 11, 98, 99, 100, 101, 998, 999, 1000, 1001]
    src, dst = np.meshgrid(names, names, indexing="ij")
    graph = edge_graph(1002, src.ravel(), dst.ravel(), np.arange(src.size) % 4,
                       [[-1.0], [1.0]], [1.0, 2.0])
    raw = assert_csv_writer_bytes(tmp_path, graph)
    assert raw.count(b"\r\n") == src.size + 1
    assert b"\r\n999,1000,1,1\r\n" in raw


def test_edges_csv_with_a_two_dimensional_family(tmp_path):
    # .12g tails of different lengths: negative, exponent-form and
    # repeating values
    family = [[-1e-13, 1 / 3], [1.0, -2.5e-7], [0.0, 123456789.123],
              [-1.0, 1e22]]
    times = [1 / 3, 2.0, 1e-5]
    rng = np.random.default_rng(11)
    n = 500
    graph = edge_graph(40, np.sort(rng.integers(0, 40, n)),
                       rng.integers(0, 40, n), rng.integers(0, 12, n),
                       family, times)
    raw = assert_csv_writer_bytes(tmp_path, graph)
    assert raw.startswith(b"src,dst,u0,u1,T\r\n")
    assert b",-1e-13,0.333333333333," in raw and b",1e+22," in raw


def test_writers_roundtrip(tmp_path, stable_setup):
    system, window, graph = stable_setup
    sets = extract_chain_sets(graph)
    lb = theoretical_bound(decay_certificate(system, 1.0),
                           estimate_source_constants(system, window, 1.0))

    nodes_path = tmp_path / "nodes.csv"
    write_nodes_csv(nodes_path, graph, sets)
    lines = nodes_path.read_text().strip().splitlines()
    assert len(lines) == graph.n_nodes + 1
    assert lines[0].startswith("node,")

    edges_path = tmp_path / "edges.csv"
    write_edges_csv(edges_path, graph)
    raw = edges_path.read_bytes()
    assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
    header, *rows = [line.split(",") for line in raw.decode().splitlines()]
    assert header == ["src", "dst", "u0", "T"]
    assert rows == [
        [str(a), str(b), *(f"{v:.12g}" for v in graph.control_family[u]),
         f"{graph.time_samples[t]:.12g}"]
        for a, b, u, t in zip(*stored_columns(graph))]
    # more rows than one chunk: the bytes csv.writer writes
    rng = np.random.default_rng(3)
    n_rows = EDGE_CHUNK + 1001
    big = with_edges(
        graph, np.sort(rng.integers(0, graph.n_nodes, n_rows)),
        rng.integers(0, graph.n_nodes, n_rows).astype(np.int32),
        rng.integers(0, len(graph.control_family) * len(graph.time_samples),
                     n_rows).astype(graph.witness.dtype))
    assert_csv_writer_bytes(tmp_path, big)

    sets_path = tmp_path / "sets.jsonl"
    write_sets_jsonl(sets_path, sets, bounds=lb.bounds)
    recs = [json.loads(l) for l in sets_path.read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["contains_identity"] is True
    assert recs[0]["within_bounds"] is True

    plot_path = tmp_path / "slice.csv"
    with pytest.raises(ValidationError):
        write_plot_slice(plot_path, graph, sets[0])


def plot_slice_oracle(path, points, columns):
    """write_plot_slice as it was: one csv.writer row per member cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in columns])
        for row in points[:, list(columns)]:
            writer.writerow([f"{v:.12g}" for v in row])


@pytest.mark.parametrize("case", [
    ("conjugation-upstairs", (1, 2), "all"),
    ("conjugation-upstairs", (1, 2, 0), "all"),
    ("conjugation-upstairs", (0, 3), "all"),
    ("conjugation-upstairs", (0, 1, 3), "random"),
    ("conjugation-upstairs", (1, 2), "one"),
    ("rotation-plane", (0, 1, 2), "random"),
    ("heisenberg-expanding", (0, 1, 2), "random")])
def test_plot_slice_keeps_the_bytes_of_the_row_loop(tmp_path, case):
    # 2- and 3-column slices, over box axes and the circle axes (the torus
    # angle 0 and the masked circle 3 of conjugation-upstairs), of every
    # cell, a random set and a one-node set
    name, columns, members = case
    _, _, window = _preset_case(name)
    rng = np.random.default_rng(31)
    nodes = {"all": np.arange(window.n_nodes),
             "random": np.sort(rng.choice(window.n_nodes, window.n_nodes // 3,
                                          replace=False)),
             "one": np.array([window.n_nodes // 2])}[members]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_plot_slice(got, SimpleNamespace(window=window),
                     SimpleNamespace(nodes=nodes), columns=columns)
    plot_slice_oracle(want, window.points[nodes], columns)
    assert got.read_bytes() == want.read_bytes()
    assert got.read_bytes().count(b"\r\n") == nodes.size + 1


def _block_hits_by_lists(group, tree, offset, centers, landed, radii, cut):
    """_block_hits with an array per kd-tree list, as it was."""
    balls = tree.query_ball_point(landed + offset, radii,
                                  return_sorted=False)
    owner = np.repeat(np.arange(len(landed)), [len(b) for b in balls])
    dst = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        np.asarray(b, dtype=np.int64) for b in balls if len(b)])
    hit = group.distance(landed, centers[dst], owner) <= cut
    return owner[hit], dst[hit]


@pytest.mark.parametrize("mix", ["all-empty", "mixed"])
def test_block_hits_flatten_the_kdtree_lists(mix):
    # a block whose balls are all empty (every landing far outside the
    # box), and one mixing empty and non-empty balls: int64 (owner, dst)
    # equal to the per-list path's
    _, system, window = _preset_case("conjugation-upstairs")
    group = system.group
    offset = np.where(window.box, 0.0, np.pi)
    tree = cKDTree(window.points + offset, boxsize=2.0 * offset)
    rng = np.random.default_rng(37)
    landed = window.points[rng.choice(window.n_nodes, 400)] \
        + rng.uniform(-0.2, 0.2, (400, group.dim))
    far = np.ones(400, dtype=bool) if mix == "all-empty" \
        else rng.random(400) < 0.5
    landed[far, np.flatnonzero(window.box)[0]] += 100.0
    landed = group.normalize(landed)
    cut = 0.3
    radii = window.query_radii(landed, cut)
    balls = tree.query_ball_point(landed + offset, radii)
    sizes = np.array([len(b) for b in balls])
    assert np.all(sizes[far] == 0) and np.all(sizes[~far] > 0)
    got = _block_hits(group, tree, offset, window.points, landed, radii, cut)
    want = _block_hits_by_lists(group, tree, offset, window.points, landed,
                                radii, cut)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    assert (got[0].size > 0) == (mix == "mixed")


def test_edges_csv_holds_the_stored_rows_of_a_lifted_graph(tmp_path):
    # 64 shifts of a torus angle and a masked circle: the file holds the
    # slice rows, and its lift by the window's rule is the graph's lift row
    # for row
    _, window, graph = _small_graph("conjugation-upstairs-small")
    assert window.n_shifts == 64 and graph.dst.size > 0
    raw = assert_csv_writer_bytes(tmp_path, graph)
    assert raw.count(b"\r\n") == graph.dst.size + 1
    lift = {"axes": list(window.symmetric_axes),
            "sizes": window.shift_sizes.tolist(),
            "strides": window.shift_strides.tolist()}
    assert lift_edges_csv(raw, lift) == csv_writer_bytes(graph,
                                                         edge_columns(graph))


def test_rotation_plane_edges_lift_to_the_pinned_bytes(tmp_path):
    # the report's rule lifts edges.csv (4,796 slice rows) to the 306,944
    # rows a writer of the whole graph wrote, byte for byte
    assert main(["chainset", "--preset", "rotation-plane",
                 "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "report.json").read_text())["body"]
    assert body["lift"] == {"axes": [0], "sizes": [64], "strides": [100]}
    raw = (tmp_path / "edges.csv").read_bytes()
    assert raw.count(b"\r\n") == 4797
    lifted = lift_edges_csv(raw, body["lift"])
    assert lifted.count(b"\r\n") == body["edges"] + 1 == 306945
    assert hashlib.sha256(lifted).hexdigest() == (
        "82ee861507ff04eabd43f28cd8046527b22f04c6091f10b61bdf12e203f0031e")


# -- anchored runs against the direct-integration oracle ----------------------

# Start cells per preset for the oracle comparison: every cell where the
# oracle is cheap, a strided sample where integrating every cell directly
# would take tens of seconds (heisenberg-expanding: 20,000 cells x 12
# controls x 600 steps; rotation-plane: 6,400 x 5 x 400; conjugation-upstairs:
# 2,304 x 9 x 200).
ORACLE_STRIDE = {"heisenberg-expanding": 40, "rotation-plane": 16,
                 "conjugation-upstairs": 4}


def _propagate(system, starts, family, h, n_steps, steps,
               box_lower, box_upper, box):
    """`_propagate_family`, integrating every row directly: the same
    signature and result.  States are rebound at every step, never written
    in place, so the frames share arrays without copies."""
    group = system.group
    family = np.atleast_2d(np.asarray(family, dtype=float))
    n_u, n_rows = len(family), len(starts)
    rows = np.arange(n_u * n_rows)
    y = np.tile(group.normalize(np.array(starts, dtype=float)), (n_u, 1))
    truncated = np.zeros(n_u * n_rows, dtype=bool)
    want = {int(s) for s in steps}
    frames = {0: (rows, y)} if 0 in want else {}
    for step in range(1, n_steps + 1):
        y = group.normalize(_rk4_step(system.frozen_field(family[rows // n_rows]),
                                      y, h))
        coords = y[:, box]
        out = np.any((coords < box_lower) | (coords > box_upper), axis=1)
        if out.any():
            truncated[rows[out]] = True
            rows, y = rows[~out], y[~out]
        if step in want:
            frames[step] = (rows, y)
    return [frames[int(s)] for s in steps], truncated.reshape(n_u, n_rows)


def _snapshot_steps(times, tau, h, n_steps):
    snap = np.rint(np.asarray(times) / h).astype(int)
    return np.unique(np.clip(snap, int(math.ceil(tau / h - 1e-9)), n_steps))


@pytest.mark.parametrize("name", sorted(cfg.PRESETS))
def test_anchored_runs_match_direct_integration(name):
    c = cfg.preset_config(name)
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    family = (system.range.sample_family() if c.family is None
              else c.family)
    times = _default_time_samples(c.tau) if c.times is None else c.times
    h, n_steps = _step_grid(system, c.tau)
    # the graph's snapshot steps plus four records spread over the run
    snap = _snapshot_steps(times, c.tau, h, n_steps)
    steps = np.union1d(snap, range(0, n_steps + 1, n_steps // 4))
    lo, hi = window.inflated_bounds(c.eps + window.half_diameter)
    starts = window.points[::ORACLE_STRIDE.get(name, 1)]

    ref_frames, ref_trunc = _propagate(system, starts, family, h, n_steps,
                                       steps, lo, hi, window.box)
    ref = dict(zip(steps.tolist(), ref_frames))
    # with step 0 every row is run; the snapshot steps alone, as the graph
    # asks for them, are sieved at the first
    for wanted in (steps, snap):
        frames, truncated = _propagate_family(
            system, starts, family, h, n_steps, wanted, lo, hi, window.box)
        assert truncated.shape == (len(family), len(starts))
        assert np.array_equal(truncated, ref_trunc)
        assert len(frames) == len(wanted)
        for step, (rows, states) in zip(wanted.tolist(), frames):
            ref_rows, ref_states = ref[step]
            assert np.array_equal(rows, ref_rows)
            gap = system.group.distance(states, ref_states)
            assert np.all(gap <= 1e-8), float(np.max(gap, initial=0.0))


def _derivation_basis(alg):
    """Orthonormal basis (n * n, k) of the derivations D of alg, flattened:
    the null space of the Leibniz rule D[e_i, e_j] = [D e_i, e_j] + [e_i,
    D e_j], linear in the entries of D."""
    n, c = alg.dim, alg.structure
    rule = []
    for unit in np.eye(n * n):
        d = unit.reshape(n, n)
        rule.append((np.einsum("ijk,lk->ijl", c, d)
                     - np.einsum("pi,pjl->ijl", d, c)
                     - np.einsum("pj,ipl->ijl", d, c)).ravel())
    return null_space(np.array(rule).T)


RANDOM_STRUCTURES = ["abelian:2", "heisenberg3", "heisenberg3-coupled",
                     "heisenberg3-torus", "filiform4", "filiform5",
                     "filiform4-coupled", "filiform5-coupled"]


def random_graded_drift(alg, structure, a, b, rng):
    """The drift of a random system on alg, the structure's algebra, and
    its action generators.

    diag(a, b) on the plane; on heisenberg3 the Leibniz rule forces the
    centre's rate a + b, under diagonal rates, coupled ones (plane block
    [[a, c], [d, b]] and a centre row (e, f)), or a rotation-scaling
    [[a, -b], [b, a]] that commutes with a torus angle turning the plane;
    on filiform4 and filiform5 (classes 3 and 4, the quadratic BCH terms of
    _translate) the graded rates a + b, 2a + b and 3a + b, plus, when
    coupled, a derivation drawn from the null space of the Leibniz rule (a
    non-diagonal lin and the cubic term of the frozen field).
    """
    n = alg.dim
    if structure == "heisenberg3-torus":
        return (np.array([[a, -b, 0.0], [b, a, 0.0], [0.0, 0.0, 2.0 * a]]),
                [np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0]])])
    drift = np.diag([a, b] + [k * a + b for k in range(1, n - 1)])
    if structure == "heisenberg3-coupled":
        drift[[0, 1, 2, 2], [1, 0, 0, 1]] = rng.uniform(-1.0, 1.0, 4)
    if structure.startswith("filiform") and structure.endswith("-coupled"):
        basis = _derivation_basis(alg)
        drift += (basis @ rng.uniform(-1.0, 1.0, basis.shape[1])).reshape(n, n)
    return drift, []


# no shrink phase: most of an example comes from the rng seed, which
# shrinking cannot simplify, and on a failure it ran for minutes
@settings(derandomize=True, max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(structure=st.sampled_from(RANDOM_STRUCTURES),
       a=st.floats(-1.5, 1.5), b=st.floats(-1.5, 1.5),
       seed=st.integers(0, 2 ** 32 - 1), first=st.floats(0.0, 1.0))
# a row whose bits depended on the rows sharing its matmul failed the exact
# sieve comparison here
@example(structure="heisenberg3", a=1.05, b=0.6879290560339135, seed=686816,
         first=0.6232138864495674)
# classes 3 and 4 whatever the draws, with rates of both signs
@example(structure="filiform4", a=0.9, b=-0.5, seed=4, first=0.5)
@example(structure="filiform5", a=-0.6, b=1.1, seed=5, first=0.3)
@example(structure="filiform4-coupled", a=0.7, b=-0.4, seed=6, first=0.4)
@example(structure="filiform5-coupled", a=-0.5, b=0.9, seed=7, first=0.6)
def test_anchored_runs_match_oracle_on_random_systems(structure, a, b, seed,
                                                      first):
    rng = np.random.default_rng(seed)
    alg = NilpotentAlgebra(preset_structure(structure.split("-")[0]))
    n = alg.dim
    z = rng.uniform(-1.0, 1.0, (1, n))
    family = rng.uniform(-1.0, 1.0, (3, 1))
    lo, hi = -rng.uniform(0.3, 1.5, n), rng.uniform(0.3, 1.5, n)
    starts = rng.uniform(lo, hi, (6, n))
    drift, generators = random_graded_drift(alg, structure, a, b, rng)
    torus_controls = None
    if generators:
        torus_controls = rng.uniform(-1.0, 1.0, (1, 1))
        starts = np.hstack([rng.uniform(-np.pi, np.pi, (6, 1)), starts])
    group = SemidirectGroup(alg, RhoAction(alg, generators))
    system = LinearControlSystem(group, drift, z, ControlRange([-1.0], [1.0]),
                                 torus_controls=torus_controls)
    box = ~group.angular_mask
    h, n_steps = _step_grid(system, 0.25)
    steps = range(n_steps + 1)

    frames, truncated = _propagate_family(system, starts, family, h, n_steps,
                                          steps, lo, hi, box)
    ref_frames, ref_trunc = _propagate(system, starts, family, h, n_steps,
                                       steps, lo, hi, box)
    # rows whose oracle run meets the box within 1e-8 may truncate one step
    # apart
    inner = _propagate(system, starts, family, h, n_steps, [], lo + 1e-8,
                       hi - 1e-8, box)[1]
    outer = _propagate(system, starts, family, h, n_steps, [], lo - 1e-8,
                       hi + 1e-8, box)[1]
    sure = inner == outer
    assert np.array_equal(truncated[sure], ref_trunc[sure])
    sure = sure.ravel()
    for (rows, states), (ref_rows, ref_states) in zip(frames, ref_frames):
        assert np.array_equal(rows[sure[rows]], ref_rows[sure[ref_rows]])
        _, mine, ref = np.intersect1d(rows, ref_rows, return_indices=True)
        gap = group.distance(states[mine], ref_states[ref])
        assert np.all(gap <= 1e-8), float(np.max(gap, initial=0.0))
    # steps from a drawn s0 > 0 are sieved at s0, and the sieve is exact:
    # the same truncation, rows and states as the unsieved run
    s0 = max(1, math.ceil(first * n_steps))
    sieved, sieved_trunc = _propagate_family(
        system, starts, family, h, n_steps, range(s0, n_steps + 1), lo, hi,
        box)
    assert np.array_equal(sieved_trunc, truncated)
    for (rows, states), (ref_rows, ref_states) in zip(sieved, frames[s0:]):
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(states, ref_states)


def _rotation_runs(starts, steps):
    """Runs of planar starts under the drift rotation (cos t, sin t) with
    zero control, 100 steps per turn, in the box [-1.2, 1.2] x [-0.5, 1.2]."""
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    system = LinearControlSystem(SemidirectGroup(alg, RhoAction(alg, [])),
                                 ROT, [[1.0, 0.0]], ControlRange([-1.0], [1.0]))
    args = (system, np.array(starts), [[0.0]], 2.0 * np.pi / 100, 100, steps,
            np.array([-1.2, -0.5]), np.array([1.2, 1.2]), np.ones(2, bool))
    return _propagate_family(*args), _propagate(*args)


def test_sieve_keeps_truncating_rows_that_left_before_s0():
    # (1, 0) dips to y = -1 at step 75 and is back home, inside the box, at
    # s0 = 100; (0.2, 0) never leaves
    (frames, truncated), (ref_frames, ref_trunc) = _rotation_runs(
        [[1.0, 0.0], [0.2, 0.0]], [100])
    assert truncated.tolist() == ref_trunc.tolist() == [[True, False]]
    (rows, states), = frames
    assert rows.tolist() == ref_frames[0][0].tolist() == [1]
    assert np.allclose(states, [[0.2, 0.0]], atol=1e-12)


def test_sieve_with_every_row_out_at_s0():
    # both starts are below y = -0.5 at s0 = 75, and back inside at step 100
    (frames, truncated), (ref_frames, ref_trunc) = _rotation_runs(
        [[1.0, 0.0], [0.8, 0.0]], [75, 100])
    assert truncated.all() and ref_trunc.all()
    for rows, states in frames + ref_frames:
        assert rows.size == 0 and states.shape == (0, 2)


def test_block_ends_a_row_at_its_first_exit():
    # with step 0 requested there is no sieve, and all 100 steps of both rows
    # fit one block: (1, 0) leaves below y = -0.5 at step 59 and is home
    # again at step 100, (0.2, 0) never leaves
    (frames, truncated), (ref_frames, ref_trunc) = _rotation_runs(
        [[1.0, 0.0], [0.2, 0.0]], [0, 50, 58, 59, 100])
    assert truncated.tolist() == ref_trunc.tolist() == [[True, False]]
    alive = [[0, 1], [0, 1], [0, 1], [1], [1]]
    assert [rows.tolist() for rows, _ in frames] == alive
    assert [rows.tolist() for rows, _ in ref_frames] == alive
    assert np.allclose(frames[-1][1], [[0.2, 0.0]], atol=1e-12)


@pytest.mark.parametrize("name", ["heisenberg-expanding-small",
                                  "conjugation-upstairs-small",
                                  "filiform4-small"])
def test_step_blocks_change_no_frame(monkeypatch, name):
    # the runs move in blocks of STEP_BLOCK row-steps; blocks of a few
    # row-steps (one step each and the rows split too, the sieve's
    # included, while more rows are alive) and of an odd size give the same
    # frames and truncation, bit for bit, with and without the sieve, and
    # no _translate call takes more than STEP_BLOCK row-steps
    system, window, graph = _small_graph(name)
    args = (system, window.points[::3], graph.control_family, graph.step,
            graph.n_steps)
    box = (graph.inflated_lower, graph.inflated_upper, window.box)
    wanted = (graph.snapshot_steps, range(0, graph.n_steps + 1, 5))
    default = [_propagate_family(*args, steps, *box) for steps in wanted]
    row_steps = []

    def counted(group, anchor, flow, starts, u_of):
        row_steps.append(len(anchor) * len(u_of))
        return _translate(group, anchor, flow, starts, u_of)

    monkeypatch.setattr("chaincontrol.chains._translate", counted)
    assert len(graph.control_family) * len(window.points[::3]) > 61
    for block in (61, 997):
        monkeypatch.setattr("chaincontrol.chains.STEP_BLOCK", block)
        row_steps.clear()
        for (frames, truncated), steps in zip(default, wanted):
            got, got_truncated = _propagate_family(*args, steps, *box)
            assert np.array_equal(got_truncated, truncated)
            for (rows, states), (ref_rows, ref_states) in zip(got, frames):
                assert np.array_equal(rows, ref_rows)
                assert np.array_equal(states, ref_states)
        assert 0 < max(row_steps) <= block


def _oracle_edges(system, window, graph):
    """(src, dst) pairs from direct integration and brute-force distances,
    each with its smallest (u, t) landing, plus the pairs with some landing
    within 1e-9 of the radius."""
    edges, near = {}, set()
    centers = window.points
    frames, _ = _propagate(
        system, centers, graph.control_family, graph.step, graph.n_steps,
        graph.snapshot_steps, graph.inflated_lower, graph.inflated_upper,
        window.box)
    for t_idx, (rows, states) in enumerate(frames):
        u_of, src_of = np.divmod(rows, window.n_nodes)
        # one control at a time keeps the all-pairs distances small
        for u_idx in np.unique(u_of).tolist():
            sel = u_of == u_idx
            src = src_of[sel]
            d = system.group.distance(states[sel][:, None, :],
                                      centers[None, :, :])
            a, b = np.nonzero(d <= graph.radius + 1e-12)
            for pair in zip(src[a].tolist(), b.tolist()):
                edges[pair] = min(edges.get(pair, (u_idx, t_idx)),
                                  (u_idx, t_idx))
            a, b = np.nonzero(np.abs(d - graph.radius) <= 1e-9)
            near.update(zip(src[a].tolist(), b.tolist()))
    return edges, near


# class 3, for the quadratic BCH terms of the anchored runs: filiform4 with
# the graded diagonal derivation diag(a, b, a + b, 2a + b), a = b = -1
FILIFORM4_CONFIG = {
    "schema": 1, "seed": 1, "algebra": {"preset": "filiform4"},
    "derivation": np.diag([-1.0, -1.0, -2.0, -3.0]).tolist(),
    "control": {"z": [[1.0, 1.0, 0.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
    "chain": {"x_lower": [-0.8, -0.8, -0.4, -0.4],
              "x_upper": [0.8, 0.8, 0.4, 0.4],
              "delta": [0.32, 0.32, 0.2, 0.2], "eps": 0.1, "tau": 0.5},
}

# class 4, for the cubic BCH term of the anchored runs: filiform5 with the
# graded diagonal derivation diag(a, b, a + b, 2a + b, 3a + b), a = b = -1,
# on 128 cells
FILIFORM5_CONFIG = {
    "schema": 1, "seed": 1, "algebra": {"preset": "filiform5"},
    "derivation": np.diag([-1.0, -1.0, -2.0, -3.0, -4.0]).tolist(),
    "control": {"z": [[1.0, 1.0, 0.0, 0.0, 0.0]], "lower": [-1.0],
                "upper": [1.0]},
    "chain": {"x_lower": [-0.8, -0.8, -0.4, -0.4, -0.4],
              "x_upper": [0.8, 0.8, 0.4, 0.4, 0.4],
              "delta": [0.4] * 5, "eps": 0.1, "tau": 0.5},
}

# rotation-plane with the torus generator skewed (S ROT S^-1, S = diag(1, 3)):
# rho(h) stretches, so torus shifts do not map its graph onto itself
SKEWED_ROTATION_CONFIG = copy.deepcopy(cfg.PRESETS["rotation-plane"])
SKEWED_ROTATION_CONFIG["torus"]["generators"] = [_skewed_rotation(2).tolist()]

# small windows where direct integration of every cell is cheap:
# (preset or config, box lower, box upper, cell sizes, circle cells, control
# stride), or (config, control stride) for its own window
SMALL_WINDOWS = {
    "rotation-plane-small": ("rotation-plane", -0.6, 0.6, [0.2, 0.2], (16,),
                             1),
    "skewed-rotation-small": (SKEWED_ROTATION_CONFIG, -0.6, 0.6, [0.2, 0.2],
                              (16,), 1),
    # class 2: the query radius exceeds the exact cut by up to 45 percent
    "heisenberg-expanding-small": ("heisenberg-expanding",
                                   [-0.96, -0.48, -0.24], [0.96, 0.48, 0.24],
                                   [0.32, 0.16, 0.032], (), 3),
    # torus angle plus a masked circle
    "conjugation-upstairs-small": ("conjugation-upstairs", -0.25, 0.25,
                                   [0.25, 0.25], (8, 8), 1),
    "filiform4-small": (FILIFORM4_CONFIG, 2),
    "filiform5-small": (FILIFORM5_CONFIG, 2),
}


def _small_graph(name):
    preset, *box, stride = SMALL_WINDOWS.get(name, (name, 1))
    c = cfg.parse_config(copy.deepcopy(preset)) if isinstance(preset, dict) \
        else cfg.preset_config(preset)
    system = cfg.build_system(c)
    window = GridWindow(system.group, *box) if box else \
        cfg.build_window(c, system)
    family = system.range.sample_family() if c.family is None else c.family
    return system, window, build_chain_graph(
        system, window, c.eps, c.tau, control_family=family[::stride],
        time_samples=c.times)


@pytest.mark.parametrize("name", ["scalar-stable", "scalar-unstable",
                                  *SMALL_WINDOWS])
def test_graph_edges_match_direct_integration(name):
    system, window, graph = _small_graph(name)
    assert graph.n_edges > 0
    oracle, near = _oracle_edges(system, window, graph)
    # an edge may only flip where some landing sits on the radius
    assert edge_pairs(graph) ^ set(oracle) <= near
    # and every other edge keeps its first (u, t) landing as its witness
    for a, b, w_u, w_t in zip(*(c.tolist() for c in edge_columns(graph))):
        if (a, b) not in near:
            assert oracle[a, b] == (w_u, w_t), (a, b)


def _unskipped_reference(system, window, graph):
    """(keys src * n + dst, witnesses u * n_t + t, truncation flags) of the
    graph run from every source, with no slice of the circle shifts: every
    kd-tree candidate of every (u, t) landing gets the exact distance, and
    each pair keeps its smallest witness."""
    n, n_t = window.n_nodes, graph.snapshot_steps.size
    frames, truncated = _propagate_family(
        system, window.points, graph.control_family, graph.step,
        graph.n_steps, graph.snapshot_steps, graph.inflated_lower,
        graph.inflated_upper, window.box)
    offset = np.where(window.box, 0.0, np.pi)
    tree = cKDTree(window.points + offset, boxsize=2.0 * offset)
    cut = graph.radius + 1e-12
    keys, witness = [], []
    for t_idx, (rows, landed) in enumerate(frames):
        balls = tree.query_ball_point(landed + offset,
                                      window.query_radii(landed, cut))
        owner = np.repeat(np.arange(rows.size), [len(b) for b in balls])
        dst = np.concatenate([np.asarray(b, dtype=np.int64)
                              for b in balls] + [np.zeros(0, np.int64)])
        hit = system.group.distance(landed[owner], window.points[dst]) <= cut
        u_of, src = np.divmod(rows[owner[hit]], n)
        keys.append(src * n + dst[hit])
        witness.append(u_of * n_t + t_idx)
    key, pair = np.unique(np.concatenate(keys), return_inverse=True)
    smallest = np.full(key.size, np.iinfo(np.int64).max)
    np.minimum.at(smallest, pair, np.concatenate(witness))
    return key, smallest, truncated.any(axis=0)


@pytest.mark.parametrize("name", ["heisenberg-expanding-small",
                                  "conjugation-upstairs-small",
                                  "rotation-plane-small",
                                  "skewed-rotation-small"])
def test_graph_equals_unskipped_reference(name):
    # the slice and the replication around the circle shifts change no
    # edge, witness or truncation flag
    _assert_equals_unskipped_reference(*_small_graph(name))


def _assert_equals_unskipped_reference(system, window, graph):
    n = window.n_nodes
    key, witness, truncated = _unskipped_reference(system, window, graph)
    assert graph.n_edges > 0
    src, dst, u, t = edge_columns(graph)
    assert np.array_equal(src, key // n)
    assert np.array_equal(dst, key % n)
    assert np.array_equal(u * graph.snapshot_steps.size + t, witness)
    assert np.array_equal(graph.truncated, truncated)


def test_wide_witnesses_around_two_symmetric_circles():
    # 81 controls x 4 snapshots: 324 witness codes need uint16, and each
    # copy around both circle axes keeps its edge's smallest one
    c = cfg.preset_config("conjugation-upstairs")
    system = cfg.build_system(c)
    window = GridWindow(system.group, -0.125, 0.125, [0.25, 0.25], (8, 8))
    assert window.symmetric_axes == (0, 3)
    grid = np.linspace(-1.0, 1.0, 9)
    family = np.stack(np.meshgrid(grid, grid, indexing="ij"),
                      axis=-1).reshape(-1, 2)
    graph = build_chain_graph(system, window, c.eps, c.tau,
                              control_family=family)
    assert graph.witness.dtype == np.uint16
    assert graph.witness.max() > 255
    _assert_equals_unskipped_reference(system, window, graph)


def test_edge_code_overflow_is_refused_before_the_controls_are_checked():
    # 1.5M cells squared times 4.4M witnesses is past int64; the refusal
    # comes before the per-control range check of 1.1M controls (all out of
    # range here)
    system = scalar_system(-1.0)
    window = scalar_window(system, half=0.75, delta=1e-6)
    assert window.n_nodes == 1_500_000
    family = np.full((1_100_000, 1), 2.0)
    with pytest.raises(ValidationError, match="int64"):
        build_chain_graph(system, window, eps=0.1, tau=1.0,
                          control_family=family)


def test_kdtree_wraps_the_circle_axes_only(monkeypatch):
    # x0 is a circle and x1 a box axis over the same [-pi, pi) in 8 cells: a
    # query just below +pi reaches the first cell across the circle's seam,
    # never across the box
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, []),
                            angular_x_mask=[True, False])
    system = LinearControlSystem(group, np.diag([0.0, -1.0]), [[1.0, 0.0]],
                                 ControlRange([-1.0], [1.0]))
    window = GridWindow(group, -np.pi, np.pi, 2.0 * np.pi / 8, (8,))
    trees = []

    def keep(*args, **kwargs):
        trees.append(cKDTree(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr("chaincontrol.chains.cKDTree", keep)
    graph = build_chain_graph(system, window, eps=0.1, tau=1.0)
    assert graph.n_edges > 0
    [tree] = trees
    d = window.delta[0]
    near = np.pi - d / 4.0
    for axis in (0, 1):
        landing = np.zeros(2)
        landing[axis] = near
        # the tree holds the circle axis shifted by pi into [0, 2 pi)
        found = tree.query_ball_point(landing + np.where(window.box, 0.0,
                                                         np.pi), d)
        at = window.axis_indices(found)[:, axis]
        assert 7 in at
        assert (0 in at) == (axis == 0)


def test_pair_blocks_change_no_edge(monkeypatch):
    # the exact distances run in blocks of PAIR_LIMIT candidate pairs; tiny
    # blocks cut through every landing's candidates and change nothing
    system, window, graph = _small_graph("heisenberg-expanding-small")
    monkeypatch.setattr("chaincontrol.chains.PAIR_LIMIT", 97)
    blocked = build_chain_graph(system, window, graph.eps, graph.tau,
                                control_family=graph.control_family,
                                time_samples=graph.time_samples)
    for name in ("indptr", "dst", "witness", "truncated"):
        assert np.array_equal(getattr(blocked, name), getattr(graph, name))


@pytest.mark.parametrize("name,limit", [
    ("scalar-stable", 1), ("heisenberg-expanding-small", 1),
    ("filiform4-small", 4999), ("filiform5-small", 97),
    ("rotation-plane-small", 1), ("conjugation-upstairs-small", 1)])
def test_tiny_budgets_change_no_graph_bit(monkeypatch, name, limit):
    # classes 1 to 4 and both kinds of circle axis: row blocks of 97
    # row-steps split the sieve's rows, a PAIR_LIMIT of 1 sends one landing
    # per kd-tree call (a few landings on the dense class 3 and 4 graphs,
    # whose 1.2e4 and 6.5e4 stored edges make that slow), and the kept
    # codes are merged after every block; every graph array keeps its bits
    system, window, graph = _small_graph(name)
    landings, merges = [], []

    class Counting(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            landings.append(len(x))
            return super().query_ball_point(x, r, **kwargs)

    def counted_merge(kept, n_w):
        merges.append(len(kept))
        return merge(kept, n_w)

    merge = chains._merge_codes
    monkeypatch.setattr("chaincontrol.chains.cKDTree", Counting)
    monkeypatch.setattr("chaincontrol.chains._merge_codes", counted_merge)
    monkeypatch.setattr("chaincontrol.chains._merge_due", lambda *_: True)
    monkeypatch.setattr("chaincontrol.chains.STEP_BLOCK", 97)
    monkeypatch.setattr("chaincontrol.chains.PAIR_LIMIT", limit)
    tiny = build_chain_graph(system, window, graph.eps, graph.tau,
                             control_family=graph.control_family,
                             time_samples=graph.time_samples)
    assert graph.n_edges > 0
    assert len(landings) > len(graph.snapshot_steps)
    assert limit > 1 or set(landings) == {1}
    # one merge after each block, and the last one
    assert len(merges) == len(landings) + 1
    for attr in ("indptr", "dst", "witness", "truncated"):
        assert np.array_equal(getattr(tiny, attr), getattr(graph, attr))


@pytest.mark.parametrize("name,limit", [
    ("heisenberg-expanding", PAIR_LIMIT), ("coarse-expanding", PAIR_LIMIT),
    ("heisenberg-expanding-small", 97), ("conjugation-upstairs-small", 97),
    ("filiform5-small", 97)])
def test_kdtree_calls_hold_at_most_pair_limit_candidates(monkeypatch, name,
                                                         limit):
    # each kd-tree call takes a run of landings whose a-priori candidate
    # bound fits in PAIR_LIMIT, so it returns at most PAIR_LIMIT candidates
    # unless it holds one landing, and the bound is at least each landing's
    # true count
    if name.endswith("-small"):
        system, window, graph = _small_graph(name)
        c = SimpleNamespace(eps=graph.eps, tau=graph.tau,
                            family=graph.control_family,
                            times=graph.time_samples)
    else:
        c, system, window = (_coarse_expanding_case()
                             if name == "coarse-expanding"
                             else _preset_case(name))
    calls = []

    class Counting(cKDTree):
        def query_ball_point(self, x, r, **kwargs):
            balls = super().query_ball_point(x, r, **kwargs)
            counts = np.array([len(b) for b in balls])
            assert np.all(window.ball_cells(r) >= counts)
            calls.append((len(balls), int(counts.sum())))
            return balls

    monkeypatch.setattr("chaincontrol.chains.cKDTree", Counting)
    monkeypatch.setattr("chaincontrol.chains.PAIR_LIMIT", limit)
    build_chain_graph(system, window, c.eps, c.tau, control_family=c.family,
                      time_samples=c.times)
    assert all(total <= limit or n == 1 for n, total in calls)
    # more calls than snapshots: the landings were split
    assert len(calls) > 4


def test_edge_limit_refuses_a_larger_graph(monkeypatch):
    # the merged kept pairs are held to EDGE_LIMIT: a graph with exactly
    # that many stored edges builds, one more is refused with one line
    system, window, graph = _small_graph("heisenberg-expanding-small")
    args = (system, window, graph.eps, graph.tau)
    kwargs = {"control_family": graph.control_family,
              "time_samples": graph.time_samples}
    monkeypatch.setattr("chaincontrol.chains.EDGE_LIMIT", graph.dst.size)
    assert np.array_equal(build_chain_graph(*args, **kwargs).dst, graph.dst)
    monkeypatch.setattr("chaincontrol.chains.EDGE_LIMIT", graph.dst.size - 1)
    with pytest.raises(ValidationError, match="EDGE_LIMIT"):
        build_chain_graph(*args, **kwargs)


def test_one_drift_power_stack_per_chainset_run(monkeypatch):
    # the graph build and the source-constant estimate of one chainset run
    # share the drift-flow powers and, on the same control slice, the
    # anchor table: the estimate builds neither again
    stacks, first_steps = [], []

    def counted_stack(*args):
        stacks.append(1)
        return power_stack(*args)

    def counted_step(*args):
        first_steps.append(1)
        return _rk4_step(*args)

    monkeypatch.setattr("chaincontrol.chains.power_stack", counted_stack)
    monkeypatch.setattr("chaincontrol.chains._rk4_step", counted_step)
    c = cfg.preset_config("heisenberg-expanding")
    system, window, _, sets = verify.chain_run(c)
    built = len(first_steps)
    run = verify.verdict_run(c, system, window, sets)
    assert run.bound.bounds is not None
    assert len(stacks) == 1 and len(first_steps) == built > 0


def _one_each(n_controls, rows_per_control, n_steps):
    """`_control_slices` at one control per slice."""
    return [slice(a, a + 1) for a in range(n_controls)]


@pytest.mark.parametrize("name", ["heisenberg-expanding-small",
                                  "conjugation-upstairs"])
def test_control_slices_change_no_edge(monkeypatch, name):
    # past ANCHOR_ROW_LIMIT rows the controls run in slices, and a witness
    # counts its control from its slice's first; one control per slice
    # changes no edge, witness or flag
    system, window, graph = _small_graph(name)
    assert graph.witness.max() >= len(graph.snapshot_steps)
    monkeypatch.setattr("chaincontrol.chains._control_slices", _one_each)
    sliced = build_chain_graph(system, window, graph.eps, graph.tau,
                               control_family=graph.control_family,
                               time_samples=graph.time_samples)
    for attr in ("indptr", "dst", "witness", "truncated"):
        assert np.array_equal(getattr(sliced, attr), getattr(graph, attr))


def test_control_slices_change_no_source_constant(monkeypatch):
    c, system, window = _preset_case("heisenberg-expanding")
    args = (system, window, c.tau, c.family)
    whole = estimate_source_constants(*args)
    monkeypatch.setattr("chaincontrol.chains._control_slices", _one_each)
    assert np.array_equal(estimate_source_constants(*args), whole)


def loop_source_constants(system, window, tau, family):
    """estimate_source_constants one frame at a time: per frame one field
    call, two matmuls and the per-level norms."""
    alg, group, box = system.algebra, system.group, window.box
    seeds = central_fiber_nodes(window)
    starts = window.points[seeds[~window.axis_indices(seeds)[:, ~box].any(
        axis=1)]]
    h, n_steps = _step_grid(system, tau)
    steps = range(0, n_steps + 1, 5)
    sup = np.zeros(alg.nilpotency_class)
    for part in chains._control_slices(len(family), len(starts) * len(steps),
                                       n_steps):
        frames, _ = _propagate_family(system, starts, family[part], h,
                                      n_steps, steps, window.lower[box],
                                      window.upper[box], box)
        for rows, pts in frames:
            x = np.where(box, pts, 0.0)[:, group.h_dim:]
            xdot = np.where(box, system.field(
                family[part][rows // len(starts)], pts), 0.0)[:, group.h_dim:]
            for i, sl in enumerate(alg.level_slices):
                b = system.blocks.block(i + 1, i + 1)
                src = (xdot @ alg.frame)[:, sl] - (x @ alg.frame)[:, sl] @ b.T
                sup[i] = max(sup[i], float(np.max(
                    np.linalg.norm(src, axis=-1), initial=0.0)))
    return sup + action_norm_sup(window)


def _coarse_expanding_case():
    """heisenberg-expanding with delta doubled, the graph-expanding bench
    input."""
    raw = copy.deepcopy(cfg.PRESETS["heisenberg-expanding"])
    raw["chain"]["delta"] = [2.0 * d for d in raw["chain"]["delta"]]
    c = cfg.parse_config(raw)
    system = cfg.build_system(c)
    return c, system, cfg.build_window(c, system)


@pytest.mark.parametrize("name", sorted(cfg.PRESETS) + ["coarse-expanding"])
@pytest.mark.parametrize("slices", ["fitted", "one-each", "small-blocks"])
def test_source_constants_match_the_frame_loop(monkeypatch, name, slices):
    # the frames of a slice are evaluated in blocks of at most STEP_BLOCK
    # rows; one control per slice, or blocks of 7 rows that cut the frames
    # (and the anchored runs' step blocks), keep every bit
    c, system, window = (_coarse_expanding_case()
                         if name == "coarse-expanding"
                         else _preset_case(name))
    family = c.family if c.family is not None else \
        system.range.sample_family()
    if slices == "one-each":
        monkeypatch.setattr("chaincontrol.chains._control_slices", _one_each)
    if slices == "small-blocks":
        monkeypatch.setattr("chaincontrol.chains.STEP_BLOCK", 7)
    got = estimate_source_constants(system, window, c.tau, family)
    assert np.array_equal(got, loop_source_constants(system, window, c.tau,
                                                     family))


def test_control_slices_count_anchors_and_refuse_one_control_over():
    # a control holds its kept states and n_steps + 1 anchors: 9 controls of
    # 216 kept rows share one run up to 232,799 steps, then run in slices;
    # one control over the limit is refused, by the source constants too
    limit = ANCHOR_ROW_LIMIT
    assert _control_slices(9, 216, limit // 9 - 217) == [slice(0, 9)]
    assert _control_slices(9, 216, 233_000) == [slice(0, 8), slice(8, 16)]
    assert _control_slices(9, 216, limit - 217) == _one_each(9, 216, 0)
    _, system, window = _preset_case("conjugation-upstairs")
    for refused in (lambda: _control_slices(9, 216, limit - 216),
                    lambda: estimate_source_constants(system, window, 1e5)):
        with pytest.raises(ValidationError, match="chain.tau"):
            refused()


def test_kept_states_over_the_row_limit_are_refused_before_the_kd_tree(
        monkeypatch):
    # one control's kept states alone fill ANCHOR_ROW_LIMIT: the line names
    # both counts and chain.delta, and no kd-tree is built
    system, window, graph = _small_graph("heisenberg-expanding-small")
    kept = window.n_nodes * (graph.time_samples.size + 2)
    monkeypatch.setattr("chaincontrol.chains.ANCHOR_ROW_LIMIT", kept)

    def no_tree(*args, **kwargs):
        raise AssertionError("kd-tree built before the refusal")

    monkeypatch.setattr("chaincontrol.chains.cKDTree", no_tree)
    with pytest.raises(ValidationError, match=(
            f"^one control needs {kept} kept states and {graph.n_steps + 1} "
            r"anchors, over ANCHOR_ROW_LIMIT .*chain\.delta")):
        build_chain_graph(system, window, graph.eps, graph.tau,
                          control_family=graph.control_family,
                          time_samples=graph.time_samples)


def test_skewed_torus_shifts_would_move_edges():
    # replicating around the skewed torus axis anyway gets the graph wrong,
    # so the reference test above can see a bad symmetry
    system, window, graph = _small_graph("skewed-rotation-small")
    assert window.symmetric_axes == ()

    class ForcedWindow(GridWindow):
        symmetric_axes = (0,)

    _, *box, _ = SMALL_WINDOWS["skewed-rotation-small"]
    forced_window = ForcedWindow(system.group, *box)
    assert forced_window.n_shifts == 16
    forced = build_chain_graph(system, forced_window, graph.eps, graph.tau,
                               control_family=graph.control_family,
                               time_samples=graph.time_samples)
    assert edge_pairs(forced) != edge_pairs(graph)


def test_audit_clean_on_replicated_graph():
    # 63 of every 64 conjugation-upstairs edges are lifted from the slice
    # rows around the circle shifts; the audit samples every lifted edge
    # and re-integrates each from its own source
    c = cfg.preset_config("conjugation-upstairs")
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    graph = build_chain_graph(system, window, c.eps, c.tau)
    assert graph.n_edges == 1_776_896
    assert graph.dst.size == 27_764
    report = audit_edges(system, graph, fraction=2e-5, seed=7)
    # the sample the graph with every copy stored gave
    assert report == {"checked": 36, "failures": 0,
                      "worst_excess": pytest.approx(-0.004846268425570899,
                                                    rel=1e-9)}


def test_audit_clean_on_expanding_graph():
    c = cfg.preset_config("heisenberg-expanding")
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    graph = build_chain_graph(system, window, c.eps, c.tau,
                              control_family=c.family, time_samples=c.times)
    report = audit_edges(system, graph, fraction=2e-5, seed=7)
    assert report["checked"] > 0
    assert report["failures"] == 0
