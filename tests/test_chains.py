import copy
import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from chaincontrol import config as cfg
from chaincontrol.algebra import NilpotentAlgebra, preset_structure
from chaincontrol.chains import (
    EDGE_CHUNK,
    ChainControlSetApprox,
    GridWindow,
    _default_time_samples,
    _propagate,
    _propagate_family,
    _step_grid,
    _translate,
    audit_edges,
    build_chain_graph,
    central_fiber_nodes,
    estimate_source_constants,
    extract_chain_sets,
    level_extents,
    strongly_connected_components,
    theoretical_bound,
    verify_uniqueness_and_containment,
    write_edges_csv,
    write_nodes_csv,
    write_plot_slice,
    write_sets_jsonl,
)
from chaincontrol.errors import (
    NotHyperbolicError,
    TauTooSmallError,
    ValidationError,
)
from chaincontrol.group import RhoAction, SemidirectGroup, TorusGroup
from chaincontrol.lcs import ControlRange, LinearControlSystem

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def scalar_system(rate):
    alg = NilpotentAlgebra(preset_structure("abelian:1"))
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
    return LinearControlSystem(group, [[rate]], [[1.0]],
                               ControlRange([-1.0], [1.0]))


def scalar_window(system, half=2.0, delta=0.05):
    return GridWindow(system.group, [-half], [half], [delta])


def edge_pairs(graph):
    return set(zip(graph.src.tolist(), graph.dst.tolist()))


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


def test_grid_window_from_bounds():
    system = scalar_system(-1.0)
    window = GridWindow.from_bounds(system.group, [1.0], [0.25])
    # factor 1.5 on a unit bound, ceil to whole cells
    assert window.x_lower[0] == pytest.approx(-1.5)
    assert window.x_upper[0] == pytest.approx(1.5)
    with pytest.raises(ValidationError):
        GridWindow.from_bounds(system.group, [1.0], [0.25], factor=1.0)
    with pytest.raises(ValidationError):
        GridWindow.from_bounds(system.group, [np.inf], [0.25])


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
    group = SemidirectGroup(TorusGroup(1), alg, RhoAction(alg, [ROT]))
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
        return SemidirectGroup(TorusGroup(1), alg, action)
    alg = NilpotentAlgebra(preset_structure(name))
    return SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))


@pytest.mark.parametrize("name", ["skewed-abelian:2", "skewed-heisenberg3",
                                  "filiform4", "filiform5",
                                  "conjugation-upstairs"])
@pytest.mark.parametrize("cut", [0.3, 2.0])
def test_query_radii_cover_group_balls(name, cut):
    # every b = a z with |z| <= cut lies within the query radius of a in the
    # embedding, for landings a far from the identity (|x_a| up to 10, where
    # the class-3 and class-4 terms of the radius dominate)
    group = _radii_case(name)
    window = GridWindow(group, -1.0, 1.0, 0.5, angle_cells=(4,) * group.h_dim,
                        masked_cells=(4,) * int(group.x_mask.sum()))
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
    gap = np.linalg.norm(window.embed(a) - window.embed(b), axis=1)
    assert np.all(gap <= radii), float(np.max(gap / radii))


@pytest.mark.parametrize("name", ["skewed-abelian:2", "skewed-heisenberg3",
                                  "filiform4", "filiform5",
                                  "conjugation-upstairs"])
def test_translate_matches_group_product(name):
    # the affine map per anchor, plus the quadratic BCH terms of classes 3
    # and 4, is the group product a * (h_g, F x_g) for any matrix F
    group = _radii_case(name)
    rng = np.random.default_rng(23)
    n_u, n = 5, 400
    anchor = group.normalize(np.hstack([
        rng.uniform(-np.pi, np.pi, (n_u, group.h_dim)),
        rng.uniform(-3.0, 3.0, (n_u, group.x_dim))]))
    starts = group.normalize(np.hstack([
        rng.uniform(-np.pi, np.pi, (n, group.h_dim)),
        rng.standard_normal((n, group.x_dim))]))
    flow = np.eye(group.x_dim) + 0.5 * rng.standard_normal((group.x_dim,) * 2)
    u_of = np.sort(rng.integers(0, n_u, n))
    got = _translate(group, anchor, flow, starts, u_of)
    h_g, x_g = group.split(starts)
    want = group.multiply(anchor[u_of], group.join(h_g, x_g @ flow.T))
    scale = 1.0 + np.linalg.norm(group.split(want)[1], axis=1)
    gap = group.distance(want, got)
    assert np.all(gap <= 1e-12 * scale), float(np.max(gap / scale))


# -- graph construction ------------------------------------------------------


def test_graph_shape_and_witnesses(stable_setup):
    _, window, graph = stable_setup
    assert graph.n_nodes == 80
    assert graph.n_edges > 0
    assert graph.src.shape == graph.dst.shape
    assert np.all(graph.witness_u >= 0)
    assert np.all(graph.witness_u < len(graph.control_family))
    assert np.all(graph.witness_t >= 0)
    assert np.all(graph.witness_t < len(graph.snapshot_steps))
    # snapped durations stay inside [tau, 2 tau]
    assert np.all(graph.time_samples >= graph.tau - 1e-9)
    assert np.all(graph.time_samples <= 2 * graph.tau + 1e-9)
    assert len(edge_pairs(graph)) == graph.n_edges


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
    assert np.array_equal(graph.src, again.src)
    assert np.array_equal(graph.dst, again.dst)
    assert np.array_equal(graph.witness_u, again.witness_u)
    assert np.array_equal(graph.witness_t, again.witness_t)


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
    _, _, graph = stable_setup
    comps = strongly_connected_components(graph)
    all_nodes = np.concatenate(comps)
    assert len(all_nodes) == graph.n_nodes
    assert len(np.unique(all_nodes)) == graph.n_nodes
    # relabeled by smallest member, so starts are strictly increasing
    starts = [int(c[0]) for c in comps]
    assert starts == sorted(starts)


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
    group = SemidirectGroup(TorusGroup(1), alg, RhoAction(alg, [np.zeros((1, 1))]))
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
    group = SemidirectGroup(TorusGroup(1), alg, RhoAction(alg, [ROT]))
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
    masked = level_extents(alg, x, x_mask=np.array([False, False, True]))
    assert masked[0] == pytest.approx(ext[0])


def test_level_extents_empty():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    ext = level_extents(alg, np.zeros((0, 3)))
    assert ext.shape == (2,)
    assert np.all(ext == 0.0)


# -- bounds ------------------------------------------------------------------


def test_theoretical_bound_scalar_frozen():
    system = scalar_system(-1.0)
    lb = theoretical_bound(system, 1.0, [1.0])
    assert lb.kappa[0] == pytest.approx(1.0)
    assert lb.mu[0] == pytest.approx(0.9)
    assert lb.contraction[0] == pytest.approx(np.exp(-0.9))
    # 2 * 1 * (1 + 1/0.9) / (1 - e^{-0.9})
    assert lb.bounds[0] == pytest.approx(7.11497, abs=1e-4)


def test_theoretical_bound_tau_monotone():
    system = scalar_system(-1.0)
    taus = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [theoretical_bound(system, t, [1.0]).bounds[0] for t in taus]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # large tau limit: 2 C (1 + kappa/mu)
    assert vals[-1] == pytest.approx(2 * (1 + 1 / 0.9), rel=1e-3)


def test_theoretical_bound_heisenberg_levels():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.diag([1.0, 2.0, 3.0]),
                                 [[1.0, 1.0, 0.0]],
                                 ControlRange([-1.0], [1.0]))
    lb = theoretical_bound(system, 1.0, [1.0, 1.0])
    assert lb.bounds.shape == (2,)
    assert np.all(lb.contraction < 1.0)
    assert np.all(lb.bounds > 0.0)


def test_theoretical_bound_tau_too_small():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
    system = LinearControlSystem(group, [[1.0, 4.0], [0.0, 1.2]],
                                 np.eye(2), ControlRange([-1.0] * 2, [1.0] * 2))
    with pytest.raises(TauTooSmallError):
        theoretical_bound(system, 0.01, [1.0])
    # a long enough dwell restores the contraction
    lb = theoretical_bound(system, 10.0, [1.0])
    assert lb.contraction[0] < 1.0


def test_theoretical_bound_not_hyperbolic():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.diag([0.0, -1.0]),
                                 np.eye(2), ControlRange([-1.0] * 2, [1.0] * 2))
    with pytest.raises(NotHyperbolicError):
        theoretical_bound(system, 1.0, [1.0])


def test_theoretical_bound_validation():
    system = scalar_system(-1.0)
    with pytest.raises(ValidationError):
        theoretical_bound(system, -1.0, [1.0])
    with pytest.raises(ValidationError):
        theoretical_bound(system, 1.0, [1.0, 2.0])
    with pytest.raises(ValidationError):
        theoretical_bound(system, 1.0, [-1.0])


def test_estimate_source_constants_scalar(stable_setup):
    system, window, _ = stable_setup
    c = estimate_source_constants(system, window, 1.0)
    assert c.shape == (1,)
    # source term is exactly u, sup |u| = 1 over the family, plus the
    # trivial jump factor 1
    assert c[0] == pytest.approx(2.0, abs=1e-6)
    lb = theoretical_bound(system, 1.0, c)
    assert lb.bounds[0] == pytest.approx(14.2299, abs=1e-3)


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


def test_verify_report_passes():
    s = _fake_set([3, 4, 5], [0.5])
    rep = verify_uniqueness_and_containment([s], [4], bounds=[1.0])
    assert rep.passed
    assert rep.unique and rep.fiber_contained and rep.extents_ok
    assert not rep.boundary_touched
    assert rep.failures == []


def test_verify_report_itemizes_failures():
    a = _fake_set([0, 1, 2], [2.0], touch=True)
    b = _fake_set([10], [0.1])
    rep = verify_uniqueness_and_containment([a, b], [5], bounds=[1.0])
    assert not rep.passed
    assert rep.n_sets == 2
    assert not rep.unique
    assert rep.missing_fiber_nodes == 1
    assert not rep.extents_ok
    assert rep.boundary_touched
    assert len(rep.failures) == 4


def test_verify_report_no_sets():
    rep = verify_uniqueness_and_containment([], [0], bounds=None)
    assert not rep.passed
    assert rep.n_sets == 0 and not rep.unique


# -- audit -------------------------------------------------------------------


def test_audit_edges_clean(stable_setup):
    system, _, graph = stable_setup
    report = audit_edges(system, graph, fraction=0.05, seed=99)
    assert report["checked"] > 0
    assert report["failures"] == 0
    assert report["worst_excess"] <= 1e-6


# -- writers -----------------------------------------------------------------


def test_writers_roundtrip(tmp_path, stable_setup):
    system, window, graph = stable_setup
    sets = extract_chain_sets(graph)
    lb = theoretical_bound(system, 1.0,
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
        for a, b, u, t in zip(graph.src, graph.dst, graph.witness_u,
                              graph.witness_t)]
    # more rows than one chunk: the bytes csv.writer writes
    rng = np.random.default_rng(3)
    n_rows = EDGE_CHUNK + 1001
    big = dataclasses.replace(
        graph, src=rng.integers(0, graph.n_nodes, n_rows),
        dst=rng.integers(0, graph.n_nodes, n_rows),
        witness_u=rng.integers(0, len(graph.control_family), n_rows),
        witness_t=rng.integers(0, len(graph.time_samples), n_rows))
    write_edges_csv(edges_path, big)
    ref_path = tmp_path / "edges_ref.csv"
    with open(ref_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst", "u0", "T"])
        writer.writerows(
            [a, b, *(f"{v:.12g}" for v in big.control_family[u]),
             f"{big.time_samples[t]:.12g}"]
            for a, b, u, t in zip(big.src.tolist(), big.dst.tolist(),
                                  big.witness_u.tolist(),
                                  big.witness_t.tolist()))
    assert edges_path.read_bytes() == ref_path.read_bytes()

    sets_path = tmp_path / "sets.jsonl"
    write_sets_jsonl(sets_path, sets, bounds=lb)
    recs = [json.loads(l) for l in sets_path.read_text().splitlines()]
    assert len(recs) == 1
    assert recs[0]["contains_identity"] is True
    assert recs[0]["within_bounds"] is True

    plot_path = tmp_path / "slice.csv"
    with pytest.raises(ValidationError):
        write_plot_slice(plot_path, graph, sets[0])


# -- anchored runs against the direct-integration oracle ----------------------

# Start cells per preset for the oracle comparison: every cell where the
# oracle is cheap, a strided sample where integrating every cell directly
# would take tens of seconds (heisenberg-expanding: 20,000 cells x 12
# controls x 600 steps; rotation-plane: 6,400 x 5 x 400; conjugation-upstairs:
# 2,304 x 9 x 200).
ORACLE_STRIDE = {"heisenberg-expanding": 40, "rotation-plane": 16,
                 "conjugation-upstairs": 4}


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
    h, n_steps, flows = _step_grid(system, c.tau)
    # the graph's snapshot steps plus four records spread over the run
    steps = np.union1d(_snapshot_steps(times, c.tau, h, n_steps),
                       range(0, n_steps + 1, n_steps // 4))
    lo, hi = window.inflated_bounds(c.eps + window.half_diameter)
    starts = window.points[::ORACLE_STRIDE.get(name, 1)]

    frames, truncated = _propagate_family(
        system, starts, family, h, flows, steps, lo, hi, window.free_columns)
    assert truncated.shape == (len(family), len(starts))
    assert len(frames) == len(steps)
    for j, u in enumerate(family):
        ref_frames, ref_trunc = _propagate(
            system, starts, u, h, n_steps, steps, lo, hi, window.free_columns)
        assert np.array_equal(truncated[j], ref_trunc)
        for (states, alive), (ref_states, ref_alive) in zip(frames,
                                                            ref_frames):
            assert np.array_equal(alive[j], ref_alive)
            gap = system.group.distance(states[j][ref_alive],
                                        ref_states[ref_alive])
            assert np.all(gap <= 1e-8), float(np.max(gap))


# no shrink phase: most of an example comes from the rng seed, which
# shrinking cannot simplify, and on a failure it ran for minutes
@settings(derandomize=True, max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(heisenberg=st.booleans(), a=st.floats(-1.5, 1.5),
       b=st.floats(-1.5, 1.5), seed=st.integers(0, 2 ** 32 - 1))
def test_anchored_runs_match_oracle_on_random_systems(heisenberg, a, b, seed):
    # diagonal derivations: diag(a, b, a + b) on heisenberg3, where the
    # Leibniz rule forces the sum, and diag(a, b) on the plane
    rng = np.random.default_rng(seed)
    name, rates = (("heisenberg3", [a, b, a + b]) if heisenberg
                   else ("abelian:2", [a, b]))
    alg = NilpotentAlgebra(preset_structure(name))
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
    n = alg.dim
    system = LinearControlSystem(group, np.diag(rates),
                                 rng.uniform(-1.0, 1.0, (1, n)),
                                 ControlRange([-1.0], [1.0]))
    family = rng.uniform(-1.0, 1.0, (3, 1))
    lo, hi = -rng.uniform(0.3, 1.5, n), rng.uniform(0.3, 1.5, n)
    starts = rng.uniform(lo, hi, (6, n))
    cols = np.arange(n)
    h, n_steps, flows = _step_grid(system, 0.25)
    steps = range(n_steps + 1)

    frames, truncated = _propagate_family(system, starts, family, h, flows,
                                          steps, lo, hi, cols)
    for j, u in enumerate(family):
        ref_frames, ref_trunc = _propagate(system, starts, u, h, n_steps,
                                           steps, lo, hi, cols)
        # rows whose oracle run meets the box within 1e-8 may truncate
        # one step apart
        inner = _propagate(system, starts, u, h, n_steps, [], lo + 1e-8,
                           hi - 1e-8, cols)[1]
        outer = _propagate(system, starts, u, h, n_steps, [], lo - 1e-8,
                           hi + 1e-8, cols)[1]
        sure = inner == outer
        assert np.array_equal(truncated[j][sure], ref_trunc[sure])
        for (states, alive), (ref_states, ref_alive) in zip(frames,
                                                            ref_frames):
            assert np.array_equal(alive[j][sure], ref_alive[sure])
            both = alive[j] & ref_alive
            gap = group.distance(states[j][both], ref_states[both])
            assert np.all(gap <= 1e-8), float(np.max(gap))


def _oracle_edges(system, window, graph):
    """(src, dst) pairs from direct integration and brute-force distances,
    each with its first (u, t) landing, plus the pairs with some landing
    within 1e-9 of the radius."""
    edges, near = {}, set()
    centers = window.points
    for u_idx, u in enumerate(graph.control_family):
        frames, _ = _propagate(
            system, centers, u, graph.step, graph.n_steps,
            graph.snapshot_steps, graph.inflated_lower, graph.inflated_upper,
            window.free_columns)
        for t_idx, (states, alive) in enumerate(frames):
            src = np.flatnonzero(alive)
            d = system.group.distance(states[src][:, None, :],
                                      centers[None, :, :])
            a, b = np.nonzero(d <= graph.radius + 1e-12)
            for pair in zip(src[a].tolist(), b.tolist()):
                edges.setdefault(pair, (u_idx, t_idx))
            a, b = np.nonzero(np.abs(d - graph.radius) <= 1e-9)
            near.update(zip(src[a].tolist(), b.tolist()))
    return edges, near


# class 3, for the quadratic BCH terms of the anchored runs: filiform4 with
# the graded diagonal derivation diag(a, b, a + b, 2a + b), a = b = -1
FILIFORM4_CONFIG = {
    "schema": 1, "seed": 1, "algebra": {"preset": "filiform4"},
    "derivation": np.diag([-1.0, -1.0, -2.0, -3.0]).tolist(),
    "torus": {"dim": 0},
    "control": {"z": [[1.0, 1.0, 0.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
    "chain": {"x_lower": [-0.8, -0.8, -0.4, -0.4],
              "x_upper": [0.8, 0.8, 0.4, 0.4],
              "delta": [0.32, 0.32, 0.2, 0.2], "eps": 0.1, "tau": 0.5},
}

# small windows where direct integration of every cell is cheap:
# (preset or config, box lower, box upper, cell sizes, angle cells, masked
# cells, control stride), or (config, control stride) for its own window
SMALL_WINDOWS = {
    "rotation-plane-small": ("rotation-plane", -0.6, 0.6, [0.2, 0.2], (16,),
                             (), 1),
    # class 2: the query radius exceeds the exact cut by up to 45 percent
    "heisenberg-expanding-small": ("heisenberg-expanding",
                                   [-0.96, -0.48, -0.24], [0.96, 0.48, 0.24],
                                   [0.32, 0.16, 0.032], (), (), 3),
    # torus angle plus a masked circle
    "conjugation-upstairs-small": ("conjugation-upstairs", -0.25, 0.25,
                                   [0.25, 0.25], (8,), (8,), 1),
    "filiform4-small": (FILIFORM4_CONFIG, 2),
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
    for a, b, w_u, w_t in zip(graph.src.tolist(), graph.dst.tolist(),
                              graph.witness_u.tolist(),
                              graph.witness_t.tolist()):
        if (a, b) not in near:
            assert oracle[a, b] == (w_u, w_t), (a, b)


@pytest.mark.parametrize("name", ["heisenberg-expanding-small",
                                  "conjugation-upstairs-small"])
def test_graph_equals_unskipped_reference(name):
    # the graph built without the witnessed-pair skip: every kd-tree
    # candidate of every (u, t) landing gets the exact distance, and
    # np.unique keeps each pair's first, smallest, witness
    system, window, graph = _small_graph(name)
    n, n_t = window.n_nodes, graph.snapshot_steps.size
    flows = _step_grid(system, graph.tau)[2]
    frames, _ = _propagate_family(
        system, window.points, graph.control_family, graph.step, flows,
        graph.snapshot_steps, graph.inflated_lower, graph.inflated_upper,
        window.free_columns)
    tree = cKDTree(window.embed(window.points))
    cut = graph.radius + 1e-12
    keys, witness = [], []
    for u_idx in range(len(graph.control_family)):
        for t_idx, (states, alive) in enumerate(frames):
            rows = np.flatnonzero(alive[u_idx])
            landed = states[u_idx, rows]
            balls = tree.query_ball_point(window.embed(landed),
                                          window.query_radii(landed, cut))
            owner = np.repeat(np.arange(rows.size), [len(b) for b in balls])
            dst = np.concatenate([np.asarray(b, dtype=np.int64)
                                  for b in balls] + [np.zeros(0, np.int64)])
            d = system.group.distance(landed[owner], window.points[dst])
            keys.append((rows[owner] * n + dst)[d <= cut])
            witness.append(np.full(keys[-1].size, u_idx * n_t + t_idx))
    key, first = np.unique(np.concatenate(keys), return_index=True)
    assert graph.n_edges > 0
    assert np.array_equal(graph.src, key // n)
    assert np.array_equal(graph.dst, key % n)
    assert np.array_equal(graph.witness_u * n_t + graph.witness_t,
                          np.concatenate(witness)[first])


def test_audit_clean_on_expanding_graph():
    c = cfg.preset_config("heisenberg-expanding")
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    graph = build_chain_graph(system, window, c.eps, c.tau,
                              control_family=c.family, time_samples=c.times)
    report = audit_edges(system, graph, fraction=2e-5, seed=7)
    assert report["checked"] > 0
    assert report["failures"] == 0
