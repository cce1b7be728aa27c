import math

import numpy as np
import pytest

from chaincontrol import config as cfg
from chaincontrol import lcs
from chaincontrol.algebra import NilpotentAlgebra, preset_structure
from chaincontrol.errors import IntegratorBudgetError, ValidationError
from chaincontrol.group import RhoAction, SemidirectGroup
from chaincontrol.lcs import (
    ControlFunction,
    ControlRange,
    LinearControlSystem,
    cross_check_residual,
    flow_identity_residuals,
    integrate,
    integrate_runs,
    level_source,
    triangular_solve,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def scalar_system(rate):
    """One-dimensional xdot = rate*x + u with u in [-1, 1]."""
    alg = NilpotentAlgebra(preset_structure("abelian:1"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    return LinearControlSystem(group, [[rate]], [[1.0]],
                               ControlRange([-1.0], [1.0]))


def heisenberg_system(diag=(1.0, 2.0, 3.0)):
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    z = np.array([[1.0, 1.0, 0.0]])
    return LinearControlSystem(group, np.diag(diag), z,
                               ControlRange([-1.0], [1.0]))


def rotation_plane_system():
    """Torus circle acting by rotation on the plane; one control spins the
    circle, the other pushes along the first plane axis."""
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, [ROT]))
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    yh = np.array([[1.0], [0.0]])
    return LinearControlSystem(group, -np.eye(2), z,
                               ControlRange([-1.0] * 2, [1.0] * 2),
                               torus_controls=yh)


def test_control_range_family_1d():
    family = ControlRange([-1.0], [1.0]).sample_family()
    assert np.allclose(family, [[-1.0], [-0.5], [0.0], [0.5], [1.0]])


def test_control_range_family_2d():
    family = ControlRange([-1.0, -1.0], [1.0, 1.0]).sample_family()
    assert family.shape == (9, 2)
    expected = {(-1, -1), (-1, 1), (1, -1), (1, 1), (0, 0),
                (-0.5, 0), (0.5, 0), (0, -0.5), (0, 0.5)}
    assert {tuple(row) for row in family} == expected


def test_control_range_validation():
    with pytest.raises(ValidationError):
        ControlRange([0.0], [1.0])  # zero on the boundary
    with pytest.raises(ValidationError):
        ControlRange([-1e-9], [1.0])  # margin too small
    with pytest.raises(ValidationError):
        ControlRange([1.0], [-1.0])
    rng = ControlRange([-1.0, -2.0], [1.0, 0.5])
    assert rng.contains([0.5, -1.5])
    assert not rng.contains([0.5, 0.6])


def test_control_function_value_shift_pieces():
    u = ControlFunction([0.0, 1.0, 2.0], [[0.0], [1.0]])
    assert u.value(0.5) == pytest.approx(0.0)
    assert u.value(1.0) == pytest.approx(1.0)  # right-continuous
    assert u.value(2.0) == pytest.approx(1.0)  # closed at the right end
    with pytest.raises(ValidationError):
        u.value(2.5)
    shifted = u.shift(1.0)
    assert shifted.t_begin == pytest.approx(-1.0)
    assert shifted.value(0.0) == pytest.approx(1.0)
    pieces = u.pieces_over(0.5, 1.5)
    assert len(pieces) == 2
    assert pieces[0][0] == pytest.approx(0.5)
    assert np.allclose(pieces[0][1], [0.0])
    assert pieces[1][0] == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        u.pieces_over(-0.5, 1.0)


def test_field_zero_state_gives_control_vector():
    system = heisenberg_system()
    g = np.zeros(3)
    out = system.field([1.0], g)
    assert np.allclose(out, [1.0, 1.0, 0.0], atol=1e-12)


def test_field_abelian_is_affine():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.diag([2.0, -1.0]), [[1.0, 3.0]],
                                 ControlRange([-1.0], [1.0]))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(2)
        u = rng.uniform(-1, 1)
        expected = np.diag([2.0, -1.0]) @ x + u * np.array([1.0, 3.0])
        assert np.allclose(system.field([u], x), expected, atol=1e-12)


def test_field_heisenberg_series_hand_value():
    # value of the invariant extension of e1 at x = e2: e1 plus half e3
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.zeros((3, 3)), [[1.0, 0.0, 0.0]],
                                 ControlRange([-1.0], [1.0]))
    out = system.field([1.0], np.array([0.0, 1.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.5], atol=1e-12)


def test_field_torus_control_drives_plane():
    system = rotation_plane_system()
    g = np.array([0.3, 2.0, 0.0])
    out = system.field([1.0, 0.0], g)
    # circle speed 1; plane feels the drift plus the action generator
    assert out[0] == pytest.approx(1.0)
    assert np.allclose(out[1:], -g[1:] + ROT @ g[1:], atol=1e-12)


def _broadcast_field(system, u, g):
    """Reference field: v broadcast to a copy, then w and xdot broadcast and
    joined by one concatenate."""
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    _, x = system.group.split(g)
    w = u @ system.torus_vectors
    v = u @ system.z
    alg = system.algebra
    vel = np.broadcast_to(v, np.broadcast_shapes(v.shape, x.shape)).astype(float)
    if alg.nilpotency_class >= 2:
        b = alg.bracket(x, v)
        vel = vel - b / 2
        if alg.nilpotency_class >= 3:
            vel = vel + (1.0 / 12.0) * alg.bracket(x, b)
    xdot = x @ system.derivation.T + vel
    if system.gen_stack.shape[0]:
        xdot = xdot + np.einsum("...l,lab,...b->...a", w, system.gen_stack, x)
    lead = np.broadcast_shapes(w.shape[:-1], xdot.shape[:-1])
    return np.concatenate([
        np.broadcast_to(w, lead + (system.group.h_dim,)),
        np.broadcast_to(xdot, lead + (system.group.x_dim,)),
    ], axis=-1)


def _field_case_system(case):
    """A preset's system, or a class 3/4 algebra with zero drift."""
    if case in cfg.PRESETS:
        return cfg.build_system(cfg.preset_config(case))
    alg = NilpotentAlgebra(preset_structure(case))
    n = alg.dim
    group = SemidirectGroup(alg, RhoAction(alg, []))
    return LinearControlSystem(group, np.zeros((n, n)), np.eye(n),
                               ControlRange(-np.ones(n), np.ones(n)))


@pytest.mark.parametrize("case", sorted(cfg.PRESETS) + ["filiform4",
                                                          "filiform5"])
def test_field_bit_identical_to_broadcast_assembly(case):
    system = _field_case_system(case)
    rng = np.random.default_rng(21)
    m = system.range.m
    u = rng.uniform(system.range.lower, system.range.upper, (7, m))
    g = np.concatenate([rng.uniform(-np.pi, np.pi, (7, system.group.h_dim)),
                        rng.uniform(-2.0, 2.0, (7, system.group.x_dim))],
                       axis=1)
    shapes = [(u[0], g), (u, g), (u, g[0]), (u[:, None, :], g[None, :3])]
    for uu, gg in shapes:
        out = system.field(uu, gg)
        ref = _broadcast_field(system, uu, gg)
        assert out.shape == ref.shape
        if case in cfg.PRESETS:
            assert np.array_equal(out, ref)
        else:
            # x lin sums the drift, bracket and generator terms in another
            # order than the reference; measured 0.5 and 1.0 ulp here
            ulp = np.spacing(np.maximum(1.0, np.abs(ref)))
            assert np.all(np.abs(out - ref) <= 4 * ulp)


@pytest.mark.parametrize("case", sorted(cfg.PRESETS) + ["filiform4",
                                                          "filiform5"])
def test_frozen_field_rows_do_not_depend_on_their_batch(case):
    # integrate stacks the full and first half step on a leading axis of
    # two, and chains freezes a whole control family: each row must have
    # the bits of its own call
    system = _field_case_system(case)
    rng = np.random.default_rng(22)
    m = system.range.m
    u = rng.uniform(system.range.lower, system.range.upper, (5, m))
    g = np.concatenate([rng.uniform(-np.pi, np.pi, (5, system.group.h_dim)),
                        rng.uniform(-2.0, 2.0, (5, system.group.x_dim))],
                       axis=1)
    stacked = np.stack([g, 0.5 * g[::-1]])
    rows, rows_stacked = system.frozen_field(u)(g), system.frozen_field(u)(stacked)
    for i in range(5):
        one = system.frozen_field(u[i])
        assert np.array_equal(rows[i], one(g[i]))
        assert np.array_equal(one(g)[i], one(g[i]))
        for k in range(2):
            assert np.array_equal(rows_stacked[k, i], one(stacked[k, i]))
            assert np.array_equal(one(stacked)[k, i], one(stacked[k, i]))


def _unshared_integrate(system, duration, g0, control, times):
    """Step doubling from two independent RK4 step sequences, forward,
    replaying the given accepted time grid."""
    group = system.group
    y = group.normalize(g0)
    points = [y]
    err = np.zeros(y.shape[:-1])
    peak = lcs._state_scale(y, 0.0)
    for t, h in zip(times[:-1], np.diff(times)):
        f = system.frozen_field(control.value(t + 0.5 * h))
        full = lcs._rk4_step(f, y, h)
        mid = lcs._rk4_step(f, y, 0.5 * h)
        half = lcs._rk4_step(f, mid, 0.5 * h)
        err = err + group.distance(full, half) / 15.0
        y = group.normalize(half)
        peak = max(peak, lcs._state_scale(y, t + h))
        points.append(y)
    budget = lcs.BUDGET_RATE * abs(duration) * max(1.0, peak)
    return np.array(points), {"steps": times.size - 1,
                              "error_estimate": float(np.max(err)),
                              "error_budget": budget}


@pytest.mark.parametrize("case", ["rotation-plane", "heisenberg-expanding"])
def test_integrate_shares_first_stage(case, monkeypatch):
    system = cfg.build_system(cfg.preset_config(case))
    rng = np.random.default_rng(4)
    m = system.range.m
    control = ControlFunction([0.0, 0.02, 0.05],
                              rng.uniform(-1.0, 1.0, (2, 4, m)))
    g0 = rng.uniform(-1.0, 1.0, (4, system.group.dim))

    calls = []
    frozen = LinearControlSystem.frozen_field

    def counted(self, u):
        field = frozen(self, u)

        def count(g):
            calls.append(1)
            return field(g)
        return count

    monkeypatch.setattr(LinearControlSystem, "frozen_field", counted)
    out = integrate(system, 0.05, g0, control)
    monkeypatch.undo()
    assert out.stats["steps"] > 0
    # k1, three stages of the stacked full and first half step, and the
    # four of the second half step
    assert len(calls) == 8 * (out.stats["steps"] + out.stats["rejected"])
    points, stats = _unshared_integrate(system, 0.05, g0, control, out.times)
    assert out.stats == dict(stats, rejected=out.stats["rejected"])
    assert np.array_equal(out.points, points)


@pytest.mark.parametrize("case", sorted(cfg.PRESETS) + ["filiform4",
                                                          "filiform5"])
def test_integrate_runs_keep_the_bits_of_each_run_alone(case):
    # the rows of a run share its steps and separate runs never do, so a
    # run stacked with others takes the steps and bits of its own call
    system = _field_case_system(case)
    rng = np.random.default_rng(23)
    m, dim = system.range.m, system.group.dim
    runs = []
    for rows, n_pieces in [(None, 2), (1, 1), (7, 3), (None, 1), (3, 3)]:
        duration = float(rng.uniform(0.05, 0.25))
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(
            0.0, duration, n_pieces - 1)), [duration]])
        # a batch holds one control per row, or one for all rows
        per_row = () if rows is None or rows == 3 else (rows,)
        values = rng.uniform(system.range.lower, system.range.upper,
                             (n_pieces,) + per_row + (m,))
        g0 = rng.uniform(-1.0, 1.0, (dim,) if rows is None else (rows, dim))
        runs.append((duration, g0, ControlFunction(breaks, values)))
    for together, run in zip(integrate_runs(system, runs), runs):
        alone = integrate(system, *run)
        assert together.points.shape == alone.points.shape
        assert np.array_equal(together.times, alone.times)
        assert np.array_equal(together.points, alone.points)
        assert together.stats == alone.stats


def _perturb_stacked_pass(monkeypatch):
    """Rows whose first control is 0.5 see a field 1e-3 off in the stacked
    pass of the full and first half step only: an error no step meets."""
    frozen = LinearControlSystem.frozen_field

    def perturbed(self, u):
        field = frozen(self, u)
        off = 1e-3 * (np.asarray(u)[..., :1] == 0.5)
        return lambda g: field(g) + off if g.ndim == 3 else field(g)
    monkeypatch.setattr(LinearControlSystem, "frozen_field", perturbed)


@pytest.mark.parametrize("failure, rate, bad, message", [
    ("not finite", 1.0, (1.0, [1e308], [0.0]), "state is not finite"),
    ("step collapses", -1.0, (1.0, [0.0], [0.5]), "too small at t = 0"),
    ("over budget", 1.0, (1.0, [0.0], [1.0]), "exceeds budget"),
    ("out of range", -1.0, (1.0, [0.0], [3.0]), "leaves the admissible"),
    ("duration", -1.0, (0.0, [0.0], [0.5]), "duration must be positive"),
])
def test_integrate_runs_raise_the_error_of_the_failing_run(
        failure, rate, bad, message, monkeypatch):
    system = scalar_system(rate)
    duration, start, value = bad
    bad = (duration, np.array(start), ControlFunction.constant(value, 0.0, 1.0))
    rng = np.random.default_rng(24)
    healthy = [(d, rng.uniform(-1.0, 1.0, shape),
                ControlFunction([0.0, 0.3, d], rng.uniform(-0.4, 0.4, (2, 1))))
               for d, shape in [(0.6, (1,)), (1.0, (4, 1)), (0.8, (2, 1))]]
    if failure == "step collapses":
        _perturb_stacked_pass(monkeypatch)
    if failure == "over budget":
        # a share far above the budget spends it; runs at rest spend none
        monkeypatch.setattr(lcs, "FRACTION", 1e6)
        healthy = [(d, np.zeros(g0.shape), ControlFunction.constant(
            [0.0], 0.0, d)) for d, g0, _ in healthy]
    first_fails = []
    if failure in ("out of range", "duration"):
        # every run is validated before any run starts
        first_fails = [(1.0, np.array([np.inf]),
                        ControlFunction.constant([0.0], 0.0, 1.0))]
    with pytest.raises((IntegratorBudgetError, ValidationError),
                       match=message) as alone:
        integrate(system, *bad)
    with pytest.raises(type(alone.value)) as mixed:
        integrate_runs(system, first_fails + healthy[:2] + [bad] + healthy[2:])
    assert str(mixed.value) == str(alone.value)
    # the healthy runs end without it
    assert all(traj.stats["steps"] > 0
               for traj in integrate_runs(system, healthy))


def test_integrate_rejects_and_retries_steps():
    # the decay shrinks the error, so h grows by GROW until a step overshoots
    system = scalar_system(-10.0)
    u = ControlFunction.constant([0.0], 0.0, 6.0)
    out = integrate(system, 6.0, np.ones(1), u)
    assert out.stats["rejected"] > 0
    assert out.stats["error_estimate"] <= 0.01 * out.stats["error_budget"]
    assert float(out.endpoint[0]) == pytest.approx(math.exp(-60.0), abs=1e-9)


@pytest.mark.parametrize("start, message", [
    (1e308, "state is not finite"),  # the RK4 stages overflow
])
def test_integrate_ends_on_a_non_finite_trial(start, message):
    u = ControlFunction.constant([0.0], 0.0, 1.0)
    with pytest.raises(IntegratorBudgetError, match=message):
        integrate(scalar_system(1.0), 1.0, np.array([start]), u)


def test_integrate_ends_when_the_estimate_overflows():
    # the state stays finite, but the bch brackets [x_a, x_b] inside the
    # distance of full and half step overflow
    system = cfg.build_system(cfg.preset_config("heisenberg-expanding"))
    u = ControlFunction.constant([0.0], 0.0, 1.0)
    with pytest.raises(IntegratorBudgetError,
                       match="error estimate is not finite at t = 0.000333"):
        integrate(system, 1.0, np.array([1e160, 1e160, 0.0]), u)


def test_integrate_ends_when_the_step_collapses(monkeypatch):
    # noise of fixed size in the field never meets a target that shrinks
    # with h, so every trial is rejected until h passes the floor
    rng = np.random.default_rng(0)
    frozen = LinearControlSystem.frozen_field
    monkeypatch.setattr(LinearControlSystem, "frozen_field", lambda self, u: (
        lambda g: frozen(self, u)(g) + rng.normal(scale=1e-3, size=np.shape(g))))
    u = ControlFunction.constant([0.5], 0.0, 1.0)
    with pytest.raises(IntegratorBudgetError, match="too small"):
        integrate(scalar_system(-1.0), 1.0, np.zeros(1), u)


@pytest.mark.parametrize("preset", sorted(cfg.PRESETS))
def test_integrate_spends_a_fraction_of_the_budget(preset):
    system = cfg.build_system(cfg.preset_config(preset))
    rng = np.random.default_rng(9)
    m = system.range.m
    control = ControlFunction([0.0, 0.7, 1.5, 2.0],
                              rng.uniform(system.range.lower,
                                          system.range.upper, (3, m)))
    g0 = rng.uniform(-1.0, 1.0, system.group.dim)
    out = integrate(system, 2.0, g0, control)
    assert out.stats["steps"] == out.times.size - 1
    assert out.stats["error_estimate"] <= 0.01 * out.stats["error_budget"]


def test_scalar_exponential_endpoint():
    system = scalar_system(1.0)
    u = ControlFunction.constant([1.0], 0.0, 1.0)
    out = integrate(system, 1.0, np.zeros(1), u)
    expected = np.e - 1.0
    assert abs(float(out.endpoint[0]) - expected) / expected < 1e-7
    assert out.stats["error_estimate"] < 1e-8


def test_identity_is_equilibrium():
    system = rotation_plane_system()
    u = ControlFunction.constant([0.0, 0.0], 0.0, 2.0)
    out = integrate(system, 2.0, np.zeros(3), u)
    assert system.group.distance(out.endpoint, np.zeros(3)) < 1e-12


def test_zero_control_matches_drift_flow():
    system = rotation_plane_system()
    u = ControlFunction.constant([0.0, 0.0], 0.0, 1.5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        g0 = np.concatenate([rng.uniform(-np.pi, np.pi, 1),
                             rng.standard_normal(2)])
        end = integrate(system, 1.5, g0, u).endpoint
        ref = system.group.linear_flow(1.5, g0, system.derivation)
        assert system.group.distance(end, ref) < 1e-8


def test_trajectory_records_grid():
    system = scalar_system(-1.0)
    u = ControlFunction([0.0, 0.4, 1.0], [[0.5], [-0.5]])
    out = integrate(system, 1.0, np.zeros(1), u)
    assert out.times[0] == 0.0
    assert out.times[-1] == pytest.approx(1.0)
    assert np.all(np.diff(out.times) > 0)
    assert out.points.shape == (out.times.size, 1)


def test_integrate_rejects_uncovered_span():
    system = scalar_system(1.0)
    u = ControlFunction.constant([1.0], 0.0, 1.0)
    with pytest.raises(ValidationError):
        integrate(system, 2.0, np.zeros(1), u)


def test_integrate_rejects_control_outside_range():
    system = scalar_system(1.0)
    u = ControlFunction.constant([3.0], 0.0, 1.0)
    with pytest.raises(ValidationError):
        integrate(system, 1.0, np.zeros(1), u)


@pytest.mark.parametrize("duration", [0.0, -1.5, np.nan])
def test_integrate_refuses_a_duration_that_is_not_positive(duration):
    system = rotation_plane_system()
    u = ControlFunction([0.0, 0.8, 1.5], [[0.4, -0.6], [-0.2, 0.9]])
    with pytest.raises(ValidationError, match="duration must be positive"):
        integrate(system, duration, np.array([0.5, 1.0, -0.5]), u)


def translation_residuals(system, samples):
    return flow_identity_residuals(system, samples, [])[0]


def cocycle_residuals(system, samples):
    return flow_identity_residuals(system, [], samples)[1]


def test_cocycle_residual_small():
    system = rotation_plane_system()
    rng = np.random.default_rng(2)
    breaks = np.array([0.0, 0.7, 1.6, 2.4, 4.0])
    for _ in range(5):
        u = ControlFunction(breaks, rng.uniform(-1, 1, size=(4, 2)))
        g = np.concatenate([rng.uniform(-np.pi, np.pi, 1),
                            rng.standard_normal(2)])
        t, s = rng.uniform(0.2, 1.8, size=2)
        assert cocycle_residuals(system, [(t, s, g, u)])[0] < 1e-6


def test_translation_identity_residual_small():
    system = rotation_plane_system()
    rng = np.random.default_rng(3)
    breaks = np.array([0.0, 0.9, 2.0])
    for _ in range(5):
        u = ControlFunction(breaks, rng.uniform(-1, 1, size=(2, 2)))
        h_pt = np.concatenate([rng.uniform(-np.pi, np.pi, 1),
                               rng.standard_normal(2)])
        g_pt = np.concatenate([rng.uniform(-np.pi, np.pi, 1),
                               rng.standard_normal(2)])
        t = rng.uniform(0.2, 2.0)
        assert translation_residuals(system, [(t, h_pt, g_pt, u)])[0] < 1e-6


def test_translation_identity_trivial_cases():
    system = rotation_plane_system()
    u = ControlFunction.constant([0.3, -0.4], 0.0, 1.0)
    h_pt = np.array([0.4, 1.0, 2.0])
    e = np.zeros(system.group.dim)
    assert translation_residuals(system, [(1.0, h_pt, e, u)])[0] < 1e-12


def test_translation_identity_batched():
    system = rotation_plane_system()
    group = system.group
    u = ControlFunction.constant([0.3, -0.4], 0.0, 1.0)
    rng = np.random.default_rng(4)
    h_pts = np.concatenate([rng.uniform(-np.pi, np.pi, (4, 1)),
                            rng.standard_normal((4, 2))], axis=1)
    g_pts = np.concatenate([rng.uniform(-np.pi, np.pi, (4, 1)),
                            rng.standard_normal((4, 2))], axis=1)
    (batch,) = translation_residuals(system, [(1.0, h_pts, g_pts, u)])
    assert batch.shape == (4,)

    def accepted_error(h_pt, g_pt):
        """The error the two runs behind a residual may accept: each aims
        at FRACTION of its budget."""
        starts = (group.multiply(h_pt, g_pt), h_pt)
        return sum(lcs.FRACTION * integrate(system, 1.0, start, u)
                   .stats["error_budget"] for start in starts)

    # the rows of one run share its steps, sized by its worst row, so batch
    # and single runs agree to their error targets only; right
    # multiplication by the drift image f of g stretches an endpoint error
    # by at most 1 + |x_f|
    batch_error = accepted_error(h_pts, g_pts)
    for i in range(4):
        (single,) = translation_residuals(system, [(1.0, h_pts[i], g_pts[i], u)])
        _, x_f = group.split(group.linear_flow(1.0, g_pts[i], system.derivation))
        bound = (1.0 + np.linalg.norm(x_f)) * (
            batch_error + accepted_error(h_pts[i], g_pts[i]))
        assert abs(batch[i] - single) <= bound
    # equal rows take the single run's steps
    (repeated,) = translation_residuals(
        system, [(1.0, np.repeat(h_pts[:1], 3, axis=0),
                  np.repeat(g_pts[:1], 3, axis=0), u)])
    (single,) = translation_residuals(system, [(1.0, h_pts[0], g_pts[0], u)])
    assert np.array_equal(repeated, np.full(3, single))
    # separate runs never share steps: samples passed together keep the
    # bits each has alone
    other = ControlFunction([0.0, 0.5, 1.7], [[0.9, 0.1], [-0.6, 0.8]])
    together = translation_residuals(
        system, [(1.0, h_pts, g_pts, u), (1.7, h_pts[0], g_pts[0], other)])
    (alone,) = translation_residuals(
        system, [(1.7, h_pts[0], g_pts[0], other)])
    assert np.array_equal(together[0], batch)
    assert np.array_equal(together[1], alone)


def test_cocycle_residual_batched():
    system = rotation_plane_system()
    rng = np.random.default_rng(8)
    g_pts = np.concatenate([rng.uniform(-np.pi, np.pi, (4, 1)),
                            rng.standard_normal((4, 2))], axis=1)
    u = ControlFunction([0.0, 0.6, 2.5], rng.uniform(-1, 1, (2, 4, 2)))
    other = ControlFunction([0.0, 1.1, 2.0], [[0.2, -0.7], [0.5, 0.4]])
    samples = [(1.2, 0.7, g_pts, u), (0.9, 1.1, g_pts[2], other)]
    together = cocycle_residuals(system, samples)
    assert together[0].shape == (4,) and together[1].shape == ()
    for sample, residual in zip(samples, together):
        (alone,) = cocycle_residuals(system, [sample])
        assert np.array_equal(residual, alone)


def test_flow_identity_residuals_share_the_first_integration(monkeypatch):
    # the translation runs and the full and first cocycle runs go into one
    # integrate_runs call, the restarts into a second; each residual keeps
    # the bits it has with the other identity's samples absent
    system = rotation_plane_system()
    rng = np.random.default_rng(9)
    g_pts, h_pts = (np.concatenate([rng.uniform(-np.pi, np.pi, (3, 1)),
                                    rng.standard_normal((3, 2))], axis=1)
                    for _ in range(2))
    u = ControlFunction([0.0, 0.8, 2.6], rng.uniform(-1, 1, (2, 3, 2)))
    other = ControlFunction([0.0, 1.1, 2.0], [[0.2, -0.7], [0.5, 0.4]])
    translation = [(1.4, h_pts, g_pts, u), (0.6, h_pts[1], g_pts[0], other)]
    cocycle = [(1.1, 0.9, g_pts, u), (0.5, 1.3, h_pts[2], other)]
    calls = []
    counted = lcs.integrate_runs
    monkeypatch.setattr(lcs, "integrate_runs", lambda system, runs: (
        calls.append(len(runs)) or counted(system, runs)))
    moved, restarted = flow_identity_residuals(system, translation, cocycle)
    assert calls == [8, 2]
    for both, alone in ((moved, translation_residuals(system, translation)),
                        (restarted, cocycle_residuals(system, cocycle))):
        assert len(both) == 2
        assert all(np.array_equal(a, b) for a, b in zip(both, alone))
    assert flow_identity_residuals(system, [], []) == ([], [])


def test_triangular_scalar_piecewise_hand_value():
    system = scalar_system(1.0)
    u = ControlFunction([0.0, 0.5, 1.0], [[1.0], [-0.3]])
    sol = triangular_solve(system, 1.0, np.zeros(1), u)
    x_half = (np.exp(0.5) - 1.0) * 1.0
    expected = np.exp(0.5) * x_half + (np.exp(0.5) - 1.0) * (-0.3)
    assert sol.combined[0] == pytest.approx(expected, abs=1e-8)
    end = integrate(system, 1.0, np.zeros(1), u).endpoint
    assert cross_check_residual(system, 1.0, np.zeros(1), u, end) < 1e-6


def test_triangular_abelian_classical_formula():
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    d = np.array([[0.5, 0.0], [1.0, -1.0]])
    system = LinearControlSystem(group, d, [[1.0, 0.5]],
                                 ControlRange([-1.0], [1.0]))
    u = ControlFunction([0.0, 0.6, 1.3], [[0.8], [-0.5]])
    x0 = np.array([0.3, -0.2])
    sol = triangular_solve(system, 1.3, x0, u)
    end = integrate(system, 1.3, x0, u).endpoint
    assert np.allclose(sol.combined, end, atol=1e-7)


def test_triangular_heisenberg_matches_integrate():
    system = heisenberg_system()
    rng = np.random.default_rng(5)
    for _ in range(3):
        breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 1.6, 2)), [1.7]])
        u = ControlFunction(breaks, rng.uniform(-1, 1, size=(3, 1)))
        x0 = 0.5 * rng.standard_normal(3)
        end = integrate(system, 1.7, x0, u).endpoint
        assert cross_check_residual(system, 1.7, x0, u, end) < 1e-6


def test_triangular_zero_control_zero_start():
    system = heisenberg_system()
    u = ControlFunction.constant([0.0], 0.0, 2.0)
    sol = triangular_solve(system, 2.0, np.zeros(3), u)
    assert np.all(sol.combined == 0.0)
    for part in sol.components:
        assert np.all(part == 0.0)


@pytest.mark.parametrize("duration", [0.0, -1.5, np.nan])
def test_triangular_refuses_a_duration_that_is_not_positive(duration):
    system = heisenberg_system()
    u = ControlFunction.constant([0.5], 0.0, 1.0)
    with pytest.raises(ValidationError, match="duration must be positive"):
        triangular_solve(system, duration, np.array([0.5, 1.0, -0.5]), u)


def test_triangular_rejects_torus_controls():
    system = rotation_plane_system()
    u = ControlFunction.constant([0.2, 0.2], 0.0, 1.0)
    with pytest.raises(ValidationError):
        triangular_solve(system, 1.0, np.zeros(3), u)


def test_level_source_independence():
    system = heisenberg_system()
    alg = system.algebra
    rng = np.random.default_rng(6)
    for level in (1, 2):
        for _ in range(10):
            x = rng.standard_normal(3)
            noise = np.zeros(3)
            for j in range(level, alg.nilpotency_class + 1):
                frame = alg.component_frames[j - 1]
                noise = noise + frame @ rng.standard_normal(frame.shape[1])
            base = level_source(system, level, x, [0.7])
            shifted = level_source(system, level, x + noise, [0.7])
            assert np.max(np.abs(shifted - base)) < 1e-10


def test_continuity_in_control():
    system = scalar_system(-1.0)
    base = ControlFunction.constant([0.2], 0.0, 2.0)
    ref = integrate(system, 2.0, np.zeros(1), base).endpoint
    deltas = [0.2, 0.1, 0.05, 0.025]
    gaps = []
    for delta in deltas:
        u = ControlFunction([0.0, 1.0, 1.0 + delta, 2.0],
                            [[0.2], [1.0], [0.2]])
        end = integrate(system, 2.0, np.zeros(1), u).endpoint
        gaps.append(abs(float(end[0] - ref[0])))
    rate = gaps[0] / deltas[0]
    for delta, gap in zip(deltas, gaps):
        assert gap <= rate * delta * 1.05
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
