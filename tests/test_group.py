import math

import numpy as np
import pytest
from scipy.linalg import expm
from test_chains import (
    RANDOM_STRUCTURES,
    _preset_case,
    _radii_case,
    random_graded_drift,
)

from chaincontrol import config as cfg
from chaincontrol.algebra import NilpotentAlgebra, preset_structure
from chaincontrol.errors import ValidationError
from chaincontrol.group import (
    N_SAMPLES,
    ConjugationMap,
    RhoAction,
    SemidirectGroup,
    compatibility_residual,
    validate_linear_flow,
    wrap_angle,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_plane_group():
    """T^1 acting on abelian R^2 by rotation."""
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    action = RhoAction(alg, [ROT])
    return SemidirectGroup(alg, action)


def rotation_heisenberg_group():
    """T^1 acting on the Heisenberg algebra, rotating the first two slots."""
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    gen = np.zeros((3, 3))
    gen[:2, :2] = ROT
    action = RhoAction(alg, [gen])
    return SemidirectGroup(alg, action)


def test_wrap_angle_values():
    assert wrap_angle(np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert np.allclose(wrap_angle([2 * np.pi, -2 * np.pi, 7.0]),
                       [0.0, 0.0, 7.0 - 2 * np.pi])


def test_torus_group_laws():
    """T^2 acting trivially on R: the torus part is the flat torus."""
    alg = NilpotentAlgebra(preset_structure("abelian:1"))
    group = SemidirectGroup(alg, RhoAction(alg, [np.zeros((1, 1))] * 2))
    assert group.h_dim == 2 and group.x_dim == 1
    a = np.array([3.0, -2.0, 0.0])
    b = np.array([1.5, 2.5, 0.0])
    assert group.distance(a, a) == 0.0
    # adding a full turn is a no-op
    turn = a + [2 * np.pi, 2 * np.pi, 0.0]
    assert group.distance(a, turn) == pytest.approx(0.0, abs=1e-12)
    # the torus distance is invariant under translation, which commutes
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = np.append(rng.uniform(-np.pi, np.pi, size=2), 0.0)
        lhs = group.distance(group.multiply(c, a), group.multiply(c, b))
        assert lhs == pytest.approx(group.distance(a, b), abs=1e-12)
        assert np.allclose(group.multiply(c, a), group.multiply(a, c))


def test_rotation_product_frozen():
    group = rotation_plane_group()
    a = np.array([np.pi / 2, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    out = group.multiply(a, b)
    assert np.allclose(out, [np.pi / 2, 0.0, 1.0], atol=1e-12)


def test_identity_and_inverse_law():
    for group in (rotation_plane_group(), rotation_heisenberg_group()):
        e = np.zeros(group.dim)
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
            x = rng.standard_normal(group.x_dim)
            g = np.concatenate([h, x])
            # (h, x)^{-1} = (-h, -rho(-h) x)
            inv = np.concatenate([-h, -group.action.apply(-h, x)])
            assert group.distance(group.multiply(e, g), g) < 1e-12
            assert group.distance(group.multiply(g, e), g) < 1e-12
            assert group.distance(group.multiply(g, inv), e) < 1e-10
            assert group.distance(group.multiply(inv, g), e) < 1e-10


def test_associativity_residual():
    for group in (rotation_plane_group(), rotation_heisenberg_group()):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(40):
            pts = [np.concatenate([rng.uniform(-np.pi, np.pi, size=group.h_dim),
                                   rng.standard_normal(group.x_dim)])
                   for _ in range(3)]
            a, b, c = pts
            lhs = group.multiply(group.multiply(a, b), c)
            rhs = group.multiply(a, group.multiply(b, c))
            worst = max(worst, float(group.distance(lhs, rhs)))
        assert worst < 1e-9


def test_multiply_batched_matches_loop():
    group = rotation_heisenberg_group()
    rng = np.random.default_rng(4)
    a = np.concatenate([rng.uniform(-np.pi, np.pi, size=(8, 1)),
                        rng.standard_normal((8, 3))], axis=1)
    b = np.concatenate([rng.uniform(-np.pi, np.pi, size=(8, 1)),
                        rng.standard_normal((8, 3))], axis=1)
    out = group.multiply(a, b)
    for i in range(8):
        assert np.allclose(out[i], group.multiply(a[i], b[i]), atol=1e-12)


def test_distance_left_invariance():
    for group in (rotation_plane_group(), rotation_heisenberg_group()):
        rng = np.random.default_rng(5)
        for _ in range(30):
            pts = [np.concatenate([rng.uniform(-np.pi, np.pi, size=group.h_dim),
                                   rng.standard_normal(group.x_dim)])
                   for _ in range(3)]
            g, a, b = pts
            lhs = group.distance(group.multiply(g, a), group.multiply(g, b))
            assert abs(lhs - group.distance(a, b)) < 1e-10


def masked_circle_group():
    """T^1 rotating the plane of abelian R^3, whose third slot is a circle."""
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    gen = np.zeros((3, 3))
    gen[:2, :2] = ROT
    return SemidirectGroup(alg, RhoAction(alg, [gen]),
                           angular_x_mask=[False, False, True])


@pytest.mark.parametrize("make", [rotation_plane_group,
                                  rotation_heisenberg_group,
                                  masked_circle_group])
def test_distance_with_owner_equals_gathered_rows(make):
    # one phase per row of a, gathered, gives the per-pair bits
    group = make()
    rng = np.random.default_rng(6)
    a = group.normalize(np.concatenate([
        rng.uniform(-np.pi, np.pi, size=(300, group.h_dim)),
        3.0 * rng.standard_normal((300, group.x_dim))], axis=1))
    owner = rng.integers(0, 300, size=5000)
    b = group.normalize(a[owner] + rng.standard_normal((5000, group.dim)))
    assert np.array_equal(group.distance(a, b, owner),
                          group.distance(a[owner], b))


def _random_pairs(group, rng, n=4000):
    """n point pairs (a, b) with |x| around 3 and b near a."""
    a = group.normalize(np.concatenate([
        rng.uniform(-np.pi, np.pi, size=(n, group.h_dim)),
        3.0 * rng.standard_normal((n, group.x_dim))], axis=1))
    return a, group.normalize(a + rng.standard_normal((n, group.dim)))


def _random_skew_group(seed):
    """T^1 on abelian:3 through Q (k J + 0) Q^T, J the quarter turn, k a
    random integer frequency and Q a random rotation; exactly skew."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    block = np.zeros((3, 3))
    block[:2, :2] = rng.integers(1, 4) * ROT
    m = q @ block @ q.T
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    return SemidirectGroup(alg, RhoAction(alg, [(m - m.T) / 2.0]))


def _explicit_distance(group, a, b):
    """The wrapped angle gap plus |rho(-h_a) bch(-x_a, x_b)|, rho(-h_a) as
    the matrix of action.matrix, the masked circles wrapped."""
    h_a, x_a = group.split(a)
    h_b, x_b = group.split(b)
    rho = group.action.matrix(-h_a)
    x_rel = (rho @ group.algebra.bch(-x_a, x_b)[..., None])[..., 0]
    x_rel[..., group.x_mask] = wrap_angle(x_rel[..., group.x_mask])
    return (np.linalg.norm(wrap_angle(h_b - h_a), axis=-1)
            + np.linalg.norm(x_rel, axis=-1))


ORTHOGONAL_CASES = ["rotation-plane", "conjugation-upstairs",
                    *(f"random-skew-{seed}" for seed in range(4))]


@pytest.mark.parametrize("name", ORTHOGONAL_CASES)
def test_an_orthogonal_action_takes_no_rotation_in_the_distance(name):
    # |rho(-h_a) w| = |w|, and rho fixes the masked circle: the distance
    # with no rotation is the explicit one within 4 ulp of the scale, the
    # largest distance of the batch (rho's rounding alone reaches 5 ulp of
    # some smaller distances)
    group = (_random_skew_group(int(name.rsplit("-", 1)[1]))
             if name.startswith("random-skew") else
             cfg.build_system(cfg.preset_config(name)).group)
    assert group.action.orthogonal
    a, b = _random_pairs(group, np.random.default_rng(12))
    got, want = group.distance(a, b), _explicit_distance(group, a, b)
    assert np.max(np.abs(got - want)) <= 4.0 * np.spacing(np.max(want))


@pytest.mark.parametrize("name", ["skewed-abelian:2", "skewed-heisenberg3",
                                  "skewed-masked"])
def test_a_skewed_action_keeps_the_bits_of_the_rotated_distance(name):
    # rho(h) of a skewed generator stretches, so it stays in the distance,
    # with the bits of rho(-h_a) bch(-x_a, x_b) taken through apply
    group = (_preset_case(name)[1].group if name == "skewed-masked"
             else _radii_case(name))
    assert not group.action.orthogonal
    a, b = _random_pairs(group, np.random.default_rng(13))
    h_a, x_a = group.split(a)
    h_b, x_b = group.split(b)
    x_rel = group.action.apply(-h_a, group.algebra.bch(-x_a, x_b))
    x_rel[..., group.x_mask] = wrap_angle(x_rel[..., group.x_mask])
    want = (np.linalg.norm(wrap_angle(h_b - h_a), axis=-1)
            + np.linalg.norm(x_rel, axis=-1))
    assert np.array_equal(group.distance(a, b), want)


def test_distance_identity_gives_norm():
    group = rotation_plane_group()
    e = np.zeros(group.dim)
    g = np.array([0.0, 3.0, 4.0])
    assert group.distance(e, g) == pytest.approx(5.0, abs=1e-12)
    assert group.distance(g, g) == 0.0


def test_linear_flow_diagonal_frozen():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    action = RhoAction(alg, [])
    group = SemidirectGroup(alg, action)
    d = np.diag([1.0, 2.0, 3.0])
    g = np.array([1.0, 1.0, 1.0])
    out = group.linear_flow(1.0, g, d)
    assert np.allclose(out, [np.e, np.e ** 2, np.e ** 3], rtol=1e-12)
    assert np.allclose(group.linear_flow(0.0, g, d), g)


def test_linear_flow_group_property():
    group = rotation_heisenberg_group()
    d = np.diag([-1.0, -1.0, -2.0])
    rng = np.random.default_rng(6)
    for _ in range(20):
        g = np.concatenate([rng.uniform(-np.pi, np.pi, size=1),
                            rng.standard_normal(3)])
        t, s = rng.uniform(-1.5, 1.5, size=2)
        lhs = group.linear_flow(t + s, g, d)
        rhs = group.linear_flow(t, group.linear_flow(s, g, d), d)
        assert group.distance(lhs, rhs) < 1e-9


def test_validate_linear_flow_accepts_commuting():
    group = rotation_heisenberg_group()
    d = np.diag([-1.0, -1.0, -2.0])
    assert validate_linear_flow(group, d) < 1e-8


def test_validate_linear_flow_rejects_noncommuting():
    group = rotation_heisenberg_group()
    # a perfectly good derivation that fails to intertwine the rotation
    d = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValidationError,
                       match="^drift does not intertwine the action"):
        validate_linear_flow(group, d)


def test_compatibility_residual_zero_for_commuting():
    group = rotation_plane_group()
    assert compatibility_residual(group, -np.eye(2)) < 1e-12
    assert compatibility_residual(group, np.diag([1.0, 2.0])) > 0.1


def test_action_validations():
    alg2 = NilpotentAlgebra(preset_structure("abelian:2"))
    with pytest.raises(ValidationError, match="frequencies are not integers"):
        RhoAction(alg2, [0.5 * ROT])
    with pytest.raises(ValidationError, match="spectrum off the imaginary axis"):
        RhoAction(alg2, [np.diag([1.0, -1.0])])
    alg3 = NilpotentAlgebra(preset_structure("abelian:3"))
    g1 = np.zeros((3, 3))
    g1[:2, :2] = ROT
    g2 = np.zeros((3, 3))
    g2[1:, 1:] = ROT
    with pytest.raises(ValidationError, match="generators do not commute"):
        RhoAction(alg3, [g1, g2])
    heis = NilpotentAlgebra(preset_structure("heisenberg3"))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0
    bad[2, 2] = 5.0  # breaks the Leibniz rule on [e1,e2]=e3
    with pytest.raises(ValidationError, match="^Leibniz rule fails"):
        RhoAction(heis, [bad])


def test_action_residuals_and_periodicity():
    # rho(h) is an automorphism of the bracket and h -> rho(h) a homomorphism
    group = rotation_heisenberg_group()
    action, alg = group.action, group.algebra
    rng = np.random.default_rng(5)
    for _ in range(20):
        h, h2 = rng.uniform(-np.pi, np.pi, size=(2, action.n_params))
        x, y = rng.standard_normal((2, alg.dim))
        assert np.allclose(action.apply(h, alg.bracket(x, y)),
                           alg.bracket(action.apply(h, x), action.apply(h, y)),
                           atol=1e-9)
        assert np.allclose(action.matrix(h + h2),
                           action.matrix(h) @ action.matrix(h2), atol=1e-9)
    full_turn = group.action.matrix([2 * np.pi])
    assert np.allclose(full_turn, np.eye(3), atol=1e-9)


def test_action_apply_matches_matrix():
    group = rotation_heisenberg_group()
    rng = np.random.default_rng(7)
    h = rng.uniform(-np.pi, np.pi, size=(5, 1))
    x = rng.standard_normal((5, 3))
    out = group.action.apply(h, x)
    for i in range(5):
        assert np.allclose(out[i], group.action.matrix(h[i]) @ x[i], atol=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_distance_is_finite_past_square_overflow():
    # |x|^2 overflows past about 1e154; such rows fall back to hypot, quietly,
    # and the other rows keep their bits
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    a = np.array([[1e200, 0.0], [0.3, -0.4]])
    b = np.array([[-1e200, 1e200], [0.0, 0.0]])
    d = group.distance(a, b)
    assert d[0] == pytest.approx(np.sqrt(5.0) * 1e200, rel=1e-15)
    assert d[1] == np.linalg.norm(b[1] - a[1])


def test_angular_mask_wraps_central_coordinate():
    group = masked_circle_group()
    a = np.array([0.0, 0.0, 0.0, np.pi])
    out = group.multiply(a, a)
    # the masked slot adds to 2*pi and wraps back to zero
    assert group.distance(out, np.zeros(group.dim)) < 1e-12
    # distance sees the wrapped gap, not the raw coordinate difference
    b = np.array([0.0, 0.0, 0.0, np.pi - 0.1])
    c = np.array([0.0, 0.0, 0.0, -np.pi + 0.1])
    assert group.distance(b, c) == pytest.approx(0.2, abs=1e-12)


def test_angular_mask_rejects_noncentral():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    action = RhoAction(alg, [])
    with pytest.raises(ValidationError):
        SemidirectGroup(alg, action,
                        angular_x_mask=[True, False, False])
    # the center of heisenberg is reached by brackets, so it cannot wrap either
    with pytest.raises(ValidationError):
        SemidirectGroup(alg, action,
                        angular_x_mask=[False, False, True])


def test_conjugation_drops_masked_circle():
    # T^1 acting by rotation on R^2 x T^1, drift diag(l, l, 0)
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    gen = np.zeros((3, 3))
    gen[:2, :2] = ROT
    action = RhoAction(alg, [gen])
    group = SemidirectGroup(alg, action,
                            angular_x_mask=[False, False, True])
    lam = -0.7
    d = np.diag([lam, lam, 0.0])
    psi = ConjugationMap(group, d)
    assert psi.target.x_dim == 2
    assert np.allclose(np.sort(np.linalg.eigvals(psi.matrix_hat)),
                       [lam, lam], atol=1e-12)
    assert psi.homomorphism_residual() < 1e-9
    assert psi.flow_equivariance_residual() < 1e-8
    assert psi.keep.tolist() == [True, True, False]
    mapped = psi.apply(np.array([0.3, 1.0, 2.0, 0.5]))
    assert np.array_equal(mapped, [0.3, 1.0, 2.0])


def test_conjugation_takes_the_kept_drift_block():
    # the masked circle x2 is dropped; the drift keeps its (x0, x1) block,
    # off-diagonal entry included
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    group = SemidirectGroup(alg, RhoAction(alg, []),
                            angular_x_mask=[False, False, True])
    d = np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    psi = ConjugationMap(group, d)
    assert np.array_equal(psi.matrix_hat, d[:2, :2])


def test_conjugation_identity_when_no_kernel():
    group = rotation_plane_group()
    psi = ConjugationMap(group, -np.eye(2))
    g = np.array([0.4, 1.0, -2.0])
    assert np.array_equal(psi.apply(g), g)
    assert psi.target is group and psi.keep.all()


def test_conjugation_extra_central_kernel():
    # no compact factor: R^2 with D = diag(-1, 0); quotient kills e2
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    action = RhoAction(alg, [])
    group = SemidirectGroup(alg, action)
    d = np.diag([-1.0, 0.0])
    psi = ConjugationMap(group, d, extra_kernel=[1])
    assert psi.target.x_dim == 1
    assert psi.keep.tolist() == [True, False]
    assert psi.matrix_hat[0, 0] == pytest.approx(-1.0)
    assert psi.homomorphism_residual() < 1e-9
    assert psi.flow_equivariance_residual() < 1e-8


def test_conjugation_rejects_kernel_outside_ker_d():
    group = rotation_plane_group()
    with pytest.raises(ValidationError, match="not inside ker D"):
        ConjugationMap(group, -np.eye(2), extra_kernel=[0])


def test_conjugation_rejects_an_expanding_kernel_axis():
    # D e2 = e2: dropping axis 2 would lose the eigenvalue 1
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    with pytest.raises(ValidationError, match="not inside ker D"):
        ConjugationMap(group, np.diag([-1.0, -1.0, 1.0]), extra_kernel=[2])


def test_conjugation_rejects_kernel_the_action_moves():
    # the circle rotates the (e2, e3) plane, so it moves the dropped e3
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    gen = np.zeros((3, 3))
    gen[1:, 1:] = ROT
    group = SemidirectGroup(alg, RhoAction(alg, [gen]))
    with pytest.raises(ValidationError, match="does not preserve the kernel"):
        ConjugationMap(group, np.diag([-1.0, 0.0, 0.0]), extra_kernel=[2])


# -- per-sample oracles of the stacked residuals ----------------------------


def _loop_point(group, rng):
    h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
    x = rng.standard_normal(group.x_dim)
    return group.normalize(np.concatenate([h, x]))


def loop_compatibility(group, d):
    """compatibility_residual one sample at a time."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(N_SAMPLES):
        h = rng.uniform(-np.pi, np.pi, size=group.h_dim)
        prop = expm(rng.uniform(-2.0, 2.0) * d)
        rho = group.action.matrix(h)
        worst = max(worst, float(np.max(np.abs(prop @ rho - rho @ prop))))
    return worst


def loop_automorphism(group, d):
    """The flow automorphism residual of validate_linear_flow one sample
    at a time."""
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(N_SAMPLES):
        a, b = _loop_point(group, rng), _loop_point(group, rng)
        t = rng.uniform(-1.5, 1.5)
        lhs = group.linear_flow(t, group.multiply(a, b), d)
        rhs = group.multiply(group.linear_flow(t, a, d),
                             group.linear_flow(t, b, d))
        worst = max(worst, float(group.distance(lhs, rhs)))
    return worst


def loop_homomorphism(psi):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(N_SAMPLES):
        a, b = _loop_point(psi.group, rng), _loop_point(psi.group, rng)
        lhs = psi.apply(psi.group.multiply(a, b))
        rhs = psi.target.multiply(psi.apply(a), psi.apply(b))
        worst = max(worst, float(psi.target.distance(lhs, rhs)))
    return worst


def loop_equivariance(psi):
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(N_SAMPLES):
        g = _loop_point(psi.group, rng)
        t = rng.uniform(-2.0, 2.0)
        lhs = psi.apply(psi.group.linear_flow(t, g, psi.matrix))
        rhs = psi.target.linear_flow(t, psi.apply(g), psi.matrix_hat)
        worst = max(worst, float(psi.target.distance(lhs, rhs)))
    return worst


def _residual_cases():
    """(name, group, drift, quotient kernel): the presets, filiform4 and
    filiform5 under graded rates, and the random graded derivations of
    test_chains' property test."""
    cases = []
    for name in sorted(cfg.PRESETS):
        c = cfg.preset_config(name)
        system = cfg.build_system(c)
        cases.append((name, system.group, system.derivation, c.extra_kernel))
    for name, a, b in (("filiform4", 0.9, -0.5), ("filiform5", -0.6, 1.1)):
        alg = NilpotentAlgebra(preset_structure(name))
        d = np.diag([a, b] + [k * a + b for k in range(1, alg.dim - 1)])
        cases.append((name, SemidirectGroup(alg, RhoAction(alg, [])), d, ()))
    for seed, structure in enumerate(RANDOM_STRUCTURES):
        rng = np.random.default_rng(seed)
        alg = NilpotentAlgebra(preset_structure(structure.split("-")[0]))
        a, b = rng.uniform(-1.5, 1.5, 2)
        d, generators = random_graded_drift(alg, structure, a, b, rng)
        cases.append((f"random-{structure}",
                      SemidirectGroup(alg, RhoAction(alg, generators)), d, ()))
    return cases


RESIDUAL_CASES = _residual_cases()


@pytest.mark.parametrize("name, group, d, kernel", RESIDUAL_CASES,
                         ids=[case[0] for case in RESIDUAL_CASES])
def test_stacked_residuals_keep_the_bits_of_the_sample_loop(name, group, d,
                                                            kernel):
    worst_compat = compatibility_residual(group, d)
    assert worst_compat == loop_compatibility(group, d)
    assert validate_linear_flow(group, d) == max(
        loop_automorphism(group, d), worst_compat)
    psi = ConjugationMap(group, d, extra_kernel=kernel)
    assert psi.homomorphism_residual() == loop_homomorphism(psi)
    assert psi.flow_equivariance_residual() == loop_equivariance(psi)


def test_stacked_compatibility_matches_the_loop_off_zero():
    # a drift that does not intertwine the rotation: every sample's
    # residual is far from zero, so its bits are seen
    group = rotation_heisenberg_group()
    d = np.diag([1.0, 2.0, 3.0])
    assert compatibility_residual(group, d) == loop_compatibility(group, d)


@pytest.mark.parametrize("name, group, d, kernel", RESIDUAL_CASES[:8],
                         ids=[case[0] for case in RESIDUAL_CASES[:8]])
def test_linear_flow_of_an_array_t_is_one_call_per_t(name, group, d, kernel):
    rng = np.random.default_rng(11)
    t = rng.uniform(-2.0, 2.0, 6)
    g = np.stack([_loop_point(group, rng) for _ in range(6)])
    stacked = group.linear_flow(t, g, d)
    for i in range(6):
        assert np.array_equal(stacked[i], group.linear_flow(t[i], g[i], d))
    # one point against many t
    shared = group.linear_flow(t, g[0], d)
    assert shared.shape == g.shape
    for i in range(6):
        assert np.array_equal(shared[i], group.linear_flow(t[i], g[0], d))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_drift_flow_is_refused(monkeypatch):
    # every sample with t > 0 overflows e^{tD}; the residual is NaN, which
    # a running max used to drop, so the flow passed with a tiny residual
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    group = SemidirectGroup(alg, RhoAction(alg, []))
    d = np.diag([1000.0, 1000.0, 2000.0])
    assert math.isnan(compatibility_residual(group, d))
    with pytest.raises(ValidationError,
                       match="^drift intertwining residual is not finite$"):
        validate_linear_flow(group, d)
    # the compatibility samples reach further in t, so they overflow first;
    # with them passed, the automorphism samples are refused the same way
    monkeypatch.setattr("chaincontrol.group.compatibility_residual",
                        lambda group, matrix: 0.0)
    with pytest.raises(ValidationError,
                       match="^flow automorphism residual is not finite$"):
        validate_linear_flow(group, d)


def test_an_overflowing_psi_residual_is_nan():
    # psi has no validation of its own: an overflowing flow gives NaN, not
    # the residual of the samples that stayed finite
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    group = SemidirectGroup(alg, RhoAction(alg, []),
                            angular_x_mask=[False, False, True])
    psi = ConjugationMap(group, np.diag([1000.0, 1000.0, 0.0]))
    assert math.isnan(psi.flow_equivariance_residual())
    assert psi.homomorphism_residual() == 0.0
