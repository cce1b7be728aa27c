import numpy as np
import pytest

from chaincontrol.algebra import NilpotentAlgebra, preset_structure
from chaincontrol.errors import (
    IncompatibleActionError,
    NotDerivationError,
    ValidationError,
)
from chaincontrol.group import (
    ConjugationMap,
    RhoAction,
    SemidirectGroup,
    TorusGroup,
    compatibility_residual,
    validate_linear_flow,
    wrap_angle,
)

ROT = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation_plane_group():
    """T^1 acting on abelian R^2 by rotation."""
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    action = RhoAction(alg, [ROT])
    return SemidirectGroup(TorusGroup(1), alg, action)


def rotation_heisenberg_group():
    """T^1 acting on the Heisenberg algebra, rotating the first two slots."""
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    gen = np.zeros((3, 3))
    gen[:2, :2] = ROT
    action = RhoAction(alg, [gen])
    return SemidirectGroup(TorusGroup(1), alg, action)


def test_wrap_angle_values():
    assert wrap_angle(np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(-np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert np.allclose(wrap_angle([2 * np.pi, -2 * np.pi, 7.0]),
                       [0.0, 0.0, 7.0 - 2 * np.pi])


def test_torus_group_laws():
    torus = TorusGroup(2)
    a = np.array([3.0, -2.0])
    b = np.array([1.5, 2.5])
    assert torus.distance(a, a) == 0.0
    # adding a full turn is a no-op
    assert torus.distance(a, a + 2 * np.pi) == pytest.approx(0.0, abs=1e-12)
    # bi-invariance of the distance under translation on either side
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = rng.uniform(-np.pi, np.pi, size=2)
        lhs = torus.distance(torus.add(c, a), torus.add(c, b))
        assert lhs == pytest.approx(torus.distance(a, b), abs=1e-12)


def test_rotation_product_frozen():
    group = rotation_plane_group()
    a = np.array([np.pi / 2, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    out = group.multiply(a, b)
    assert np.allclose(out, [np.pi / 2, 0.0, 1.0], atol=1e-12)


def test_identity_and_inverse_law():
    for group in (rotation_plane_group(), rotation_heisenberg_group()):
        e = group.identity()
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
    return SemidirectGroup(TorusGroup(1), alg, RhoAction(alg, [gen]),
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


def test_distance_identity_gives_norm():
    group = rotation_plane_group()
    e = group.identity()
    g = np.array([0.0, 3.0, 4.0])
    assert group.distance(e, g) == pytest.approx(5.0, abs=1e-12)
    assert group.distance(g, g) == 0.0


def test_linear_flow_diagonal_frozen():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    action = RhoAction(alg, [])
    group = SemidirectGroup(TorusGroup(0), alg, action)
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
    with pytest.raises(IncompatibleActionError):
        validate_linear_flow(group, d)


def test_compatibility_residual_zero_for_commuting():
    group = rotation_plane_group()
    assert compatibility_residual(group, -np.eye(2)) < 1e-12
    assert compatibility_residual(group, np.diag([1.0, 2.0])) > 0.1


def test_action_validations():
    alg2 = NilpotentAlgebra(preset_structure("abelian:2"))
    with pytest.raises(IncompatibleActionError):
        RhoAction(alg2, [0.5 * ROT])  # frequencies not integers
    with pytest.raises(IncompatibleActionError):
        RhoAction(alg2, [np.diag([1.0, -1.0])])  # spectrum off axis
    alg3 = NilpotentAlgebra(preset_structure("abelian:3"))
    g1 = np.zeros((3, 3))
    g1[:2, :2] = ROT
    g2 = np.zeros((3, 3))
    g2[1:, 1:] = ROT
    with pytest.raises(IncompatibleActionError):
        RhoAction(alg3, [g1, g2])  # generators do not commute
    heis = NilpotentAlgebra(preset_structure("heisenberg3"))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1.0
    bad[1, 0] = -1.0
    bad[2, 2] = 5.0  # breaks the Leibniz rule on [e1,e2]=e3
    with pytest.raises(NotDerivationError):
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
    group = SemidirectGroup(TorusGroup(0), alg, RhoAction(alg, []))
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
    assert group.distance(out, group.identity()) < 1e-12
    # distance sees the wrapped gap, not the raw coordinate difference
    b = np.array([0.0, 0.0, 0.0, np.pi - 0.1])
    c = np.array([0.0, 0.0, 0.0, -np.pi + 0.1])
    assert group.distance(b, c) == pytest.approx(0.2, abs=1e-12)


def test_angular_mask_rejects_noncentral():
    alg = NilpotentAlgebra(preset_structure("heisenberg3"))
    action = RhoAction(alg, [])
    with pytest.raises(ValidationError):
        SemidirectGroup(TorusGroup(0), alg, action,
                        angular_x_mask=[True, False, False])
    # the center of heisenberg is reached by brackets, so it cannot wrap either
    with pytest.raises(ValidationError):
        SemidirectGroup(TorusGroup(0), alg, action,
                        angular_x_mask=[False, False, True])


def test_conjugation_drops_masked_circle():
    # T^1 acting by rotation on R^2 x T^1, drift diag(l, l, 0)
    alg = NilpotentAlgebra(preset_structure("abelian:3"))
    gen = np.zeros((3, 3))
    gen[:2, :2] = ROT
    action = RhoAction(alg, [gen])
    group = SemidirectGroup(TorusGroup(1), alg, action,
                            angular_x_mask=[False, False, True])
    lam = -0.7
    d = np.diag([lam, lam, 0.0])
    psi = ConjugationMap(group, d)
    assert psi.target.x_dim == 2
    assert np.allclose(np.sort(np.linalg.eigvals(psi.matrix_hat)),
                       [lam, lam], atol=1e-12)
    assert psi.homomorphism_residual() < 1e-9
    assert psi.flow_equivariance_residual() < 1e-8
    mapped = psi.apply(np.array([0.3, 1.0, 2.0, 0.5]))
    assert np.allclose(mapped, [0.3, 1.0, 2.0], atol=1e-12)


def test_conjugation_identity_when_no_kernel():
    group = rotation_plane_group()
    psi = ConjugationMap(group, -np.eye(2))
    g = np.array([0.4, 1.0, -2.0])
    assert np.allclose(psi.apply(g), g)
    assert psi.target is group


def test_conjugation_extra_central_kernel():
    # no compact factor: R^2 with D = diag(-1, 0); quotient kills e2
    alg = NilpotentAlgebra(preset_structure("abelian:2"))
    action = RhoAction(alg, [])
    group = SemidirectGroup(TorusGroup(0), alg, action)
    d = np.diag([-1.0, 0.0])
    psi = ConjugationMap(group, d, extra_kernel=np.array([[0.0], [1.0]]))
    assert psi.target.x_dim == 1
    assert psi.matrix_hat[0, 0] == pytest.approx(-1.0)
    assert psi.homomorphism_residual() < 1e-9
    assert psi.flow_equivariance_residual() < 1e-8


def test_conjugation_rejects_kernel_outside_ker_d():
    group = rotation_plane_group()
    with pytest.raises(ValidationError):
        ConjugationMap(group, -np.eye(2), extra_kernel=np.array([[1.0], [0.0]]))
