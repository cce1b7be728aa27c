import numpy as np
import pytest

from chaincontrol.algebra import (
    NilpotentAlgebra,
    bch_dynkin,
    preset_structure,
    quotient_by_central,
)
from chaincontrol.errors import ValidationError
from chaincontrol.group import RhoAction, SemidirectGroup
from chaincontrol.lcs import ControlRange, LinearControlSystem


def test_heisenberg_bracket_hand_value():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    # [e1 + e2, e1 - e2] = -[e1,e2] - [e2,e1] ... = -2 e3
    out = alg.bracket(np.array([1.0, 1.0, 0.0]), np.array([1.0, -1.0, 0.0]))
    assert np.allclose(out, [0.0, 0.0, -2.0])


def test_heisenberg_bch_hand_value():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    z = alg.bch(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(z, [1.0, 1.0, 0.5], atol=1e-14)


def test_dynkin_oracle_matches_hand_value():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    z = bch_dynkin(alg.bracket, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], max_class=2)
    assert np.allclose(z, [1.0, 1.0, 0.5], atol=1e-14)


@pytest.mark.parametrize("name", ["heisenberg3", "abelian:3", "filiform4", "filiform5"])
def test_bch_closed_form_matches_dynkin_series(name):
    alg = NilpotentAlgebra.from_preset(name)
    rng = np.random.default_rng(7)
    for _ in range(25):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        direct = alg.bch(x, y)
        series = bch_dynkin(alg.bracket, x, y, max_class=alg.nilpotency_class)
        assert np.allclose(direct, series, atol=1e-12)


def _projector(basis):
    """Orthogonal projector onto the span of orthonormal columns."""
    return basis @ basis.T


PRESET_ALGEBRAS = ["heisenberg3", "filiform4", "filiform5"] + [
    f"abelian:{n}" for n in range(1, 9)]


def _reference_bracket(alg, x, y):
    return np.einsum("ijk,...i,...j->...k", alg.structure, x, y)


def _random_nilpotent(rng):
    """A preset algebra, or a direct sum of two within dimension 8, in a
    random orthonormal basis: the structure constants come out dense."""
    parts = [preset_structure(name) for name in
             rng.choice(["heisenberg3", "filiform4", "filiform5"],
                        size=int(rng.integers(1, 3)))]
    if sum(c.shape[0] for c in parts) > 8:
        parts = parts[:1]
    n = sum(c.shape[0] for c in parts)
    c = np.zeros((n, n, n))
    at = 0
    for part in parts:
        d = part.shape[0]
        c[at:at + d, at:at + d, at:at + d] = part
        at += d
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return NilpotentAlgebra(np.einsum("ai,bj,abl,lk->ijk", q, q, c, q))


def _assert_bracket_matches(alg, rng, size=6):
    n = alg.dim
    shapes = [((n,), (size, n)), ((size, n), (size, n)),
              ((2, 3, n), (n,)), ((n,), (n,))]
    for x_shape, y_shape in shapes:
        x = rng.uniform(-1.0, 1.0, x_shape)
        y = rng.uniform(-1.0, 1.0, y_shape)
        got = alg.bracket(x, y)
        ref = _reference_bracket(alg, x, y)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("name", PRESET_ALGEBRAS)
def test_bracket_matches_einsum_on_presets(name):
    _assert_bracket_matches(NilpotentAlgebra.from_preset(name),
                            np.random.default_rng(3))


def test_bracket_matches_einsum_on_random_structures():
    rng = np.random.default_rng(5)
    for _ in range(20):
        alg = _random_nilpotent(rng)
        assert np.abs(alg.structure).astype(bool).sum() > alg.dim
        _assert_bracket_matches(alg, rng)


def test_bch_group_laws_class_four():
    alg = NilpotentAlgebra.from_preset("filiform5")
    rng = np.random.default_rng(11)
    zero = np.zeros(alg.dim)
    for _ in range(25):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        z = rng.standard_normal(alg.dim)
        assert np.allclose(alg.bch(x, zero), x, atol=1e-13)
        assert np.allclose(alg.bch(zero, x), x, atol=1e-13)
        assert np.allclose(alg.bch(x, -x), zero, atol=1e-12)
        left = alg.bch(alg.bch(x, y), z)
        right = alg.bch(x, alg.bch(y, z))
        assert np.allclose(left, right, atol=1e-10)


def test_bch_batched_matches_loop():
    alg = NilpotentAlgebra.from_preset("filiform4")
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((6, alg.dim))
    ys = rng.standard_normal((6, alg.dim))
    batched = alg.bch(xs, ys)
    for i in range(6):
        assert np.allclose(batched[i], alg.bch(xs[i], ys[i]), atol=1e-14)


def test_abelian_bch_is_addition():
    alg = NilpotentAlgebra.from_preset("abelian:4")
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4)
    y = rng.standard_normal(4)
    assert np.allclose(alg.bch(x, y), x + y)


def test_central_series_heisenberg():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    assert alg.nilpotency_class == 2
    assert alg.component_dims == [2, 1]
    # V1 = span(e1, e2), V2 = span(e3)
    p1, p2 = (_projector(v) for v in alg.component_frames)
    assert np.allclose(p1, np.diag([1.0, 1.0, 0.0]), atol=1e-12)
    assert np.allclose(p2, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(p1 + p2, np.eye(3), atol=1e-12)


def test_central_series_filiform5():
    alg = NilpotentAlgebra.from_preset("filiform5")
    assert alg.nilpotency_class == 4
    assert alg.component_dims == [2, 1, 1, 1]
    total = sum(_projector(v) for v in alg.component_frames)
    assert np.allclose(total, np.eye(5), atol=1e-12)


def test_graded_roundtrip_and_frame():
    alg = NilpotentAlgebra.from_preset("filiform5")
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, alg.dim))
    assert np.allclose(alg.from_graded(alg.to_graded(x)), x, atol=1e-13)
    assert np.allclose(alg.frame.T @ alg.frame, np.eye(alg.dim), atol=1e-12)


def test_ad_matrix_matches_bracket():
    alg = NilpotentAlgebra.from_preset("filiform5")
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.standard_normal(alg.dim)
        y = rng.standard_normal(alg.dim)
        assert np.allclose(alg.ad(x) @ y, alg.bracket(x, y), atol=1e-13)


def test_series_projectors_nest():
    alg = NilpotentAlgebra.from_preset("filiform5")
    # series_bases[p - 1] spans U^p; the entry past the class is empty
    for p in range(1, alg.nilpotency_class + 1):
        big = _projector(alg.series_bases[p - 1])
        small = _projector(alg.series_bases[p])
        # U^{p+1} sits inside U^p
        assert np.allclose(big @ small, small, atol=1e-12)
    assert np.allclose(_projector(alg.series_bases[4]), np.zeros((5, 5)))


def test_rejects_nonantisymmetric():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the mirrored entry
    with pytest.raises(ValidationError):
        NilpotentAlgebra(c)


def test_rejects_jacobi_violation():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0  # [e1,e3] = e1 breaks Jacobi
    with pytest.raises(ValidationError):
        NilpotentAlgebra(c)


def test_rejects_non_nilpotent():
    c = np.zeros((2, 2, 2))
    c[0, 1, 1], c[1, 0, 1] = 1.0, -1.0  # [e1,e2] = e2, solvable not nilpotent
    with pytest.raises(ValidationError, match="^series not exhausted within class"):
        NilpotentAlgebra(c)


def test_rejects_oversized_dimension():
    with pytest.raises(ValidationError):
        preset_structure("abelian:9")
    with pytest.raises(ValidationError):
        NilpotentAlgebra(np.zeros((9, 9, 9)))


FIELD_CASES = ["heisenberg3", "filiform4", "filiform5", "abelian:3",
               "heisenberg3-hand"] + [f"random-{i}" for i in range(10)]


@pytest.mark.parametrize("case", FIELD_CASES)
def test_field_is_derivative_of_product(case):
    # the control field at x along v is d/dt|0 bch(t v, x); through class 4
    # bch(t v, x) is at most quadratic in t, so the central difference is
    # exact up to rounding
    rng = np.random.default_rng(13)
    if case.startswith("random-"):
        alg = _random_nilpotent(np.random.default_rng(100 + int(case[7:])))
    else:
        alg = NilpotentAlgebra.from_preset(case.removesuffix("-hand"))
    n = alg.dim
    x, v = rng.standard_normal((2, 5, n))
    if case == "heisenberg3-hand":
        x, v = np.eye(3)[[1]], np.eye(3)[[0]]
    group = SemidirectGroup(alg, RhoAction(alg, []))
    system = LinearControlSystem(group, np.zeros((n, n)), np.eye(n),
                                 ControlRange(-np.ones(n), np.ones(n)))
    field = system.field(v, x)
    h = 1e-4
    ref = (alg.bch(h * v, x) - alg.bch(-h * v, x)) / (2.0 * h)
    np.testing.assert_allclose(field, ref, rtol=0.0, atol=1e-8)
    if case == "heisenberg3-hand":
        # bch(t e1, e2) = (t, 1, t/2)
        np.testing.assert_allclose(field, [[1.0, 0.0, 0.5]], atol=1e-15)


def test_quotient_heisenberg_by_center_is_abelian():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    quot = quotient_by_central(alg, [True, True, False])
    assert quot.dim == 2
    assert quot.nilpotency_class == 1
    assert np.max(np.abs(quot.structure)) == 0.0


def test_quotient_rejects_noncentral_kernel():
    alg = NilpotentAlgebra.from_preset("heisenberg3")
    with pytest.raises(ValidationError, match="not central"):
        quotient_by_central(alg, [False, True, True])
    with pytest.raises(ValidationError, match="wrong ambient dimension"):
        quotient_by_central(alg, [True, True])


def test_quotient_filiform5_by_top_level():
    alg = NilpotentAlgebra.from_preset("filiform5")
    keep = np.arange(5) < 4
    quot = quotient_by_central(alg, keep)
    # the quotient map keeps coordinates, so brackets are the kept block
    assert np.array_equal(quot.structure, alg.structure[:4, :4, :4])
    assert quot.dim == 4
    assert quot.nilpotency_class == 3
    assert quot.component_dims == [2, 1, 1]
