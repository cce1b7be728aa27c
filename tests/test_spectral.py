import numpy as np
import pytest
from scipy.linalg import expm

from chaincontrol import config as cfg
from chaincontrol import spectral
from chaincontrol.algebra import NilpotentAlgebra
from chaincontrol.errors import ValidationError
from chaincontrol.spectral import (
    SpectralSplit,
    block_decompose,
    check_derivation,
    decay_constants,
    power_stack,
)


JORDAN = np.array([[-1.0, 1.0], [0.0, -1.0]])
OBLIQUE = np.array([[-1.0, 5.0], [0.0, 2.0]])
SPIRAL = np.array([[-1.0, 10.0], [-10.0, -1.0]])


def heis():
    return NilpotentAlgebra.from_preset("heisenberg3")


def test_diagonal_derivation_accepted():
    # weights add along the bracket: [e1,e2] = e3 forces w3 = w1 + w2
    assert check_derivation(heis(), np.diag([1.0, 2.0, 3.0])) < 1e-14


def test_identity_is_not_a_derivation_on_heisenberg():
    with pytest.raises(ValidationError, match="^Leibniz rule fails"):
        check_derivation(heis(), np.eye(3))


def test_general_heisenberg_derivation_shape():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b, c, d, e, f = rng.standard_normal(6)
        mat = np.array([[a, b, 0.0], [c, d, 0.0], [e, f, a + d]])
        assert check_derivation(heis(), mat) < 1e-12
        assert block_decompose(heis(), mat).upper_residual() < 1e-12


def test_spectral_split_diagonal():
    split = SpectralSplit(np.diag([-2.0, 3.0, 0.0]))
    assert split.dims == (1, 1, 1)
    assert np.allclose(split.pi_stable, np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(split.pi_center, np.diag([0.0, 0.0, 1.0]), atol=1e-12)
    assert np.allclose(split.pi_unstable, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_spectral_split_oblique_projection_hand_value():
    # eigenvectors e1 (lambda=-1) and (5,3) (lambda=2); the unstable
    # projection along e1 is [[0, 5/3], [0, 1]]
    split = SpectralSplit(np.array([[-1.0, 5.0], [0.0, 2.0]]))
    assert split.dims == (1, 0, 1)
    assert np.allclose(split.pi_unstable, [[0.0, 5.0 / 3.0], [0.0, 1.0]], atol=1e-10)
    assert np.allclose(split.pi_stable + split.pi_unstable, np.eye(2), atol=1e-10)


def test_spectral_split_rotation_is_center():
    split = SpectralSplit(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert split.dims == (0, 2, 0)


def test_spectral_split_random_consistency():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = rng.standard_normal((5, 5))
        split = SpectralSplit(d)
        total = split.pi_stable + split.pi_center + split.pi_unstable
        assert np.allclose(total, np.eye(5), atol=1e-8)
        # image of each projection is invariant and carries the right spectrum
        for pi, sgn in ((split.pi_stable, -1), (split.pi_unstable, 1)):
            sub = pi @ d @ pi
            eigs = np.linalg.eigvals(sub)
            live = eigs[np.abs(eigs) > 1e-7]
            assert np.all(sgn * live.real > 0)


def test_validate_derivation_split_filiform():
    # stable, center and unstable subspaces of a derivation are subalgebras:
    # brackets of basis columns stay inside their own span
    alg = NilpotentAlgebra.from_preset("filiform4")
    d = np.diag([-1.0, 1.0, 0.0, -1.0])
    assert check_derivation(alg, d) < 1e-14
    split = SpectralSplit(d)
    for basis in (split.stable_basis, split.center_basis, split.unstable_basis):
        proj = basis @ np.linalg.pinv(basis)
        prods = np.einsum("ijk,ia,jb->abk", alg.structure, basis, basis)
        assert np.max(np.abs(prods - prods @ proj.T), initial=0.0) < 1e-9


def test_block_decompose_lower_triangular():
    alg = NilpotentAlgebra.from_preset("filiform4")
    d = np.array([
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, -1.0],
    ])
    assert check_derivation(alg, d) < 1e-14
    blocks = block_decompose(alg, d)
    assert blocks.upper_residual() == 0.0
    assert np.allclose(blocks.block(1, 1), np.diag([-1.0, 1.0]), atol=1e-12)
    assert np.allclose(blocks.block(3, 1), [[1.0, 0.0]], atol=1e-12)
    diag = [blocks.block(i, i) for i in (1, 2, 3)]
    assert [b.shape for b in diag] == [(2, 2), (1, 1), (1, 1)]


def test_block_decompose_rejects_non_preserving():
    mat = np.zeros((3, 3))
    mat[0, 2] = 1.0  # sends the center back to level one
    with pytest.raises(ValidationError, match="^upper graded blocks nonzero"):
        block_decompose(heis(), mat)


def test_decay_constants_scalar():
    out = decay_constants(np.array([[-2.0]]))
    assert out["mu"] == pytest.approx(1.8)
    assert out["kappa"] == 1.0


def test_decay_constants_expanding_diagonal():
    out = decay_constants(np.diag([1.0, 3.0]))
    assert out["mu"] == pytest.approx(0.9)
    assert out["kappa"] == 1.0


def test_decay_constants_mixed_normal():
    out = decay_constants(np.diag([-2.0, 5.0]))
    assert out["mu"] == pytest.approx(1.8)
    assert out["kappa"] == 1.0


def test_decay_constants_spiral():
    out = decay_constants(SPIRAL)
    assert out["mu"] == pytest.approx(0.9)
    assert out["kappa"] == 1.0


def test_decay_constants_jordan_overshoot():
    out = decay_constants(JORDAN)
    assert out["kappa"] > 1.0
    assert out["kappa"] == pytest.approx(1.05 * out["raw"])
    assert out["raw"] > 1.0


def test_decay_constants_oblique_overshoot():
    out = decay_constants(OBLIQUE)
    # the skewed unstable projection alone has norm sqrt(34)/3 > 1.9
    assert out["kappa"] > 1.9


@pytest.mark.parametrize("d", [JORDAN, OBLIQUE, SPIRAL, np.diag([-2.0, 5.0])],
                         ids=["jordan", "oblique", "spiral", "mixed"])
def test_decay_constants_matches_direct_exponentials(d):
    # raw is the sup over every COARSE_EVERY-th node of the grid; here each
    # node's e^{t S} (e^{-t S} on the unstable side) is its own expm
    out = decay_constants(d)
    mu = out["mu"]
    split = SpectralSplit(d)
    n_steps = int(np.ceil(spectral.DECAY_HORIZON / mu / spectral.DECAY_STEP))
    times = spectral.DECAY_STEP * np.arange(0, n_steps + 1, spectral.COARSE_EVERY)
    raw = 0.0
    for basis, rows, sign in ((split.stable_basis, split.stable_rows, 1.0),
                              (split.unstable_basis, split.unstable_rows, -1.0)):
        if basis.shape[1]:
            s = sign * (basis.T @ d @ basis)
            raw = max(raw, *(np.linalg.norm(expm(t * s) @ rows, 2) * np.exp(mu * t)
                             for t in times))
    kappa = 1.0 if raw <= 1.0 + 1e-12 else 1.05 * raw
    assert out["raw"] == pytest.approx(raw, rel=1e-12)
    assert out["kappa"] == pytest.approx(kappa, rel=1e-12)


def test_decay_constants_normal_blocks_of_heisenberg_expanding():
    system = cfg.build_system(cfg.preset_config("heisenberg-expanding"))
    for level in (1, 2):
        assert decay_constants(system.blocks.block(level, level))["kappa"] == 1.0


def _grid_counter(monkeypatch):
    """A list that gains one entry per time grid decay_constants builds."""
    grids = []

    def counted(*args):
        grids.append(args)
        return power_stack(*args)

    monkeypatch.setattr(spectral, "power_stack", counted)
    return grids


def test_decay_constants_closed_form_matches_the_grid(monkeypatch):
    # every hyperbolic diagonal block of the presets is normal: the closed
    # form builds no grid and gives the grid's kappa and mu
    blocks = []
    for name in sorted(cfg.PRESETS):
        system = cfg.build_system(cfg.preset_config(name))
        for level in range(1, system.algebra.nilpotency_class + 1):
            block = system.blocks.block(level, level)
            if np.min(np.abs(np.linalg.eigvals(block).real)) > spectral.CENTER_TOL:
                blocks.append(block)
    assert len(blocks) >= 4
    grids = _grid_counter(monkeypatch)
    closed = [decay_constants(b) for b in blocks]
    assert grids == []
    # with no block taken for normal, every one goes through the grid
    monkeypatch.setattr(spectral, "GRADED_ATOL", -1.0)
    for block, out in zip(blocks, closed):
        grid = decay_constants(block)
        assert out["kappa"] == grid["kappa"] == 1.0
        assert out["mu"] == grid["mu"]
        assert out["raw"] == pytest.approx(grid["raw"], rel=1e-12)
    assert len(grids) >= len(blocks)


@pytest.mark.parametrize("d", [JORDAN, OBLIQUE], ids=["jordan", "oblique"])
def test_decay_constants_non_normal_blocks_use_the_grid(monkeypatch, d):
    grids = _grid_counter(monkeypatch)
    assert decay_constants(d)["kappa"] > 1.0
    assert len(grids) >= 1


@pytest.mark.parametrize("scale", [0.5, 1.0, 1e3])
def test_decay_constants_normal_test_is_relative_to_the_spectrum(
        monkeypatch, scale):
    # the commutator [D, D^T] scales with |D|^2, and so does the tolerance:
    # the same shape takes the same path at every scale
    grids = _grid_counter(monkeypatch)
    near = decay_constants(scale * np.array([[1.0, 1e-13], [0.0, -1.0]]))
    assert near["kappa"] == 1.0 and grids == []
    assert decay_constants(
        scale * np.array([[1.0, 1e-11], [0.0, -1.0]]))["kappa"] == 1.0
    assert len(grids) >= 1


@pytest.mark.parametrize("d", [[[1e-6, 4e-7], [0.0, -1e-6]],
                               [[1e-6, 0.0], [0.0, -1e-6]]],
                         ids=["oblique", "normal"])
def test_decay_constants_refuses_a_small_rate_before_the_closed_form(d):
    # |Re lambda| = 1e-6 is past CENTER_TOL but needs more grid steps than
    # the cap; the oblique block's commutator, 8e-13, is below GRADED_ATOL
    # itself, yet its stable projection has norm 1.02, not 1
    with pytest.raises(ValidationError, match="rate too small"):
        decay_constants(np.array(d))


def test_decay_constants_rejects_center_spectrum():
    with pytest.raises(ValidationError):
        decay_constants(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.mark.parametrize("count", [0, 1, 2, 5, 17, 600])
def test_power_stack_matches_repeated_product(count):
    """Doubling against one product per power, from a rectangular start."""
    rng = np.random.default_rng(count)
    mat = expm(0.01 * rng.standard_normal((3, 3)))
    start = rng.standard_normal((3, 2))
    stack = power_stack(mat, start, count)
    assert stack.shape == (count + 1, 3, 2)
    ref = start
    for k in range(count + 1):
        assert np.allclose(stack[k], ref, rtol=0.0,
                           atol=1e-12 * max(1.0, np.max(np.abs(ref))))
        ref = mat @ ref
