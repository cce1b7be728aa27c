"""End-to-end verification battery.

Each check exercises one headline property of the package on random data
or on a bundled preset run and returns a json-safe record: a pass flag,
the measured residuals, and the tolerances they were held to.  The battery
is deterministic given the seed, so running it twice must reproduce the
report body byte for byte; acceptance_report does exactly that and appends
the comparison as a final record.

The verdict policy of a run lives here too, once per run kind:
verdict_run for chainset and quotient_run for conjugate return the
verdicts, the residual rows behind them and, for chainset, one failure
line per False verdict and the run's decay record (`chains.LevelBounds`):
whether every graded block is hyperbolic, the refusal line of a bound that
cannot exist, and the bound.  The command line writes these records, and
checks 4 through 8 read the same ones: each preset check holds its run to
every verdict and adds only its own geometry.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import config as cfg
from .algebra import NilpotentAlgebra, bch_dynkin, structure_residuals
from .chains import (
    PAIR_LIMIT,
    LevelBounds,
    build_chain_graph,
    central_fiber_nodes,
    decay_certificate,
    estimate_source_constants,
    extract_chain_sets,
    level_extents,
    main_set,
    theoretical_bound,
)
from .group import ConjugationMap
from .lcs import (
    ControlFunction,
    cross_check_residual,
    flow_identity_residuals,
    integrate_runs,
)
from .spectral import GradedBlocks

DEFAULT_SEED = 20260818

REPORT_SCHEMA = 1

QUOTIENT_ATOL = 1e-9  # spectrum, homomorphism and equivariance of psi


def chain_run(config, system=None):
    """System, window, graph, and extracted sets for a parsed config."""
    if system is None:
        system = cfg.build_system(config)
    window = cfg.build_window(config, system)
    graph = build_chain_graph(system, window, config.eps, config.tau,
                              control_family=config.family,
                              time_samples=config.times)
    return system, window, graph, extract_chain_sets(graph)


def _run_preset(name):
    """Config, system, window, sets and chainset verdict of a preset."""
    c = cfg.preset_config(name)
    system, window, _, sets = chain_run(c)
    return c, system, window, sets, verdict_run(c, system, window, sets)


def residual_row(name, value, tolerance):
    """One measured value held to its tolerance.  A value that could not be
    measured (None) or is not finite (NaN when a sample overflowed) reads
    null and fails."""
    measured = value is not None and math.isfinite(value)
    return {"name": name, "value": float(value) if measured else None,
            "tolerance": float(tolerance),
            "passed": measured and bool(value <= tolerance)}


def all_passed(residuals, verdicts):
    """Every row passed and no verdict is False ("n/a" is no verdict)."""
    return (all(row["passed"] for row in residuals)
            and all(v is not False for v in verdicts.values()))


@dataclass
class ChainVerdict:
    """Verdicts of a chain run, the rows behind them, one failure line per
    False verdict, and the decay record they were held to (its bounds None,
    with its refusal line, when refused)."""

    bound: LevelBounds
    verdicts: dict
    residuals: list
    failures: list


def verdict_run(config, system, window, sets):
    """The chainset verdict policy for one chain run.

    The decay record comes first: a refused bound (a flat direction, or no
    contraction at this tau) carries its refusal line, and no source
    constant is estimated for it.  Otherwise the source constants are
    estimated and form the per-level bound.  The verdicts are unique
    (exactly one set), fiber_containment (every central-fiber node in the
    main set), extents (the main set's per-level extents within the bound;
    "n/a" with no bound) and interior (the main set off the window
    boundary; "n/a" unless the config sets require_interior).
    """
    bound = decay_certificate(system, config.tau)
    if bound.refusal is None:
        bound = theoretical_bound(bound, estimate_source_constants(
            system, window, config.tau, control_family=config.family))

    main = main_set(sets)
    fiber = central_fiber_nodes(window)
    missing = int(fiber.size)
    if main is not None:
        missing -= int(np.isin(fiber, main.nodes).sum())
    residuals = [residual_row("extra_chain_sets", abs(len(sets) - 1), 0),
                 residual_row("missing_fiber_nodes", missing, 0)]
    over = []
    if main is not None and bound.bounds is not None:
        over = np.flatnonzero(main.extents > bound.bounds)
        for i, (ext, lim) in enumerate(zip(main.extents, bound.bounds), 1):
            residuals.append(residual_row(f"level_{i}_extent", ext, lim))
    touches = 0 if main is None else int(main.boundary_touch.sum())
    if main is not None and config.require_interior:
        residuals.append(residual_row("boundary_touches", touches, 0))
    verdicts = {
        "unique": len(sets) == 1,
        "fiber_containment": main is not None and missing == 0,
        "extents": "n/a" if bound.bounds is None else not len(over),
        "interior": touches == 0 if config.require_interior else "n/a",
    }
    why = {
        "unique": (f"{len(sets)} chain control sets extracted, expected 1"
                   if sets else "no chain control set extracted"),
        "fiber_containment": (f"{missing} of {fiber.size} central-fiber "
                              f"nodes outside the main set"),
        "extents": ("per-level extents exceed the bound at levels "
                    f"{[int(i) + 1 for i in over]}"),
        "interior": "extracted set touches the window boundary",
    }
    failures = [why[k] for k, v in verdicts.items() if v is False]
    return ChainVerdict(bound, verdicts, residuals, failures)


@dataclass
class QuotientRun:
    """Upstairs and downstairs runs of one config compared through psi,
    with the conjugate rows and verdicts."""

    psi: ConjugationMap
    downstairs_raw: dict
    usets: list
    dsets: list
    mapped: np.ndarray
    mapped_fraction: float
    inclusion_tolerance: float
    residuals: list
    verdicts: dict


def quotient_run(config):
    """Conjugate a run onto its hyperbolic part and compare the sets.

    The downstairs system is built from its own raw config, so that config
    is exactly what ran.  The rows, each null when it cannot be measured:
    the compressed drift's spectrum against the nonzero-real-part one, the
    homomorphism and flow-equivariance residuals of psi (all three held to
    QUOTIENT_ATOL), and the worst distance from the mapped main upstairs set
    to the main downstairs set, held to eps plus the widest downstairs cell.
    The nearest distances are taken over blocks of mapped rows, about
    PAIR_LIMIT pairs per block.
    """
    system = cfg.build_system(config)
    psi = ConjugationMap(system.group, system.derivation,
                         extra_kernel=config.extra_kernel)
    full = np.linalg.eigvals(system.derivation)
    nonzero = np.sort_complex(full[np.abs(full.real) > QUOTIENT_ATOL])
    hat = np.sort_complex(np.linalg.eigvals(psi.matrix_hat))
    eigen_gap = None
    if nonzero.shape == hat.shape:
        eigen_gap = np.max(np.abs(nonzero - hat), initial=0.0)
    residuals = [
        residual_row(name, value, QUOTIENT_ATOL) for name, value in (
            ("eigenvalue_match", eigen_gap),
            ("homomorphism", psi.homomorphism_residual()),
            ("flow_equivariance", psi.flow_equivariance_residual()))]
    _, window, _, usets = chain_run(config, system)
    down_raw = cfg.downstairs_raw(config, window, psi)
    _, down_win, _, dsets = chain_run(cfg.parse_config(down_raw))

    tol_incl = config.eps + float(np.max(down_win.delta))
    mapped = inclusion = None
    fraction = 0.0
    if usets and dsets:
        mapped = psi.apply(window.points[main_set(usets).nodes])
        dpts = down_win.points[main_set(dsets).nodes]
        per = max(1, PAIR_LIMIT // len(dpts))
        nearest = np.concatenate([
            psi.target.distance(mapped[lo:lo + per, None, :],
                                dpts[None, :, :]).min(axis=1)
            for lo in range(0, len(mapped), per)])
        inclusion = nearest.max()
        fraction = float(np.mean(nearest <= tol_incl))
    residuals.append(residual_row("set_inclusion", inclusion, tol_incl))
    verdicts = {"unique_upstairs": len(usets) == 1,
                "unique_downstairs": len(dsets) == 1,
                "inclusion": residuals[-1]["passed"]}
    return QuotientRun(psi, down_raw, usets, dsets, mapped, fraction,
                       tol_incl, residuals, verdicts)


def check_bracket_laws(seed):
    """Bracket axioms and the closed-form group product.

    Antisymmetry and Jacobi are evaluated on the raw structure tensors.
    The product is checked for associativity on random triples and against
    the slow series oracle on random pairs, on both a two-step and a
    three-step graded example.
    """
    rng = np.random.default_rng(seed)
    worst_anti = worst_jacobi = worst_assoc = worst_oracle = 0.0
    n_triples = 100
    n_pairs = 20
    for name in ("heisenberg3", "filiform4"):
        alg = NilpotentAlgebra.from_preset(name)
        anti, jacobi = structure_residuals(alg.structure)
        worst_anti = max(worst_anti, anti)
        worst_jacobi = max(worst_jacobi, jacobi)
        for _ in range(n_triples):
            x, y, z = rng.uniform(-1.0, 1.0, (3, alg.dim))
            left = alg.bch(alg.bch(x, y), z)
            right = alg.bch(x, alg.bch(y, z))
            worst_assoc = max(worst_assoc, float(np.max(np.abs(left - right))))
        for _ in range(n_pairs):
            x, y = rng.uniform(-1.0, 1.0, (2, alg.dim))
            ref = bch_dynkin(alg.bracket, x, y, max_class=alg.nilpotency_class)
            gap = float(np.max(np.abs(alg.bch(x, y) - ref)))
            worst_oracle = max(worst_oracle, gap)
    tol = {"antisymmetry": 1e-12, "jacobi": 1e-12,
           "associativity": 1e-9, "series_oracle": 1e-10}
    measured = {"antisymmetry": worst_anti, "jacobi": worst_jacobi,
                "associativity": worst_assoc, "series_oracle": worst_oracle,
                "triples_per_algebra": n_triples, "pairs_per_algebra": n_pairs}
    passed = all(measured[k] < tol[k] for k in tol)
    return {"passed": passed, "tolerances": tol, "measured": measured}


def check_graded_triangularity(seed):
    """Filtration shift of ad and triangularity of the product.

    On the three-step filiform example: if the lowest nonzero level of x
    is p then every graded block (i, j) of ad(x) with i < p + j vanishes,
    and the level-i correction of the product x * y (the part beyond
    x_i + y_i) never depends on components at levels >= i.
    """
    rng = np.random.default_rng(seed + 1)
    alg = NilpotentAlgebra.from_preset("filiform5")
    k = alg.nilpotency_class
    worst_block = 0.0
    n_tuples = 100
    for trial in range(n_tuples):
        p = 1 + trial % 3
        xg = np.zeros(alg.dim)
        for level in range(p, k + 1):
            sl = alg.level_slices[level - 1]
            xg[sl] = rng.uniform(-1.0, 1.0, sl.stop - sl.start)
        sl = alg.level_slices[p - 1]
        while np.linalg.norm(xg[sl]) < 0.1:
            xg[sl] = rng.uniform(-1.0, 1.0, sl.stop - sl.start)
        blocks = GradedBlocks(alg, alg.ad(alg.from_graded(xg)))
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                if i < p + j and blocks.block(i, j).size:
                    worst_block = max(
                        worst_block,
                        float(np.max(np.abs(blocks.block(i, j)))))

    worst_product = 0.0
    n_pairs = 100
    for _ in range(n_pairs):
        x, y = rng.uniform(-1.0, 1.0, (2, alg.dim))
        for i in range(1, k + 1):
            base = (alg.component(alg.bch(x, y), i)
                    - alg.component(x, i) - alg.component(y, i))
            pg = np.zeros((2, alg.dim))
            for level in range(i, k + 1):
                sl = alg.level_slices[level - 1]
                pg[:, sl] = rng.uniform(-1.0, 1.0, (2, sl.stop - sl.start))
            x2 = x + alg.from_graded(pg[0])
            y2 = y + alg.from_graded(pg[1])
            moved = (alg.component(alg.bch(x2, y2), i)
                     - alg.component(x2, i) - alg.component(y2, i))
            worst_product = max(worst_product,
                                float(np.max(np.abs(moved - base))))
    tol = {"block_vanishing": 1e-12, "product_triangularity": 1e-12}
    measured = {"block_vanishing": worst_block,
                "product_triangularity": worst_product,
                "shift_tuples": n_tuples, "product_pairs": n_pairs}
    passed = all(measured[k] < tol[k] for k in tol)
    return {"passed": passed, "tolerances": tol, "measured": measured}


def check_flow_identities(seed):
    """Structural identities of the controlled flow.

    The left-translation identity and the cocycle property are integrated
    on the circle-over-plane model for 50 random samples of start points,
    durations, and piecewise controls, 5 batches of 10 points each with
    its own (t, s, control).  The closed level-by-level solve is
    cross-checked against integration on the expanding graded example.
    The independent runs go into three integrate_runs calls: the 10
    translation runs with the 10 full and first cocycle runs
    (flow_identity_residuals), the 5 restarts, and the 5 cross-check runs.
    """
    rng = np.random.default_rng(seed + 2)
    system = cfg.build_system(cfg.preset_config("rotation-plane"))
    n_batches, per_batch = 5, 10
    translation, cocycle = [], []
    for _ in range(n_batches):
        t = float(rng.uniform(0.5, 2.0))
        s = float(rng.uniform(0.25, 1.0))
        b1 = float(rng.uniform(0.4, 1.2))
        b2 = float(rng.uniform(1.6, 2.6))
        values = rng.uniform(-1.0, 1.0, (3, per_batch, 1))
        control = ControlFunction([0.0, b1, b2, 3.2], values)
        theta = rng.uniform(0.0, 2.0 * np.pi, (2, per_batch, 1))
        xs = rng.uniform(-1.0, 1.0, (2, per_batch, 2))
        g = np.concatenate([theta[0], xs[0]], axis=1)
        h = np.concatenate([theta[1], xs[1]], axis=1)
        translation.append((t, h, g, control))
        cocycle.append((t, s, g, control))
    moved, restarted = flow_identity_residuals(system, translation, cocycle)
    worst_translation = max(float(np.max(r)) for r in moved)
    worst_cocycle = max(float(np.max(r)) for r in restarted)

    hsys = cfg.build_system(cfg.preset_config("heisenberg-expanding"))
    n_cross = 5
    cross = []
    for _ in range(n_cross):
        dur = float(rng.uniform(0.5, 1.5))
        breaks = [0.0, dur / 3.0, 2.0 * dur / 3.0, dur]
        control = ControlFunction(breaks, rng.uniform(-1.0, 1.0, (3, 1)))
        cross.append((dur, rng.uniform(-0.5, 0.5, 3), control))
    worst_cross = max(float(cross_check_residual(hsys, *run, traj.endpoint))
                      for run, traj in zip(cross, integrate_runs(hsys, cross)))
    tol = {"translation_identity": 1e-6, "cocycle": 1e-6, "cross_check": 1e-6}
    measured = {"translation_identity": worst_translation,
                "cocycle": worst_cocycle, "cross_check": worst_cross,
                "flow_samples": n_batches * per_batch,
                "cross_samples": n_cross}
    passed = all(measured[k] < tol[k] for k in tol)
    return {"passed": passed, "tolerances": tol, "measured": measured}


def check_scalar_line_sets(seed):
    """Scalar stable and unstable runs recover the interval [-1, 1].

    For rates -1 and +1 with unit control box the chain control set is
    exactly [-1, 1]; each run must hold every chainset verdict (one set
    holding the central fiber, which is the identity cell here) and the
    main set's hull must match [-1, 1] within eps + 2 delta.
    """
    details = {}
    passed = True
    for name in ("scalar-stable", "scalar-unstable"):
        c, system, window, sets, run = _run_preset(name)
        tol = c.eps + 2.0 * float(np.max(c.delta))
        ok = all_passed(run.residuals, run.verdicts)
        hull = None
        if sets:
            centers = window.points[main_set(sets).nodes][:, system.group.h_dim:]
            hull = [float(centers.min()), float(centers.max())]
            ok = ok and abs(hull[0] + 1.0) <= tol and abs(hull[1] - 1.0) <= tol
        details[name] = {"verdicts": run.verdicts, "failures": run.failures,
                         "hull": hull, "tolerance": tol}
        passed = passed and ok
    return {"passed": passed,
            "tolerances": {"hull_deviation": "eps + 2 delta"},
            "measured": details}


def check_rotation_fiber_glue(seed):
    """Trivial-drift circle fibers glue into a single chain control set.

    The circle part never moves, so each angle fiber carries its own copy
    of the contracting plane dynamics; the jump slack must glue all fibers
    into exactly one set that contains every central-fiber node (the
    chainset verdicts) and covers every angle cell.
    """
    _, _, window, sets, run = _run_preset("rotation-plane")
    covered = 0
    if sets:
        theta_idx = window.axis_indices()[main_set(sets).nodes, 0]
        covered = int(np.unique(theta_idx).size)
    n_angles = int(window.shape[0])
    passed = all_passed(run.residuals, run.verdicts) and covered == n_angles
    measured = {"verdicts": run.verdicts, "failures": run.failures,
                "angle_cells_covered": covered, "angle_cells": n_angles}
    return {"passed": bool(passed),
            "tolerances": {"angle_cells_covered": "every angle cell"},
            "measured": measured}


def check_expanding_containment(seed):
    """Fully expanding graded run stays inside the theoretical box.

    The derivation has all eigenvalues positive, so tau-contraction holds
    backward in time; the extracted set must be unique, contain the
    identity cell, keep its per-level extents below the bound, and stay
    off the window boundary.  The run window itself must sit inside the
    bound box inflated by 1.5, so no part of the predicted region is cut.
    A refused bound fails the check, with the record's refusal line among
    the failures.
    """
    c, system, window, sets, run = _run_preset("heisenberg-expanding")
    bound = run.bound
    refused = bound.refusal is not None

    corners = np.array(list(itertools.product(*zip(c.x_lower, c.x_upper))))
    window_ext = level_extents(system.algebra, corners)
    window_inside = (not refused
                     and bool(np.all(window_ext <= 1.5 * bound.bounds)))

    main = main_set(sets)
    measured = {
        "n_sets": len(sets),
        "set_nodes": main.size if sets else 0,
        "extents": [float(v) for v in main.extents] if sets else None,
        "bounds": None if refused else [float(v) for v in bound.bounds],
        "contraction": (None if refused
                        else [float(v) for v in bound.contraction]),
        "source_constants": (None if refused
                             else [float(v) for v in bound.c_estimates]),
        "window_extents": [float(v) for v in window_ext],
        "window_inside_inflated_box": window_inside,
        "failures": run.failures + ([bound.refusal] if refused else []),
    }
    passed = (not refused and not run.failures and window_inside
              and bool(np.all(bound.contraction < 1.0)))
    tol = {"contraction": 1.0, "extents": "2 C_i (1 + k/m) / (1 - k e^(-tau m))",
           "window_inflation": 1.5}
    return {"passed": bool(passed), "tolerances": tol, "measured": measured}


def check_quotient_conjugation(seed):
    """Quotient map onto the hyperbolic part conjugates the two runs.

    Upstairs the nilpotent part carries a flow-trivial central circle;
    quotienting it away must reproduce the nonzero-real-part spectrum
    exactly, keep the homomorphism and flow-equivariance residuals at
    rounding level, and map the upstairs chain set into the downstairs
    one within eps plus one cell spacing.
    """
    run = quotient_run(cfg.preset_config("conjugation-upstairs"))
    rows = {row["name"]: row for row in run.residuals}
    rows["inclusion"] = rows.pop("set_inclusion")
    tol = {name: row["tolerance"] for name, row in rows.items()}
    tol["mapped_fraction"] = 1.0
    measured = {name: row["value"] for name, row in rows.items()}
    measured.update(mapped_fraction=run.mapped_fraction,
                    n_sets_upstairs=len(run.usets),
                    n_sets_downstairs=len(run.dsets),
                    quotient_dim=int(run.psi.target.x_dim))
    passed = all_passed(run.residuals, run.verdicts)
    return {"passed": bool(passed), "tolerances": tol, "measured": measured}


def check_flat_direction_growth(seed):
    """A zero eigenvalue leaks through every window and kills the bound.

    With one flat and one contracting direction the extracted set must
    hold every chainset verdict and touch the window boundary along the
    flat axis (both ends, never the contracting one) at every window width,
    and the theoretical box must be refused as an unbounded direction.
    """
    details = {}
    passed = True
    for w in (2, 4, 8):
        *_, sets, run = _run_preset(f"halfstable-w{w}")
        ok = all_passed(run.residuals, run.verdicts)
        touch = None
        if sets:
            bt = main_set(sets).boundary_touch
            touch = bt.astype(bool).tolist()
            ok = ok and bool(bt[0, 0]) and bool(bt[0, 1])
            ok = ok and not bool(bt[1].any())
        refusal = run.bound.refusal or ""
        ok = ok and refusal.startswith("unbounded direction detected")
        details[f"w{w}"] = {"verdicts": run.verdicts,
                            "failures": run.failures,
                            "boundary_touch": touch,
                            "diagnostic": run.bound.refusal}
        passed = passed and ok
    return {"passed": bool(passed),
            "tolerances": {"flat_axis_touch": "both ends, every width"},
            "measured": details}


CHECKS = [
    (1, "bracket-laws-and-product", check_bracket_laws),
    (2, "graded-triangularity", check_graded_triangularity),
    (3, "flow-identities", check_flow_identities),
    (4, "scalar-line-sets", check_scalar_line_sets),
    (5, "rotation-fiber-glue", check_rotation_fiber_glue),
    (6, "expanding-containment", check_expanding_containment),
    (7, "quotient-conjugation", check_quotient_conjugation),
    (8, "flat-direction-growth", check_flat_direction_growth),
]


def run_battery(seed=DEFAULT_SEED):
    """Run checks 1 through 8; returns (records, per-check timings)."""
    records = []
    timings = {}
    for num, name, fn in CHECKS:
        t0 = time.perf_counter()
        rec = fn(seed)
        timings[str(num)] = time.perf_counter() - t0
        rec["id"] = num
        rec["name"] = name
        records.append(rec)
    return records, timings


def canonical_body(records, seed):
    return {"schema": REPORT_SCHEMA, "seed": int(seed), "checks": records}


def encode_body(body):
    """Canonical serialization: sorted keys, no whitespace."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def acceptance_report(seed=DEFAULT_SEED):
    """Full battery run twice; the report carries the determinism record.

    Returns {"body": ..., "timings": ...}; the body is what canonical
    serialization covers, timings stay outside it by design.
    """
    first, t_first = run_battery(seed)
    second, t_second = run_battery(seed)
    b1 = encode_body(canonical_body(first, seed))
    b2 = encode_body(canonical_body(second, seed))
    identical = b1 == b2
    det = {
        "id": 9,
        "name": "deterministic-reports",
        "passed": bool(identical),
        "tolerances": {"byte_difference": 0},
        "measured": {"identical": bool(identical),
                     "body_bytes": len(b1.encode())},
    }
    body = canonical_body(first + [det], seed)
    timings = {"first": t_first, "second": t_second}
    return {"body": body, "timings": timings}
