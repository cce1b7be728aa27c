"""Acceptance battery: one test and one pass/fail line per numbered check.

The full battery runs once per session through chaincontrol.verify (it does
its own second pass for the determinism record); each test then asserts
its record passed, re-checks the headline numbers against the stated
tolerances, and enforces the per-check time budget on both passes.
"""

from dataclasses import replace

import numpy as np
import pytest

from chaincontrol import verify
from chaincontrol.verify import acceptance_report

BUDGETS = {1: 10.0, 2: 10.0, 3: 60.0, 4: 60.0, 5: 300.0,
           6: 600.0, 7: 600.0, 8: 300.0}


@pytest.fixture(scope="module")
def report():
    return acceptance_report()


def _record(report, num):
    recs = [r for r in report["body"]["checks"] if r["id"] == num]
    assert len(recs) == 1
    rec = recs[0]
    status = "PASS" if rec["passed"] else "FAIL"
    print(f"acceptance check {num} ({rec['name']}): {status}")
    if num in BUDGETS:
        for run in ("first", "second"):
            spent = report["timings"][run][str(num)]
            assert spent < BUDGETS[num], \
                f"check {num} took {spent:.1f}s on the {run} pass"
    return rec


def test_check_1_bracket_laws(report):
    rec = _record(report, 1)
    m = rec["measured"]
    assert m["antisymmetry"] < 1e-12
    assert m["jacobi"] < 1e-12
    assert m["associativity"] < 1e-9
    assert m["series_oracle"] < 1e-10
    assert m["triples_per_algebra"] >= 100
    assert rec["passed"]


def test_check_2_graded_triangularity(report):
    rec = _record(report, 2)
    m = rec["measured"]
    assert m["block_vanishing"] < 1e-12
    assert m["product_triangularity"] < 1e-12
    assert m["shift_tuples"] >= 100
    assert rec["passed"]


def test_check_3_flow_identities(report):
    rec = _record(report, 3)
    m = rec["measured"]
    assert m["translation_identity"] < 1e-6
    assert m["cocycle"] < 1e-6
    assert m["cross_check"] < 1e-6
    assert m["flow_samples"] >= 50
    assert rec["passed"]


def _no_false_verdict(entry):
    assert all(v is not False for v in entry["verdicts"].values())
    assert entry["failures"] == []


def test_check_4_scalar_line_sets(report):
    rec = _record(report, 4)
    for name in ("scalar-stable", "scalar-unstable"):
        entry = rec["measured"][name]
        _no_false_verdict(entry)
        lo, hi = entry["hull"]
        assert abs(lo + 1.0) <= entry["tolerance"]
        assert abs(hi - 1.0) <= entry["tolerance"]
    assert rec["passed"]


def test_check_5_rotation_fiber_glue(report):
    rec = _record(report, 5)
    m = rec["measured"]
    _no_false_verdict(m)
    assert m["angle_cells_covered"] == m["angle_cells"] == 64
    assert rec["passed"]


def test_check_6_expanding_containment(report):
    rec = _record(report, 6)
    m = rec["measured"]
    assert m["n_sets"] == 1
    assert all(c < 1.0 for c in m["contraction"])
    assert np.all(np.asarray(m["extents"]) <= np.asarray(m["bounds"]))
    assert m["window_inside_inflated_box"]
    assert m["failures"] == []
    assert rec["passed"]


def test_check_7_quotient_conjugation(report):
    rec = _record(report, 7)
    m = rec["measured"]
    assert m["eigenvalue_match"] < 1e-9
    assert m["n_sets_upstairs"] == 1 and m["n_sets_downstairs"] == 1
    assert m["mapped_fraction"] == 1.0
    assert m["inclusion"] <= rec["tolerances"]["inclusion"]
    assert rec["passed"]


def test_check_8_flat_direction_growth(report):
    rec = _record(report, 8)
    for w in (2, 4, 8):
        entry = rec["measured"][f"w{w}"]
        _no_false_verdict(entry)
        assert entry["boundary_touch"][0] == [True, True]
        assert entry["boundary_touch"][1] == [False, False]
        assert entry["diagnostic"].startswith("unbounded direction detected")
    assert rec["passed"]


def test_check_9_deterministic_reports(report):
    rec = _record(report, 9)
    assert rec["measured"]["identical"] is True
    assert rec["passed"]


def test_check_6_fails_on_refused_bound(monkeypatch):
    # a refused bound is a failed check with its record, not an exception
    certificate = verify.decay_certificate

    def refuse(system, tau):
        return replace(certificate(system, tau), refusal=(
            "no contraction at this tau: kappa e^(-tau mu) = 1.200000 >= 1 "
            "at level 1; increase tau"))

    monkeypatch.setattr(verify, "decay_certificate", refuse)
    rec = verify.check_expanding_containment(verify.DEFAULT_SEED)
    assert rec["passed"] is False
    m = rec["measured"]
    assert m["bounds"] is None and m["source_constants"] is None
    assert m["failures"][-1].startswith("no contraction at this tau")


@pytest.mark.parametrize("check", [verify.check_scalar_line_sets,
                                   verify.check_rotation_fiber_glue,
                                   verify.check_flat_direction_growth])
def test_preset_checks_fail_on_a_false_verdict(monkeypatch, check):
    # checks 4, 5 and 8 take the chainset verdicts from verdict_run: one
    # False verdict (unique, flipped here) fails the check, with its record
    verdict_run = verify.verdict_run

    def flipped(*args):
        run = verdict_run(*args)
        run.verdicts = {**run.verdicts, "unique": False}
        run.failures = run.failures + ["unique flipped"]
        return run

    monkeypatch.setattr(verify, "verdict_run", flipped)
    rec = check(verify.DEFAULT_SEED)
    assert rec["passed"] is False
    m = rec["measured"]
    entries = [m] if "verdicts" in m else list(m.values())
    for entry in entries:
        assert entry["verdicts"]["unique"] is False
        assert entry["failures"][-1] == "unique flipped"
