"""Command line behavior: exit codes, reports, outputs, determinism."""

import copy
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from chaincontrol import cli
from chaincontrol import config as cfg
from chaincontrol import verify
from chaincontrol.cli import main
from chaincontrol.errors import IntegratorBudgetError
from chaincontrol.verify import encode_body


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_decompose_expanding(tmp_path):
    out = tmp_path / "d"
    code = main(["decompose", "--preset", "heisenberg-expanding",
                 "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["hyperbolic"] is True
    assert body["subspace_dims"] == {"stable": 0, "center": 0, "unstable": 3}
    assert [s[0] for s in body["spectrum"]] == [1.0, 2.0, 3.0]
    assert all(row["passed"] for row in body["residuals"])
    assert all(lvl["kappa"] >= 1.0 for lvl in body["levels"])


def test_decompose_center_direction_is_not_an_error(tmp_path):
    raw = {
        "schema": 1, "name": "center", "seed": 3,
        "algebra": {"preset": "heisenberg3"},
        "derivation": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
        "control": {"z": [[1.0, 0.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0] * 3, "x_upper": [1.0] * 3,
                  "delta": [0.5] * 3, "eps": 0.2, "tau": 1.0},
    }
    path = tmp_path / "center.yaml"
    cfg.dump_config(raw, path)
    out = tmp_path / "d"
    code = main(["decompose", "--config", str(path), "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["hyperbolic"] is False
    assert body["subspace_dims"] == {"stable": 1, "center": 1, "unstable": 1}
    flat = [lvl for lvl in body["levels"] if lvl["kappa"] is None]
    assert len(flat) == 1 and flat[0]["level"] == 2


def test_decompose_jacobi_failure_exits_2(tmp_path, capsys):
    structure = np.zeros((3, 3, 3))
    structure[0, 1, 2] = 1.0
    structure[1, 0, 2] = -1.0
    structure[0, 2, 0] = 1.0
    structure[2, 0, 0] = -1.0
    raw = {
        "schema": 1, "name": "bad", "seed": 3,
        "algebra": {"structure": structure.tolist()},
        "derivation": np.eye(3).tolist(),
        "control": {"z": [[1.0, 0.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0] * 3, "x_upper": [1.0] * 3,
                  "delta": [0.5] * 3, "eps": 0.2, "tau": 1.0},
    }
    path = tmp_path / "bad.yaml"
    cfg.dump_config(raw, path)
    code = main(["decompose", "--config", str(path), "--out",
                 str(tmp_path / "d")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Jacobi" in err and "residual" in err


def test_exactly_one_config_source(tmp_path, capsys):
    assert main(["decompose", "--out", str(tmp_path)]) == 2
    assert main(["decompose", "--preset", "scalar-stable",
                 "--config", "x.yaml", "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    assert main(["decompose", "--preset", "nope",
                 "--out", str(tmp_path)]) == 2
    # one stderr line naming the preset and every bundled one, sorted
    assert capsys.readouterr().err == (
        "validation failure: unknown preset 'nope'; known: "
        "conjugation-upstairs, halfstable-w2, halfstable-w4, halfstable-w8, "
        "heisenberg-expanding, rotation-plane, scalar-stable, "
        "scalar-unstable\n")
    assert main(["decompose", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("libyaml", [True, False])
def test_config_file_parses_alike_with_or_without_libyaml(tmp_path, capsys,
                                                          monkeypatch,
                                                          libyaml):
    # --config reads through yaml.CSafeLoader where PyYAML has libyaml and
    # falls back to yaml.SafeLoader; either gives safe_load's dict, and a
    # malformed file fails naming its line
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    loaders = []
    load = yaml.load

    def spy(stream, Loader):
        loaders.append(Loader)
        return load(stream, Loader)

    for name in sorted(cfg.PRESETS):
        path = tmp_path / f"{name}.yaml"
        cfg.dump_config(cfg.preset_raw(name), path)
        want = yaml.safe_load(path.read_text())
        with monkeypatch.context() as patch:
            patch.setattr(yaml, "load", spy)
            assert cli._raw_config(SimpleNamespace(config=str(path))) == want
    assert set(loaders) == {yaml.CSafeLoader if libyaml else yaml.SafeLoader}
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema: 1\nchain: {eps: 0.2\nname: x\n")
    assert main(["decompose", "--config", str(bad), "--out",
                 str(tmp_path / "d")]) == 2
    assert capsys.readouterr().err == (
        f"validation failure: config {bad} is not valid YAML (line 3)\n")


def test_simulate_exponential_endpoint(tmp_path):
    out = tmp_path / "s"
    code = main(["simulate", "--preset", "scalar-unstable",
                 "--control", "1.0", "--duration", "1.0",
                 "--cross-check", "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert abs(body["endpoint"][0] - (math.e - 1.0)) < 1e-7
    names = [row["name"] for row in body["residuals"]]
    assert "closed_form_cross_check" in names
    assert all(row["passed"] for row in body["residuals"])
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x0"


def test_simulate_piecewise_control_file(tmp_path):
    ctrl = tmp_path / "u.csv"
    ctrl.write_text("0.0,1.0\n0.5,-1.0\n")
    out = tmp_path / "s"
    code = main(["simulate", "--preset", "scalar-stable",
                 "--control-file", str(ctrl), "--duration", "1.0",
                 "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    # x' = -x + u from 0: piece one ends at 1 - e^{-1/2}, then u = -1
    mid = 1.0 - math.exp(-0.5)
    expected = (mid + 1.0) * math.exp(-0.5) - 1.0
    assert abs(body["endpoint"][0] - expected) < 1e-9


def test_simulate_growing_state_ends_without_traceback(tmp_path, capsys):
    # the state grows to 3.6e10, far past any absolute error budget
    code = main(["simulate", "--preset", "scalar-unstable", "--duration",
                 "25", "--start", "0.5", "--out", str(tmp_path / "s")])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err


def test_simulate_overflowing_state_ends_with_one_line(tmp_path, capsys):
    # from 1e300 the state itself overflows before t = 19 (e^19 1e300 ~
    # 1.8e308); the run must end there with one line, not shrink h
    code = main(["simulate", "--preset", "scalar-unstable", "--duration",
                 "720", "--start", "1e300", "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    assert "state is not finite" in err


CROSS_CHECK_PRESETS = [name for name in sorted(cfg.PRESETS)
                       if "torus_controls" not in cfg.PRESETS[name]["control"]]


@pytest.mark.parametrize("preset", CROSS_CHECK_PRESETS)
def test_simulate_cross_check_passes(tmp_path, preset):
    config = cfg.preset_config(preset)
    system = cfg.build_system(config)
    control = ",".join(["0.5"] * system.range.m)
    start = ",".join(f"{0.3 * (-1) ** j:g}" for j in range(system.group.dim))
    code = main(["simulate", "--preset", preset, "--control", control,
                 "--start", start, "--cross-check", "--out",
                 str(tmp_path / "s")])
    assert code == 0
    rows = {row["name"]: row for row in read_report(tmp_path / "s")["body"]
            ["residuals"]}
    assert rows["closed_form_cross_check"]["passed"]


def test_simulate_cross_check_refuses_compact_controls(tmp_path, capsys):
    assert "torus_controls" in cfg.PRESETS["conjugation-upstairs"]["control"]
    code = main(["simulate", "--preset", "conjugation-upstairs", "--control",
                 "0.5,0.5", "--cross-check", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "compact" in err
    # refused before any file is written: no stray trajectory.csv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("duration, start, codes", [
    ("1", "1e154", (0, 2)),  # |y|^2 overflows while y stays finite
    ("5", "1e307", (2,)),    # the state overflows near t = 1.1
])
def test_simulate_huge_state_ends_with_one_line(tmp_path, capsys, duration,
                                                start, codes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning fails
        code = main(["simulate", "--preset", "scalar-unstable", "--duration",
                     duration, "--start", start, "--out", str(tmp_path / "s")])
    assert code in codes
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == (code == 2)


@pytest.mark.parametrize("error", [IntegratorBudgetError])
def test_budget_errors_exit_2_with_one_line(tmp_path, capsys, monkeypatch,
                                            error):
    def exhausted(*args, **kwargs):
        raise error("estimate 1.0 exceeds budget 0.5")

    monkeypatch.setattr(cli, "integrate", exhausted)
    code = main(["simulate", "--preset", "scalar-stable",
                 "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "exceeds budget" in err[0]


def test_simulate_rejects_bad_inputs(tmp_path):
    base = ["simulate", "--preset", "scalar-stable", "--out",
            str(tmp_path / "s")]
    assert main(base + ["--control", "1.0,2.0"]) == 2
    assert main(base + ["--duration", "-1.0"]) == 2
    assert main(base + ["--start", "0.0,0.0"]) == 2
    assert main(base + ["--control", "0.5", "--control-file", "x.csv"]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0,3.0\n")
    assert main(base + ["--control-file", str(bad)]) == 2
    late = tmp_path / "late.csv"
    late.write_text("0.5,1.0\n")
    assert main(base + ["--control-file", str(late)]) == 2


def test_chainset_scalar_outputs(tmp_path):
    out = tmp_path / "c"
    code = main(["chainset", "--preset", "scalar-stable", "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["n_sets"] == 1
    assert body["verdicts"] == {"unique": True, "fiber_containment": True,
                                "extents": True, "interior": True}
    assert (out / "nodes.csv").exists()
    assert (out / "edges.csv").exists()
    lines = (out / "sets.jsonl").read_text().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["contains_identity"] and rec["within_bounds"]
    # scalar window is 1d, so there is no 2d slice to plot
    assert not (out / "plotdata").exists()


def test_chainset_flat_direction_diagnostic(tmp_path):
    out = tmp_path / "c"
    code = main(["chainset", "--preset", "halfstable-w2", "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["hyperbolic"] is False
    assert "unbounded direction detected" in body["diagnostic"]
    assert body["verdicts"]["extents"] == "n/a"
    assert body["verdicts"]["interior"] == "n/a"
    assert body["verdicts"]["unique"] is True
    assert (out / "plotdata" / "set0.csv").exists()


def test_chainset_interior_requirement_fails_with_exit_3(tmp_path):
    raw = copy.deepcopy(cfg.PRESETS["halfstable-w2"])
    raw["chain"]["require_interior"] = True
    path = tmp_path / "strict.yaml"
    cfg.dump_config(raw, path)
    out = tmp_path / "c"
    code = main(["chainset", "--config", str(path), "--out", str(out)])
    assert code == 3
    body = read_report(out)["body"]
    assert body["verdicts"]["interior"] is False
    rows = {r["name"]: r for r in body["residuals"]}
    assert rows["boundary_touches"]["passed"] is False
    assert body["failures"] == ["extracted set touches the window boundary"]


@pytest.mark.parametrize("preset", ["scalar-stable", "rotation-plane",
                                    "halfstable-w2"])
def test_chainset_failures_match_false_verdicts(tmp_path, preset):
    # one failure line per False verdict; an "n/a" verdict adds none
    out = tmp_path / "c"
    code = main(["chainset", "--preset", preset, "--out", str(out)])
    body = read_report(out)["body"]
    false = [k for k, v in body["verdicts"].items() if v is False]
    assert len(body["failures"]) == len(false)
    assert (body["failures"] == []) == (code == 0)


def test_chainset_delta_override(tmp_path):
    out = tmp_path / "c"
    code = main(["chainset", "--preset", "scalar-stable",
                 "--delta", "0.1", "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["nodes"] == 40
    assert body["n_sets"] == 1


def test_chainset_report_bodies_are_reproducible(tmp_path):
    bodies = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["chainset", "--preset", "scalar-unstable",
                     "--out", str(out)]) == 0
        report = read_report(out)
        bodies.append(encode_body(report["body"]))
        assert "timings" in report
    assert bodies[0] == bodies[1]


def test_chainset_timings_name_each_stage(tmp_path):
    # the stage timers sit beside the body, which keeps its keys
    out = tmp_path / "t"
    assert main(["chainset", "--preset", "scalar-stable",
                 "--out", str(out)]) == 0
    report = read_report(out)
    timings = report["timings"]
    assert set(timings) == {"graph_and_extract", "bound", "write", "total"}
    assert all(v >= 0.0 for v in timings.values())
    stages = timings["graph_and_extract"] + timings["bound"] + timings["write"]
    assert stages <= timings["total"]
    assert set(report["body"]) == {
        "command", "name", "seed", "eps", "tau", "nodes", "edges", "lift",
        "n_sets", "set_sizes", "extents", "bounds", "hyperbolic",
        "diagnostic", "failures", "residuals", "verdicts"}


def test_conjugate_identity_quotient(tmp_path):
    out = tmp_path / "j"
    code = main(["conjugate", "--preset", "scalar-stable", "--out", str(out)])
    assert code == 0
    body = read_report(out)["body"]
    assert body["identity_map"] is True
    assert body["quotient_dim"] == 1
    assert body["verdicts"] == {"unique_upstairs": True,
                                "unique_downstairs": True,
                                "inclusion": True}
    down = cfg.parse_config(yaml.safe_load(
        (out / "downstairs.yaml").read_text()))
    up = cfg.preset_config("scalar-stable")
    assert np.array_equal(down.derivation, up.derivation)
    assert np.array_equal(down.control_vectors, up.control_vectors)
    assert (out / "mapped_nodes.csv").exists()
    # the written config is a run config in its own right
    assert main(["chainset", "--config", str(out / "downstairs.yaml"),
                 "--out", str(tmp_path / "down")]) == 0
    down_body = read_report(tmp_path / "down")["body"]
    assert down_body["n_sets"] == 1
    # the quotient run checks the interior verdict the preset asks for
    assert down.require_interior is True
    assert down_body["verdicts"]["interior"] is True
    rows = {r["name"]: r for r in body["residuals"]}
    assert rows["set_inclusion"]["value"] == 0.0
    # no angle cells: the spacing is the largest delta alone
    assert body["inclusion_tolerance"] == up.eps + max(up.delta)
    assert body["inclusion_tolerance"] == pytest.approx(0.15)


# heisenberg3 with D = diag(1, -1, 0): the flat direction is the centre z,
# which conjugate quotients away as a coordinate axis
FLAT_Z = {
    "schema": 1,
    "name": "heisenberg-flat-z",
    "algebra": {"preset": "heisenberg3"},
    "derivation": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
    "control": {"z": [[1.0, 1.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
    "chain": {"x_lower": [-1.0, -1.25, -0.5], "x_upper": [1.0, 1.25, 0.5],
              "delta": [0.25, 0.25, 0.5], "eps": 0.2, "tau": 1.0},
    "conjugation": {"extra_kernel": [2]},
}


def _flat_z_yaml(extra_kernel, derivation=None):
    raw = copy.deepcopy(FLAT_Z)
    raw["conjugation"]["extra_kernel"] = extra_kernel
    if derivation is not None:
        raw["derivation"] = derivation
    return yaml.safe_dump(raw)


def test_conjugate_drops_a_flat_central_axis(tmp_path):
    path = tmp_path / "flat_z.yaml"
    path.write_text(yaml.safe_dump(FLAT_Z))
    out = tmp_path / "j"
    code = main(["conjugate", "--config", str(path), "--out", str(out)])
    assert code in (0, 3)
    assert read_report(out)["body"]["quotient_dim"] == 2
    # the downstairs window is the upstairs one without the z axis
    down = yaml.safe_load((out / "downstairs.yaml").read_text())
    for key in ("x_lower", "x_upper", "delta"):
        assert down["chain"][key] == FLAT_Z["chain"][key][:2]
    assert down["control"]["z"] == [[1.0, 1.0]]
    assert "conjugation" not in down
    # eps plus the widest downstairs cell; the dropped z cells are 0.5
    assert read_report(out)["body"]["inclusion_tolerance"] == 0.2 + 0.25
    assert main(["chainset", "--config", str(out / "downstairs.yaml"),
                 "--out", str(tmp_path / "down")]) in (0, 3)


# runs conjugate used to end with a traceback on: a drift whose flat
# direction psi keeps (the spectra differ in length), and a window holding
# no chain set (nothing to compare); and one it refused with exit 2: psi
# drops a circle but keeps a flat direction
UNMEASURABLE = {
    "center-left-after-drop": ({
        "schema": 1, "name": "flat-kept-circle-dropped",
        "algebra": {"preset": "abelian:3"},
        "derivation": np.diag([0.0, -1.0, 0.0]).tolist(),
        "torus": {"angular_coords": [2]},
        "control": {"z": [[1.0, 0.5, 0.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0] * 2, "x_upper": [1.0] * 2,
                  "delta": [0.5] * 2, "angle_cells": [4], "eps": 0.25,
                  "tau": 1.0},
    }, "eigenvalue_match"),
    "spectra-differ": ({
        "schema": 1, "name": "flat-kept",
        "algebra": {"preset": "abelian:3"},
        "derivation": np.diag([0.0, -1.0, -2.0]).tolist(),
        "control": {"z": [[1.0, 0.5, 0.5]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0] * 3, "x_upper": [1.0] * 3,
                  "delta": [0.5] * 3, "eps": 0.25, "tau": 1.0},
    }, "eigenvalue_match"),
    "no-set": ({
        "schema": 1, "name": "no-set",
        "algebra": {"preset": "abelian:1"},
        "derivation": [[1.0]],
        "control": {"z": [[1.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [1.5], "x_upper": [2.5], "delta": [0.25],
                  "eps": 0.1, "tau": 1.0},
    }, "set_inclusion"),
}


@pytest.mark.parametrize("case", sorted(UNMEASURABLE))
def test_conjugate_unmeasurable_row_reads_null(tmp_path, capsys, case):
    raw, row = UNMEASURABLE[case]
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "j"
    code = main(["conjugate", "--config", str(path), "--out", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "report.json") as fh:
        body = json.load(fh, parse_constant=pytest.fail)["body"]
    rows = {r["name"]: r for r in body["residuals"]}
    assert rows[row]["value"] is None and rows[row]["passed"] is False


@pytest.mark.parametrize("residual", ["homomorphism_residual",
                                      "flow_equivariance_residual"])
def test_conjugate_non_finite_psi_residual_reads_null(tmp_path, capsys,
                                                      monkeypatch, residual):
    # a psi residual that overflowed is NaN: its row reads null and fails,
    # and the report is still strict JSON
    monkeypatch.setattr(f"chaincontrol.group.ConjugationMap.{residual}",
                        lambda self: math.nan)
    out = tmp_path / "j"
    code = main(["conjugate", "--preset", "scalar-stable", "--out", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "report.json") as fh:
        body = json.load(fh, parse_constant=pytest.fail)["body"]
    rows = {r["name"]: r for r in body["residuals"]}
    name = residual.removesuffix("_residual")
    assert rows[name]["value"] is None and rows[name]["passed"] is False


def test_decompose_overflowing_drift_flow_exits_2(tmp_path, capsys):
    # e^{tD} overflows on every sample with t > 0; the residual used to drop
    # those samples and pass at 5.3e-82
    raw = {
        "schema": 1, "name": "overflow",
        "algebra": {"preset": "heisenberg3"},
        "derivation": np.diag([1000.0, 1000.0, 2000.0]).tolist(),
        "control": {"z": [[1.0, 1.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0] * 3, "x_upper": [1.0] * 3,
                  "delta": [0.5] * 3, "eps": 0.2, "tau": 1.0},
    }
    path = tmp_path / "overflow.yaml"
    cfg.dump_config(raw, path)
    out = tmp_path / "d"
    code = main(["decompose", "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "validation failure: drift intertwining residual is not finite"]
    assert not (out / "report.json").exists()


def test_seed_override_lands_in_report(tmp_path):
    out = tmp_path / "d"
    code = main(["decompose", "--preset", "scalar-stable",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    assert read_report(out)["body"]["seed"] == 42


@pytest.mark.parametrize("command", ["decompose", "simulate", "chainset",
                                     "conjugate"])
def test_seed_is_recorded_only(tmp_path, command):
    # no computation reads the config seed: two seeds write the same files,
    # whose report body and downstairs config differ in the seed alone
    runs = []
    for seed in (1, 2):
        out = tmp_path / str(seed)
        assert main([command, "--preset", "rotation-plane", "--seed",
                     str(seed), "--out", str(out)]) == 0
        run = {str(p.relative_to(out)): p.read_bytes()
               for p in out.rglob("*") if p.is_file()}
        body = json.loads(run.pop("report.json"))["body"]
        down = yaml.safe_load(run.pop("downstairs.yaml", b"seed: %d" % seed))
        assert body.pop("seed") == down.pop("seed") == seed
        runs.append((body, down, run))
    assert runs[0] == runs[1]


def _preset_yaml(block, value, key=None):
    """scalar-stable as YAML, with one block or one block entry replaced."""
    raw = copy.deepcopy(cfg.PRESETS["scalar-stable"])
    if key is None:
        raw[block] = value
    else:
        raw.setdefault(block, {})[key] = value
    return yaml.safe_dump(raw)


def _angular_yaml(angular_coords, angle_cells):
    """abelian:3 with the given angular coordinates and cell counts."""
    return yaml.safe_dump({
        "schema": 1, "algebra": {"preset": "abelian:3"},
        "derivation": np.diag([-1.0, 0.0, 0.0]).tolist(),
        "torus": {"angular_coords": angular_coords},
        "control": {"z": [[1.0, 0.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-1.0], "x_upper": [1.0], "delta": [0.5],
                  "angle_cells": angle_cells, "eps": 0.25, "tau": 1.0}})


SIMULATE = ["simulate", "--preset", "scalar-stable"]

# argv ("{file}" stands for the written input) and the file text, if any
BAD_INPUTS = {
    "delta-flag": (["chainset", "--preset", "scalar-stable", "--delta", "abc"],
                   None),
    # 4e12 cells: refused before any grid is allocated
    "delta-too-fine": (["chainset", "--preset", "scalar-stable", "--delta",
                        "1e-12"], None),
    "control-flag": (SIMULATE + ["--control", "abc"], None),
    "start-flag": (SIMULATE + ["--start", "abc"], None),
    "duration-nan": (SIMULATE + ["--duration", "nan"], None),
    "duration-inf": (SIMULATE + ["--duration", "inf"], None),
    "control-file-row": (SIMULATE + ["--control-file", "{file}"], "0.0,abc\n"),
    "yaml-syntax": (["decompose", "--config", "{file}"], "schema: [1\n"),
    "yaml-empty": (["decompose", "--config", "{file}"], ""),
    "yaml-list-root": (["decompose", "--config", "{file}"], "- 1\n"),
    "seed-not-int": (["decompose", "--config", "{file}"],
                     _preset_yaml("seed", "abc")),
    "tau-not-float": (["chainset", "--config", "{file}"],
                      _preset_yaml("chain", "x", key="tau")),
    "torus-not-mapping": (["chainset", "--config", "{file}"],
                          _preset_yaml("torus", 3)),
    "generators-not-list": (["decompose", "--config", "{file}"],
                            _preset_yaml("torus", 3, key="generators")),
    # keys the config no longer has, a misspelt key, and values of a wrong
    # kind that used to pass or crash late
    "output-block": (["chainset", "--config", "{file}"],
                     _preset_yaml("output", {"formats": ["csv", "jsonl"]})),
    "level-bounds": (["chainset", "--config", "{file}"],
                     _preset_yaml("chain", [1.0], key="level_bounds")),
    "window-factor": (["chainset", "--config", "{file}"],
                      _preset_yaml("chain", 1.5, key="window_factor")),
    "misspelt-key": (["chainset", "--config", "{file}"],
                     _preset_yaml("chain", True, key="requre_interior")),
    "family-3-deep": (["chainset", "--config", "{file}"],
                      _preset_yaml("control", [[[0.5]]], key="family")),
    "interior-not-bool": (["chainset", "--config", "{file}"],
                          _preset_yaml("chain", "no", key="require_interior")),
    "delta-empty": (["chainset", "--config", "{file}"],
                    _preset_yaml("chain", [], key="delta")),
    # a quotient kernel is a list of coordinate axes, central and in ker D
    "kernel-matrix-form": (["conjugate", "--config", "{file}"],
                           _flat_z_yaml([[0], [0], [1]])),
    "kernel-index-outside": (["conjugate", "--config", "{file}"],
                             _flat_z_yaml([3])),
    "kernel-outside-ker-d": (["conjugate", "--config", "{file}"],
                             _flat_z_yaml([0])),
    "kernel-not-central": (["conjugate", "--config", "{file}"],
                           _flat_z_yaml([0], derivation=[[0.0, 0.0, 0.0],
                                                         [0.0, -1.0, 0.0],
                                                         [0.0, 0.0, -1.0]])),
    # a quotient with no nilpotent coordinate left
    "kernel-drops-everything": (["conjugate", "--config", "{file}"],
                                yaml.safe_dump({
                                    "schema": 1,
                                    "algebra": {"preset": "abelian:2"},
                                    "derivation": [[0.0, 0.0], [0.0, 0.0]],
                                    "control": {"z": [[1.0, 0.0]],
                                                "lower": [-1.0],
                                                "upper": [1.0]},
                                    "chain": {"x_lower": [-1.0, -1.0],
                                              "x_upper": [1.0, 1.0],
                                              "delta": [0.5, 0.5],
                                              "eps": 0.2, "tau": 1.0},
                                    "conjugation": {"extra_kernel": [0, 1]},
                                })),
    # the circle count comes from torus.generators
    "torus-dim": (["chainset", "--config", "{file}"],
                  _preset_yaml("torus", 0, key="dim")),
    # cell counts follow ascending coordinate order, so the angular
    # coordinates must be listed that way, each once
    "angular-coords-unordered": (["chainset", "--config", "{file}"],
                                 _angular_yaml([2, 1], [4, 8])),
    "angular-coords-repeated": (["chainset", "--config", "{file}"],
                                _angular_yaml([2, 2], [4, 8])),
    # a flag override meets a chain block that is not a mapping
    "chain-int-eps-flag": (["chainset", "--config", "{file}", "--eps", "0.1"],
                           _preset_yaml("chain", 3)),
    "chain-null-tau-flag": (["chainset", "--config", "{file}", "--tau", "1"],
                            _preset_yaml("chain", None)),
    "chain-list-delta-flag": (["chainset", "--config", "{file}", "--delta",
                               "0.1"], _preset_yaml("chain", [1, 2])),
    # values argparse itself refuses, and a missing subcommand
    "seed-flag": (["decompose", "--preset", "scalar-stable", "--seed", "abc"],
                  None),
    "eps-flag": (["chainset", "--preset", "scalar-stable", "--eps", "x"], None),
    "tau-flag": (["chainset", "--preset", "scalar-stable", "--tau", "x"], None),
    # 20,000,001 anchors for one control, over ANCHOR_ROW_LIMIT: refused
    "tau-too-long": (["chainset", "--preset", "conjugation-upstairs", "--tau",
                      "1e5"], None),
    "duration-flag": (SIMULATE + ["--duration", "x"], None),
    "verify-seed-flag": (["verify", "--seed", "abc"], None),
    "no-subcommand": ([], None),
}

# the config key, or the failed condition, each of these rows' one
# stderr line must name
NAMED_KEYS = {"output-block": "output", "level-bounds": "chain.level_bounds",
              "window-factor": "chain.window_factor",
              "misspelt-key": "chain.requre_interior",
              "family-3-deep": "control.family",
              "interior-not-bool": "chain.require_interior",
              "kernel-matrix-form": "conjugation.extra_kernel",
              "kernel-index-outside": "conjugation.extra_kernel",
              "kernel-outside-ker-d": "not inside ker D",
              "kernel-not-central": "not central",
              "kernel-drops-everything": "conjugation.extra_kernel",
              "torus-dim": "torus.dim",
              "angular-coords-unordered": "torus.angular_coords",
              "angular-coords-repeated": "torus.angular_coords",
              "tau-too-long": "chain.tau"}


@pytest.mark.parametrize("argv", [["--help"], ["chainset", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: chaincontrol" in capsys.readouterr().out


# argv, the path blocked (a trailing slash: by a directory, else by an empty
# file), --out, and what the one stderr line names
BLOCKED_OUTPUTS = {
    # an existing file as --out, or as its parent
    "file": (["decompose", "--preset", "scalar-stable"], "o", "o", "--out"),
    "under-file": (["decompose", "--preset", "scalar-stable"], "o", "o/sub",
                   "--out"),
    # a directory where a writer's file goes, or a file where its directory
    # goes
    "nodes-csv": (["chainset", "--preset", "halfstable-w2"], "o/nodes.csv/",
                  "o", "nodes.csv"),
    "plotdata": (["chainset", "--preset", "halfstable-w2"], "o/plotdata", "o",
                 "plotdata"),
    "downstairs-yaml": (["conjugate", "--preset", "scalar-stable"],
                        "q/downstairs.yaml/", "q", "downstairs.yaml"),
    # a path written last, or after another file of the same run
    "report-json": (["chainset", "--preset", "halfstable-w2"],
                    "o/report.json/", "o", "report.json"),
    "trajectory-csv": (["simulate", "--preset", "scalar-stable"],
                       "s/trajectory.csv/", "s", "trajectory.csv"),
    "mapped-nodes-csv": (["conjugate", "--preset", "scalar-stable"],
                         "q/mapped_nodes.csv/", "q", "mapped_nodes.csv"),
}


@pytest.mark.parametrize("case", sorted(BLOCKED_OUTPUTS))
def test_out_blocked_by_a_file_exits_2_with_one_line(tmp_path, capsys, case):
    # a blocked output path: one line that names it, no traceback
    argv, blocked, out, named = BLOCKED_OUTPUTS[case]
    blocker = tmp_path / blocked
    if blocked.endswith("/"):
        blocker.mkdir(parents=True)
    else:
        blocker.parent.mkdir(parents=True, exist_ok=True)
        blocker.write_text("")
    out = tmp_path / out
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    assert named in err
    # every path is claimed before the first write: no partial run is left
    written = [p for p in out.rglob("*") if p.is_file() and p != blocker] \
        if out.is_dir() else []
    assert written == []


def _failing_check(seed):
    return {"passed": False, "tolerances": {}, "measured": {}}


# argv ({dir} is the test's directory), the config written to {dir}/run.yaml
# (or None), and the (module, name, value) patched (or None): a real input
# that fails a theorem check where one exists, else its one failing source
# patched
EXIT_3 = {
    "decompose": (["decompose", "--preset", "scalar-stable"], None,
                  (cli, "check_derivation", lambda *args: 1.0)),
    "simulate": (["simulate", "--preset", "scalar-unstable", "--duration",
                  "1", "--cross-check"], None,
                 (cli, "cross_check_residual", lambda *args: 1.0)),
    "chainset": (["chainset", "--config", "{dir}/run.yaml"], dict(
        copy.deepcopy(cfg.PRESETS["halfstable-w2"]),
        chain={**cfg.PRESETS["halfstable-w2"]["chain"],
               "require_interior": True}), None),
    "conjugate": (["conjugate", "--config", "{dir}/run.yaml"],
                  UNMEASURABLE["no-set"][0], None),
    "verify": (["verify"], None,
               (verify, "CHECKS", [(1, "failing-check", _failing_check)])),
}


@pytest.mark.parametrize("case", sorted(EXIT_3))
def test_every_subcommand_exits_3_with_a_report(tmp_path, capsys,
                                                monkeypatch, case):
    argv, raw, patch = EXIT_3[case]
    if raw is not None:
        cfg.dump_config(raw, tmp_path / "run.yaml")
    if patch is not None:
        monkeypatch.setattr(*patch)
    out = tmp_path / "out"
    code = main([a.replace("{dir}", str(tmp_path)) for a in argv]
                + ["--out", str(out)])
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
    with open(out / "report.json") as fh:
        json.load(fh, parse_constant=pytest.fail)


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_inputs_exit_2_with_one_line(tmp_path, capsys, case):
    argv, text = BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    argv = [a.replace("{file}", str(path)) for a in argv]
    code = main(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1, err
    assert NAMED_KEYS.get(case, "") in err
