"""Command line behavior: exit codes, reports, outputs, determinism."""

import copy
import json
import math
import warnings

import numpy as np
import pytest
import yaml

from chaincontrol import cli
from chaincontrol import config as cfg
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
    assert main(["decompose", "--preset", "nope",
                 "--out", str(tmp_path)]) == 2
    assert main(["decompose", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path)]) == 2


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
                 "0.5,0.5", "--cross-check", "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "compact" in err


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
    rows = {r["name"]: r for r in body["residuals"]}
    assert rows["set_inclusion"]["value"] == 0.0
    # no angle cells: the spacing is the largest delta alone
    assert body["inclusion_tolerance"] == up.eps + max(up.delta)
    assert body["inclusion_tolerance"] == pytest.approx(0.15)


def test_seed_override_lands_in_report(tmp_path):
    out = tmp_path / "d"
    code = main(["decompose", "--preset", "scalar-stable",
                 "--seed", "42", "--out", str(out)])
    assert code == 0
    assert read_report(out)["body"]["seed"] == 42


def _preset_yaml(block, value, key=None):
    """scalar-stable as YAML, with one block or one block entry replaced."""
    raw = copy.deepcopy(cfg.PRESETS["scalar-stable"])
    if key is None:
        raw[block] = value
    else:
        raw[block][key] = value
    return yaml.safe_dump(raw)


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
    "formats-not-list": (["decompose", "--config", "{file}"],
                         _preset_yaml("output", 3, key="formats")),
    "delta-empty": (["chainset", "--config", "{file}"],
                    _preset_yaml("chain", [], key="delta")),
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
    "duration-flag": (SIMULATE + ["--duration", "x"], None),
    "verify-seed-flag": (["verify", "--seed", "abc"], None),
    "no-subcommand": ([], None),
}


@pytest.mark.parametrize("argv", [["--help"], ["chainset", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: chaincontrol" in capsys.readouterr().out


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
