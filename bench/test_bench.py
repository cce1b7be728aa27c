"""Self-tests of the benchmark: span arithmetic, tracing that changes
nothing, exact counts that repeat, and the output check.

    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from chaincontrol import cli, verify  # noqa: E402

import run  # noqa: E402
from spans import Tracer, installed, layer_metrics, self_times  # noqa: E402

EXACT_COUNTS = ("lcs.field_points", "chains.kdtree_candidates",
                "chains.edges", "lcs.integrate_calls")


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, end - start),
                               [3.0, 2.0, 1.0, 4.0])


def test_tracer_records_nesting():
    tracer = Tracer()
    outer, inner = tracer.name_id("outer"), tracer.name_id("inner")
    a = tracer.begin(outer)
    b = tracer.begin(inner)
    tracer.end(b)
    c = tracer.begin(inner)
    tracer.end(c)
    tracer.end(a)
    name, parent, duration = tracer.arrays()
    assert name.tolist() == [outer, inner, inner]
    assert parent.tolist() == [-1, a, a]
    assert np.all(duration >= 0)
    assert self_times(parent, duration)[a] <= duration[a]


def _namespace_snapshot():
    from chaincontrol import algebra, chains, group, lcs

    owners = [m for n, m in sys.modules.items()
              if n == "chaincontrol" or n.startswith("chaincontrol.")]
    owners += [algebra.NilpotentAlgebra, group.SemidirectGroup,
               lcs.LinearControlSystem, chains.cKDTree]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def _body(out):
    with open(out / "report.json") as fh:
        return verify.encode_body(json.load(fh)["body"]).encode()


def _traced_chainset(out):
    with installed(Tracer()) as tracer:
        assert cli.main(["chainset", "--preset", "scalar-stable",
                         "--out", str(out)]) == 0
        assert cli.main(["simulate", "--preset", "scalar-stable",
                         "--duration", "1.0", "--cross-check",
                         "--out", str(out / "sim")]) == 0
    return layer_metrics(tracer)


def test_traced_run_gives_identical_body_and_unwraps(tmp_path):
    before = _namespace_snapshot()
    assert cli.main(["chainset", "--preset", "scalar-stable",
                     "--out", str(tmp_path / "plain")]) == 0
    layers = _traced_chainset(tmp_path / "traced")
    assert _body(tmp_path / "plain") == _body(tmp_path / "traced")
    assert _namespace_snapshot() == before
    assert layers["chains.graph_s"] > 0
    assert layers["cli.self_s"] > 0
    assert layers["lcs.triangular_solve_s"] > 0


def test_exact_counts_repeat(tmp_path):
    first = _traced_chainset(tmp_path / "a")
    second = _traced_chainset(tmp_path / "b")
    for name in EXACT_COUNTS:
        assert first[name] > 0, name
        assert first[name] == second[name], name
    assert 0 < first["chains.edge_yield"] <= 1


def test_metric_names_match_benchmark_json(tmp_path):
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    layers = layer_metrics(Tracer())
    assert {m["name"] for m in spec["per_layer"]} == \
        set(layers) | {"trace.overhead_s"}
    bench_run = run.Run("graph-expanding", 1, trace=False)
    bench_run.ops = [True]
    assert set(run.metrics_of(bench_run, spec)) == \
        {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("n_sets, extents, touches, ok", [
    (1, [0.5, 0.1], 0, True),
    (2, [0.5, 0.1], 0, False),
    (1, [2.0, 0.1], 0, False),
    (1, [0.5, 0.1], 1, False),
])
def test_output_check_uses_theory(tmp_path, n_sets, extents, touches, ok):
    body = {"n_sets": n_sets, "extents": extents, "bounds": [1.0, 1.0],
            "residuals": [{"name": "boundary_touches", "value": touches}]}
    (tmp_path / "report.json").write_text(json.dumps({"body": body}))
    assert run.check_pass("graph-expanding", {"exit_code": 0},
                          tmp_path) is ok
    assert run.check_pass("graph-expanding", {"exit_code": 3},
                          tmp_path) is False
