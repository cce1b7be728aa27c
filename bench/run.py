"""chaincontrol benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It runs one workload
process at a time (bench/child.py, BLAS/OpenMP threads pinned to 1), so the
processes never compete with each other for the machine's cores:

1. a few set-up-only processes (import, parse, build), for a steady setup_s;
2. one full pass per process, again and again until the next pass would
   end after S seconds (at least one pass).  With --trace 1 every pass is a
   pair: an untraced pass, then a traced one, and the difference of their
   median wall times is the tracing overhead.

Every pass is one operation; its output is checked against the theory,
not against a frozen edge list (see `check_pass`).  Workloads:

  graph-expanding  chainset on a config generated from the
                   heisenberg-expanding preset with delta doubled
                   (propagation-bound: the field evaluation dominates)
  graph-quotient   chainset --preset conjugation-upstairs as bundled
                   (edge-bound: kd-tree, exact distance filter, writers)
  flow-identities  verify.check_flow_identities on the battery's default
                   seed, battery check 3 (many small integrate calls:
                   per-call overhead)

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
full record of the run (every sample, provenance) is appended to
bench/work/history.jsonl.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / "work"
SRC = ROOT / "src"

WORKLOADS = ("graph-expanding", "graph-quotient", "flow-identities")
SETUP_PROCESSES = 5
# every run must end well inside three minutes, whatever the host's speed
HARD_LIMIT_S = 165.0
PINNED_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


# The host's speed drifts by up to 1.6x over minutes (other tenants share
# the machine), and CPU time drifts with wall time, so raw pass times of
# runs minutes apart compare poorly.  While a child runs, this process times a
# small fixed kernel every REF_INTERVAL_S on the other core (under 1% duty)
# and wall_norm_s scales each pass to a host where the kernel takes
# REF_NOMINAL_S.  The kernel does not catch every slowdown of the
# workload's own core, but over fifteen runs per workload it cut the
# quartile spread of the wall time (see README.md).  Raw wall times are
# kept in the history.
REF_INTERVAL_S = 0.25
REF_NOMINAL_S = 1.0e-3
_REF_STRUCTURE = np.random.default_rng(1).standard_normal((3, 3, 3))
_REF_POINTS = np.random.default_rng(0).standard_normal((500, 3))


def reference_s():
    """Duration of one run of the fixed host-speed reference kernel: small
    einsums and an interpreted loop, the same mix the program runs."""
    t0 = time.perf_counter()
    for _ in range(40):
        np.einsum("ijk,...i->...kj", _REF_STRUCTURE, _REF_POINTS)
    acc = 0
    for i in range(5000):
        acc += i * i
    return time.perf_counter() - t0


def child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def write_expanding_config(seed, path):
    """The graph-expanding input: heisenberg-expanding, delta doubled."""
    import yaml

    sys.path.insert(0, str(SRC))
    from chaincontrol import config as cfg

    data = copy.deepcopy(cfg.PRESETS["heisenberg-expanding"])
    data["name"] = "heisenberg-expanding-coarse"
    data["seed"] = seed
    data["chain"]["delta"] = [2.0 * d for d in data["chain"]["delta"]]
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def check_pass(workload, outcome, out_dir):
    """True when one pass's output agrees with the theory.

    Graph workloads: chainset exits 0 and extracts exactly one set; on
    graph-expanding every per-level extent also stays within its
    theoretical bound and the set keeps off the window boundary.
    flow-identities: the check record passes.
    """
    if workload == "flow-identities":
        return outcome["record"]["passed"] is True
    if outcome["exit_code"] != 0:
        return False
    with open(out_dir / "report.json") as fh:
        body = json.load(fh)["body"]
    if body["n_sets"] != 1:
        return False
    if workload == "graph-expanding":
        rows = {r["name"]: r for r in body["residuals"]}
        bounds = body["bounds"]
        return (bounds is not None
                and len(body["extents"]) == len(bounds)
                and all(e <= b for e, b in zip(body["extents"], bounds))
                and rows["boundary_touches"]["value"] == 0)
    return True


class Run:
    """One benchmark run: its child processes, samples and failures."""

    def __init__(self, workload, seed, trace):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.config = None
        self.setup_s = []
        self.wall_s = []
        self.cpu_s = []
        self.ref_s = []
        self.wall_norm_s = []
        self.traced_wall_s = []
        self.peak_rss_mb = []
        self.layers = []
        self.ops = []
        self.versions = None
        self.errors = []

    def _spawn(self, mode, traced=False):
        """Run one child process to completion; its JSON line or None."""
        tag = f"{self.workload}-{os.getpid()}-{len(self.ops)}"
        cmd = [sys.executable, str(BENCH / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        if self.config is not None:
            cmd += ["--config", str(self.config)]
        out_dir = WORK / tag
        if mode == "pass":
            cmd += ["--out", str(out_dir)]
        if traced:
            cmd += ["--spans", str(WORK / f"spans-{self.workload}.npz")]
        deadline = self.started + HARD_LIMIT_S
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd + ["--spawned-at", repr(spawned)], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        refs = []
        while True:
            refs.append(reference_s())
            try:
                stdout, stderr = proc.communicate(timeout=REF_INTERVAL_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.communicate()
                    self.errors.append(f"{mode} process killed at the "
                                       "time limit")
                    return None, out_dir
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-5:]
            self.errors.append(f"{mode} process exit {proc.returncode}: "
                               + " | ".join(tail))
            return None, out_dir
        result = json.loads(lines[-1])
        result["ref_s"] = statistics.median(refs)
        self.versions = result["versions"]
        self.setup_s.append(result["setup_s"])
        return result, out_dir

    def setup_only(self):
        self._spawn("setup")

    def one_pass(self, traced=False):
        result, out_dir = self._spawn("pass", traced)
        ok = False
        if result is not None:
            try:
                ok = check_pass(self.workload, result["outcome"], out_dir)
            except (OSError, KeyError, ValueError) as exc:
                self.errors.append(f"output check: {exc!r}")
            if not ok:
                self.errors.append(f"output check failed: {result['outcome']}")
            if traced:
                self.traced_wall_s.append(result["wall_s"])
                self.layers.append(result["layers"])
            else:
                self.wall_s.append(result["wall_s"])
                self.ref_s.append(result["ref_s"])
                self.wall_norm_s.append(
                    result["wall_s"] * REF_NOMINAL_S / result["ref_s"])
                self.cpu_s.append(result["cpu_s"])
                self.peak_rss_mb.append(result["peak_rss_mb"])
        shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(ok)

    def measure(self, seconds):
        WORK.mkdir(parents=True, exist_ok=True)
        if self.workload == "graph-expanding":
            self.config = WORK / f"graph-expanding-seed{self.seed}.yaml"
            write_expanding_config(self.seed, self.config)
        for _ in range(SETUP_PROCESSES):
            self.setup_only()
        while True:
            t0 = time.monotonic()
            self.one_pass()
            if self.trace:
                self.one_pass(traced=True)
            cost = time.monotonic() - t0
            if time.monotonic() + cost > self.started + seconds:
                break


def _median(values):
    return statistics.median(values) if values else 0.0


def _range(values):
    return [min(values), max(values)] if values else None


def _counts_repeat(layers):
    """True when every exact count agrees across the run's traced passes."""
    if not layers:
        return None
    return all(layer[k] == layers[0][k] for layer in layers
               for k in layers[0] if not k.endswith("_s"))


def _provenance():
    revision = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads_env": PINNED_THREADS,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
    }


def metrics_of(run, spec):
    """Every metric the run reports, named and with units from spec."""
    if run.trace:
        values = {}
        for name in run.layers[0] if run.layers else ():
            # times vary pass to pass; counts repeat, so keep them exact
            values[name] = (_median([layer[name] for layer in run.layers])
                            if name.endswith("_s") else run.layers[0][name])
        values["trace.overhead_s"] = (_median(run.traced_wall_s)
                                      - _median(run.wall_s))
        wanted = spec["per_layer"]
    else:
        n = len(run.ops)
        values = {
            "setup_s": _median(run.setup_s),
            "wall_norm_s": _median(run.wall_norm_s),
            "peak_rss_mb": _median(run.peak_rss_mb),
            "ops_ok_pct": 100.0 * sum(run.ops) / n if n else 0.0,
        }
        wanted = spec["end_to_end"]
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chaincontrol" / "__init__.py").is_file():
        print(f"no chaincontrol sources under {SRC}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    run = Run(args.workload, args.seed, bool(args.trace))
    run.measure(args.seconds)
    metrics = metrics_of(run, spec)
    failed = len(run.ops) - sum(run.ops)
    record = {
        "workload": run.workload, "seed": run.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - run.started,
        "metrics": metrics, "ops_failed": failed, "ops": len(run.ops),
        "samples": {"setup_s": run.setup_s, "wall_s": run.wall_s,
                    "cpu_s": run.cpu_s, "ref_s": run.ref_s,
                    "wall_norm_s": run.wall_norm_s,
                    "traced_wall_s": run.traced_wall_s,
                    "peak_rss_mb": run.peak_rss_mb},
        "in_run_range": {"setup_s": _range(run.setup_s),
                          "wall_s": _range(run.wall_s)},
        "counts_repeat": _counts_repeat(run.layers),
        "versions": run.versions, "provenance": _provenance(),
        "errors": run.errors,
    }
    with open(WORK / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {run.workload}, seed {run.seed}, trace {args.trace}: "
          f"{len(run.ops)} passes in {record['elapsed_s']:.1f} s")
    samples = {"setup_s": run.setup_s, "wall_norm_s": run.wall_norm_s,
               "peak_rss_mb": run.peak_rss_mb}
    for name, m in metrics.items():
        note = (f"  median of {len(samples[name])}" if name in samples else "")
        value = (f"{m['value']:14d}" if isinstance(m["value"], int)
                 else f"{m['value']:14.6g}")
        print(f"  {name:28s} {value} {m['unit']}{note}")
    if not run.trace:
        print(f"  {'wall_s (raw)':28s} {_median(run.wall_s):14.6g} s"
              f"  median of {len(run.wall_s)}")
        print(f"  {'ref_s (host speed)':28s} {_median(run.ref_s):14.6g} s")
    print(f"  {'ops_failed':28s} {failed:14d} of {len(run.ops)} passes")
    for err in run.errors:
        print(f"  error: {err}", file=sys.stderr)
    print(json.dumps({"versions": run.versions, **record["provenance"]}))
    print(json.dumps({"correct": failed == 0 and bool(run.ops),
                      "attempted": len(run.ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
