"""One workload process of the benchmark: set up, optionally run one pass.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads pinned
to 1, so every pass pays the same import and construction cost a user's
`chaincontrol` process pays.  It drives the program only through its
public entry points and prints one JSON line last:

  setup_s      time from process start (the parent's monotonic clock
               reading, passed in --spawned-at) until the workload's
               system and window are built
  wall_s       one pass after set-up (pass mode only)
  cpu_s        CPU time of that pass, to tell a slow host from waiting
  peak_rss_mb  peak resident memory of this process
  outcome      what run.py needs to check the output (exit code or record)
  layers       per-layer metrics (traced passes only)

It checks nothing itself; run.py checks every output against the theory.
"""

import argparse
import contextlib
import copy
import json
import resource
import sys
import time

from spans import Tracer, installed, layer_metrics


def _setup(workload, config_path):
    """Import the program and build what the workload's pass builds."""
    import yaml

    # importing both entry points is part of what a run pays before work
    from chaincontrol import cli, config as cfg, verify  # noqa: F401

    if workload == "flow-identities":
        # check 3 builds these two systems itself
        for name in ("rotation-plane", "heisenberg-expanding"):
            cfg.build_system(cfg.preset_config(name))
        return
    if workload == "graph-expanding":
        with open(config_path) as fh:
            raw = yaml.safe_load(fh)
    else:
        raw = copy.deepcopy(cfg.PRESETS["conjugation-upstairs"])
    config = cfg.parse_config(raw)
    cfg.build_window(config, cfg.build_system(config))


def _run_pass(workload, seed, config_path, out_dir):
    from chaincontrol import cli, verify

    if workload == "flow-identities":
        # check 3 integrates over random durations, so its cost moves with
        # its seed (about 13% between seeds); the battery's own seed keeps
        # the work fixed from run to run
        return {"record": verify.check_flow_identities(verify.DEFAULT_SEED)}
    source = (["--config", config_path] if workload == "graph-expanding"
              else ["--preset", "conjugation-upstairs"])
    code = cli.main(["chainset", *source, "--seed", str(seed),
                     "--out", out_dir])
    return {"exit_code": code}


def _versions():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "pass"), required=True)
    ap.add_argument("--config", help="generated config (graph-expanding)")
    ap.add_argument("--out", help="chainset output directory")
    ap.add_argument("--spans", help="trace the pass; write its spans here")
    args = ap.parse_args(argv)

    _setup(args.workload, args.config)
    result = {"setup_s": time.monotonic() - args.spawned_at,
              "versions": _versions()}
    if args.mode == "pass":
        tracer = Tracer() if args.spans else None
        with installed(tracer) if tracer else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            outcome = _run_pass(args.workload, args.seed, args.config,
                                args.out)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if tracer:
            result["layers"] = layer_metrics(tracer)
            tracer.save(args.spans)
        result["wall_s"] = wall
        result["cpu_s"] = cpu
        result["outcome"] = outcome
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.flush()
    print(json.dumps(result, default=float))


if __name__ == "__main__":
    main()
