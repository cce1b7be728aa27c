"""Command line interface.

Subcommands mirror the library layers: decompose reports the spectral
structure of a derivation, simulate integrates one controlled trajectory,
chainset runs the full grid pipeline, conjugate quotients a run onto its
hyperbolic part, and verify executes the whole acceptance battery.

Every run writes report.json into the output directory.  The file holds a
"body" (canonically ordered, reproducible for a fixed config and seed) and
a separate "timings" key that stays outside the reproducibility contract.
chainset and conjugate write the verdicts, residual rows and failures that
verify.verdict_run and verify.quotient_run decide; a row whose value could
not be measured reads null and fails.
decompose's levels and hyperbolic flag, and chainset's hyperbolic flag and
diagnostic, come from one decay record (chains.decay_certificate), in which
a bound refused for a flat direction or too short a tau is a value, not an
error.
Exit codes: 0 all verdicts passed, 2 validation failure (ValidationError,
a bad or missing argument), an integrator whose error budget ran out or
whose state overflowed (IntegratorBudgetError), an output file that cannot
be written or a run that ran out of memory (MemoryError), each reported as
one line on stderr, 3 a theorem check failed (a residual row failed or a
verdict is False).
"""

import argparse
import errno
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import config as cfg
from .algebra import STRUCTURE_ATOL, structure_residuals
from .chains import (
    decay_certificate,
    main_set,
    write_edges_csv,
    write_nodes_csv,
    write_plot_slice,
    write_sets_jsonl,
)
from .errors import IntegratorBudgetError, ValidationError
from .group import FLOW_ATOL
from .lcs import ControlFunction, cross_check_residual, integrate
from .spectral import DERIVATION_ATOL, SpectralSplit, check_derivation
from .verify import (
    DEFAULT_SEED,
    acceptance_report,
    all_passed,
    chain_run,
    quotient_run,
    residual_row,
    verdict_run,
)


# -- shared plumbing ---------------------------------------------------------


def _numbers(text, what):
    """Comma separated finite numbers from a flag or a file row."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"{what} must be comma separated numbers, "
                              f"got {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValidationError(f"{what} must be finite, got {text!r}")
    return values


def _raw_config(args):
    """Raw config dict from --preset or --config, plus flag overrides."""
    preset = getattr(args, "preset", None)
    path = getattr(args, "config", None)
    if (preset is None) == (path is None):
        raise ValidationError("pass exactly one of --preset / --config")
    if preset is not None:
        data = cfg.preset_raw(preset)
    else:
        try:
            # libyaml's parser where PyYAML was built with it; both loaders
            # use SafeConstructor, so they build the same dict
            with open(path) as fh:
                data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader",
                                                    yaml.SafeLoader))
        except OSError as exc:
            raise ValidationError(f"cannot read config {path}: {exc}")
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" (line {mark.line + 1})" if mark else ""
            raise ValidationError(f"config {path} is not valid YAML{where}")
        if not isinstance(data, dict):
            raise ValidationError(f"config {path} must hold a mapping")
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    chain = data.setdefault("chain", {})
    if not isinstance(chain, dict):
        raise ValidationError("chain must be a mapping")
    if getattr(args, "eps", None) is not None:
        chain["eps"] = args.eps
    if getattr(args, "tau", None) is not None:
        chain["tau"] = args.tau
    if getattr(args, "delta", None) is not None:
        chain["delta"] = _numbers(args.delta, "--delta")
    return data


def _out_dir(args, command, files, dirs=()):
    """The output directory, made, with the paths the command writes in it
    checked before the first write: a directory where one of files goes
    fails the run, and dirs are made (a file in the way fails it), so these
    blocked paths leave no partial run.  A file that exists but cannot be
    written is not checked here."""
    out = Path(args.out) if args.out else Path("out") / command
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no write permission
        raise ValidationError(f"cannot use --out {out}: {exc.strerror}")
    for name in files:
        if (out / name).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    str(out / name))
    for name in dirs:
        (out / name).mkdir(exist_ok=True)
    return out


def _write_report(out, body, timings):
    report = {"body": body, "timings": timings}
    path = out / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def _exit_code(body):
    """0 when every residual and verdict passed, else 3."""
    return 0 if all_passed(body["residuals"], body["verdicts"]) else 3


def _structure_residuals(system):
    """Rows for the structural identities, at build_system's limits."""
    anti, jac = structure_residuals(system.algebra.structure)
    leib = check_derivation(system.algebra, system.derivation)
    return [
        residual_row("bracket_antisymmetry", anti, STRUCTURE_ATOL),
        residual_row("jacobi_identity", jac, STRUCTURE_ATOL),
        residual_row("leibniz_rule", leib, DERIVATION_ATOL),
        residual_row("automorphism_flow", system.flow_residual, FLOW_ATOL),
    ]


# -- decompose ---------------------------------------------------------------


def cmd_decompose(args):
    t0 = time.perf_counter()
    config = cfg.parse_config(_raw_config(args))
    system = cfg.build_system(config)

    split = SpectralSplit(system.derivation)
    dims = {"stable": int(split.dims[0]), "center": int(split.dims[1]),
            "unstable": int(split.dims[2])}
    decay = decay_certificate(system, config.tau)
    levels = []
    for i, (note, sl) in enumerate(zip(decay.notes,
                                       system.algebra.level_slices)):
        entry = {"level": i + 1, "dim": sl.stop - sl.start}
        if note is None:
            entry.update(kappa=float(decay.kappa[i]), mu=float(decay.mu[i]))
        else:
            entry.update(kappa=None, mu=None, note=note)
        levels.append(entry)
    hyperbolic = decay.hyperbolic

    body = {
        "command": "decompose",
        "name": config.name,
        "seed": config.seed,
        "spectrum": [[float(z.real), float(z.imag)]
                     for z in np.sort_complex(split.eigenvalues)],
        "subspace_dims": dims,
        "levels": levels,
        "hyperbolic": hyperbolic,
        "residuals": _structure_residuals(system),
        "verdicts": {"structure_valid": True},
    }
    out = _out_dir(args, "decompose", ["report.json"])
    timings = {"total": time.perf_counter() - t0}
    path = _write_report(out, body, timings)
    print(f"spectrum: {body['spectrum']}")
    print(f"subspace dims: {dims}")
    print(f"hyperbolic: {hyperbolic}")
    print(f"report: {path}")
    return _exit_code(body)


# -- simulate ----------------------------------------------------------------


def _parse_control(args, m, duration):
    if args.control is not None and args.control_file is not None:
        raise ValidationError("pass at most one of --control / --control-file")
    if args.control_file is not None:
        rows = []
        try:
            with open(args.control_file) as fh:
                for line in fh:
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    rows.append(_numbers(line, "control file row"))
        except OSError as exc:
            raise ValidationError(f"cannot read control file: {exc}")
        if not rows or any(len(r) != m + 1 for r in rows):
            raise ValidationError(
                f"control file rows must be: start_time, {m} control values")
        starts = [r[0] for r in rows]
        if abs(starts[0]) > 1e-12:
            raise ValidationError("first control piece must start at time 0")
        late = [t for t in starts if t >= duration]
        if late:
            raise ValidationError(f"control piece starts at {late[0]}, not before "
                                  f"--duration {duration}")
        values = [r[1:] for r in rows]
        return ControlFunction(starts + [duration], values)
    if args.control is not None:
        value = _numbers(args.control, "--control")
        if len(value) != m:
            raise ValidationError(f"--control needs {m} comma separated values")
    else:
        value = [0.0] * m
    return ControlFunction.constant(value, 0.0, duration)


def cmd_simulate(args):
    t0 = time.perf_counter()
    config = cfg.parse_config(_raw_config(args))
    system = cfg.build_system(config)
    group = system.group
    duration = float(args.duration)
    if not 0.0 < duration < math.inf:
        raise ValidationError("--duration must be positive and finite")
    control = _parse_control(args, system.range.m, duration)

    if args.start is not None:
        g0 = np.array(_numbers(args.start, "--start"))
        if g0.shape != (group.dim,):
            raise ValidationError(
                f"--start needs {group.dim} comma separated coordinates")
    else:
        g0 = np.zeros(group.dim)

    traj = integrate(system, duration, g0, control)
    residuals = [residual_row("integrator_error_estimate",
                              traj.stats["error_estimate"],
                              traj.stats["error_budget"])]
    # refused (compact-part controls) before any file is written
    if args.cross_check:
        gap = cross_check_residual(system, duration, g0, control,
                                   traj.endpoint)
        residuals.append(residual_row("closed_form_cross_check", gap, 1e-6))

    out = _out_dir(args, "simulate", ["trajectory.csv", "report.json"])
    csv_path = out / "trajectory.csv"
    with open(csv_path, "w") as fh:
        fh.write(",".join(["t"] + group.coordinate_names()) + "\n")
        for t, pt in zip(traj.times, traj.points):
            fh.write(",".join(f"{v:.12g}" for v in [t, *pt]) + "\n")

    body = {
        "command": "simulate",
        "name": config.name,
        "seed": config.seed,
        "duration": duration,
        "start": [float(v) for v in g0],
        "endpoint": [float(v) for v in traj.endpoint],
        "steps": int(traj.stats["steps"]),
        "residuals": residuals,
        "verdicts": {"integration_accurate": residuals[0]["passed"]},
    }
    if args.cross_check:
        body["verdicts"]["closed_form_agrees"] = residuals[1]["passed"]
    timings = {"total": time.perf_counter() - t0}
    path = _write_report(out, body, timings)
    print(f"endpoint after t={duration}: {body['endpoint']}")
    print(f"trajectory: {csv_path}")
    print(f"report: {path}")
    return _exit_code(body)


# -- chainset ----------------------------------------------------------------


def cmd_chainset(args):
    t0 = time.perf_counter()
    config = cfg.parse_config(_raw_config(args))
    system, window, graph, sets = chain_run(config)
    t_graph = time.perf_counter() - t0

    t1 = time.perf_counter()
    run = verdict_run(config, system, window, sets)
    bound = run.bound
    t_bound = time.perf_counter() - t1

    # a 1d window has no 2d slice to plot
    plotdirs = ["plotdata"] if window.group.dim >= 2 else []
    plots = [f"{d}/set{i}.csv" for d in plotdirs for i in range(len(sets))]
    out = _out_dir(args, "chainset", [
        "nodes.csv", "edges.csv", "sets.jsonl", "report.json", *plots],
        plotdirs)
    t1 = time.perf_counter()
    write_nodes_csv(out / "nodes.csv", graph, sets)
    write_edges_csv(out / "edges.csv", graph)
    box_axes = np.flatnonzero(window.box).tolist()
    cols = tuple(box_axes[:2]) if len(box_axes) >= 2 else (0, 1)
    for name, s in zip(plots, sets):
        write_plot_slice(out / name, graph, s, columns=cols)
    write_sets_jsonl(out / "sets.jsonl", sets, bounds=bound.bounds)
    t_write = time.perf_counter() - t1

    body = {
        "command": "chainset",
        "name": config.name,
        "seed": config.seed,
        "eps": config.eps,
        "tau": config.tau,
        "nodes": int(window.n_nodes),
        "edges": int(graph.n_edges),
        # edges.csv holds the slice rows; each stands for its shifts by A
        "lift": {"axes": list(window.symmetric_axes),
                 "sizes": window.shift_sizes.tolist(),
                 "strides": window.shift_strides.tolist()},
        "n_sets": len(sets),
        "set_sizes": [s.size for s in sets],
        "extents": ([float(v) for v in main_set(sets).extents]
                    if sets else None),
        "bounds": (None if bound.bounds is None
                   else [float(v) for v in bound.bounds]),
        "hyperbolic": bound.hyperbolic,
        "diagnostic": bound.refusal,
        "failures": run.failures,
        "residuals": _structure_residuals(system) + run.residuals,
        "verdicts": run.verdicts,
    }
    timings = {"graph_and_extract": t_graph, "bound": t_bound,
               "write": t_write, "total": time.perf_counter() - t0}
    path = _write_report(out, body, timings)
    print(f"nodes {body['nodes']}, edges {body['edges']}, "
          f"chain sets {body['n_sets']}")
    for key, value in run.verdicts.items():
        print(f"  {key}: {value}")
    if bound.refusal:
        print(f"  note: {bound.refusal}")
    print(f"report: {path}")
    return _exit_code(body)


# -- conjugate ---------------------------------------------------------------


def cmd_conjugate(args):
    t0 = time.perf_counter()
    config = cfg.parse_config(_raw_config(args))
    run = quotient_run(config)
    psi = run.psi
    out = _out_dir(args, "conjugate", [
        "downstairs.yaml", "report.json",
        *(["mapped_nodes.csv"] if run.mapped is not None else [])])
    cfg.dump_config(run.downstairs_raw, out / "downstairs.yaml")

    if run.mapped is not None:
        with open(out / "mapped_nodes.csv", "w") as fh:
            fh.write(",".join(psi.target.coordinate_names()) + "\n")
            for row in run.mapped:
                fh.write(",".join(f"{v:.12g}" for v in row) + "\n")

    body = {
        "command": "conjugate",
        "name": config.name,
        "seed": config.seed,
        "quotient_dim": int(psi.target.x_dim),
        "identity_map": bool(psi.target is psi.group),
        "n_sets_upstairs": len(run.usets),
        "n_sets_downstairs": len(run.dsets),
        "inclusion_tolerance": run.inclusion_tolerance,
        "residuals": run.residuals,
        "verdicts": run.verdicts,
    }
    timings = {"total": time.perf_counter() - t0}
    path = _write_report(out, body, timings)
    print(f"quotient dimension {body['quotient_dim']}, "
          f"sets {len(run.usets)} up / {len(run.dsets)} down")
    for key, value in body["verdicts"].items():
        print(f"  {key}: {value}")
    print(f"downstairs config: {out / 'downstairs.yaml'}")
    print(f"report: {path}")
    return _exit_code(body)


# -- verify ------------------------------------------------------------------


def cmd_verify(args):
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    report = acceptance_report(seed)
    out = _out_dir(args, "verify", ["report.json"])
    path = _write_report(out, report["body"], report["timings"])
    checks = report["body"]["checks"]
    for rec in checks:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"check {rec['id']} {rec['name']}: {status}")
    print(f"report: {path}")
    return 0 if all(rec["passed"] for rec in checks) else 3


# -- parser ------------------------------------------------------------------


def _add_config_args(sp, chain=False):
    sp.add_argument("--preset", help="bundled config name")
    sp.add_argument("--config", help="path to a YAML config file")
    sp.add_argument("--out", help="output directory (default out/<command>)")
    sp.add_argument("--seed", type=int,
                    help="override the config seed, which the report records "
                         "and no computation reads")
    if chain:
        sp.add_argument("--eps", type=float, help="override chain.eps")
        sp.add_argument("--tau", type=float, help="override chain.tau")
        sp.add_argument("--delta", help="override chain.delta, comma separated")


def _argument_error(message):
    raise ValidationError(message)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chaincontrol",
        description="Chain control sets of linear control systems "
                    "on low-dimensional Lie groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("decompose",
                        help="spectral structure of the drift derivation")
    _add_config_args(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("simulate", help="integrate one controlled trajectory")
    _add_config_args(sp)
    sp.add_argument("--duration", type=float, default=1.0)
    sp.add_argument("--control", help="constant control, comma separated")
    sp.add_argument("--control-file",
                    help="piecewise control CSV: start_time, values...")
    sp.add_argument("--start", help="initial point, comma separated")
    sp.add_argument("--cross-check", action="store_true",
                    help="compare against the closed level-by-level solve")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("chainset", help="grid approximation of chain "
                                         "control sets")
    _add_config_args(sp, chain=True)
    sp.set_defaults(func=cmd_chainset)

    sp = sub.add_parser("conjugate", help="quotient the run onto its "
                                          "hyperbolic part")
    _add_config_args(sp, chain=True)
    sp.set_defaults(func=cmd_conjugate)

    sp = sub.add_parser("verify", help="run the full acceptance battery")
    sp.add_argument("--out", help="output directory (default out/verify)")
    sp.add_argument("--seed", type=int, help="battery seed")
    sp.set_defaults(func=cmd_verify)
    for p in (parser, *sub.choices.values()):
        p.error = _argument_error  # main() reports it as one line, exit 2
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return int(args.func(args))
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 2
    except IntegratorBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file blocked by a directory or file
        print(f"cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a graph or array larger than memory allows
        print(f"out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
