"""Run configuration: schema, loading, validation, and bundled presets.

A run is described by one YAML document (or the equivalent dict) with
blocks for the algebra, the derivation, the compact part, the controls,
the chain-graph window and the quotient.  parse_config validates the
shapes early and refuses unknown keys, so a bad file fails before any
numerics start.
"""

import copy
import numbers

import numpy as np
import yaml
from dataclasses import dataclass

from .algebra import NilpotentAlgebra, preset_structure
from .chains import GridWindow
from .errors import ValidationError
from .group import RhoAction, SemidirectGroup
from .lcs import ControlRange, LinearControlSystem

SCHEMA_VERSION = 1

ROT2 = [[0.0, -1.0], [1.0, 0.0]]

# every key a run config accepts, per block ("" is the root)
KEYS = {
    "": ("schema", "name", "seed", "algebra", "derivation", "torus",
         "control", "chain", "conjugation"),
    "algebra": ("preset", "structure"),
    "torus": ("generators", "angular_coords"),
    "control": ("z", "lower", "upper", "torus_controls", "family"),
    "chain": ("eps", "tau", "delta", "x_lower", "x_upper", "angle_cells",
              "times", "require_interior"),
    "conjugation": ("extra_kernel",),
}


@dataclass
class RunConfig:
    """Validated run description; arrays are plain numpy."""

    name: str
    seed: int
    structure: np.ndarray
    derivation: np.ndarray
    generators: list
    angular_coords: tuple
    control_vectors: np.ndarray
    torus_controls: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    family: np.ndarray
    x_lower: np.ndarray
    x_upper: np.ndarray
    delta: np.ndarray
    angle_cells: tuple
    eps: float
    tau: float
    times: np.ndarray
    require_interior: bool
    extra_kernel: tuple


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _convert(kind, value, name):
    """kind(value), with a value kind refuses reported as a ValidationError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} has an invalid value {value!r}")


def _int(value):
    """An integer value as it is: a float, a bool or a string is refused,
    not truncated or read as 0/1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(value)
    return int(value)


def _ints(values):
    return tuple(_int(k) for k in values)


def _known(block, where):
    """Refuse any key of a block (the root when where is "") not in KEYS."""
    for key in block:
        _require(key in KEYS[where],
                 f"unknown key {where + '.' if where else ''}{key}; "
                 f"accepted: {', '.join(KEYS[where])}")


def _block(data, key, required=False):
    """A sub-block of known keys; an optional one is empty when absent."""
    block = data.get(key)
    if not required:
        block = block or {}
    _require(isinstance(block, dict),
             f"missing {key} block" if required else f"{key} must be a mapping")
    _known(block, key)
    return block


def _matrix(value, name):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} is not numeric")
    _require(np.all(np.isfinite(arr)), f"{name} has non-finite entries")
    return arr


def parse_config(data):
    """Validate a raw dict and return a RunConfig."""
    _require(isinstance(data, dict), "config root must be a mapping")
    schema = _convert(_int, data.get("schema"), "schema")
    _require(schema == SCHEMA_VERSION,
             f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")
    _known(data, "")
    name = str(data.get("name", "run"))
    seed = _convert(_int, data.get("seed", 0), "seed")
    _require(0 <= seed < 2 ** 64, "seed must fit in 64 bits")

    alg_block = _block(data, "algebra", required=True)
    preset = alg_block.get("preset")
    structure = alg_block.get("structure")
    _require((preset is None) != (structure is None),
             "algebra needs exactly one of preset / structure")
    if preset is not None:
        structure_arr = np.asarray(preset_structure(str(preset)), dtype=float)
    else:
        structure_arr = _matrix(structure, "algebra.structure")
        _require(structure_arr.ndim == 3, "structure constants must be 3d")
    n = structure_arr.shape[0]

    derivation = _matrix(data.get("derivation"), "derivation")
    _require(derivation.shape == (n, n),
             f"derivation must be {n} x {n}, got {derivation.shape}")

    torus = _block(data, "torus")
    generators = _convert(list, torus.get("generators", []),
                          "torus.generators")
    generators = [_matrix(g, f"torus.generators[{i}]")
                  for i, g in enumerate(generators)]
    circles = len(generators)
    for i, g in enumerate(generators):
        _require(g.shape == (n, n), f"torus.generators[{i}] must be {n} x {n}")
    angular = _convert(_ints, torus.get("angular_coords", []),
                       "torus.angular_coords")
    _require(all(0 <= i < n for i in angular),
             "angular_coords must index nilpotent coordinates")
    # cell counts follow ascending coordinate order
    _require(all(a < b for a, b in zip(angular, angular[1:])),
             "torus.angular_coords must be strictly increasing")

    control = _block(data, "control", required=True)
    lower = np.atleast_1d(_matrix(control.get("lower"), "control.lower"))
    upper = np.atleast_1d(_matrix(control.get("upper"), "control.upper"))
    _require(lower.shape == upper.shape and lower.ndim == 1,
             "control.lower/upper must be matching vectors")
    m = lower.size
    z = _matrix(control.get("z"), "control.z")
    z = np.atleast_2d(z)
    _require(z.shape == (m, n),
             f"control.z must be {m} rows of dimension {n}")
    tc = control.get("torus_controls")
    torus_controls = None if tc is None else _matrix(tc, "control.torus_controls")
    if torus_controls is not None:
        torus_controls = np.atleast_2d(torus_controls)
        _require(torus_controls.shape == (m, circles),
                 f"control.torus_controls must be {m} x {circles}")
    fam = control.get("family")
    family = None if fam is None else np.atleast_2d(_matrix(fam, "control.family"))
    if family is not None:
        _require(family.ndim == 2 and family.shape[1] == m,
                 f"control.family must be a list of controls of dimension {m}")

    chain = _block(data, "chain", required=True)
    eps = _convert(float, chain.get("eps", 0.0), "chain.eps")
    tau = _convert(float, chain.get("tau", 0.0), "chain.tau")
    _require(0 < eps < np.inf and 0 < tau < np.inf,
             "chain.eps and chain.tau must be positive and finite")
    delta = np.atleast_1d(_matrix(chain.get("delta"), "chain.delta"))
    xl, xu = chain.get("x_lower"), chain.get("x_upper")
    _require(xl is not None and xu is not None,
             "chain window needs both chain.x_lower and chain.x_upper")
    x_lower = np.atleast_1d(_matrix(xl, "chain.x_lower"))
    x_upper = np.atleast_1d(_matrix(xu, "chain.x_upper"))
    angle_cells = _convert(_ints, chain.get("angle_cells", []),
                           "chain.angle_cells")
    _require(len(angle_cells) == circles + len(angular),
             "chain.angle_cells must list one count per circle: each torus "
             "circle, then each angular coordinate")
    t = chain.get("times")
    times = None if t is None else np.atleast_1d(_matrix(t, "chain.times"))
    require_interior = chain.get("require_interior", False)
    _require(isinstance(require_interior, bool),
             "chain.require_interior must be true or false")

    conj = _block(data, "conjugation")
    extra_kernel = _convert(_ints, conj.get("extra_kernel", []),
                            "conjugation.extra_kernel")
    _require(all(0 <= i < n for i in extra_kernel),
             "conjugation.extra_kernel must index nilpotent coordinates")

    return RunConfig(
        name=name, seed=seed, structure=structure_arr,
        derivation=derivation, generators=generators, angular_coords=angular,
        control_vectors=z, torus_controls=torus_controls,
        lower=lower, upper=upper, family=family,
        x_lower=x_lower, x_upper=x_upper, delta=delta,
        angle_cells=angle_cells,
        eps=eps, tau=tau, times=times, require_interior=require_interior,
        extra_kernel=extra_kernel)


def build_system(config):
    """Instantiate the group and control system a config describes.

    Construction re-runs every structural validation (Jacobi, derivation,
    automorphism action, flow compatibility), so a config that parses can
    still fail here with a named residual.
    """
    algebra = NilpotentAlgebra(config.structure)
    action = RhoAction(algebra, config.generators)
    mask = None
    if config.angular_coords:
        mask = np.zeros(algebra.dim, dtype=bool)
        mask[list(config.angular_coords)] = True
    group = SemidirectGroup(algebra, action, angular_x_mask=mask)
    rng = ControlRange(config.lower, config.upper)
    return LinearControlSystem(group, config.derivation,
                               config.control_vectors, rng,
                               torus_controls=config.torus_controls)


def build_window(config, system):
    """Instantiate the grid window the config's chain block gives."""
    return GridWindow(system.group, config.x_lower, config.x_upper,
                      config.delta, angle_cells=config.angle_cells)


def downstairs_raw(config, window, psi):
    """Raw config dict for the quotient system psi maps onto.

    The chain window is the upstairs one without the axes psi drops (every
    angular coordinate and every extra kernel axis): the bounds and cell
    sizes of the kept coordinates and the torus cell counts are read from
    window.  Controls keep the surviving columns.
    """
    target = psi.target
    m = psi.group.h_dim
    kept = m + np.flatnonzero(psi.keep)
    data = {
        "schema": SCHEMA_VERSION,
        "name": config.name + "-quotient",
        "seed": config.seed,
        "algebra": {"structure": target.algebra.structure.tolist()},
        "derivation": psi.matrix_hat.tolist(),
        "torus": {
            "generators": [g.tolist() for g in target.action.generators],
        },
        "control": {
            "z": config.control_vectors[:, psi.keep].tolist(),
            "lower": config.lower.tolist(),
            "upper": config.upper.tolist(),
        },
        "chain": {
            "eps": config.eps,
            "tau": config.tau,
            "delta": window.delta[kept].tolist(),
            "angle_cells": list(window.shape[:m]),
            "x_lower": window.lower[kept].tolist(),
            "x_upper": window.upper[kept].tolist(),
            "require_interior": config.require_interior,
        },
    }
    if config.torus_controls is not None:
        data["control"]["torus_controls"] = config.torus_controls.tolist()
    if config.family is not None:
        data["control"]["family"] = config.family.tolist()
    if config.times is not None:
        data["chain"]["times"] = config.times.tolist()
    return data


# -- bundled presets ---------------------------------------------------------

# Scalar references: the lower duration sample must stay in (1.263, 1.391),
# see tests; 1.35 centers both margins.
_SCALAR_COMMON = {
    "schema": SCHEMA_VERSION,
    "seed": 20260818,
    "algebra": {"preset": "abelian:1"},
    "control": {"z": [[1.0]], "lower": [-1.0], "upper": [1.0]},
    "chain": {
        "x_lower": [-2.0], "x_upper": [2.0], "delta": [0.05],
        "eps": 0.1, "tau": 1.0, "times": [1.35, 2.0],
        "require_interior": True,
    },
}

PRESETS = {}


def _register(name, base, **overrides):
    data = copy.deepcopy(base)
    data["name"] = name
    for key, val in overrides.items():
        blk, _, fld = key.partition(".")
        if fld:
            data.setdefault(blk, {})[fld] = val
        else:
            data[blk] = val
    PRESETS[name] = data


_register("scalar-stable", _SCALAR_COMMON, derivation=[[-1.0]])
_register("scalar-unstable", _SCALAR_COMMON, derivation=[[1.0]])

# Rotation circle over the plane; the circle never moves, the chain jumps
# glue neighbouring angle fibers into one set.
_register("rotation-plane", {
    "schema": SCHEMA_VERSION,
    "seed": 20260818,
    "algebra": {"preset": "abelian:2"},
    "derivation": [[-1.0, 0.0], [0.0, -1.0]],
    "torus": {"generators": [ROT2]},
    "control": {"z": [[1.0, 0.0]], "lower": [-1.0], "upper": [1.0]},
    "chain": {
        "x_lower": [-1.0, -1.0], "x_upper": [1.0, 1.0],
        "delta": [0.2, 0.2], "angle_cells": [64],
        "eps": 0.05, "tau": 2.0, "times": [2.0, 3.0],
    },
})

# Fully expanding graded example.  The control grid is phased so the level
# equilibria sit at cell centers; durations default to the standard spread.
_register("heisenberg-expanding", {
    "schema": SCHEMA_VERSION,
    "seed": 20260818,
    "algebra": {"preset": "heisenberg3"},
    "derivation": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]],
    "control": {
        "z": [[1.0, 1.0, 0.0]], "lower": [-1.0], "upper": [1.0],
        "family": [[s * (0.08 + 0.16 * k)]
                   for k in range(6) for s in (-1.0, 1.0)],
    },
    "chain": {
        "x_lower": [-1.6, -0.8, -0.4], "x_upper": [1.6, 0.8, 0.4],
        "delta": [0.16, 0.08, 0.016],
        "eps": 0.15, "tau": 1.0,
        "require_interior": True,
    },
})

# Circle acting by rotation on a plane with a central circle factor; the
# central circle is flow-trivial and quotients away.
_register("conjugation-upstairs", {
    "schema": SCHEMA_VERSION,
    "seed": 20260818,
    "algebra": {"preset": "abelian:3"},
    "derivation": [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
    "torus": {
        "generators": [[[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]],
        "angular_coords": [2],
    },
    "control": {
        "z": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        "torus_controls": [[1.0], [0.0]],
        "lower": [-1.0, -1.0], "upper": [1.0, 1.0],
    },
    "chain": {
        "x_lower": [-0.75, -0.75], "x_upper": [0.75, 0.75],
        "delta": [0.25, 0.25], "angle_cells": [8, 8],
        "eps": 0.15, "tau": 1.0,
    },
})

# Flat direction demo: zero eigenvalue along the first axis, contraction on
# the second; windows double to show the first axis never stops leaking.
for _w in (2.0, 4.0, 8.0):
    _register(f"halfstable-w{int(_w)}", {
        "schema": SCHEMA_VERSION,
        "seed": 20260818,
        "algebra": {"preset": "abelian:2"},
        "derivation": [[0.0, 0.0], [0.0, -1.0]],
        "control": {"z": [[1.0, 0.5]], "lower": [-1.0], "upper": [1.0]},
        "chain": {
            "x_lower": [-_w, -1.5], "x_upper": [_w, 1.5],
            "delta": [_w / 20.0, 0.15],
            "eps": 0.25, "tau": 1.0, "times": [1.35, 2.0],
        },
        })


def preset_raw(name):
    """A fresh copy of a bundled preset's raw config dict."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ValidationError(f"unknown preset {name!r}; known: {known}")
    return copy.deepcopy(PRESETS[name])


def preset_config(name):
    """Parsed RunConfig for a bundled preset."""
    return parse_config(preset_raw(name))


def dump_config(config_dict, path):
    """Write a config dict back out as YAML."""
    with open(path, "w") as fh:
        yaml.safe_dump(config_dict, fh, sort_keys=False)
