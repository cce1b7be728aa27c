"""Config parsing, validation, and the bundled presets."""

import copy

import numpy as np
import pytest
import yaml

from chaincontrol import config as cfg
from chaincontrol.cli import main
from chaincontrol.errors import ValidationError


def load(path):
    """Parse a YAML config file."""
    return cfg.parse_config(yaml.safe_load(path.read_text()))


def minimal_raw():
    return {
        "schema": cfg.SCHEMA_VERSION,
        "name": "minimal",
        "seed": 5,
        "algebra": {"preset": "abelian:1"},
        "derivation": [[-1.0]],
        "control": {"z": [[1.0]], "lower": [-1.0], "upper": [1.0]},
        "chain": {"x_lower": [-2.0], "x_upper": [2.0], "delta": [0.5],
                  "eps": 0.2, "tau": 1.0},
    }


def test_minimal_roundtrip(tmp_path):
    c = cfg.parse_config(minimal_raw())
    assert c.name == "minimal" and c.seed == 5
    assert c.structure.shape == (1, 1, 1)
    assert c.family is None and c.times is None
    assert c.require_interior is False and c.extra_kernel == ()
    assert np.array_equal(c.x_lower, [-2.0]) and np.array_equal(c.x_upper, [2.0])
    path = tmp_path / "run.yaml"
    cfg.dump_config(minimal_raw(), path)
    back = load(path)
    assert np.array_equal(back.derivation, c.derivation)
    assert np.array_equal(back.control_vectors, c.control_vectors)
    assert np.array_equal(back.delta, c.delta)


def test_schema_and_seed_guards():
    raw = minimal_raw()
    raw["schema"] = 99
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)
    raw = minimal_raw()
    raw["seed"] = 2 ** 64
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)


def test_algebra_block_exactly_one_source():
    raw = minimal_raw()
    raw["algebra"] = {"preset": "abelian:1",
                      "structure": [[[0.0]]]}
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)
    raw["algebra"] = {}
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)


def test_shape_guards():
    raw = minimal_raw()
    raw["derivation"] = [[1.0, 0.0]]
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)

    raw = minimal_raw()
    raw["control"]["z"] = [[1.0, 0.0]]
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)

    raw = minimal_raw()
    raw["control"]["family"] = [[0.5, 0.5]]
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)

    raw = minimal_raw()
    raw["torus"] = {"generators": [[[0.0, 1.0]]]}
    with pytest.raises(ValidationError, match="1 x 1"):
        cfg.parse_config(raw)


def test_circle_count_comes_from_the_generators():
    raw = copy.deepcopy(cfg.PRESETS["rotation-plane"])
    assert len(cfg.parse_config(raw).generators) == 1
    raw["chain"]["angle_cells"] = [64, 64]
    with pytest.raises(ValidationError, match="one count per circle"):
        cfg.parse_config(raw)
    # the count is derived, so a file that still states it is refused
    raw = minimal_raw()
    raw["torus"] = {"dim": 0}
    with pytest.raises(ValidationError, match="unknown key torus.dim"):
        cfg.parse_config(raw)


def test_torus_speeds_must_be_zero(tmp_path, capsys):
    # a torus translation drift is not an automorphism flow, so a config
    # has no speeds: even zero speeds are refused as an unknown key
    raw = copy.deepcopy(cfg.PRESETS["rotation-plane"])
    raw["torus"]["speeds"] = [0.0]
    with pytest.raises(ValidationError, match="unknown key torus.speeds"):
        cfg.parse_config(raw)
    path = tmp_path / "drift.yaml"
    cfg.dump_config(raw, path)
    code = main(["decompose", "--config", str(path), "--out",
                 str(tmp_path / "d")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "torus.speeds" in err[0]


def test_window_spec_exactly_one():
    """Explicit bounds are the one way to give the window."""
    for key, value in (("level_bounds", [1.0]), ("window_factor", 1.5)):
        raw = minimal_raw()
        raw["chain"][key] = value
        with pytest.raises(ValidationError, match=f"unknown key chain.{key}"):
            cfg.parse_config(raw)
    raw = minimal_raw()
    del raw["chain"]["x_lower"]
    del raw["chain"]["x_upper"]
    with pytest.raises(ValidationError, match="x_lower and chain.x_upper"):
        cfg.parse_config(raw)


@pytest.mark.parametrize("block", sorted(cfg.KEYS))
def test_unknown_key_refused_in_every_block(block):
    raw = minimal_raw()
    target = raw.setdefault(block, {}) if block else raw
    target["bogus"] = 1
    where = f"{block}.bogus" if block else "bogus"
    with pytest.raises(ValidationError, match=f"unknown key {where};"):
        cfg.parse_config(raw)


def test_x_bounds_come_together():
    raw = minimal_raw()
    del raw["chain"]["x_upper"]
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)


def test_eps_tau_positive():
    raw = minimal_raw()
    raw["chain"]["eps"] = 0.0
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)


def test_angle_and_masked_cell_counts():
    raw = minimal_raw()
    raw["chain"]["angle_cells"] = [8]
    with pytest.raises(ValidationError):
        cfg.parse_config(raw)
    # angle_cells counts the masked circles too, after the torus circles
    raw = copy.deepcopy(cfg.PRESETS["conjugation-upstairs"])
    raw["chain"]["angle_cells"] = [8]
    with pytest.raises(ValidationError, match="one count per circle"):
        cfg.parse_config(raw)
    raw["chain"]["angle_cells"] = [8, 8]
    raw["chain"]["masked_cells"] = [8]
    with pytest.raises(ValidationError, match="unknown key chain.masked_cells"):
        cfg.parse_config(raw)


def test_preset_registry():
    names = sorted(cfg.PRESETS)
    assert set(names) == {
        "scalar-stable", "scalar-unstable", "rotation-plane",
        "heisenberg-expanding", "conjugation-upstairs",
        "halfstable-w2", "halfstable-w4", "halfstable-w8",
    }
    with pytest.raises(ValidationError):
        cfg.preset_config("no-such-thing")


@pytest.mark.parametrize("name", sorted(cfg.PRESETS))
def test_every_preset_builds(name):
    c = cfg.preset_config(name)
    system = cfg.build_system(c)
    window = cfg.build_window(c, system)
    assert window.n_nodes > 0
    assert system.group is window.group
    assert c.seed == 20260818


def test_preset_config_returns_fresh_copies():
    a = cfg.preset_config("scalar-stable")
    a.derivation[0, 0] = 99.0
    a.delta[0] = 99.0
    b = cfg.preset_config("scalar-stable")
    assert b.derivation[0, 0] == -1.0 and b.delta[0] == 0.05


def test_require_interior_flags():
    assert cfg.preset_config("scalar-stable").require_interior
    assert cfg.preset_config("heisenberg-expanding").require_interior
    assert not cfg.preset_config("rotation-plane").require_interior
    assert not cfg.preset_config("halfstable-w2").require_interior
    assert not cfg.preset_config("conjugation-upstairs").require_interior


def test_conjugation_preset_masks_central_circle():
    c = cfg.preset_config("conjugation-upstairs")
    system = cfg.build_system(c)
    assert system.group.x_mask.tolist() == [False, False, True]
    assert c.angle_cells == (8, 8)
    assert c.torus_controls.shape == (2, 1)


def test_build_system_rejects_bad_derivation():
    raw = minimal_raw()
    raw["algebra"] = {"preset": "heisenberg3"}
    raw["derivation"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    raw["control"]["z"] = [[1.0, 0.0, 0.0]]
    raw["chain"]["x_lower"] = [-1.0] * 3
    raw["chain"]["x_upper"] = [1.0] * 3
    raw["chain"]["delta"] = [0.5] * 3
    # identity is not a derivation of the Heisenberg bracket
    with pytest.raises(ValidationError):
        cfg.build_system(cfg.parse_config(raw))


def test_dump_config_roundtrips_preset(tmp_path):
    raw = copy.deepcopy(cfg.PRESETS["heisenberg-expanding"])
    path = tmp_path / "heis.yaml"
    cfg.dump_config(raw, path)
    back = load(path)
    ref = cfg.preset_config("heisenberg-expanding")
    assert np.array_equal(back.derivation, ref.derivation)
    assert np.array_equal(back.family, ref.family)
    assert back.eps == ref.eps and back.tau == ref.tau
    assert back.require_interior == ref.require_interior
