"""Flat-text serialization of the parameter bundle: exact round trips."""

import tracemalloc

import numpy as np
import pytest

from diffdecomp.core import ConfigError
from diffdecomp.params import (
    LEAVES,
    dumps_params,
    init_model_params,
    load_params,
    loads_params,
    save_params,
)


def scrambled_bundle():
    """A bundle with awkward values in several leaves (exercises repr fidelity)."""
    params = init_model_params(channels=3, steps=2, reduced_channels=2, patch_side=4, seed=5)
    params.solver.alpha = np.array([np.pi, 1e-300])
    params.solver.gamma = np.array([0.1 + 1e-17, -0.0])
    params.solver.gate.scale = 1.0 / 3.0
    params.solver.gate.shift = -7.25e-12
    params.head.bias = 2.0**-40
    params.align.eta_a = 0.30000000000000004
    params.solver.mem_n.b_z = np.array([-4.0, 1e16, 5e-324])
    return params


def _valid_lines():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    return dumps_params(params).splitlines()


def _key(line):
    return line.split("=", 1)[0].strip()


def _with_line(lines, key, new_line):
    """The file text with ``key``'s line replaced (or dropped when None)."""
    kept = [(new_line if _key(line) == key else line) for line in lines]
    return "\n".join(line for line in kept if line is not None)


# Every key of a valid file: the header and every leaf.
KEYS = [_key(line) for line in _valid_lines()]


def test_round_trip_is_bit_exact():
    params = scrambled_bundle()
    text = dumps_params(params)
    again = dumps_params(loads_params(text))
    assert text == again


def test_round_trip_preserves_values():
    params = scrambled_bundle()
    loaded = loads_params(dumps_params(params))
    assert np.array_equal(loaded.solver.alpha, params.solver.alpha)
    assert np.array_equal(loaded.solver.gamma, params.solver.gamma)
    assert np.array_equal(loaded.solver.phi_c, params.solver.phi_c)
    assert np.array_equal(loaded.solver.mem_n.b_z, params.solver.mem_n.b_z)
    assert np.array_equal(loaded.align.psi_d, params.align.psi_d)
    assert loaded.solver.gate.scale == params.solver.gate.scale
    assert loaded.head.bias == params.head.bias
    assert loaded.head.threshold == params.head.threshold
    assert loaded.align.eta_a == params.align.eta_a
    assert loaded.solver.steps == 2
    assert loaded.solver.gate.patch_side == 4


def test_flags_round_trip():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    params.solver.memory_bypass = True
    params.solver.gate_bypass = True
    loaded = loads_params(dumps_params(params))
    assert loaded.solver.memory_bypass is True
    assert loaded.solver.gate_bypass is True


def test_gate_bypass_defaults_false_when_absent():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    text = "\n".join(
        line for line in dumps_params(params).splitlines() if not line.startswith("gate_bypass")
    )
    assert loads_params(text).solver.gate_bypass is False


def test_comments_and_blank_lines_ignored():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    text = "# fitted bundle\n\n" + dumps_params(params) + "\n# trailing note\n"
    loaded = loads_params(text)
    assert np.array_equal(loaded.solver.alpha, params.solver.alpha)


def test_parameter_count_default_bundle():
    params = init_model_params(channels=4, steps=3)
    # 9 step scalars + 864 coupling + 32 injection + 216 memory + 18 gate
    # + 5 head + 68 alignment
    assert sum(np.size(leaf.get(params)) for leaf in LEAVES) == 1212


@pytest.mark.parametrize("name", [key for key in KEYS if key != "gate_bypass"])  # has a default
def test_missing_key_rejected(name):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        loads_params(_with_line(_valid_lines(), name, None))


def test_missing_metadata_rejected():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    text = "\n".join(
        line for line in dumps_params(params).splitlines() if not line.startswith("channels")
    )
    with pytest.raises(ConfigError):
        loads_params(text)


@pytest.mark.parametrize("name", KEYS)
def test_wrong_array_length_rejected(name):
    lines = _valid_lines()
    values = next(line for line in lines if _key(line) == name).split("=", 1)[1].split()
    for wrong in (values + ["0.5"], values[:-1]):
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            loads_params(_with_line(lines, name, f"{name} = " + " ".join(wrong)))


NON_FINITE = [
    ("gate_scale", "nan"),
    ("head_bias", "inf"),
    ("epsilon", "-inf"),
    ("threshold", "nan"),
    ("alpha", "nan"),
    ("beta", "-inf"),
    ("head_weights", "0.5 inf"),
    ("channels", "nan"),
]


@pytest.mark.parametrize(
    "name,value", NON_FINITE + [(key, "nan") for key in KEYS if key not in dict(NON_FINITE)]
)
def test_non_finite_value_rejected(name, value):
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    lines = [
        (f"{name} = {value}" if line.split("=")[0].strip() == name else line)
        for line in dumps_params(params).splitlines()
    ]
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        loads_params("\n".join(lines))


def test_unsupported_format_rejected():
    with pytest.raises(ConfigError, match="format"):
        loads_params("format = something-else-9\n")
    with pytest.raises(ConfigError):
        loads_params("")


def test_garbled_line_rejected():
    params = init_model_params(channels=2, steps=1, reduced_channels=2, patch_side=4)
    with pytest.raises(ConfigError, match="line"):
        loads_params(dumps_params(params) + "stray token\n")


def test_file_round_trip(tmp_path):
    params = scrambled_bundle()
    path = tmp_path / "bundle.params"
    save_params(path, params)
    loaded = load_params(path)
    assert dumps_params(loaded) == dumps_params(params)



@pytest.mark.parametrize(
    "key,claim,named",
    [("channels", "256", "phi_c"), ("steps", "1000000000", "alpha"),
     ("reduced_channels", "1000000", "gate_reducer")],
)
def test_forged_header_fails_before_allocating(key, claim, named):
    text = _with_line(_valid_lines(), key, f"{key} = {claim}")
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=named):
            loads_params(text)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_negative_dimension_rejected():
    text = _with_line(_valid_lines(), "channels", "channels = -1")
    with pytest.raises(ConfigError, match="channels"):
        loads_params(text)


@pytest.mark.parametrize(
    "line",
    ["epsilon = -1.0", "epsilon = -5e-324", "epsilon = 0.0", "patch_side = 0", "patch_side = -4"],
)
def test_out_of_range_setting_rejected(line):
    key = _key(line)
    bound = "> 0" if key == "epsilon" else ">= 1"
    with pytest.raises(ConfigError, match=rf"^{key}: must be {bound}, "):
        loads_params(_with_line(_valid_lines(), key, line))
