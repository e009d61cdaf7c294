"""Property tests over toy-scale JSON model configs.

A dict with one field set to a bad value (out of range, above a cap or a list
of the wrong length) must raise a ConfigError that names that field's JSON
path, and nothing else; a valid dict must build, and its cost rows must
describe the shapes a real forward produces.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafnet import (
    BatchNorm2d,
    ConfigError,
    Conv2d,
    Tensor,
    build_model,
    config_from_dict,
    count_costs,
    no_grad,
    using,
)


def _odd(lo, hi):
    """Odd integers in [lo, hi], for odd lo and hi."""
    return st.integers(lo // 2, hi // 2).map(lambda i: 2 * i + 1)


@st.composite
def valid_configs(draw):
    """Small valid model config dicts, as `config_from_dict` reads them."""
    toggles = ("use_elan", "use_rep", "use_large")
    return {
        "stem_width": draw(st.integers(1, 8)),
        "stage_widths": draw(st.lists(st.sampled_from(range(2, 17, 2)), min_size=4, max_size=4)),
        "stage_depths": draw(st.lists(st.integers(1, 2), min_size=4, max_size=4)),
        "backbone_kernels": sorted(draw(st.sets(_odd(3, 11), min_size=4, max_size=4))),
        "expansion": draw(st.floats(1.0, 2.5)),
        **{t: draw(st.booleans()) for t in toggles},
        "neck": {
            "widths": draw(st.lists(st.integers(2, 16), min_size=3, max_size=3)),
            "kernels": draw(st.lists(_odd(3, 9), min_size=3, max_size=3)),
            "saf_ratio": draw(st.floats(0.5, 1.0)),
            "enable_saf": draw(st.booleans()),
            "enable_aaf": draw(st.booleans()),
            "depth": draw(st.integers(1, 2)),
            "expansion": draw(st.floats(1.0, 2.5)),
            **{t: draw(st.booleans()) for t in toggles},
        },
        "head_width": draw(st.integers(1, 8)),
        "head_out_channels": draw(st.integers(1, 4)),
        "in_channels": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**16)),
    }


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# every expansion below 1/2 shrinks every hidden width, even a width of 1,
# and expansions are capped at 16
_BAD_EXPANSION = st.one_of(_NON_FINITE, st.floats(-4.0, 0.49), st.integers(-3, 0),
                           st.floats(16.01, 1e12), st.integers(17, 10**9))
_EVEN_OR_SMALL = st.one_of(st.integers(-9, 2), st.integers(2, 6).map(lambda i: 2 * i))
_ABOVE_CAP = st.integers(4097, 10**9)  # channel counts are capped at 4096


def _one_bad(values, bad):
    return st.tuples(st.integers(0, len(values) - 1), bad).map(
        lambda ib: values[: ib[0]] + [ib[1]] + values[ib[0] + 1:])


def _bad_list(values, bad):
    """One bad value, or the valid values cycled to any other length in 0..8."""
    lengths = st.integers(0, 8).filter(lambda n: n != len(values))
    return st.one_of(_one_bad(values, bad), lengths.map(lambda n: (values * 3)[:n]))


_BAD_CHANNELS = st.one_of(st.integers(-4, 0), _ABOVE_CAP)

# JSON field path -> strategy for a bad value, given the valid dict's value
_BAD = {
    ("stem_width",): lambda v: _BAD_CHANNELS,
    ("head_width",): lambda v: _BAD_CHANNELS,
    ("head_out_channels",): lambda v: _BAD_CHANNELS,
    ("in_channels",): lambda v: _BAD_CHANNELS,
    ("seed",): lambda v: st.integers(-5, -1),
    ("stage_widths",): lambda v: _bad_list(
        v, st.one_of(st.integers(-6, 1), _odd(3, 15), _ABOVE_CAP.map(lambda i: 2 * i))),
    ("stage_depths",): lambda v: _bad_list(v, st.integers(-3, 0)),
    ("backbone_kernels",): lambda v: _bad_list(v, _EVEN_OR_SMALL),
    ("expansion",): lambda v: _BAD_EXPANSION,
    ("neck", "widths"): lambda v: _bad_list(v, st.one_of(st.integers(-6, 1), _ABOVE_CAP)),
    ("neck", "kernels"): lambda v: _bad_list(v, _EVEN_OR_SMALL),
    ("neck", "depth"): lambda v: st.integers(-3, 0),
    ("neck", "expansion"): lambda v: _BAD_EXPANSION,
    ("neck", "saf_ratio"): lambda v: st.one_of(
        _NON_FINITE, st.floats(-1.0, 0.0), st.floats(1.01, 9.0)),
}


@st.composite
def one_bad_field(draw):
    d = draw(valid_configs())
    path = draw(st.sampled_from(sorted(_BAD)))
    parent = d["neck"] if len(path) == 2 else d
    parent[path[-1]] = draw(_BAD[path](parent[path[-1]]))
    return d, path


@settings(max_examples=150, deadline=None)
@given(one_bad_field())
def test_one_bad_field_raises_config_error_naming_it(case):
    d, path = case
    with pytest.raises(ConfigError) as e:
        config_from_dict(d)
    msg = str(e.value)
    # the full JSON path, neck.<field> for neck fields
    assert msg.startswith(f"model config: {'.'.join(path)} ")
    assert not re.search("HELAN|Bottleneck", msg)  # no internal class names


@settings(max_examples=25, deadline=None)
@given(valid_configs())
def test_valid_config_builds_and_costs_match_forward_shapes(d):
    cfg = config_from_dict(d)
    model = build_model(cfg)
    report = count_costs(model, 64)

    # an unfused RepHDW unit is costed as its branches, so rows are every
    # conv and batch norm that runs, with the shape it produced
    names = {id(m): n for n, m in model.named_modules()}
    seen = {}

    def observer(m, out):
        seen[names[id(m)]] = (type(m), getattr(out, "shape", None))

    x = Tensor(np.zeros((1, cfg.in_channels, 64, 64), dtype=np.float32))
    with model.mode(False), no_grad(), using(observer=observer):
        outs = model(x)
    assert [r.name for r in report.rows] == [
        n for n, (t, _) in seen.items() if t in (Conv2d, BatchNorm2d)]
    assert all(r.out_shape == seen[r.name][1] for r in report.rows)
    for i in range(3):
        assert outs[f"out{i + 3}"].shape == (1, cfg.head_out_channels, 8 >> i, 8 >> i)
