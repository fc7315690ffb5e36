"""The table writer's number kernel against Python's own float formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ising_trinity._decimal import decimal_text


def assert_matches_python(values):
    x = np.asarray(values, dtype=np.float64)
    assert decimal_text(x, shortest=False) == [b"%.17g" % v for v in x.tolist()]
    assert decimal_text(x, shortest=True) == [repr(v).encode() for v in x.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=64))
def test_unit_interval_floats_match_python(values):
    assert_matches_python(values)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_random_bit_patterns_match_python(seed):
    # Every double in [0, 1) is equally likely, subnormals included; then any
    # bit pattern at all: negatives, values above 1, infinities and NaNs.
    rng = np.random.default_rng(seed)
    unit = rng.integers(0, np.float64(1.0).view(np.int64), 1 << 14)
    anything = rng.integers(-(2**63), 2**63, 1 << 8, endpoint=False)
    assert_matches_python(np.concatenate([unit, anything]).view(np.float64))


def test_powers_of_two_and_of_ten_match_python():
    assert_matches_python(np.ldexp(1.0, -np.arange(1, 1075)))
    assert_matches_python([float(f"1e-{k}") for k in range(1, 324)])
    assert_matches_python([0.0, 1.0, 5e-324, np.finfo(np.float64).tiny])


# 1e-4 is the smallest value written in fixed form, 1e-5 the largest power of
# ten written with an exponent.
@pytest.mark.parametrize("edge", [1e-4, 1e-5])
def test_values_around_the_form_switch_match_python(edge):
    steps = np.arange(-(1 << 12), 1 << 12)
    assert_matches_python((np.float64(edge).view(np.int64) + steps).view(np.float64))
