import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abpipe import prf

U64 = st.integers(min_value=0, max_value=2**64 - 1)
NEAR_MAX = st.integers(min_value=2**64 - 1_000, max_value=2**64 - 1)


def previous_uniforms(key, counters):
    """``prf.uniforms``'s earlier formula: splitmix64 on fresh temporaries."""
    idx = np.asarray(counters, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(key) + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * float(2.0**-53)


def same_bits(new, old) -> bool:
    return new.dtype == old.dtype == np.float64 and new.shape == old.shape and (
        new.view(np.uint64).tolist() == old.view(np.uint64).tolist()
    )


@given(key=U64, counters=st.lists(U64 | NEAR_MAX, max_size=50))
@settings(max_examples=200, deadline=None)
def test_uniforms_of_a_list_are_bitwise_the_previous_formula(key, counters):
    assert same_bits(prf.uniforms(key, counters), previous_uniforms(key, counters))


@given(key=U64, start=NEAR_MAX, size=st.integers(min_value=0, max_value=2_000))
@settings(max_examples=100, deadline=None)
def test_uniforms_leave_a_uint64_array_unmodified(key, start, size):
    with np.errstate(over="ignore"):  # counters past 2**64 - 1 wrap
        counters = np.uint64(start) + np.arange(size, dtype=np.uint64)
    before = counters.copy()
    assert same_bits(prf.uniforms(key, counters), previous_uniforms(key, counters))
    assert np.array_equal(counters, before) and counters.dtype == np.uint64


def test_uniforms_leave_the_store_s_int64_user_ids_unmodified():
    users = np.arange(20_000, dtype=np.int64)
    before = users.copy()
    key = prf.stream_key(7, "assign", "T", 0)
    assert same_bits(prf.uniforms(key, users), previous_uniforms(key, users))
    assert np.array_equal(users, before) and users.dtype == np.int64
