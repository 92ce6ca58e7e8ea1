"""NetworkConfig.link_delay: one array call against the scalar draws it replaces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vbfl.config import NetworkConfig

_shape = st.one_of(
    st.integers(0, 6),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
)


@settings(max_examples=200)
@given(
    delay=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    jitter=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    shape=_shape,
    seed=st.integers(0, 2**16),
)
def test_link_delay_equals_scalar_draws_in_row_major_order(delay, jitter, shape, seed):
    rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
    got = NetworkConfig(delay, jitter).link_delay(rng_got, shape)
    n = int(np.prod(shape))
    want = [delay + (jitter * rng_want.random() if jitter else 0.0) for _ in range(n)]
    assert got.shape == (shape if isinstance(shape, tuple) else (shape,))
    assert got.dtype == np.float64
    assert got.ravel().tolist() == want
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@given(delay=st.floats(0.0, 5.0), shape=_shape)
def test_link_delay_without_jitter_draws_nothing(delay, shape):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    got = NetworkConfig(delay, 0.0).link_delay(rng, shape)
    assert rng.bit_generator.state == before
    assert (got == delay).all()
