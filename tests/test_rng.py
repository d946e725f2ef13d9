import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from wavesieve.rng import (child_seed, normal_cdf, polar_normal_rows,
                           polar_normals, stream)


def reference_polar(rng, size):
    """The polar method one call at a time, batch by batch: the reference
    the block sampler must reproduce bit for bit."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        m = (need * 7) // 10 + 8
        u = rng.uniform(-1.0, 1.0, size=(m, 2))
        s = u[:, 0] ** 2 + u[:, 1] ** 2
        ok = (s > 0.0) & (s < 1.0)
        ua, sa = u[ok], s[ok]
        f = np.sqrt(-2.0 * np.log(sa) / sa)
        z = np.empty(2 * sa.size)
        z[0::2] = ua[:, 0] * f
        z[1::2] = ua[:, 1] * f
        take = min(z.size, need)
        out[filled:filled + take] = z[:take]
        filled += take
    return out


class RejectingUniforms:
    """Stand-in generator whose uniform stream is a fixed sequence in which
    most candidate pairs fall outside the unit disc, so nearly every polar
    call needs more than its first batch.  Records how many values it served."""

    def __init__(self, seed, accept=0.3, length=400_000):
        rng = np.random.default_rng(seed)
        pairs = rng.uniform(-0.7, 0.7, size=(length // 2, 2))
        reject = rng.random(length // 2) > accept
        pairs[reject] = rng.uniform(0.75, 1.0, size=(int(reject.sum()), 2))
        self.values = pairs.reshape(-1) * np.where(rng.random(length) < 0.5, -1.0, 1.0)
        self.served = 0

    def uniform(self, low, high, size):
        assert (low, high) == (-1.0, 1.0)
        k = int(np.prod(size))
        out = self.values[self.served:self.served + k]
        self.served += k
        return out.reshape(size)


def test_normal_cdf_against_reference():
    # scipy.special.ndtr is the independent oracle for the rational approximation
    x = np.concatenate([np.linspace(-37, 37, 20001), [-7.07106781186547, 7.07106781186547]])
    assert np.max(np.abs(normal_cdf(x) - scipy.special.ndtr(x))) < 1e-12


def test_normal_cdf_spot_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    # classic two-sided 95% quantile
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert normal_cdf(-1.959964) == pytest.approx(0.025, abs=1e-6)
    assert normal_cdf(40.0) == 1.0
    assert normal_cdf(-40.0) == 0.0


def test_normal_cdf_monotone():
    x = np.sort(np.random.default_rng(1).uniform(-10, 10, 500))
    y = normal_cdf(x)
    assert np.all(np.diff(y) >= 0.0)


def test_polar_normals_deterministic():
    a = polar_normals(stream(42), 1000)
    b = polar_normals(stream(42), 1000)
    assert np.array_equal(a, b)


def test_polar_normals_moments():
    z = polar_normals(stream(7), 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    # symmetry of tails
    assert abs((z > 1.0).mean() - (z < -1.0).mean()) < 0.005


def test_polar_normals_distribution():
    # empirical CDF vs the package CDF at a few quantiles
    z = np.sort(polar_normals(stream(11), 100_000))
    for q in (-2.0, -1.0, 0.0, 0.5, 1.5):
        emp = np.searchsorted(z, q) / z.size
        assert emp == pytest.approx(normal_cdf(q), abs=0.005)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(0, 400), rows=st.integers(0, 12), seed=st.integers(0, 2**32))
def test_polar_normal_rows_match_successive_calls(size, rows, seed):
    block_rng, call_rng, ref_rng = stream(seed, 5), stream(seed, 5), stream(seed, 5)
    block = polar_normal_rows(block_rng, size, rows)
    calls = [polar_normals(call_rng, size) for _ in range(rows)]
    assert block.shape == (rows, size)
    assert np.array_equal(block, np.array(calls).reshape(rows, size))
    assert np.array_equal(block, np.array([reference_polar(ref_rng, size)
                                           for _ in range(rows)]).reshape(rows, size))
    # the same uniforms were consumed: all three streams continue alike
    assert block_rng.random() == call_rng.random() == ref_rng.random()


def test_polar_normal_rows_replays_short_calls():
    # with about 30% of pairs accepted every call's first batch falls short,
    # which forces the call-by-call replay on the uniforms drawn ahead
    for size, rows in ((1, 40), (7, 25), (50, 30), (333, 8)):
        block_src, ref_src = RejectingUniforms(size), RejectingUniforms(size)
        block = polar_normal_rows(block_src, size, rows)
        want = np.array([reference_polar(ref_src, size) for _ in range(rows)])
        assert np.array_equal(block, want)
        assert block_src.served == ref_src.served
    # the stand-in really starves the first batches
    src = RejectingUniforms(0)
    u = src.uniform(-1.0, 1.0, size=(10_000, 2))
    assert np.mean(np.sum(u * u, axis=1) < 1.0) < 0.35


def test_stream_splitting():
    assert np.array_equal(stream(3, 1, 2).random(5), stream(3, 1, 2).random(5))
    assert not np.array_equal(stream(3, 1, 2).random(5), stream(3, 1, 3).random(5))
    assert not np.array_equal(stream(3, 1).random(5), stream(4, 1).random(5))


def test_child_seed_stable():
    assert child_seed(9, 5) == child_seed(9, 5)
    assert child_seed(9, 5) != child_seed(9, 6)
    assert child_seed(9, 5, 0) != child_seed(9, 5)
