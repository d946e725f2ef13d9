"""Seedable random streams, a polar-method normal sampler and a normal CDF.

Every stochastic routine in the package draws from a numpy PCG64 generator
derived from a root seed plus an explicit integer key path.  The derivation
(`stream`, `child_seed`) is the single splitting rule used everywhere, so
distinct chains, replications and components own independent streams and any
run is reproducible bit for bit from its root seed.  The samplers draw their
normals with `Generator.standard_normal`; `polar_normals` is kept for callers
that need its exact bits, such as the rate criterion of the acceptance tests.
"""

import numpy as np

__all__ = ["stream", "child_seed", "polar_normals", "normal_cdf"]


def _entropy(root_seed, keys):
    # the key count disambiguates paths: SeedSequence ignores trailing zeros
    return (int(root_seed), len(keys)) + tuple(int(k) for k in keys)


def stream(root_seed, *keys):
    """Return the generator identified by (root_seed, *keys).

    The same arguments always yield the same stream; different key paths
    yield independent streams.  All entries must be non-negative integers.
    """
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(_entropy(root_seed, keys))))


def child_seed(root_seed, *keys):
    """Collapse (root_seed, *keys) into one integer usable as a new root seed."""
    ss = np.random.SeedSequence(_entropy(root_seed, keys))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def polar_normals(rng, size):
    """Draw `size` standard normals from `rng` with the Marsaglia polar method.

    Consumes uniforms from `rng` in a fixed order: candidate pairs are drawn
    in batches, rejected pairs are skipped, and surplus accepted values at the
    end of a call are discarded.  Given the same generator state and the same
    sequence of requested sizes the output is identical on every run.
    """
    size = int(size)
    out = np.empty(size)
    filled = 0
    while filled < size:
        need = size - filled
        # acceptance rate is pi/4, each accepted pair yields two normals
        u = rng.uniform(-1.0, 1.0, size=((need * 7) // 10 + 8, 2))
        s = u[:, 0] ** 2 + u[:, 1] ** 2
        ok = (s > 0.0) & (s < 1.0)
        sa = s[ok]
        z = (u[ok] * np.sqrt(-2.0 * np.log(sa) / sa)[:, None]).reshape(-1)[:need]
        out[filled:filled + z.size] = z
        filled += z.size
    return out


# Hart rational approximation of the standard normal CDF (double precision,
# absolute error below 1e-14), with a continued fraction for the far tail.
_HART_NUM = (3.52624965998911e-02, 0.700383064443688, 6.37396220353165,
             33.912866078383, 112.079291497871, 221.213596169931,
             220.206867912376)
_HART_DEN = (8.83883476483184e-02, 1.75566716318264, 16.064177579207,
             86.7807322029461, 296.564248779674, 637.333633378831,
             793.826512519948, 440.413735824752)
_SQRT_2PI = 2.506628274631000502


def normal_cdf(x):
    """Standard normal distribution function, vectorized.

    Rational approximation on |x| < 7.07, continued fraction beyond, exact
    zero tail past |x| = 37.  Scalar input returns a scalar.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    z = np.abs(np.atleast_1d(x))
    tail = np.zeros_like(z)

    mid = z < 7.07106781186547
    if np.any(mid):
        zm = z[mid]
        e = np.exp(-0.5 * zm * zm)
        num = np.full_like(zm, _HART_NUM[0])
        for c in _HART_NUM[1:]:
            num = num * zm + c
        den = np.full_like(zm, _HART_DEN[0])
        for c in _HART_DEN[1:]:
            den = den * zm + c
        tail[mid] = e * num / den

    far = (~mid) & (z <= 37.0)
    if np.any(far):
        zf = z[far]
        b = zf + 0.65
        b = zf + 4.0 / b
        b = zf + 3.0 / b
        b = zf + 2.0 / b
        b = zf + 1.0 / b
        tail[far] = np.exp(-0.5 * zf * zf) / (b * _SQRT_2PI)

    out = np.where(np.atleast_1d(x) > 0.0, 1.0 - tail, tail)
    return float(out[0]) if scalar else out
