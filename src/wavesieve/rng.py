"""Seedable random streams, a polar-method normal sampler and a normal CDF.

Every stochastic routine in the package draws from a numpy PCG64 generator
derived from a root seed plus an explicit integer key path.  The derivation
(`stream`, `child_seed`) is the single splitting rule used everywhere, so
distinct chains, replications and components own independent streams and any
run is reproducible bit for bit from its root seed.  The samplers draw their
normals with `Generator.standard_normal`; `polar_normals` is kept for callers
that need its exact bits, such as the rate criterion of the acceptance tests.
"""

import math

import numpy as np

__all__ = ["stream", "child_seed", "polar_normals", "normal_cdf"]


def _entropy(root_seed, keys):
    # numpy counts int and the numpy integers as integer types, not bool, so
    # 1.7 and True are refused instead of read as seed 1
    for entry in (root_seed, *keys):
        if not np.issubdtype(type(entry), np.integer):
            raise ValueError(f"seeds and stream keys must be integers, got {entry!r}")
    # the key count disambiguates paths: SeedSequence ignores trailing zeros
    return (int(root_seed), len(keys)) + tuple(int(k) for k in keys)


def stream(root_seed, *keys):
    """Return the generator identified by (root_seed, *keys).

    The same arguments always yield the same stream; different key paths
    yield independent streams.  All entries must be non-negative integers,
    bool excluded; any other entry raises the ValueError naming it.
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


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_cdf(x):
    """Standard normal distribution function 0.5 * erfc(-x / sqrt(2)), vectorized
    over the C library's `erfc`; NaN maps to NaN.  Scalar input returns a scalar.
    """
    x = np.asarray(x, dtype=float)
    out = 0.5 * np.asarray(_erfc(-x * math.sqrt(0.5)), dtype=float)
    return float(out) if x.ndim == 0 else out
