"""One-dimensional scaling filters, cascade evaluation of the scaling
function, and tensor-product d-dimensional design functions.

A scaling filter h of length L defines phi supported on [0, L-1] through the
two-scale relation phi(x) = sqrt(2) * sum_l h_l phi(2x - l).  The mother
coefficients follow the alternating-flip convention g_l = (-1)^l h_{L-1-l}.
Values of phi live in a dyadic lookup table built once by `cascade`; the
d-dimensional design functions are

    Phi_{j,gamma}(x) = 2^{jd/2} * prod_i phi(2^j x_i - gamma_i),

with translations gamma the product of one integer range per axis: the
ranges whose supports meet the unit cube, or the minimal ones covering it.
"""

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = [
    "ScalingFilter", "PhiTable", "WaveletSieve",
    "haar_filter", "d4_filter", "filter_by_name", "cascade",
    "phi_eval", "mother_tensor_coeffs", "sieve_for_box", "covering_sieve",
    "partition_of_unity_residual", "refinement_residual", "phi_table_to_csv",
]

_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class ScalingFilter:
    """Refinement coefficients h plus derived mother coefficients g."""
    name: str
    h: np.ndarray
    g: np.ndarray

    @property
    def length(self):
        return len(self.h)

    @property
    def support(self):
        """Length of the support interval [0, L-1] of phi."""
        return len(self.h) - 1


def _make_filter(name, h):
    h = np.asarray(h, dtype=float)
    L = len(h)
    g = np.array([(-1.0) ** l * h[L - 1 - l] for l in range(L)])
    if abs(h.sum() - np.sqrt(2.0)) > _IDENTITY_TOL:
        raise ValueError(f"{name}: coefficients must sum to sqrt(2)")
    for z in range(-(L // 2), L // 2 + 1):
        want = 1.0 if z == 0 else 0.0
        acc = shifted_inner(h, h, z)
        if abs(acc - want) > _IDENTITY_TOL:
            raise ValueError(f"{name}: orthonormality fails at shift {z}")
    return ScalingFilter(name, h, g)


def shifted_inner(a, b, z):
    """sum_l a_l * b_{l + 2z} over the overlapping range."""
    L = len(a)
    return float(sum(a[l] * b[l + 2 * z] for l in range(L) if 0 <= l + 2 * z < L))


def haar_filter():
    """h = (1, 1)/sqrt(2); phi is the indicator of [0, 1)."""
    s = 1.0 / np.sqrt(2.0)
    return _make_filter("haar", [s, s])


def d4_filter():
    """The length-4 orthonormal filter whose mother coefficients also kill
    linear moments (sum g = 0 and sum l*g_l = 0)."""
    r3 = np.sqrt(3.0)
    h = np.array([1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3]) / (4.0 * np.sqrt(2.0))
    return _make_filter("d4", h)


_FILTERS = {"haar": haar_filter, "d4": d4_filter}


def filter_by_name(name):
    try:
        return _FILTERS[name]()
    except (KeyError, TypeError):   # TypeError: an unhashable name
        raise ValueError(f"unknown filter {name!r}, expected one of {sorted(_FILTERS)}") from None


@dataclass(frozen=True)
class PhiTable:
    """phi sampled on [0, L-1] at dyadic step 2^-resolution, with linear
    interpolation between grid points and zero outside the support."""
    filter: ScalingFilter
    resolution: int
    values: np.ndarray

    @property
    def step(self):
        return 2.0 ** (-self.resolution)

    def eval(self, x):
        """phi(x), vectorized; exact at dyadic grid points."""
        x = np.asarray(x, dtype=float)
        t = x * (1 << self.resolution)
        last = self.values.size - 1
        inside = (t >= 0.0) & (t <= last)
        idx = np.clip(np.floor(t).astype(np.int64), 0, last - 1)
        frac = np.clip(t - idx, 0.0, 1.0)
        out = (1.0 - frac) * self.values[idx] + frac * self.values[idx + 1]
        return np.where(inside, out, 0.0)


def _integer_values(filt):
    """phi at the integers 0..L-1 from the eigenvalue-1 eigenvector of the
    refinement matrix restricted to the interior, normalized to sum one."""
    h = filt.h
    L = len(h)
    if L == 2:
        # indicator convention: phi = 1 on [0,1), 0 at 1
        return np.array([1.0, 0.0])
    m = L - 2
    T = np.zeros((m, m))
    for i in range(1, L - 1):
        for j in range(1, L - 1):
            l = 2 * i - j
            if 0 <= l < L:
                T[i - 1, j - 1] = np.sqrt(2.0) * h[l]
    lam, vec = np.linalg.eig(T)
    k = int(np.argmin(np.abs(lam - 1.0)))
    if abs(lam[k] - 1.0) > 1e-8:
        raise ValueError(f"{filt.name}: refinement matrix has no eigenvalue 1 "
                         f"(closest {lam[k]:.6g})")
    v = np.real(vec[:, k])
    total = v.sum()
    if abs(total) < 1e-12:
        raise ValueError(f"{filt.name}: eigenvector not normalizable to unit sum")
    out = np.zeros(L)
    out[1:L - 1] = v / total
    return out


def cascade(filt, resolution=10):
    """Tabulate phi on [0, L-1] at step 2^-resolution.

    Integer values come from the refinement-matrix eigenproblem; finer dyadic
    levels are filled exactly by the two-scale relation, so table entries are
    interpolation-free.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    L = filt.length
    n_cells = (L - 1) << resolution
    values = np.zeros(n_cells + 1)
    values[:: 1 << resolution] = _integer_values(filt)
    sq2h = np.sqrt(2.0) * filt.h
    for level in range(1, resolution + 1):
        stride = 1 << (resolution - level)
        idx = np.arange(stride, n_cells, 2 * stride)  # odd multiples of 2^-level
        acc = np.zeros(idx.size)
        for l in range(L):
            src = 2 * idx - (l << resolution)
            ok = (src >= 0) & (src <= n_cells)
            acc[ok] += sq2h[l] * values[src[ok]]
        values[idx] = acc
    return PhiTable(filt, resolution, values)


@dataclass(frozen=True)
class WaveletSieve:
    """Design-function family at one level: filter, scale j and one
    increasing int64 translation vector per axis.  The translations are the
    Cartesian product of the axes."""
    filter: ScalingFilter
    j: int
    axes: tuple

    @property
    def d(self):
        return len(self.axes)

    @property
    def w(self):
        """Sup-norm bound of the translations, max |gamma_i|."""
        return max(int(np.abs(axis).max()) for axis in self.axes)

    @property
    def size(self):
        return math.prod(axis.size for axis in self.axes)

    @property
    def K(self):
        """Translation rows (size x d), lexicographically ordered."""
        grid = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=1)

    @property
    def scale(self):
        return 2.0 ** (self.j * self.d / 2.0)


def _product_sieve(filt, d, j, first, last):
    """Sieve with the translations first..last on each of the d axes."""
    axis = np.arange(first, last + 1, dtype=np.int64)
    return WaveletSieve(filt, int(j), (axis,) * int(d))


def sieve_for_box(filt, d, j):
    """Sieve whose translations exactly cover the unit cube plus the filter
    support overhang at level j: on each axis the gamma whose scaled support
    [gamma, gamma + support] / 2^j meets [0, 1], that is -support..2^j."""
    if j < 0:
        raise ValueError("level must be non-negative")
    return _product_sieve(filt, d, j, -filt.support, 1 << j)


def covering_sieve(filt, d, j):
    """Minimal sieve at level j: the 2^(jd) translations 0..2^j - 1 per axis
    starting inside the unit cube, whose supports cover it with no boundary
    overhang.

    Smaller than sieve_for_box: near the low boundary fewer translates
    overlap each point, trading boundary bias for fewer coefficients.
    """
    if j < 0:
        raise ValueError("level must be non-negative")
    return _product_sieve(filt, d, j, 0, (1 << j) - 1)


def phi_eval(sieve, table, gamma, x):
    """Phi_{j,gamma}(x) = 2^{jd/2} prod_i phi(2^j x_i - gamma_i)."""
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    x = np.asarray(x, dtype=float).reshape(-1)
    if gamma.size != sieve.d or x.size != sieve.d:
        raise ValueError("gamma and x must have the sieve dimension")
    args = (2.0 ** sieve.j) * x - gamma
    return float(sieve.scale * np.prod(table.eval(args)))


def mother_tensor_coeffs(filt, d):
    """Tensor coefficient families a_k, k in {0,1}^d.

    a_k is the d-dimensional array with a_k[gamma] = prod_i a^{k_i}_{gamma_i}
    where a^0 = sqrt(2) h and a^1 = sqrt(2) g, gamma in {0..L-1}^d.
    """
    if d < 1:
        raise ValueError("dimension must be at least 1")
    one = {0: np.sqrt(2.0) * filt.h, 1: np.sqrt(2.0) * filt.g}
    out = {}
    for k in itertools.product((0, 1), repeat=d):
        out[k] = reduce(np.multiply.outer, [one[ki] for ki in k])
    return out


def partition_of_unity_residual(table):
    """Max deviation of sum_gamma phi(x - gamma) from 1 over interior grid x."""
    step = 1 << table.resolution
    L = table.filter.length
    acc = np.zeros(step)
    for k in range(L - 1):
        acc += table.values[k * step:(k + 1) * step]
    return float(np.max(np.abs(acc - 1.0)))


def refinement_residual(table):
    """Max over the dyadic grid of |phi(x) - sqrt(2) sum_l h_l phi(2x - l)|,
    evaluated only where 2x still lies on the table grid."""
    filt = table.filter
    r = table.resolution
    n_cells = (filt.length - 1) << r
    idx = np.arange(0, n_cells // 2 + 1)  # x with 2x on-grid
    recon = np.zeros(idx.size)
    sq2h = np.sqrt(2.0) * filt.h
    for l in range(filt.length):
        src = 2 * idx - (l << r)
        ok = (src >= 0) & (src <= n_cells)
        recon[ok] += sq2h[l] * table.values[src[ok]]
    return float(np.max(np.abs(table.values[idx] - recon)))


def phi_table_to_csv(table, path):
    with open(path, "w") as fh:
        fh.write("x,phi\n")
        for i, v in enumerate(table.values):
            fh.write(f"{i * table.step!r},{float(v)!r}\n")
