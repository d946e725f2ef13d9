"""Executable combinatorial and analytic constructions used by the
consistency arguments: the interlaced lattice blocking partition, its block
size rule, a covering-number bound for bounded function classes, and the
predicted error-decay curves (shape only, unit constants).
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import _integer

__all__ = [
    "BlockingPartition", "block_size_q", "blocking_partition",
    "covering_bound", "rate_curve", "write_xy_csv",
]


def block_size_q(sample_size, c1):
    """Block side ceil(2 log(sample_size) / c1) for mixing decay rate c1."""
    if sample_size < 2:
        raise ValueError("sample_size must be at least 2")
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    v = 2.0 * math.log(sample_size) / c1
    # snap float noise when the ratio is an exact integer
    if abs(v - round(v)) < 1e-9:
        v = round(v)
    return int(math.ceil(v))


@dataclass(frozen=True)
class BlockingPartition:
    """Interlaced decomposition of the enlarged rectangle {1..2qR_i}^N into
    2^N classes of q-sided blocks.

    blocks maps (l, u) with l in 1..2^N and u in 1..R to an array of lattice
    points (1-based, one row per point); same-class blocks are at sup-distance
    at least q from each other.
    """
    N: int
    q: int
    R_axes: tuple
    n_star: tuple
    blocks: dict

    @property
    def R(self):
        return int(np.prod(self.R_axes))

    def class_boxes(self, l):
        """Axis-interval form [(start, end) per axis] of every block in class l."""
        bits = _class_bits(l - 1, self.N)
        out = {}
        for u in range(1, self.R + 1):
            us = _block_coords(u - 1, self.R_axes)
            box = tuple(
                (ui * 2 * self.q + bit * self.q + 1,
                 ui * 2 * self.q + bit * self.q + self.q)
                for ui, bit in zip(us, bits))
            out[u] = box
        return out


def _class_bits(l0, N):
    return tuple((l0 >> i) & 1 for i in range(N))


def _block_coords(u0, R_axes):
    out = []
    for R in R_axes:
        out.append(u0 % R)
        u0 //= R
    return tuple(out)


def blocking_partition(n, q):
    """Partition the enlarged rectangle around {1..n_i}^N into interlaced
    classes of q-sided blocks.

    Per axis, R_i = ceil(n_i / 2q) big intervals of length 2q tile
    {1..2qR_i}; each big interval splits into a low and a high q-interval,
    and the choice pattern across axes indexes the 2^N classes.
    """
    n = tuple(_integer(f"n[{i}]", v) for i, v in enumerate(n))
    q = _integer("q", q)
    N = len(n)
    if N < 1:
        raise ValueError("need at least one axis")
    if q < 1:
        raise ValueError("q must be positive")
    if 2 * q >= min(n):
        raise ValueError(f"need 2q < min(n), got q={q}, n={n}")
    R_axes = tuple(math.ceil(ni / (2 * q)) for ni in n)
    n_star = tuple(2 * q * Ri for Ri in R_axes)

    # every block is a q-sided cube: its points are one offset table shifted
    offsets = np.indices((q,) * N).reshape(N, -1).T
    partition = BlockingPartition(N, q, R_axes, n_star, {})
    for l in range(1, 2 ** N + 1):
        for u, box in partition.class_boxes(l).items():
            partition.blocks[(l, u)] = offsets + [start for start, _ in box]
    return partition


def covering_bound(V, range_width, eps, p=1.0):
    """Upper bound (natural log) on the log covering number of a class of
    functions into an interval of width `range_width`, with combinatorial
    dimension V; for an r-dimensional linear space pass V = r + 1.

    Valid for 0 < eps < range_width / 4 and p >= 1.
    """
    if V < 2:
        raise ValueError("V must be at least 2")
    if p < 1:
        raise ValueError("p must be at least 1")
    if not 0.0 < eps < range_width / 4.0:
        raise ValueError(f"eps must lie in (0, {range_width / 4.0}), got {eps}")
    ratio = (range_width / eps) ** p
    return math.log(3.0) + V * math.log(2.0 * math.e * ratio * math.log(3.0 * math.e * ratio))


def rate_curve(d, r, N, sizes):
    """Predicted error decay (log n)^(N+2) * n^(-2r/(d+2r)), unit constant.

    Shape-only: the theory pins the exponents, not the constants.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("smoothness exponent r must lie in (0, 1]")
    if d < 1 or N < 1:
        raise ValueError("dimensions must be at least 1")
    out = []
    for n in sizes:
        if n < 2:
            raise ValueError("sizes must be at least 2")
        out.append(math.log(n) ** (N + 2) * float(n) ** (-2.0 * r / (d + 2.0 * r)))
    return out


def write_xy_csv(path, xs, ys, header=("size", "value")):
    """Two-column CSV for external plotting."""
    with open(path, "w") as fh:
        fh.write(f"{header[0]},{header[1]}\n")
        for x, y in zip(xs, ys):
            x = int(x) if float(x).is_integer() else float(x)
            fh.write(f"{x!r},{float(y)!r}\n")
