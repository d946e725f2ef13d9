import itertools
import math

import numpy as np
import pytest

from wavesieve.theory import (block_size_q, blocking_partition, covering_bound,
                              rate_curve, write_xy_csv)


# ---------------------------------------------------------------------------
# block size

def test_block_size_examples():
    assert block_size_q(math.e ** 2, 2.0) == 2
    assert block_size_q(math.e ** 2, 1.5) == 3   # ceil(8/3)
    assert block_size_q(100, 1.0) == math.ceil(2 * math.log(100))


def test_block_size_nondecreasing():
    prev = 0
    for n in (2, 10, 100, 1000, 10 ** 6):
        q = block_size_q(n, 1.0)
        assert q >= prev
        prev = q


def test_block_size_validation():
    with pytest.raises(ValueError):
        block_size_q(1, 1.0)
    with pytest.raises(ValueError):
        block_size_q(10, 0.0)


# ---------------------------------------------------------------------------
# blocking partition

def box_distance(a, b):
    """Sup-distance between two axis-aligned boxes given as (start, end) pairs."""
    return max(max(lo2 - hi1, lo1 - hi2, 0) for (lo1, hi1), (lo2, hi2) in zip(a, b))


def brute_force_distance(pts_a, pts_b):
    diffs = np.abs(pts_a[:, None, :] - pts_b[None, :, :]).max(axis=2)
    return int(diffs.min())


def test_partition_4x4_q1():
    bp = blocking_partition((4, 4), 1)
    assert bp.R_axes == (2, 2)
    assert bp.R == 4
    assert len(bp.blocks) == 16
    assert all(pts.shape == (1, 2) for pts in bp.blocks.values())
    covered = sorted(tuple(p) for pts in bp.blocks.values() for p in pts)
    want = sorted(itertools.product(range(1, 5), repeat=2))
    assert covered == want


def test_partition_1d_six_points():
    bp = blocking_partition((6,), 1)
    assert bp.R_axes == (3,)
    assert len(bp.blocks) == 6
    # two interlaced classes: odd and even positions
    class1 = sorted(int(p[0]) for (l, _), pts in bp.blocks.items() if l == 1 for p in pts)
    class2 = sorted(int(p[0]) for (l, _), pts in bp.blocks.items() if l == 2 for p in pts)
    assert class1 == [1, 3, 5]
    assert class2 == [2, 4, 6]


@pytest.mark.parametrize("n, q, message", [
    ((8.9, 8), 1, "n[0] must be an integer, got 8.9"),
    ((8, True), 1, "n[1] must be an integer, got True"),
    ((8, 8), 1.5, "q must be an integer, got 1.5")],
    ids=lambda v: repr(v) if isinstance(v, tuple) else None)
def test_partition_shapes_must_be_integers(n, q, message):
    # each was once truncated to an int
    with pytest.raises(ValueError) as caught:
        blocking_partition(n, q)
    assert str(caught.value) == message


def test_partition_8x8_q2():
    bp = blocking_partition((8, 8), 2)
    assert all(pts.shape[0] == 4 for pts in bp.blocks.values())
    for l in range(1, 5):
        boxes = bp.class_boxes(l)
        keys = sorted(boxes)
        for i, u1 in enumerate(keys):
            for u2 in keys[i + 1:]:
                assert box_distance(boxes[u1], boxes[u2]) >= 2


def test_partition_box_distance_matches_brute_force():
    bp = blocking_partition((7, 5), 2)
    for l in (1, 4):
        boxes = bp.class_boxes(l)
        pts = {u: bp.blocks[(l, u)] for u in boxes}
        keys = sorted(boxes)
        for i, u1 in enumerate(keys):
            for u2 in keys[i + 1:]:
                assert box_distance(boxes[u1], boxes[u2]) == \
                    brute_force_distance(pts[u1], pts[u2])


def test_partition_invariants_small_sweep():
    for n, q in (((5,), 2), ((6, 7), 2), ((9, 5), 1), ((7, 7, 7), 3)):
        bp = blocking_partition(n, q)
        N = len(n)
        # every block has exactly q^N points
        assert all(pts.shape[0] == q ** N for pts in bp.blocks.values())
        # blocks partition the enlarged rectangle
        total = sum(pts.shape[0] for pts in bp.blocks.values())
        assert total == int(np.prod(bp.n_star))
        covered = set(tuple(p) for pts in bp.blocks.values() for p in pts)
        assert len(covered) == total
        # cardinality chain around the original rectangle
        R = bp.R
        assert q ** N * R <= int(np.prod(bp.n_star))
        assert int(np.prod(n)) <= (2 ** N) * (q ** N) * R


def test_partition_validation():
    with pytest.raises(ValueError):
        blocking_partition((4, 4), 2)   # needs 2q < min n
    with pytest.raises(ValueError):
        blocking_partition((9, 9), 0)
    with pytest.raises(ValueError, match="need at least one axis"):
        blocking_partition((), 1)


# ---------------------------------------------------------------------------
# covering bound

def independent_bound(V, width, eps, p):
    ratio = (width / eps) ** p
    return math.log(3) + V * math.log(2 * math.e * ratio * math.log(3 * math.e * ratio))


def test_covering_bound_example():
    got = covering_bound(2, 1.0, 0.1, 1.0)
    want = math.log(3) + 2 * math.log(20 * math.e * math.log(30 * math.e))
    assert got == pytest.approx(want, abs=1e-12)


def test_covering_bound_random_tuples():
    rng = np.random.default_rng(55)
    for _ in range(20):
        V = int(rng.integers(2, 12))
        width = float(rng.uniform(0.5, 10.0))
        eps = float(rng.uniform(1e-3, 0.249)) * width
        p = float(rng.uniform(1.0, 3.0))
        assert covering_bound(V, width, eps, p) == pytest.approx(
            independent_bound(V, width, eps, p), abs=1e-12)


def test_covering_bound_monotonicity():
    eps_grid = np.linspace(0.01, 0.24, 15)
    vals = [covering_bound(3, 1.0, e, 1.0) for e in eps_grid]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert covering_bound(5, 1.0, 0.1, 1.0) > covering_bound(3, 1.0, 0.1, 1.0)


def test_covering_bound_rejects_invalid():
    with pytest.raises(ValueError):
        covering_bound(2, 1.0, 0.25, 1.0)    # eps must stay below width/4
    with pytest.raises(ValueError):
        covering_bound(2, 1.0, 0.3, 1.0)
    with pytest.raises(ValueError):
        covering_bound(1, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        covering_bound(2, 1.0, 0.1, 0.5)


# ---------------------------------------------------------------------------
# rate curve

def test_rate_curve_at_e():
    val, = rate_curve(1, 1.0, 1, [math.e])
    assert val == pytest.approx(math.e ** (-2.0 / 3.0), abs=1e-12)


def test_rate_curve_eventually_decreasing():
    # decreasing once (N+2)/log n drops below the decay exponent 2r/(d+2r)
    for d, r, N in ((1, 1.0, 1), (2, 0.5, 2), (3, 1.0, 1)):
        turnover = (N + 2) * (d + 2 * r) / (2 * r)
        k0 = math.ceil(turnover / math.log(2)) + 1
        sizes = [2 ** k for k in range(k0, k0 + 15)]
        vals = rate_curve(d, r, N, sizes)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_rate_curve_exponent_steepens_with_r():
    n = 10 ** 6
    lo = rate_curve(1, 0.5, 1, [n])[0]    # decay exponent 1/2
    hi = rate_curve(1, 1.0, 1, [n])[0]    # decay exponent 2/3
    assert hi < lo


def test_rate_curve_csv(tmp_path):
    sizes = [256, 1024, 4096]
    vals = rate_curve(2, 1.0, 2, sizes)
    path = tmp_path / "rate.csv"
    write_xy_csv(path, sizes, vals)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "size,value"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(vals[0])


@pytest.mark.parametrize("d, r, sizes, message", [
    (1, 1.5, [10], r"must lie in \(0, 1\]"),
    (0, 1.0, [10], "dimensions must be at least 1"),
    (1, 1.0, [1], "sizes must be at least 2")])
def test_rate_curve_validation(d, r, sizes, message):
    with pytest.raises(ValueError, match=message):
        rate_curve(d=d, r=r, N=1, sizes=sizes)
