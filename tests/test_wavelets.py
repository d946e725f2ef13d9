import itertools

import numpy as np
import pytest

from wavesieve import wavelets
from wavesieve.wavelets import (WaveletSieve, cascade, covering_sieve,
                                d4_filter, filter_by_name, haar_filter,
                                mother_tensor_coeffs,
                                partition_of_unity_residual, phi_eval,
                                refinement_residual, shifted_inner,
                                sieve_for_box)

TOL = 1e-12

# integer values of the d4 scaling function, from the 2x2 interior eigenproblem
# of the refinement matrix solved by hand: (phi(1), phi(2)) = ((1+s3)/2, (1-s3)/2)
D4_PHI1 = (1.0 + np.sqrt(3.0)) / 2.0
D4_PHI2 = (1.0 - np.sqrt(3.0)) / 2.0


def box_sieve(filt, d, j, w):
    """The sieve whose translations are -w..w on each of the d axes."""
    return WaveletSieve(filt, j, (np.arange(-w, w + 1, dtype=np.int64),) * d)


@pytest.fixture(scope="module", params=["haar", "d4"])
def filt(request):
    return filter_by_name(request.param)


def test_filter_identity_families(filt):
    h, g = filt.h, filt.g
    L = len(h)
    assert abs(h.sum() - np.sqrt(2.0)) < TOL
    for z in range(-L, L + 1):
        want = 1.0 if z == 0 else 0.0
        assert abs(shifted_inner(h, h, z) - want) < TOL
        assert abs(shifted_inner(g, g, z) - want) < TOL
        assert abs(shifted_inner(g, h, z)) < TOL


@pytest.mark.parametrize("h, message", [
    ([1.0, 1.0], r"bad: coefficients must sum to sqrt\(2\)"),
    ([np.sqrt(2.0) / 2 + 0.1, np.sqrt(2.0) / 2 - 0.1], "bad: orthonormality fails at shift 0")])
def test_make_filter_names_the_identity_that_fails(h, message):
    with pytest.raises(ValueError, match=message):
        wavelets._make_filter("bad", h)


def test_haar_coefficients():
    f = haar_filter()
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(f.h, [s, s], atol=TOL)
    assert np.allclose(f.g, [s, -s], atol=TOL)
    # no overlap at shift one
    assert shifted_inner(f.h, f.h, 1) == 0.0


def test_haar_refinement_identity():
    # indicator identity 1_[0,1)(x) = 1_[0,1)(2x) + 1_[0,1)(2x - 1) on a grid
    ind = lambda x: 1.0 if 0.0 <= x < 1.0 else 0.0
    for x in np.arange(-0.5, 1.6, 0.0625):
        assert ind(x) == ind(2 * x) + ind(2 * x - 1)


def test_d4_constraint_equations():
    f = d4_filter()
    r3 = np.sqrt(3.0)
    cand = np.array([1 + r3, 3 + r3, 3 - r3, 1 - r3]) / (4 * np.sqrt(2.0))
    assert np.allclose(f.h, cand, atol=TOL)
    assert abs(f.h.sum() - np.sqrt(2.0)) < TOL
    assert abs(shifted_inner(f.h, f.h, 1)) < TOL
    # one vanishing moment beyond the zeroth
    assert abs(f.g.sum()) < TOL
    assert abs(sum(l * f.g[l] for l in range(4))) < TOL


def test_cascade_haar_is_indicator():
    table = cascade(haar_filter(), 8)
    assert np.all(table.values[:-1] == 1.0)
    assert table.values[-1] == 0.0
    assert table.eval(0.0) == 1.0
    # exact at every grid point; interpolation only ramps inside the last cell
    assert table.eval(1.0 - 2.0 ** -8) == 1.0
    assert table.eval(0.5) == 1.0
    assert table.eval(1.0) == 0.0
    assert table.eval(-0.1) == 0.0


def test_eval_is_zero_far_outside_the_support(filt):
    # runs under the suite's error::RuntimeWarning, so an out-of-range cast
    # of the cell index would fail here
    table = cascade(filt, 10)
    far = np.array([1e300, -1e300, 1e20, -1e20, np.inf, -np.inf, np.nan])
    assert np.array_equal(table.eval(far), np.zeros(far.size))
    assert table.eval(1e300) == 0.0


def test_eval_inside_the_support_keeps_its_interpolation(filt):
    # the clamped-cell formula, written out, at every grid point, every
    # midpoint and random points on and around the support
    table = cascade(filt, 10)
    last = table.values.size - 1
    x = np.concatenate([np.arange(-4, last + 5) / 1024.0, (np.arange(last) + 0.5) / 1024.0,
                        np.random.default_rng(5).uniform(-0.5, filt.support + 0.5, 5000)])
    t = x * 1024.0
    idx = np.clip(np.floor(t).astype(np.int64), 0, last - 1)
    frac = np.clip(t - idx, 0.0, 1.0)
    want = (1.0 - frac) * table.values[idx] + frac * table.values[idx + 1]
    want = np.where((t >= 0.0) & (t <= last), want, 0.0)
    assert np.array_equal(table.eval(x), want)


def test_cascade_d4_integer_values():
    table = cascade(d4_filter(), 10)
    step = 1 << 10
    assert table.values[0] == 0.0
    assert table.values[step] == pytest.approx(D4_PHI1, abs=1e-10)
    assert table.values[2 * step] == pytest.approx(D4_PHI2, abs=1e-10)
    assert table.values[3 * step] == 0.0


def test_cascade_partition_of_unity(filt):
    table = cascade(filt, 10)
    assert partition_of_unity_residual(table) < 1e-6


def test_cascade_refinement_residual(filt):
    table = cascade(filt, 10)
    assert refinement_residual(table) < 1e-8


def test_cascade_rejects_bad_resolution():
    with pytest.raises(ValueError):
        cascade(haar_filter(), 0)


def test_phi_eval_examples():
    f = haar_filter()
    table = cascade(f, 10)
    s0 = box_sieve(f, 2, 0, 1)
    assert phi_eval(s0, table, (0, 0), (0.5, 0.5)) == pytest.approx(1.0)
    s1 = box_sieve(f, 2, 1, 2)
    assert phi_eval(s1, table, (0, 0), (0.2, 0.2)) == pytest.approx(2.0)
    assert phi_eval(s1, table, (0, 0), (2.0, 2.0)) == 0.0
    d4t = cascade(d4_filter(), 10)
    s4 = box_sieve(d4_filter(), 1, 0, 4)
    assert phi_eval(s4, d4t, (0,), (5.0,)) == 0.0


def test_phi_eval_partition_of_unity_scaled():
    # summing over the full box at level j reproduces 2^(jd/2) at grid points
    for name, j, d in (("haar", 1, 2), ("d4", 2, 1)):
        f = filter_by_name(name)
        table = cascade(f, 10)
        sieve = box_sieve(f, d, j, 3 * (1 << j))
        rng = np.random.default_rng(5)
        for _ in range(20):
            # dyadic interior points, exact in the table
            x = rng.integers(0, (1 << 10), size=d) / float(1 << 10)
            total = sum(phi_eval(sieve, table, gamma, x) for gamma in sieve.K)
            assert total == pytest.approx(2.0 ** (j * d / 2.0), abs=1e-5)


def test_phi_eval_rejects_a_translation_of_another_dimension():
    sieve = box_sieve(haar_filter(), 2, 1, 0)
    with pytest.raises(ValueError, match="sieve dimension"):
        phi_eval(sieve, cascade(haar_filter(), 4), [0], [0.5, 0.5])


def test_mother_tensor_coeff_sums():
    f = haar_filter()
    c1 = mother_tensor_coeffs(f, 1)
    assert c1[(0,)].sum() == pytest.approx(2.0, abs=TOL)      # |M| in one dimension
    assert np.allclose(c1[(0,)], np.sqrt(2.0) * f.h, atol=TOL)
    assert np.allclose(c1[(1,)], np.sqrt(2.0) * f.g, atol=TOL)
    c2 = mother_tensor_coeffs(f, 2)
    assert c2[(0, 0)].sum() == pytest.approx(4.0, abs=TOL)    # |M| = 2^d


def test_mother_tensor_coeffs_need_a_dimension():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        mother_tensor_coeffs(haar_filter(), 0)


def _tensor_identity_residual(filt, d=2, gamma_range=2):
    """Finite enumeration of sum_g' a_j(g') a_k(2*gamma + g') - |M| d_jk d_g0."""
    coeffs = mother_tensor_coeffs(filt, d)
    L = filt.length
    M_det = 2 ** d
    worst = 0.0
    ks = list(itertools.product((0, 1), repeat=d))
    gammas = list(itertools.product(range(-gamma_range, gamma_range + 1), repeat=d))
    for kj in ks:
        for kk in ks:
            for gamma in gammas:
                total = 0.0
                for gp in itertools.product(range(L), repeat=d):
                    shifted = tuple(2 * g + p for g, p in zip(gamma, gp))
                    if all(0 <= s < L for s in shifted):
                        total += coeffs[kj][gp] * coeffs[kk][shifted]
                want = M_det if (kj == kk and all(g == 0 for g in gamma)) else 0.0
                worst = max(worst, abs(total - want))
    return worst


def test_tensor_identity(filt):
    assert _tensor_identity_residual(filt) < TOL


def test_sieve_for_box_translations():
    # haar at level 1 on [0,1]: supports [g/2, (g+1)/2] must touch [0,1]
    f = haar_filter()
    assert sieve_for_box(f, 1, 1).K.ravel().tolist() == [-1, 0, 1, 2]
    assert covering_sieve(f, 2, 1).K.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_sieve_for_box_covers_unit_interval():
    f = haar_filter()
    for j in (0, 1, 3):
        sieve = sieve_for_box(f, 1, j)
        ks = sieve.K.ravel()
        assert ks.min() <= 0 and ks.max() >= (1 << j) - 1
        # full box invariant before pruning
        assert sieve.size <= (2 * sieve.w + 1) ** sieve.d


@pytest.mark.parametrize("family", [sieve_for_box, covering_sieve])
def test_sieve_families_reject_a_negative_level(family):
    with pytest.raises(ValueError, match="level must be non-negative"):
        family(haar_filter(), 1, -1)


def test_haar_orthonormality_riemann():
    # Riemann sum of products of level-1 design functions, step 2^-12
    table = cascade(haar_filter(), 12)
    step = 2.0 ** -12
    x = np.arange(-1.0, 3.0, step)
    funcs = {g: np.sqrt(2.0) * table.eval(2.0 * x - g) for g in (0, 1, 2)}
    for g1 in funcs:
        for g2 in funcs:
            integral = float(np.sum(funcs[g1] * funcs[g2]) * step)
            want = 1.0 if g1 == g2 else 0.0
            assert integral == pytest.approx(want, abs=1e-4)


def test_phi_table_csv(tmp_path):
    from wavesieve.wavelets import phi_table_to_csv
    table = cascade(haar_filter(), 3)
    path = tmp_path / "phi.csv"
    phi_table_to_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,phi"
    assert len(lines) == 1 + table.values.size
