import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from qbagents import core_math
from qbagents.core_math import (
    BetaParams,
    as_cond_prob_matrix,
    as_prob_vector,
    beta_mean,
    beta_posterior,
    kolmogorov_distance,
    regularized_incomplete_beta,
)
from qbagents.errors import ValidationError
from qbagents.inference import BetaMixture, grid_ensemble
from qbagents.postulate import Interval
from qbagents.scenarios import triangular_pieces


class TestProbVector:
    def test_clamps_tiny_negatives(self):
        p = as_prob_vector([1.0 + 5e-10, -5e-10, 0.0])
        assert p[1] == 0.0
        assert abs(p.sum() - 1.0) < 1e-15

    def test_rejects_larger_negatives(self):
        with pytest.raises(ValidationError):
            as_prob_vector([1.001, -0.001])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            as_prob_vector([0.5, 0.6])

    def test_result_readonly(self):
        p = as_prob_vector([0.5, 0.5])
        with pytest.raises(ValueError):
            p[0] = 1.0


class TestCondProbMatrix:
    def test_columns_must_normalize(self):
        with pytest.raises(ValidationError):
            as_cond_prob_matrix([[0.5, 0.5], [0.4, 0.5]])

    def test_valid_matrix(self):
        m = as_cond_prob_matrix([[0.2, 0.7], [0.8, 0.3]])
        assert np.allclose(m.sum(axis=0), 1.0)


class TestBeta:
    def test_posterior_conjugate_increment(self):
        assert beta_posterior(BetaParams(2, 3), 1, 0) == BetaParams(3, 3)

    def test_posterior_no_data(self):
        assert beta_posterior(BetaParams(1, 1), 0, 0) == BetaParams(1, 1)

    def test_posterior_from_uniform(self):
        # 771 heads in 1000 flips from a uniform prior
        post = beta_posterior(BetaParams(1, 1), 771, 229)
        assert post == BetaParams(772, 230)
        assert beta_mean(post) == pytest.approx(0.7705, abs=5e-5)
        assert beta_mean(post) == 772 / 1002

    def test_mean_values(self):
        assert beta_mean(BetaParams(1, 1)) == 0.5
        assert beta_mean(BetaParams(2, 1)) == pytest.approx(2 / 3, abs=1e-15)

    def test_rejects_nonpositive_params(self):
        with pytest.raises(ValidationError):
            BetaParams(0.0, 1.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValidationError):
            beta_posterior(BetaParams(1, 1), -1, 0)


class TestIncompleteBeta:
    def test_endpoints(self):
        for a, b in [(1, 1), (2.5, 0.7), (5, 3)]:
            assert regularized_incomplete_beta(0.0, a, b) == 0.0
            assert regularized_incomplete_beta(1.0, a, b) == 1.0

    def test_uniform_cdf(self):
        assert regularized_incomplete_beta(0.5, 1, 1) == pytest.approx(0.5, abs=1e-15)

    def test_symmetric_midpoint(self):
        # Beta(2,2) is symmetric about 1/2; verify with a trapezoid oracle too.
        x = np.linspace(0.0, 0.5, 100_001)
        pdf = x * (1 - x) / special.beta(2, 2)
        oracle = np.trapezoid(pdf, x)
        assert oracle == pytest.approx(0.5, abs=1e-9)
        assert regularized_incomplete_beta(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("x", [0.2, 0.5, 0.9])
    def test_against_trapezoid_quadrature(self, a, b, x):
        grid = np.linspace(0.0, x, 100_001)
        pdf = grid ** (a - 1) * (1 - grid) ** (b - 1) / special.beta(a, b)
        oracle = np.trapezoid(pdf, grid)
        assert regularized_incomplete_beta(x, a, b) == pytest.approx(oracle, abs=1e-9)

    def test_monotone_in_x(self):
        xs = np.linspace(0, 1, 101)
        vals = [regularized_incomplete_beta(x, 3.2, 1.7) for x in xs]
        assert np.all(np.diff(vals) >= 0)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(1.5, 1, 1)
        with pytest.raises(ValidationError):
            regularized_incomplete_beta(0.5, -1, 1)


class TestScalarKernels:
    """The scalar ``betainc`` and ``betaln`` that the step's closed forms call
    (``core_math.scalar``) return the ufuncs' bits, so a scipy whose two
    routines part fails here instead of changing trace bytes."""

    @staticmethod
    def sample(n=20_000):
        # shapes from 0.5 to 2e5, a third of them half-integers, with x down
        # to 1e-300, plus the counts-and-edges lattice the registry priors reach
        rng = np.random.default_rng(61021)
        shapes = np.exp(rng.uniform(np.log(0.5), np.log(2e5), (2, n)))
        shapes = np.where(rng.random((2, n)) < 1 / 3, np.ceil(2 * shapes) / 2, shapes)
        x = np.where(rng.random(n) < 0.2, 10.0 ** rng.uniform(-300, -1, n), rng.random(n))
        counts = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 10.5, 101.0, 1001.5, 2001.0])
        edges = np.array([0.0, 1e-300, 1e-12, 0.1, 0.3, 0.5, 0.7, 0.9, 1 - 1e-12, 1.0])
        a, b, e = (v.ravel() for v in np.meshgrid(counts, counts, edges))
        return np.concatenate((shapes[0], a)), np.concatenate((shapes[1], b)), \
            np.concatenate((x, e))

    @staticmethod
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    def test_betainc_at_x_and_its_mirror(self):
        a, b, x = self.sample()
        betainc = core_math.scalar.betainc
        for args in ((a, b, x), (b, a, 1.0 - x)):
            scalar = [betainc(*v) for v in zip(*(c.tolist() for c in args))]
            assert np.array_equal(self.bits(scalar), self.bits(special.betainc(*args)))

    def test_betaln(self):
        a, b, _x = self.sample()
        scalar = [core_math.scalar.betaln(p, q) for p, q in zip(a.tolist(), b.tolist())]
        assert np.array_equal(self.bits(scalar), self.bits(special.betaln(a, b)))


def reference_tail_fraction(a, b, x):
    # core_math._tail_fraction as it was before its loop was unrolled: the
    # two terms of step m in a tuple, |v| > tiny by abs
    tiny = 1e-300
    s = a + b
    c, d = 1.0, 1.0 - s * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    g, m = d, 1
    while True:
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (s + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            g *= c * d
        if abs(c * d - 1.0) < 4e-16:
            return g
        m += 1


def reference_beta_piece(alpha, beta, lo, hi, mass=True):
    # core_math.beta_piece as it was before its edge pieces called betainc
    # directly: every truncation outside the tails went through _inc_difference
    s = alpha + beta
    if lo <= 0.0 and hi >= 1.0:
        return core_math.scalar.betaln(alpha, beta) if mass else None, alpha / s
    mu = alpha / s
    reach = core_math.BETA_TAIL_Z * math.sqrt(mu * (1.0 - mu) / (s + 1.0))
    if mu - hi > reach:
        return core_math._tail_piece(alpha, beta, lo, hi)
    if lo - mu > reach:
        log_mass, mean = core_math._tail_piece(beta, alpha, 1.0 - hi, 1.0 - lo)
        return log_mass, 1.0 - mean
    z, z1 = core_math._inc_difference((alpha, alpha + 1.0), beta, lo, hi)
    return (core_math.scalar.betaln(alpha, beta) + math.log(z) if mass else None,
            mu * z1 / z)


def _outcome(f, *args):
    """repr of f(*args), or the class of what it raised."""
    try:
        return repr(f(*args))
    except (ValueError, ZeroDivisionError) as err:
        return type(err).__name__


class TestTailKernels:
    """The tail fraction and the truncated pieces give the bits of their
    reference forms, which the trace bytes of the Beta-count agents rest on."""

    def test_tail_fraction_matches_the_reference(self):
        # 10^5 cases, x <= a / (a + b), a and b in [0.5, 3000] (uniform,
        # log-uniform and the half-integer counts a run reaches); x from the
        # mean down to 1e-300
        rng = np.random.default_rng(80172)
        n = 100_000
        a, b = (np.where(rng.random(n) < 0.5, rng.uniform(0.5, 3000.0, n),
                         np.exp(rng.uniform(np.log(0.5), np.log(3000.0), n)))
                for _ in range(2))
        a = np.where(rng.random(n) < 0.2, np.ceil(2 * a) / 2, a)
        top = a / (a + b)
        u = np.where(rng.random(n) < 0.1, 10.0 ** rng.uniform(-300, 0, n), rng.random(n))
        x = np.where(rng.random(n) < 0.02, top, top * u)
        assert np.all((x > 0) & (x <= top))
        for args in zip(a.tolist(), b.tolist(), x.tolist()):
            assert core_math._tail_fraction(*args) == reference_tail_fraction(*args), args

    @pytest.mark.parametrize("kind", ["lower_edge", "upper_edge", "interior"])
    def test_beta_piece_matches_the_reference(self, kind):
        rng = np.random.default_rng({"lower_edge": 1, "upper_edge": 2, "interior": 3}[kind])
        n = 10_000
        shapes = np.exp(rng.uniform(np.log(0.5), np.log(3000.0), (2, n)))
        cut = rng.random((2, n))
        lo, hi = {"lower_edge": (np.zeros(n), cut[0]),
                  "upper_edge": (cut[0], np.ones(n)),
                  "interior": (cut.min(axis=0), cut.max(axis=0))}[kind]
        cases = list(zip(*(v.tolist() for v in (*shapes, lo, hi))))
        nan = float("nan")
        cases += [(nan, 2.0, 0.0, 0.7), (2.0, nan, 0.0, 0.7), (2.0, 3.0, 0.0, nan),
                  (2.0, 3.0, nan, 1.0), (2.0, 3.0, nan, 0.7), (2.0, 3.0, 0.2, nan),
                  (nan, nan, nan, nan), (1.5, 2.5, 0.0, 0.0), (1.5, 2.5, 1.0, 1.0)]
        for case in cases:
            for mass in (True, False):
                assert (_outcome(core_math.beta_piece, *case, mass)
                        == _outcome(reference_beta_piece, *case, mass)), (case, mass)


def lower_moments(a, b, x):
    """(mass, first moment) of t^(a-1) (1-t)^(b-1) on [0, x], in mpmath."""
    a, b, x = mp.mpf(a), mp.mpf(b), mp.mpf(x)
    return (x**a / a * mp.hyp2f1(a, 1 - b, a + 1, x),
            x**(a + 1) / (a + 1) * mp.hyp2f1(a + 1, 1 - b, a + 2, x))


def piece_moments(a, b, lo, hi):
    """(mass, first moment) of t^(a-1) (1-t)^(b-1) on [lo, hi], one edge being
    0 or 1, in mpmath."""
    if lo <= 0.0:
        return lower_moments(a, b, hi)
    m0, m1 = lower_moments(b, a, 1 - mp.mpf(lo))  # in 1 - t
    return m0, m0 - m1


class TestThinPieces:
    """A triangular prior whose peak lies next to an edge has one piece so
    thin that betainc underflows to 0 on it once the counts grow; its mass and
    mean then come from the tail forms in log space."""

    @pytest.mark.parametrize("peak", [1e-6, 1e-9, 1e-12, 0.99999, 1 - 1e-12])
    @mp.workdps(50)
    def test_triangle_beliefs_match_mpmath(self, peak):
        pieces = triangular_pieces(peak)
        prior = grid_ensemble(Interval(), 101)
        for a, b in [(0, 0), (1, 0), (60, 940), (120, 880), (600, 400), (880, 120), (5, 995),
                     (995, 5)]:
            posterior = [(c, al + a, be + b, lo, hi) for c, al, be, lo, hi in pieces]
            moments = [piece_moments(*p[1:]) for p in posterior]
            for (_c, *piece), (m0, m1) in zip(posterior, moments):
                log_mass, mean = core_math.beta_piece(*piece)
                assert log_mass == pytest.approx(float(mp.log(m0)), rel=1e-14, abs=1e-14)
                assert piece[2] <= mean <= piece[3], (a, b, piece)
                assert mean == pytest.approx(float(m1 / m0), rel=1e-4), (a, b, piece)
            exact = (sum(mp.e ** c * m1 for (c, *_p), (_m0, m1) in zip(posterior, moments))
                     / sum(mp.e ** c * m0 for (c, *_p), (m0, _m1) in zip(posterior, moments)))
            mean = BetaMixture(prior, pieces, (a, b)).mean()
            assert 0.0 <= mean <= 1.0
            assert mean == pytest.approx(float(exact), rel=1e-14), (a, b)


class TestKolmogorov:
    def test_identical_betas(self):
        assert kolmogorov_distance(BetaParams(1, 1), BetaParams(1, 1)) == 0.0

    def test_beta21_vs_beta12(self):
        # CDFs are x^2 and 2x - x^2; |2x^2 - 2x| peaks at x = 1/2 with value 1/2.
        x = np.linspace(0, 1, 200_001)
        oracle = np.max(np.abs(x ** 2 - (2 * x - x ** 2)))
        assert oracle == pytest.approx(0.5, abs=1e-9)
        d = kolmogorov_distance(BetaParams(2, 1), BetaParams(1, 2))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_exact(self):
        a, b = BetaParams(3.3, 1.2), BetaParams(0.8, 4.0)
        assert kolmogorov_distance(a, b) == kolmogorov_distance(b, a)

    def test_beta_pairs_match_mpmath(self):
        # the sup of |I_x(a) - I_x(b)| at 50 digits: each local extreme on a
        # 2001-point grid, polished by findroot on the density difference
        rng = np.random.default_rng(11)
        xs = np.linspace(0.0, 1.0, 2001)
        worst = 0.0
        with mp.workdps(50):
            for _ in range(12):
                a, b = (BetaParams(*rng.uniform(0.3, 8.0, 2)) for _ in range(2))
                gap = np.abs(special.betainc(a.alpha, a.beta, xs)
                             - special.betainc(b.alpha, b.beta, xs))
                peaks = [i for i in range(1, 2000) if gap[i] >= max(gap[i - 1], gap[i + 1])]

                def pdf(p, x):
                    return x**(p.alpha - 1) * (1 - x)**(p.beta - 1) / mp.beta(p.alpha, p.beta)

                def cdf(p, x):
                    return mp.betainc(p.alpha, p.beta, 0, x, regularized=True)

                sup = max(abs(cdf(a, x) - cdf(b, x)) for x in (
                    mp.findroot(lambda x: pdf(a, x) - pdf(b, x),
                                (mp.mpf(xs[i - 1]), mp.mpf(xs[i + 1])), solver="anderson")
                    for i in peaks))
                worst = max(worst, abs(kolmogorov_distance(a, b) - float(sup)))
        assert worst <= 1e-13

    def test_triangle_inequality_on_random_betas(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            ps = [BetaParams(rng.uniform(0.3, 8), rng.uniform(0.3, 8))
                  for _ in range(3)]
            dab = kolmogorov_distance(ps[0], ps[1])
            dbc = kolmogorov_distance(ps[1], ps[2])
            dac = kolmogorov_distance(ps[0], ps[2])
            assert dac <= dab + dbc + 1e-12


class TestSmallMatrixKernels:
    """``matmul`` and ``inverse``: Python-float products and Gauss-Jordan
    inverses in a fixed order, for the matrices a run is built from."""

    def test_matmul_adds_each_entry_left_to_right(self):
        rng = np.random.default_rng(71)
        for shape in ((4, 4, 4), (2, 4, 4), (3, 4, 2), (1, 3, 1)):
            a, b = rng.normal(size=shape[:2]), rng.normal(size=shape[1:])
            expected = [[sum_left(a[i], b[:, k]) for k in range(shape[2])]
                        for i in range(shape[0])]
            assert core_math.matmul(a, b).tolist() == expected
            assert np.allclose(core_math.matmul(a, b), a @ b, rtol=1e-14, atol=1e-14)

    def test_inverse_matches_lapack_and_pivots(self):
        rng = np.random.default_rng(72)
        cases = [rng.normal(size=(n, n)) + n * np.eye(n)
                 for n in (1, 2, 3, 4, 6) for _ in range(50)]
        cases += [np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0],
                                                                [0.0, 1.0, 3.0]])]
        for m in cases:
            inv = core_math.inverse(m)
            assert np.allclose(inv, np.linalg.inv(m), rtol=1e-12, atol=1e-13)
            assert np.allclose(inv @ m, np.eye(len(m)), rtol=0, atol=1e-12)


def sum_left(a, b) -> float:
    total = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        total = total + x * y
    return total
