"""
Resolvent, regularization, and conjugate tests for the graph toolkit.

Independent oracles: scipy.optimize.brentq per scalar, the Cardano closed
form for the cubic graph, analytic conjugates, dense grid maximization, and
the golden-section conjugate search of conftest.
"""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import optimize

import svch.monotone as mn

from conftest import NoConvergence, golden_section_conjugate

RNG = np.random.default_rng(99)
GRAPH_NAMES = ("quartic_double_well", "sixth_power_well", "exponential", "linear")
LAMBDAS = (1.0, 1e-1, 1e-2, 1e-3)


def bits(a):
    """The float64 bit patterns of a, to compare arrays bitwise, nan included."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def brentq_resolvent(graph, lam, r):
    """Independent scalar root of J + lam*beta(J) = r, bracketed by doubling."""
    b = 1.0
    with np.errstate(over="ignore"):  # beta(b) may overflow to inf past the root
        while b + lam * graph.beta(b) < abs(r):
            b *= 2.0
        return optimize.brentq(lambda x: x + lam * graph.beta(x) - r, -b, b,
                               xtol=1e-15, rtol=1e-15)


def cardano_cubic_resolvent(lam, r):
    """Closed-form real root of x + lam*x^3 = r."""
    p = 1.0 / lam
    q = r / lam
    disc = np.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    return np.cbrt(q / 2.0 + disc) + np.cbrt(q / 2.0 - disc)


class TestResolvent:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_matches_brentq(self, name, lam):
        graph = mn.make_graph(name)
        r = RNG.uniform(-5, 5, size=40)
        got = mn.resolvent(graph, lam, r)
        want = np.array([brentq_resolvent(graph, lam, ri) for ri in r])
        assert np.max(np.abs(got - want)) < 1e-11

    def test_cubic_closed_form(self):
        graph = mn.make_graph("quartic_double_well")
        for lam in LAMBDAS:
            r = RNG.uniform(-10, 10, size=50)
            got = mn.resolvent(graph, lam, r)
            want = cardano_cubic_resolvent(lam, r)
            assert np.max(np.abs(got - want)) < 1e-9 * (1 + np.max(np.abs(want)))

    def test_unit_root(self):
        # J + J^3 = 2 has the exact root J = 1
        graph = mn.make_graph("quartic_double_well")
        assert mn.resolvent(graph, 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear_closed_form(self):
        graph = mn.make_graph("linear")
        r = RNG.uniform(-3, 3, size=17)
        assert np.allclose(mn.resolvent(graph, 0.25, r), r / 1.25, rtol=0, atol=0)

    def test_scalar_in_scalar_out(self):
        graph = mn.make_graph("exponential")
        out = mn.resolvent(graph, 0.1, 1.7)
        assert isinstance(out, float)

    def test_zero_fixed_point(self):
        for name in GRAPH_NAMES:
            graph = mn.make_graph(name)
            assert mn.resolvent(graph, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_contraction_thousand_pairs(self, name):
        graph = mn.make_graph(name)
        a = RNG.uniform(-8, 8, size=1000)
        b = RNG.uniform(-8, 8, size=1000)
        ja = mn.resolvent(graph, 0.05, a)
        jb = mn.resolvent(graph, 0.05, b)
        assert np.all(np.abs(ja - jb) <= np.abs(a - b) + 1e-11)

    @pytest.mark.parametrize("name", ["sixth_power_well", "exponential"])
    def test_each_root_independent_of_the_other_points(self, name):
        # the Newton-step graphs: a point's root must not depend on its
        # neighbours, so a stacked evaluation equals every row's and every point's own
        graph = mn.make_graph(name)
        r = np.random.default_rng(11).uniform(-6, 6, size=(3, 40))
        r[1] *= 1e-3  # rows of very different scales
        got = mn.resolvent(graph, 0.05, r)
        assert got.shape == r.shape
        for row, want in zip(r, got):
            assert np.array_equal(mn.resolvent(graph, 0.05, row), want)
        assert all(mn.resolvent(graph, 0.05, float(v)) == j
                   for v, j in zip(r.ravel(), got.ravel()))

    def test_lam_must_be_positive(self, quartic):
        with pytest.raises(ValueError):
            mn.resolvent(quartic, 0.0, 1.0)

    # every public function of lam, handed J where it takes one
    LAM_CALLS = {
        "resolvent": lambda graph, lam, r, J: mn.resolvent(graph, lam, r),
        "yosida": lambda graph, lam, r, J: mn.yosida(graph, lam, r),
        "yosida_derivative": lambda graph, lam, r, J: mn.yosida_derivative(graph, lam, r, J),
        "moreau_envelope": lambda graph, lam, r, J: mn.moreau_envelope(graph, lam, r, J),
    }

    @pytest.mark.parametrize("call", LAM_CALLS.values(), ids=LAM_CALLS.keys())
    @pytest.mark.parametrize("lam, rule", [(0.0, "> 0"), (-1.0, "> 0"), (math.nan, "finite"),
                                           (math.inf, "finite")])
    def test_lam_is_refused_in_solver_config_words(self, quartic, call, lam, rule):
        # (H2): unchecked, a NaN or inf lam gives NaN arrays, and with J given
        # lam = -1 gives finite values and lam = 0 a bare ZeroDivisionError
        r = np.array([0.5, 2.0])
        J = mn.resolvent(quartic, 1e-2, r)
        with pytest.raises(ValueError, match=rf"^lam must be {rule}, got {lam!r}, violates \(H2\)$"):
            call(quartic, lam, r, J)


class TestCubicClosedForm:
    """The quartic well's closed-form resolvent against Cardano and brentq."""

    CLOSED_LAMBDAS = (1e-4, 1e-3, 1e-2, 0.1, 1.0)

    @staticmethod
    def sample(rng):
        sign = rng.choice([-1.0, 1.0], size=2000)
        return np.concatenate([rng.uniform(-1e3, 1e3, size=2000),
                               rng.uniform(-1.0, 1.0, size=2000),
                               sign * 10.0 ** rng.uniform(-12, 3, size=2000)])

    @pytest.mark.parametrize("lam", CLOSED_LAMBDAS)
    def test_matches_cardano_and_brentq(self, quartic, lam):
        r = self.sample(np.random.default_rng(3))
        got = mn.resolvent(quartic, lam, r)
        # Cardano cancels: its own error reaches 2e-12 * (1 + |J|) at lam = 1
        want = cardano_cubic_resolvent(lam, r)
        assert np.all(np.abs(got - want) <= 1e-11 * (1.0 + np.abs(want)))
        sub = r[::50]
        want = np.array([brentq_resolvent(quartic, lam, ri) for ri in sub])
        assert np.all(np.abs(got[::50] - want) <= 2e-15 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("lam", CLOSED_LAMBDAS)
    def test_residual_at_rounding_floor(self, quartic, lam):
        r = self.sample(np.random.default_rng(4))
        J = mn.resolvent(quartic, lam, r)
        assert np.all(np.abs(J + lam * J**3 - r) <= 2e-15 * (1.0 + np.abs(r)))

    @pytest.mark.parametrize("lam", CLOSED_LAMBDAS)
    def test_odd_exactly(self, quartic, lam):
        r = self.sample(np.random.default_rng(5))
        assert np.array_equal(mn.resolvent(quartic, lam, -r), -mn.resolvent(quartic, lam, r))

    def test_in_place_steps_equal_the_formula_in_three_arrays(self):
        # the hyperbolic start and one Newton step as plain expressions; the
        # resolvent computes them in place, with three arrays of r's size alive
        import tracemalloc

        lam = 1e-2
        r = self.sample(np.random.default_rng(6))
        s = np.sqrt(3.0 * lam)
        J = (2.0 / s) * np.sinh(np.arcsinh(1.5 * s * r) / 3.0)
        lj2 = lam * J * J
        want = J - (J + J * lj2 - r) / (1.0 + 3.0 * lj2)
        before = r.copy()
        tracemalloc.start()
        try:
            got = mn._cubic_resolvent(lam, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == want.tobytes() and np.array_equal(r, before)
        assert peak < 3.5 * r.nbytes
        assert mn._cubic_resolvent(lam, np.asarray(r[7])) == want[7]


CLOSED_LAMBDAS = TestCubicClosedForm.CLOSED_LAMBDAS


def resolvent_residual(graph, lam, J, r):
    """|J + lam*beta(J) - r| and its bound: the rounding floor of each graph.

    The exponential well's floor is exp's conditioning, (1 + |J|) ulps of
    |r|, plus a few units of the subnormal range, where r has fewer bits.
    """
    res = np.abs(J + lam * graph.beta(J) - r)
    if graph.degree is None:
        return res, 4e-16 * (1.0 + np.abs(J)) * np.abs(r) + 1e-322
    return res, 2e-15 * (1.0 + np.abs(r))


class TestFixedCostResolvents:
    """TestCubicClosedForm's standard for every registered graph, |r| up to 1e300."""

    @staticmethod
    def sample(rng):
        sign = rng.choice([-1.0, 1.0], size=2000)
        return np.concatenate([TestCubicClosedForm.sample(rng), [0.0, 1e300, -1e300],
                               sign * 10.0 ** rng.uniform(-12, 300, size=2000)])

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", CLOSED_LAMBDAS)
    def test_matches_brentq(self, name, lam):
        graph = mn.make_graph(name)
        r = self.sample(np.random.default_rng(6))[::40]
        got = mn.resolvent(graph, lam, r)
        want = np.array([brentq_resolvent(graph, lam, ri) for ri in r])
        assert np.all(np.abs(got - want) <= 2e-15 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", CLOSED_LAMBDAS)
    def test_odd_bounded_and_at_rounding_floor(self, name, lam):
        graph = mn.make_graph(name)
        r = self.sample(np.random.default_rng(7))
        J = mn.resolvent(graph, lam, r)
        assert np.array_equal(mn.resolvent(graph, lam, -r), -J)
        assert np.all(np.abs(J) <= np.abs(r))
        res, bound = resolvent_residual(graph, lam, J, r)
        assert np.all(res <= bound)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_finite_and_silent_but_for_underflow(self, name):
        # the closed form itself raises no floating-point warning but
        # underflow on finite input; resolvent returns non-finite input
        # non-finite, without a warning.  At lam = 1e-12 the exponential root
        # for |r| near 1e300 lies past 700, where cosh overflows
        graph = mn.make_graph(name)
        r = self.sample(np.random.default_rng(8))
        with warnings.catch_warnings(), np.errstate(all="warn", under="ignore"):
            warnings.simplefilter("error")
            for lam in CLOSED_LAMBDAS + (1e-12,):
                assert np.all(np.isfinite(graph.resolvent_closed(lam, r)))
                bad = mn.resolvent(graph, lam, np.array([np.inf, -np.inf, np.nan]))
                assert not np.isfinite(bad).any()


def libm_pow(x, n):
    """math.pow(x, n) for integer n >= 0, with inf where it overflows."""
    try:
        return math.pow(x, n)
    except OverflowError:
        return math.copysign(math.inf, x) if n % 2 else math.inf


def libm_quintic_resolvent(lam, r):
    """The sixth-power well's six Newton steps on one point, powers by libm pow."""
    a = abs(r)
    J = min(a, math.pow(a, 0.2) * math.pow(lam, -0.2))
    for _ in range(6):
        l4 = lam * math.pow(J, 4)
        J = J - (J + J * l4 - a) / (1.0 + 5.0 * l4)
    return math.copysign(J, r)


def assert_matches_libm(got, want):
    # 1e-15 relative; a subnormal value to one subnormal spacing, which the
    # oracle's own double rounding (pow, then the division) already reaches
    want = np.asarray(want, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = np.isnan(want) | (got == want)
    with np.errstate(invalid="ignore"):
        ok |= np.abs(got - want) <= np.maximum(1e-15 * np.abs(want),
                                               np.finfo(float).smallest_subnormal)
    assert ok.all(), (got[~ok], want[~ok])


class TestPolynomialPowers:
    """Integer powers by multiplication against per-point libm pow."""

    NAMES = ("quartic_double_well", "sixth_power_well", "linear")
    A = np.logspace(-100, 70, 1701)
    R = np.concatenate([A, -A])
    EXTREMES = np.array([1e100, -1e100, np.nan])

    @staticmethod
    def libm(graph, r):
        # beta, beta_hat and beta_prime of r^p at every point
        p = graph.degree
        return {"beta": [libm_pow(x, p) for x in r],
                "beta_hat": [libm_pow(x, p + 1) / (p + 1) for x in r],
                "beta_prime": [p * libm_pow(x, p - 1) for x in r]}

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("r", [R, EXTREMES], ids=["log_spaced", "extremes"])
    def test_graph_functions_match_libm(self, name, r):
        graph = mn.make_graph(name)
        for field, want in self.libm(graph, r).items():
            with np.errstate(all="ignore"):
                assert_matches_libm(getattr(graph, field)(r), want)

    def test_python_floats_overflow_to_signed_inf(self):
        # Python's float ** raises OverflowError; its multiplication gives inf
        graph = mn.make_graph("sixth_power_well")
        assert graph.beta(-1e100) == -np.inf
        assert graph.beta_hat(-1e100) == graph.beta_prime(-1e100) == np.inf
        assert mn.make_graph("quartic_double_well").beta_hat(1e100) == np.inf

    @pytest.mark.parametrize("lam", LAMBDAS + (1e-4,))
    def test_quintic_resolvent_matches_libm(self, lam):
        graph = mn.make_graph("sixth_power_well")
        r = np.concatenate([self.R, self.EXTREMES])
        assert_matches_libm(mn.resolvent(graph, lam, r),
                            [libm_quintic_resolvent(lam, x) for x in r])

    @pytest.mark.parametrize("name", NAMES)
    def test_resolvent_and_envelope_silent_at_extremes(self, name):
        graph = mn.make_graph(name)
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            for lam in LAMBDAS:
                for f in (mn.resolvent, mn.moreau_envelope):
                    out = f(graph, lam, self.EXTREMES)
                    assert np.isfinite(out[:2]).all() and np.isnan(out[2])
                    assert math.isfinite(f(graph, lam, -1e100))


@pytest.mark.parametrize("name", GRAPH_NAMES)
def test_out_is_bitwise_the_allocating_call(name):
    # the solver writes J and the Yosida slope into its workspace; non-finite
    # and overflowing points stay silent there too
    graph = mn.make_graph(name)
    r = np.concatenate([RNG.uniform(-6, 6, 10),
                        [0.0, 800.0, -1e300, 1e300, np.inf, -np.inf, np.nan, 2.0]]).reshape(2, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J = mn.resolvent(graph, 1e-2, r)
        rho = mn.yosida_derivative(graph, 1e-2, r, J)
        out = np.empty_like(r)
        assert mn.resolvent(graph, 1e-2, r, out) is out
        assert out.tobytes() == J.tobytes()
        slope = np.empty_like(r)
        assert mn.yosida_derivative(graph, 1e-2, r, out, slope) is slope
        assert slope.tobytes() == rho.tobytes()


class TestYosida:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_lipschitz_bound(self, name, lam):
        graph = mn.make_graph(name)
        a = RNG.uniform(-6, 6, size=300)
        b = RNG.uniform(-6, 6, size=300)
        fa = mn.yosida(graph, lam, a)
        fb = mn.yosida(graph, lam, b)
        assert np.all(np.abs(fa - fb) <= np.abs(a - b) / lam * (1 + 1e-10) + 1e-12)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_dominated_by_graph(self, name, lam):
        graph = mn.make_graph(name)
        r = RNG.uniform(-5, 5, size=200)
        assert np.all(np.abs(mn.yosida(graph, lam, r)) <= np.abs(graph.beta(r)) + 1e-11)

    def test_monotone(self, quartic):
        r = np.sort(RNG.uniform(-5, 5, size=200))
        vals = mn.yosida(quartic, 0.01, r)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_linear_graph_closed_form(self):
        graph = mn.make_graph("linear")
        r = RNG.uniform(-4, 4, size=9)
        assert np.allclose(mn.yosida(graph, 0.5, r), r / 1.5, rtol=1e-15, atol=1e-15)

    def test_derivative_range_and_value(self, quartic):
        r = RNG.uniform(-4, 4, size=100)
        lam = 0.02
        d = mn.yosida_derivative(quartic, lam, r)
        assert np.all(d >= 0) and np.all(d <= 1.0 / lam)
        h = 1e-6
        fd = (mn.yosida(quartic, lam, r + h) - mn.yosida(quartic, lam, r - h)) / (2 * h)
        assert np.max(np.abs(d - fd)) < 1e-5 * (1 + np.max(np.abs(d)))

    def test_derivative_past_exponential_overflow(self):
        # cosh(J) overflows past J = 710.5, where the derivative is its limit 1/lam
        graph = mn.make_graph("exponential")
        lam = 1e-12
        r = np.concatenate([RNG.uniform(-30, 30, 100), np.logspace(290, 300, 20)])
        r = np.concatenate([r, -r])
        d = mn.yosida_derivative(graph, lam, r)
        with np.errstate(over="ignore"):
            bp = np.cosh(mn.resolvent(graph, lam, r))
        big = np.isinf(bp)
        assert big.any() and np.all(d[big] == 1.0 / lam)
        assert np.array_equal(d[~big], bp[~big] / (1.0 + lam * bp[~big]))
        assert np.all((d >= 0) & (d <= (1.0 + 1e-15) / lam))  # one rounding above 1/lam at most
        assert mn.yosida_derivative(graph, lam, 1e300) == 1.0 / lam


class TestEnvelope:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_sandwich(self, name, lam):
        graph = mn.make_graph(name)
        r = RNG.uniform(-4, 4, size=200)
        env = mn.moreau_envelope(graph, lam, r)
        assert np.all(env >= -1e-14)
        assert np.all(env <= graph.beta_hat(r) + 1e-12)

    def test_derivative_is_regularized_graph(self, quartic):
        r = RNG.uniform(-4, 4, size=100)
        lam = 0.05
        h = 1e-6
        fd = (mn.moreau_envelope(quartic, lam, r + h)
              - mn.moreau_envelope(quartic, lam, r - h)) / (2 * h)
        assert np.max(np.abs(fd - mn.yosida(quartic, lam, r))) < 1e-5

    def test_quadratic_rate_at_small_lam(self, quartic):
        # envelope -> beta_hat pointwise with gap lam/2 * beta(r)^2 + o(lam)
        r = 1.7
        for lam in (1e-3, 1e-4):
            gap = quartic.beta_hat(r) - mn.moreau_envelope(quartic, lam, r)
            want = 0.5 * lam * quartic.beta(r) ** 2
            assert gap == pytest.approx(want, rel=0.05)

    def test_scalar_overflow_is_inf(self):
        graph = mn.make_graph("sixth_power_well")
        assert mn.moreau_envelope(graph, 1e-4, 1e300) == np.inf
        assert mn.moreau_envelope(graph, 1e-4, np.array([1e300]))[0] == np.inf


class TestConjugate:
    def test_analytic_quartic(self):
        # conjugate of r^4/4 is (3/4)|s|^{4/3}
        graph = mn.make_graph("quartic_double_well")
        s = RNG.uniform(-5, 5, size=30)
        want = 0.75 * np.abs(s) ** (4.0 / 3.0)
        assert np.max(np.abs(mn.conjugate(graph, s) - want)) < 1e-8

    def test_analytic_linear(self):
        graph = mn.make_graph("linear")
        s = RNG.uniform(-4, 4, size=30)
        assert np.max(np.abs(mn.conjugate(graph, s) - 0.5 * s**2)) < 1e-8

    def test_analytic_exponential(self):
        # conjugate of cosh - 1 is s*asinh(s) - sqrt(1+s^2) + 1
        graph = mn.make_graph("exponential")
        s = RNG.uniform(-5, 5, size=30)
        want = s * np.arcsinh(s) - np.sqrt(1 + s**2) + 1.0
        assert np.max(np.abs(mn.conjugate(graph, s) - want)) < 1e-8

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_dense_grid_oracle(self, name):
        graph = mn.make_graph(name)
        s = RNG.uniform(-3, 3, size=10)
        got = mn.conjugate(graph, s)
        for si, gi in zip(s, got):
            b = 1.0
            while graph.beta(b) < 10 * abs(si) + 1:
                b *= 2
            grid = np.linspace(-b, b, 200001)
            want = np.max(si * grid - graph.beta_hat(grid))
            assert gi == pytest.approx(max(want, 0.0), abs=1e-4)

    @pytest.mark.parametrize("name", ("quartic_double_well", "sixth_power_well",
                                      "exponential"))
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_fenchel_young_residual(self, name, lam):
        # equality case of Fenchel-Young at s = beta(r), within 1e-6
        graph = mn.make_graph(name)
        r = RNG.uniform(-2.5, 2.5, size=50)
        s = graph.beta(r)
        residual = graph.beta_hat(r) + mn.conjugate(graph, s) - r * s
        assert np.max(np.abs(residual)) < 1e-6

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_young_inequality(self, name):
        graph = mn.make_graph(name)
        r = RNG.uniform(-3, 3, size=60)
        s = RNG.uniform(-6, 6, size=60)
        gap = graph.beta_hat(r) + mn.conjugate(graph, s) - r * s
        assert np.min(gap) > -1e-8

    def test_nonnegative_and_zero_at_origin(self, quartic):
        assert mn.conjugate(quartic, 0.0) == 0.0
        assert np.all(mn.conjugate(quartic, RNG.uniform(-9, 9, size=40)) >= 0.0)
        # every graph's conjugate is zero at the origin and even bitwise
        rng = np.random.default_rng(5)
        s = np.concatenate([rng.uniform(-60, 60, size=200), np.geomspace(1e-300, 1e300, 200),
                            [0.0, -0.0, 1.6e-8, 1e154, 1.7e308, np.inf, np.nan]])
        for name in GRAPH_NAMES:
            graph = mn.make_graph(name)
            assert mn.conjugate(graph, 0.0) == 0.0
            assert bits(mn.conjugate(graph, -s)) == bits(mn.conjugate(graph, s))

    def test_midpoint_convexity(self, quartic):
        a = RNG.uniform(-4, 4, size=50)
        b = RNG.uniform(-4, 4, size=50)
        mid = mn.conjugate(quartic, 0.5 * (a + b))
        avg = 0.5 * (mn.conjugate(quartic, a) + mn.conjugate(quartic, b))
        assert np.all(mid <= avg + 1e-7)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    @pytest.mark.parametrize("s", (1e300, -1e300, np.inf, -np.inf))
    def test_extreme_arguments_are_silent(self, name, s):
        # the power wells' suprema (p/(p+1)) |s|^((p+1)/p) overflow at 1e300
        # and used to read nan after an invalid subtraction; the linear
        # graph's bracket search stopped at 2^600, short of 1e301; the
        # exponential well's s*asinh(s) - sqrt(1 + s^2) + 1 stays finite
        # there, but read 0.0 at s = inf
        graph = mn.make_graph(name)
        want = np.inf
        if name == "exponential" and math.isfinite(s):
            want = abs(s) * math.log(2.0 * abs(s)) - abs(s) + 1.0
        assert mn.conjugate(graph, s) == pytest.approx(want, rel=1e-9)
        assert mn.conjugate(graph, np.array([s, 2.0]))[0] == pytest.approx(want, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_nan_stays_nan_and_finite_arguments_converge(self, name):
        graph = mn.make_graph(name)
        assert math.isnan(mn.conjugate(graph, math.nan))
        # past the float range the supremum reads +inf, and nan does not spread
        got = mn.conjugate(graph, np.array([np.nan, 1.7e308, -1.7e308, 1.5]))
        assert math.isnan(got[0]) and got[1] == got[2] == np.inf
        assert got[3] == pytest.approx(mn.conjugate(graph, 1.5), abs=1e-8)

    def test_bounded_graph_raises_no_convergence(self):
        # a graph bounded by 1 has a conjugate of +inf beyond |s| = 1, and no
        # bracket B with beta(B) >= 10|s| + 1
        tanh = types.SimpleNamespace(beta=np.tanh, beta_hat=lambda r: np.log(np.cosh(r)))
        assert golden_section_conjugate(tanh, 0.0) == 0.0
        with pytest.raises(NoConvergence, match="stays below"):
            golden_section_conjugate(tanh, 5.0)

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_closed_form_against_golden_section(self, name):
        graph = mn.make_graph(name)
        s = np.concatenate([np.linspace(-50.0, 50.0, 801), np.geomspace(1e-8, 1e12, 1000),
                            -np.geomspace(1e-8, 1e12, 1000)])
        want = golden_section_conjugate(graph, s)
        assert np.all(np.abs(mn.conjugate(graph, s) - want) <= 1e-9 * want + 1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_array_equals_its_scalar_calls(self, name):
        # the search ran until every element converged, so an element's value
        # hung on its neighbours: linear at 1.5 read 1.1249999999999998 next
        # to nan and +-1.7e308, against 1.1250000000000002 alone
        graph = mn.make_graph(name)
        rng = np.random.default_rng(6)
        s = np.concatenate([[np.nan, 1.7e308, -1.7e308, 1.5], rng.uniform(-50, 50, size=500),
                            np.geomspace(1e-300, 1e308, 500) * rng.choice((-1.0, 1.0), 500),
                            [0.0, -0.0, np.inf, -np.inf, 1.6e-8, 1e154, 1e300]])
        assert bits(mn.conjugate(graph, s)) == bits([mn.conjugate(graph, x) for x in s])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_finite_below_overflow(self):
        # the search read +inf wherever s*r overflowed at a probe, up to about
        # a decade below the float range
        assert mn.conjugate(mn.make_graph("linear"), 1e154) == 5e307
        assert mn.conjugate(mn.make_graph("linear"), np.array([-1e154]))[0] == 5e307


class TestRegistry:
    def test_names_sorted(self):
        assert mn.graph_names() == ("exponential", "linear", "quartic_double_well",
                                    "sixth_power_well")

    def test_log_double_well_rejected(self):
        with pytest.raises(mn.UnsupportedGraph, match="defined only on"):
            mn.make_graph("log_double_well")

    def test_unknown_name_rejected(self):
        with pytest.raises(mn.UnsupportedGraph, match="unknown potential"):
            mn.make_graph("septic_well")

    def test_polynomial_degree(self):
        assert mn.make_graph("quartic_double_well").degree == 3
        assert mn.make_graph("sixth_power_well").degree == 5
        assert mn.make_graph("exponential").degree is None
        # one graph per name, never built per call
        for name in mn.graph_names():
            assert mn.make_graph(name) is mn.make_graph(name) is mn._GRAPHS[name]
            assert mn._GRAPHS[name].name == name

    def test_perturbations(self):
        # a reaction is its slope: pi(r) = -lipschitz * r
        p = mn.make_perturbation("negative_identity", 2.0)
        assert p == mn.LipschitzPerturbation("negative_identity", 2.0)
        assert p.lipschitz == 2.0
        z = mn.make_perturbation("zero")
        assert z.lipschitz == 0.0

    def test_unknown_perturbation(self):
        with pytest.raises(mn.UnsupportedGraph):
            mn.make_perturbation("tanh")

    @pytest.mark.parametrize("name", ("log_double_well", "septic_well"))
    def test_graph_rejection_names_the_hypothesis(self, name):
        with pytest.raises(mn.UnsupportedGraph, match=r"violates \(H1\)"):
            mn.make_graph(name)

    @pytest.mark.parametrize("scale", (np.inf, np.nan))
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match=r"finite.*\(H3\)"):
            mn.make_perturbation("negative_identity", scale)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            mn.make_perturbation("negative_identity", -1.0)


@settings(max_examples=80, deadline=None)
@given(
    r=hst.floats(-20, 20),
    lam=hst.sampled_from(LAMBDAS),
    name=hst.sampled_from(GRAPH_NAMES),
)
def test_property_resolvent_identity(r, lam, name):
    graph = mn.make_graph(name)
    J = mn.resolvent(graph, lam, r)
    assert abs(J + lam * graph.beta(J) - r) <= 1e-11 * (1 + abs(r))
    # J and beta_lam share the sign of r, and |J| <= |r|
    assert J * r >= 0.0 and abs(J) <= abs(r) + 1e-12


@settings(max_examples=60, deadline=None)
@given(r=hst.floats(-10, 10), lam=hst.floats(1e-3, 1.0))
def test_property_envelope_between_zero_and_primitive(r, lam):
    graph = mn.make_graph("quartic_double_well")
    env = mn.moreau_envelope(graph, lam, r)
    assert -1e-14 <= env <= graph.beta_hat(r) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    r=hst.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    lam=hst.sampled_from(CLOSED_LAMBDAS),
)
def test_property_cubic_closed_form(r, lam):
    graph = mn.make_graph("quartic_double_well")
    J = mn.resolvent(graph, lam, r)
    assert abs(J + lam * J**3 - r) <= 2e-15 * (1 + abs(r))
    assert mn.resolvent(graph, lam, -r) == -J
    assert J * r >= 0.0 and abs(J) <= abs(r)


@settings(max_examples=200, deadline=None)
@given(
    r=hst.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    lam=hst.sampled_from(CLOSED_LAMBDAS),
    name=hst.sampled_from(GRAPH_NAMES),
)
def test_property_fixed_cost_resolvent(r, lam, name):
    graph = mn.make_graph(name)
    J = mn.resolvent(graph, lam, r)
    assert abs(J - brentq_resolvent(graph, lam, r)) <= 2e-15 * (1.0 + abs(J))
    assert mn.resolvent(graph, lam, -r) == -J
    assert J * r >= 0.0 and abs(J) <= abs(r)
    res, bound = resolvent_residual(graph, lam, J, r)
    assert res <= bound
