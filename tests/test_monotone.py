"""
Resolvent, regularization, and conjugate tests for the graph toolkit.

Independent oracles: scipy.optimize.brentq per scalar, the Cardano closed
form for the cubic graph, analytic conjugates, and dense grid maximization.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import optimize

import svch.monotone as mn

RNG = np.random.default_rng(99)
GRAPH_NAMES = ("quartic_double_well", "sixth_power_well", "exponential", "linear")
LAMBDAS = (1.0, 1e-1, 1e-2, 1e-3)


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


CLOSED_LAMBDAS = TestCubicClosedForm.CLOSED_LAMBDAS


def resolvent_residual(graph, lam, J, r):
    """|J + lam*beta(J) - r| and its bound: the rounding floor of each graph.

    The exponential well's floor is exp's conditioning, (1 + |J|) ulps of
    |r|, plus a few units of the subnormal range, where r has fewer bits.
    """
    res = np.abs(J + lam * graph.beta(J) - r)
    if graph.growth == "exponential":
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

    def test_midpoint_convexity(self, quartic):
        a = RNG.uniform(-4, 4, size=50)
        b = RNG.uniform(-4, 4, size=50)
        mid = mn.conjugate(quartic, 0.5 * (a + b))
        avg = 0.5 * (mn.conjugate(quartic, a) + mn.conjugate(quartic, b))
        assert np.all(mid <= avg + 1e-7)


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
        assert mn.polynomial_degree(mn.make_graph("quartic_double_well")) == 3
        assert mn.polynomial_degree(mn.make_graph("sixth_power_well")) == 5
        assert mn.polynomial_degree(mn.make_graph("exponential")) is None

    def test_perturbations(self):
        p = mn.make_perturbation("negative_identity", 2.0)
        r = RNG.uniform(-3, 3, size=20)
        assert np.allclose(p.pi(r), -2.0 * r)
        assert np.allclose(p.pi_hat(r), -r**2)
        assert p.lipschitz == 2.0
        z = mn.make_perturbation("zero")
        assert np.all(z.pi(r) == 0.0) and z.lipschitz == 0.0

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
