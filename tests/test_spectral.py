"""
Transform, quadrature, and operator-identity tests for the cosine calculus.

The oracles here are independent of the module's transform pair, on both
sides of its matrix/DCT threshold: dense cosine matrices built here with
explicit np.cos calls (never the module's cached matrices), finite
differences on fine grids, and scipy.integrate quadrature.
"""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy import fft as sfft
from scipy import integrate

import svch.spectral as sp
from conftest import apply_pointwise, collocation_points, random_field

RNG = np.random.default_rng(1234)

# (lengths, modes) on both sides of the threshold at which the transform pair
# switches from cached matrices (m * factor * m <= 2**14 on every axis) to the
# DCT: 32 and 8 x 12 modes take the matrices at factors 2 and 3, 90 modes only
# at factor 2, the rest never
SIDES = [((1.0,), (32,)), ((1.0,), (90,)), ((1.0,), (91,)), ((3.0,), (256,)),
         ((1.0, 2.0), (8, 12)), ((2.0, 1.0), (100, 96))]
ABOVE = [((90,), 3), ((91,), 2), ((256,), 2), ((256,), 3), ((100, 96), 2), ((100, 96), 3)]


def cosine_matrix(L, m, n):
    """(n, m) matrix of the first m cosines at the n midpoints of (0, L)."""
    x = (np.arange(n) + 0.5) * L / n
    return np.cos(np.outer(x, np.arange(m)) * np.pi / L)


def _per_axis(mats, array):
    if len(mats) == 1:
        return mats[0] @ array
    return mats[0] @ array @ mats[1].T


def dense_synthesis(domain, coeffs, factor=2):
    """Independent synthesis: one explicit cosine matrix per axis."""
    return _per_axis([cosine_matrix(L, m, factor * m)
                      for L, m in zip(domain.lengths, domain.modes)], coeffs)


def dense_analysis(domain, values):
    """Independent analysis on a midpoint grid: one explicit matrix per axis."""
    mats = []
    for L, m, n in zip(domain.lengths, domain.modes, values.shape):
        P = (2.0 / n) * cosine_matrix(L, m, n).T
        P[0] *= 0.5
        mats.append(P)
    return _per_axis(mats, values)


def dct_synthesis(coeffs, modes, factor):
    """The DCT-III formula the pair applies above its threshold."""
    out = np.array(coeffs, dtype=float)
    for ax, m in enumerate(modes, start=out.ndim - len(modes)):
        out[(slice(None),) * ax + (slice(1, None),)] *= 0.5
        out = sfft.dct(out, type=3, n=factor * m, axis=ax)
    return out


def dct_analysis(values, modes):
    """The DCT-II formula the pair applies above its threshold."""
    out = np.asarray(values, dtype=float)
    for ax, m in enumerate(modes, start=out.ndim - len(modes)):
        n = out.shape[ax]
        out = sfft.dct(out, type=2, axis=ax)[(slice(None),) * ax + (slice(0, m),)] / n
        out[(slice(None),) * ax + (0,)] *= 0.5
    return out


class TestTransforms:
    def test_synthesis_matches_dense_cosine_matrix(self, unit_domain):
        for _ in range(20):
            f = random_field(unit_domain, RNG)
            got = sp.to_grid(f)
            want = dense_synthesis(unit_domain, f.coeffs)
            assert np.max(np.abs(got - want)) < 1e-13

    def test_analysis_matches_dense_cosine_matrix(self, unit_domain):
        n = 2 * unit_domain.modes[0]
        for _ in range(20):
            values = RNG.standard_normal(n)
            got = sp.from_grid(unit_domain, values).coeffs
            want = dense_analysis(unit_domain, values)
            assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("factor", [2, 3])
    @pytest.mark.parametrize("lengths, modes", SIDES)
    def test_dense_oracles_on_both_sides_of_the_threshold(self, lengths, modes, factor):
        domain = sp.Domain(lengths, modes)
        f = random_field(domain, RNG)
        assert np.max(np.abs(sp.to_grid(f, factor) - dense_synthesis(domain, f.coeffs, factor))) \
            < 1e-13
        values = RNG.standard_normal(tuple(factor * m for m in modes))
        got = sp.from_grid(domain, values).coeffs
        assert np.max(np.abs(got - dense_analysis(domain, values))) < 1e-13

    @pytest.mark.parametrize("modes, factor", ABOVE)
    def test_above_the_threshold_the_pair_is_the_dct_bitwise(self, modes, factor):
        stack = RNG.standard_normal((3,) + modes)
        grids = sp._synthesis(stack, modes, factor)
        assert np.array_equal(grids, dct_synthesis(stack, modes, factor))
        assert np.array_equal(sp._analysis(grids, modes), dct_analysis(grids, modes))

    def test_round_trip_identity(self, unit_domain):
        f = random_field(unit_domain, RNG)
        back = sp.from_grid(unit_domain, sp.to_grid(f, factor=3))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13

    def test_round_trip_2d(self, plane_domain):
        f = random_field(plane_domain, RNG)
        back = sp.from_grid(plane_domain, sp.to_grid(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-13

    def test_basis_field_is_a_cosine_2d(self, plane_domain):
        # oracle: outer product of explicit cosines on the meshgrid
        f = sp.basis_field(plane_domain, 5, amplitude=1.3)
        k = np.unravel_index(np.argmax(np.abs(f.coeffs)), f.coeffs.shape)
        X, Y = collocation_points(plane_domain)
        L1, L2 = plane_domain.lengths
        want = 1.3 * np.cos(k[0] * np.pi * X / L1) * np.cos(k[1] * np.pi * Y / L2)
        assert np.max(np.abs(sp.to_grid(f) - want)) < 1e-13

    def test_basis_order_sorted_by_eigenvalue(self, plane_domain):
        eig = sp.neumann_eigensystem(plane_domain)
        mus = [eig.mu.ravel()[i] for i in eig.order]
        assert mus == sorted(mus)
        assert eig.order[0] == 0

    def test_from_grid_rejects_ragged_grid(self, unit_domain):
        with pytest.raises(ValueError):
            sp.from_grid(unit_domain, np.zeros(unit_domain.modes[0] * 2 + 1))

    def test_mean_is_constant_coefficient(self, unit_domain):
        f = random_field(unit_domain, RNG, mean=0.37)
        grid = sp.to_grid(f, factor=4)
        assert abs(grid.mean() - 0.37) < 1e-13
        assert f.mean == pytest.approx(0.37, abs=0)


class TestBatchedPair:
    """The private pair transforms the trailing axes; leading axes are a batch."""

    @pytest.mark.parametrize("factor", [2, 3])
    @pytest.mark.parametrize("modes", [(32,), (8, 12), (256,), (100, 96)])
    def test_stack_equals_row_by_row_bitwise(self, modes, factor):
        stack = RNG.standard_normal((5,) + modes)
        before = stack.copy()
        grids = sp._synthesis(stack, modes, factor)
        assert grids.shape == (5,) + tuple(factor * m for m in modes)
        coeffs = sp._analysis(grids, modes)
        assert coeffs.shape == stack.shape
        for row, grid, back in zip(stack, grids, coeffs):
            assert np.array_equal(grid, sp._synthesis(row, modes, factor))
            assert np.array_equal(back, sp._analysis(grid, modes))
        assert np.array_equal(stack, before)

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("modes, matrices", [((64,), True), ((8, 12), True),
                                                 ((128,), False), ((96, 6), False)])
    def test_raw_pair_equals_the_silent_entry_points(self, modes, matrices, rows):
        # the solve applies the looked-up pair under its own errstate
        stack = RNG.standard_normal((rows,) + modes)
        synthesis, analysis = sp._transforms(modes)
        assert (synthesis.func is sp._by_matrices) == (analysis.func is sp._by_matrices) == matrices
        grids = synthesis(stack)
        assert grids.tobytes() == sp._synthesis(stack, modes).tobytes()
        assert analysis(grids).tobytes() == sp._analysis(grids, modes).tobytes()

    @pytest.mark.parametrize("modes, matrices", [((64,), True), ((256,), False),
                                                 ((8, 8), True)])
    def test_out_is_bitwise_the_allocating_call(self, modes, matrices):
        # a march writes the pair's results into prefix rows of its workspace
        stack = RNG.standard_normal((3,) + modes)
        synthesis, analysis = sp._transforms(modes)
        assert (synthesis.func is sp._by_matrices) == matrices
        grids, coeffs = synthesis(stack), analysis(synthesis(stack))
        work = np.full((2, 5) + grids.shape[1:], np.nan)
        out = work[1, :3]
        assert synthesis(stack, out) is out
        assert out.tobytes() == grids.tobytes()
        assert np.isnan(work[0]).all() and np.isnan(work[1, 3:]).all()
        back = np.empty_like(stack)
        assert analysis(out, back) is back
        assert back.tobytes() == coeffs.tobytes()

    def test_transform_code_lives_only_in_spectral(self):
        package = Path(sp.__file__).parent
        offenders = [
            p.name for p in sorted(package.glob("*.py"))
            if p.name != "spectral.py" and ("dct" in p.read_text() or "np.pad" in p.read_text())
        ]
        assert offenders == []

    def test_oracles_never_read_the_module_matrices(self):
        # spelled in two parts so that this file does not match itself
        name = "_cosine" + "_matrices"
        assert hasattr(sp, name)
        tests = Path(__file__).parent
        assert [p.name for p in sorted(tests.glob("*.py")) if name in p.read_text()] == []

    @pytest.mark.parametrize("modes", [(32,), (8, 12), (256,)])
    def test_non_finite_input_is_silent(self, modes):
        # a solver failure on such input is reported by its label, not a warning
        x = np.full(modes, np.inf)
        x.flat[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = sp._synthesis(x, modes)
            assert not np.isfinite(sp._analysis(grid, modes)).any()


class TestQuadrature:
    def test_integrate_grid_matches_scipy_quad(self):
        # even-periodic extension of exp(cos(pi x / L)) is smooth, so the
        # midpoint rule converges spectrally and the comparison is sharp
        domain = sp.Domain((2.0,), (48,))
        fn = lambda x: np.exp(np.cos(np.pi * x / 2.0))
        (pts,) = collocation_points(domain, factor=2)
        got = sp.integrate_grid(domain, fn(pts))
        want, err = integrate.quad(fn, 0.0, 2.0, epsabs=1e-13)
        assert abs(got - want) < 1e-11

    def test_parseval_inner_product(self, unit_domain):
        u = random_field(unit_domain, RNG)
        v = random_field(unit_domain, RNG)
        got = sp.inner(u, v)
        want = sp.integrate_grid(unit_domain, sp.to_grid(u, 4) * sp.to_grid(v, 4))
        assert abs(got - want) < 1e-12 * (1 + abs(want))

    def test_orthogonality_weights_2d(self, plane_domain):
        eig = sp.neumann_eigensystem(plane_domain)
        for i in (0, 1, 5, 9):
            u = sp.basis_field(plane_domain, i)
            for j in (0, 1, 5, 9):
                v = sp.basis_field(plane_domain, j)
                got = sp.integrate_grid(plane_domain, sp.to_grid(u) * sp.to_grid(v))
                want = eig.weights.ravel()[eig.order[i]] if i == j else 0.0
                assert abs(got - want) < 1e-12

    def test_h_norm_against_fine_quadrature(self, long_domain):
        f = random_field(long_domain, RNG)
        grid = sp.to_grid(f, factor=8)
        want = math.sqrt(sp.integrate_grid(long_domain, grid**2))
        assert sp.norm(f, "H") == pytest.approx(want, rel=1e-12)


class TestDealiasing:
    def test_squared_mode_exact_coefficients(self, unit_domain):
        m = unit_domain.modes[0]
        for k in (1, 3, m // 2, m - 1):
            u = sp.basis_field(unit_domain, k, amplitude=2.0)
            sq = apply_pointwise(u, np.square)
            want = np.zeros(m)
            want[0] = 2.0  # A^2/2 with A=2
            if 2 * k < m:
                want[2 * k] = 2.0
            assert np.max(np.abs(sq.coeffs - want)) < 1e-13

    def test_product_formula(self, unit_domain):
        # cos(a)cos(b) = (cos(a+b) + cos(a-b))/2 for resolvable a+b
        m = unit_domain.modes[0]
        j, k = 4, 7
        u = sp.basis_field(unit_domain, j)
        v = sp.basis_field(unit_domain, k)
        prod = sp.from_grid(unit_domain, sp.to_grid(u) * sp.to_grid(v))
        want = np.zeros(m)
        want[j + k] += 0.5
        want[k - j] += 0.5
        assert np.max(np.abs(prod.coeffs - want)) < 1e-13


class TestOperators:
    def test_laplacian_matches_finite_differences(self):
        # h = 1e-4: the rounding error of the second difference (about
        # eps/h^2) stays far below the bound, and so does its truncation
        # error h^2/12 times the fourth derivative
        domain = sp.Domain((2.0,), (16,))
        x = np.linspace(0.13, 1.87, 7)
        h = 1e-4

        def eval_at(c, pts):
            return sum(c[k] * np.cos(k * np.pi * pts / 2.0) for k in range(16))

        for seed in range(20):
            f = random_field(domain, np.random.default_rng(seed), decay=2.5)
            fd = (eval_at(f.coeffs, x + h) - 2 * eval_at(f.coeffs, x)
                  + eval_at(f.coeffs, x - h)) / h**2
            exact = eval_at(sp.apply_laplacian(f).coeffs, x)
            assert np.max(np.abs(fd - exact)) < 1e-5 * (1 + np.max(np.abs(exact))), seed

    def test_inverse_laplacian_matches_banded_fd_solve(self):
        # oracle: second-order Neumann finite differences, tridiagonal solve
        # with the first unknown pinned (valid because the rhs is mean-free)
        from scipy.linalg import solve_banded

        domain = sp.Domain((1.0,), (12,))
        f = random_field(domain, RNG, decay=2.0, mean=0.0)
        n = 16384
        h = 1.0 / n
        x = (np.arange(n) + 0.5) * h
        rhs = sum(f.coeffs[k] * np.cos(k * np.pi * x) for k in range(12))
        upper = np.ones(n) / h**2
        lower = np.ones(n) / h**2
        main = np.full(n, -2.0) / h**2
        main[0] = main[-1] = -1.0 / h**2
        b = -rhs.copy()
        main[0], upper[1], b[0] = 1.0, 0.0, 0.0  # pin psi[0] = 0
        psi = solve_banded((1, 1), np.vstack([upper, main, lower]), b)
        psi -= psi.mean()
        got = sp.apply_inverse_laplacian(f)
        got_vals = sum(got.coeffs[k] * np.cos(k * np.pi * x) for k in range(12))
        assert np.max(np.abs(psi - got_vals)) < 1e-5 * (1 + np.max(np.abs(psi)))

    def test_star_norm_matches_fd_energy(self):
        domain = sp.Domain((1.0,), (12,))
        f = random_field(domain, RNG, decay=2.0, mean=0.0)
        n = 8192
        x = (np.arange(n) + 0.5) / n
        vals = sum(f.coeffs[k] * np.cos(k * np.pi * x) for k in range(12))
        psi_vals = sum(
            sp.apply_inverse_laplacian(f).coeffs[k] * np.cos(k * np.pi * x)
            for k in range(12)
        )
        want = math.sqrt(np.mean(vals * psi_vals))  # integral of (v - m) N(v)
        assert sp.norm(f, "star") == pytest.approx(want, rel=1e-10)

    def test_inverse_laplacian_requires_zero_mean(self, unit_domain):
        f = random_field(unit_domain, RNG, mean=0.5)
        with pytest.raises(sp.NonZeroMean):
            sp.apply_inverse_laplacian(f)

    def test_inverse_composition_is_identity_minus_mean(self, unit_domain):
        for _ in range(10):
            f = random_field(unit_domain, RNG, mean=float(RNG.standard_normal()))
            g = sp.apply_inverse_laplacian(
                sp.apply_laplacian(f) * -1.0
            )
            want = f.coeffs.copy()
            want[0] = 0.0
            assert np.max(np.abs(g.coeffs - want)) < 1e-13

    def test_helmholtz_inverse_identity_at_zero(self, unit_domain):
        f = random_field(unit_domain, RNG)
        assert sp.apply_helmholtz_inverse(f, 0.0) is f

    def test_helmholtz_preserves_mean(self, unit_domain):
        f = random_field(unit_domain, RNG, mean=0.77)
        g = sp.apply_helmholtz_inverse(f, 0.3)
        assert g.mean == f.mean

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 1e-2, 1e-1, 1.0])
    @pytest.mark.parametrize("kind", ["H", "V1", "star"])
    def test_helmholtz_nonexpansive(self, unit_domain, eps, kind):
        for _ in range(10):
            f = random_field(unit_domain, RNG, mean=float(RNG.standard_normal()))
            g = sp.apply_helmholtz_inverse(f, eps)
            assert sp.norm(g, kind) <= sp.norm(f, kind) * (1 + 1e-13)

    @pytest.mark.parametrize("eps", [0.0, 1e-2, 1.0])
    def test_star_pairing_identity(self, unit_domain, eps):
        for _ in range(10):
            v = random_field(unit_domain, RNG, mean=float(RNG.standard_normal()))
            phi = sp.star_potential(v, eps)
            lhs = sp.inner(v, phi)
            assert lhs == pytest.approx(2.0 * sp.star_energy(v, eps), rel=1e-12, abs=1e-14)
            assert sp.star_energy(v, eps) >= 0.0

    @pytest.mark.parametrize("eps", [0.0, 1e-2, 1.0])
    def test_star_potential_symmetric(self, unit_domain, eps):
        u = random_field(unit_domain, RNG, mean=0.3)
        v = random_field(unit_domain, RNG, mean=-1.1)
        lhs = sp.inner(u, sp.star_potential(v, eps))
        rhs = sp.inner(v, sp.star_potential(u, eps))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_laplacian_self_adjoint(self, plane_domain):
        u = random_field(plane_domain, RNG)
        v = random_field(plane_domain, RNG)
        lhs = sp.inner(sp.apply_laplacian(u), v)
        rhs = sp.inner(u, sp.apply_laplacian(v))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_2d_eigenvalue_sum(self, plane_domain):
        eig = sp.neumann_eigensystem(plane_domain)
        L1, L2 = plane_domain.lengths
        want = (2 * np.pi / L1) ** 2 + (3 * np.pi / L2) ** 2
        assert eig.mu[2, 3] == pytest.approx(want, rel=1e-15)


class TestNorms:
    def test_v1_combines_mean_and_gradient(self, unit_domain):
        f = random_field(unit_domain, RNG, mean=0.4)
        eig = sp.neumann_eigensystem(unit_domain)
        grad_sq = float(np.sum(eig.weights * eig.mu * f.coeffs**2))
        assert sp.norm(f, "V1") == pytest.approx(math.sqrt(0.16 + grad_sq), rel=1e-13)

    def test_one_eps_interpolates(self, unit_domain):
        f = random_field(unit_domain, RNG)
        assert sp.norm(f, "one_eps", eps=0.0) == pytest.approx(sp.norm(f, "H"), rel=1e-13)

    def test_unknown_kind_rejected(self, unit_domain):
        with pytest.raises(ValueError):
            sp.norm(random_field(unit_domain, RNG), "V9")

    def test_norm_ordering(self, unit_domain):
        f = random_field(unit_domain, RNG, mean=0.0)
        assert sp.norm(f, "H") <= sp.norm(f, "V2") <= sp.norm(f, "V3") * (1 + 1e-13)

    def test_overflow_is_silent(self, unit_domain):
        # finite coefficients whose squares or sums overflow give inf, with
        # no warning
        big = sp.basis_field(unit_domain, 1, 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in ("H", "V1", "V2", "V3", "star", "one_eps"):
                assert sp.norm(big, kind, eps=0.1) == np.inf
            huge = 1e300 * sp.basis_field(unit_domain, 1, 1e300)
            assert np.isinf((huge + huge).coeffs).any()
            assert np.isnan((huge - 1e300 * huge).coeffs).any()


class TestValidation:
    def test_domain_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            sp.Domain((1.0, 1.0, 1.0), (4, 4, 4))

    def test_domain_rejects_single_mode(self):
        with pytest.raises(ValueError):
            sp.Domain((1.0,), (1,))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_domain_rejects_non_finite_length(self, value):
        with pytest.raises(ValueError, match="lengths must be finite"):
            sp.Domain((1.0, value), (4, 4))

    @pytest.mark.parametrize("lengths", [(1e308,), (1e-300,), (1.0, 1e300), (1e154, 1e155)])
    def test_domain_rejects_eigenvalues_outside_float_range(self, lengths):
        # (pi/L)^2 underflows, the largest eigenvalue's cube overflows, or the
        # volume overflows; each is rejected before any array is built
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="lengths"):
                sp.Domain(lengths, (8,) * len(lengths))

    @pytest.mark.parametrize("lengths, modes", SIDES + [
        ((10.0,), (64,)), ((20.0, 20.0), (64, 64)), ((10.0,), (32,)), ((1e150,), (8,)),
        ((1e-50,), (8,))])
    def test_domain_accepts_lengths_in_float_range(self, lengths, modes):
        eig = sp.neumann_eigensystem(sp.Domain(lengths, modes))
        assert np.all(np.isfinite(eig.mu ** 3)) and np.all(eig.mu.ravel()[1:] > 0)

    def test_field_shape_checked(self, unit_domain):
        with pytest.raises(ValueError):
            sp.SpectralField(unit_domain, np.zeros(3))

    def test_coeffs_are_write_protected(self, unit_domain):
        f = sp.SpectralField(unit_domain, np.zeros(unit_domain.modes))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_mixed_domain_arithmetic_rejected(self, unit_domain, long_domain):
        with pytest.raises(ValueError):
            sp.basis_field(unit_domain, 0) + sp.basis_field(long_domain, 0)

    @pytest.mark.parametrize("mode", (8.7, 8.0, "8"))
    def test_domain_refuses_a_non_integral_mode_count_by_name(self, mode):
        # 8.7 used to give an 8-mode domain, and "8" was parsed
        refused = f"^modes must be an integer, got {re.escape(repr(mode))}$"
        with pytest.raises(ValueError, match=refused):
            sp.Domain((10.0,), (mode,))

    def test_domain_takes_numpy_integer_mode_counts(self):
        assert sp.Domain((10.0,), (np.int64(8),)).modes == (8,)

    @pytest.mark.parametrize("index", (-1, -8, 8, 2**70))
    def test_basis_field_refuses_an_index_outside_the_basis_by_name(self, index):
        # -8 used to give the constant mode and -1 the top mode
        with pytest.raises(ValueError, match=rf"^flat_index must lie in \[0, 8\), got {index}$"):
            sp.basis_field(sp.Domain((10.0,), (8,)), index)

    def test_basis_field_refuses_a_non_integral_index_by_name(self):
        with pytest.raises(ValueError, match=r"^flat_index must be an integer, got 1\.0$"):
            sp.basis_field(sp.Domain((10.0,), (8,)), 1.0)

    @pytest.mark.parametrize("factor, refused", ((0, "an integer >= 1, got 0"),
                                                 (-1, "an integer >= 1, got -1"),
                                                 (1.5, r"an integer, got 1\.5"),
                                                 (2.0, r"an integer, got 2\.0")))
    def test_to_grid_refuses_a_factor_that_is_not_a_positive_integer(self, factor, refused):
        # 0 used to raise ZeroDivisionError, -1 to give an empty grid and 1.5
        # a 12-point grid for 8 modes
        f = sp.basis_field(sp.Domain((10.0,), (8,)), 3)
        with pytest.raises(ValueError, match=f"^factor must be {refused}$"):
            sp.to_grid(f, factor)

    def test_to_grid_takes_any_integer_factor_from_one(self):
        f = sp.basis_field(sp.Domain((10.0,), (8,)), 3)
        assert [sp.to_grid(f, k).shape for k in (1, np.int64(3))] == [(8,), (24,)]

    @pytest.mark.parametrize("call", [
        lambda v, eps: sp.star_energy(v, eps),
        lambda v, eps: sp.norm(v, "one_eps", eps=eps),
        lambda v, eps: sp.star_potential(v, eps),
        lambda v, eps: sp.apply_helmholtz_inverse(v, eps),
    ], ids=["star_energy", "norm", "star_potential", "apply_helmholtz_inverse"])
    @pytest.mark.parametrize("eps, message", [
        (-5.0, "eps must be >= 0, got -5.0, violates (H4)"),
        (math.nan, "eps must be finite, got nan, violates (H4)"),
        (math.inf, "eps must be finite, got inf, violates (H4)"),
    ], ids=["negative", "nan", "inf"])
    def test_viscosity_entry_points_refuse_eps_outside_h4(self, call, eps, message):
        # a negative eps gave star_energy < 0 and a nan norm; a nan passed through
        v = sp.basis_field(sp.Domain((10.0,), (16,)), 3)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(v, eps)


@settings(max_examples=60, deadline=None)
@given(
    data=hst.lists(hst.floats(-10, 10), min_size=8, max_size=8),
    mean=hst.floats(-5, 5),
)
def test_property_round_trip_and_linearity(data, mean):
    domain = sp.Domain((1.5,), (8,))
    c = np.array(data)
    c[0] = mean
    f = sp.SpectralField(domain, c)
    back = sp.from_grid(domain, sp.to_grid(f))
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12 * (1 + np.max(np.abs(c)))
    g = 2.5 * f
    assert np.allclose(sp.to_grid(g), 2.5 * sp.to_grid(f), rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(eps=hst.floats(0, 10), mean=hst.floats(-3, 3))
def test_property_star_energy_nonnegative(eps, mean):
    f = random_field(sp.Domain((1.0,), (16,)), np.random.default_rng(7), mean=mean)
    assert sp.star_energy(f, eps) >= 0.0
