"""
Counter-based Wiener sampling and diffusion operator tests.

Statistical checks use fixed seeds and 4-sigma acceptance bands; structural
checks compare against explicit per-mode sums and eigensystem data.
"""

import warnings

import numpy as np
import pytest

import svch.noise as noise
from svch.spectral import Domain, SpectralField, inner, neumann_eigensystem, norm, to_grid

from conftest import columns_at, random_field

RNG = np.random.default_rng(7)


class TestWienerProcess:
    def test_pure_in_step_and_seed(self):
        p = noise.WienerProcess(6, seed=11)
        a = p.increments_at(4, 0.01)
        b = p.increments_at(9, 0.01)
        # resampling an earlier step after a later one changes nothing
        assert np.array_equal(p.increments_at(4, 0.01), a)
        q = noise.WienerProcess(6, seed=11)
        assert np.array_equal(q.increments_at(9, 0.01), b)
        assert not np.array_equal(a, b)
        assert not np.array_equal(noise.WienerProcess(6, seed=12).increments_at(4, 0.01), a)

    def test_dt_enters_as_sqrt_scale(self):
        p = noise.WienerProcess(5, seed=3)
        unit = p.increments_at(2, 1.0)
        scaled = p.increments_at(2, 0.25)
        assert np.allclose(scaled, 0.5 * unit, rtol=0, atol=0)

    def test_moments_within_four_sigma(self):
        K, n, dt = 10, 10_000, 0.3
        p = noise.WienerProcess(K, seed=2024)
        table = np.stack([p.increments_at(s, dt) for s in range(n)])
        draws = table.ravel()  # 1e5 iid N(0, dt) samples
        m = draws.size
        assert abs(draws.mean()) < 4 * np.sqrt(dt / m)
        assert abs(draws.var() - dt) < 4 * dt * np.sqrt(2.0 / m)
        # independence across modes: max off-diagonal correlation is small
        corr = np.corrcoef(table.T)
        off = corr[~np.eye(K, dtype=bool)]
        assert np.max(np.abs(off)) < 4.0 / np.sqrt(n)

    def test_validation(self):
        with pytest.raises(ValueError):
            noise.WienerProcess(0, seed=1)
        with pytest.raises(ValueError):
            noise.WienerProcess(3, seed=-1)
        with pytest.raises(ValueError):
            noise.WienerProcess(3, seed=1).increments_at(0, 0.0)

    def test_seed_range_is_the_philox_key_range(self):
        top = noise.WienerProcess(3, seed=2**128 - 1)
        assert top.increments_at(0, 0.1).shape == (3,)
        with pytest.raises(ValueError, match=str(2**128)):
            noise.WienerProcess(3, seed=2**128)

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            noise.WienerProcess(3, seed=1).increments_at(0, float("nan"))

    def test_non_integral_step_is_refused_by_name(self):
        # step 2.5 used to read step 2's draw
        with pytest.raises(ValueError, match=r"step must be an integer, got 2\.5$"):
            noise.WienerProcess(3, 1).increments_at(2.5, 0.1)

    def test_stacked_draw_refuses_a_non_integral_step_by_name(self):
        # a float step in any row of a stacked draw is refused, not truncated
        with pytest.raises(ValueError, match=r"step must be an integer, got 2\.5$"):
            noise._increments((1, 1), (0, 2.5), 3, 0.1)

    def test_infinite_dt_is_refused_by_name(self):
        # an infinite dt used to give infinite increments
        with pytest.raises(ValueError, match="dt must be positive and finite, got inf"):
            noise.WienerProcess(3, 1).increments_at(0, float("inf"))

    @pytest.mark.parametrize("args, refused", (((3.7, 2), r"mode_count must be an integer, got 3\.7"),
                                               ((3, 2.5), r"seed must be an integer, got 2\.5")),
                             ids=["mode_count", "seed"])
    def test_non_integral_mode_count_or_seed_is_refused_by_name(self, args, refused):
        # 3.7 and 2.5 used to be truncated to 3 and 2
        with pytest.raises(ValueError, match=refused + "$"):
            noise.WienerProcess(*args)

    def test_numpy_integers_index_the_noise(self):
        p = noise.WienerProcess(np.int64(3), np.uint64(2))
        assert (p.mode_count, p.seed) == (3, 2)
        assert np.array_equal(p.increments_at(np.int32(4), 0.1),
                              noise.WienerProcess(3, 2).increments_at(4, 0.1))

    @pytest.mark.parametrize("step", (-1, 2**63, 2**64 - 1, 2**64))
    def test_step_outside_the_counter_range_is_named(self, step):
        # -1 used to wrap to counter 2**64 - 1, 2**64 - 1 to warn about a cast
        # and 2**64 to raise an unlabelled OverflowError
        p = noise.WienerProcess(3, seed=1)
        with pytest.raises(ValueError, match=rf"\[0, 2\*\*63\), got {step}$"):
            p.increments_at(step, 0.1)
        with pytest.raises(ValueError, match=rf"got {step}$"):
            noise._increments((1, 1), (0, step), 3, 0.1)
        assert p.increments_at(2**63 - 1, 0.1).shape == (3,)

    @pytest.mark.parametrize("seed, step, want", (
        (0, 0, (0.15929546600623282, -1.7741885208017214, 1.3265118818830892)),
        (2**64, 5, (-0.6883652617528314, 1.246717458289009, -0.9700589143968753)),
        (2**128 - 1, 2**40, (1.052701181950089, -1.889070407194005, 0.3904918097162258)),
    ))
    def test_golden_draws(self, seed, step, want):
        # the Philox stream keyed by (seed, step) must not drift
        assert noise.WienerProcess(3, seed).increments_at(step, 1.0).tolist() == list(want)


class TestDiffusionOperator:
    def test_columns_follow_eigenvalue_order(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5, sigma=0.7, rho=1.5)
        eig = neumann_eigensystem(long_domain)
        mu = eig.mu.ravel()
        for k in range(5):
            col = op.columns[k].ravel()
            idx = eig.order[k]
            assert np.count_nonzero(col) == 1
            assert col[idx] == pytest.approx(0.7 * (1 + mu[idx]) ** (-1.5), rel=1e-15)

    def test_columns_2d(self, plane_domain):
        op = noise.diffusion_operator(plane_domain, 7, sigma=0.2, rho=2.0)
        eig = neumann_eigensystem(plane_domain)
        mu = eig.mu.ravel()
        flat = op.columns.reshape(7, -1)
        for k in range(7):
            idx = eig.order[k]
            assert flat[k, idx] == pytest.approx(0.2 * (1 + mu[idx]) ** (-2.0), rel=1e-15)
            assert np.count_nonzero(flat[k]) == 1

    def test_hs_norm_against_weighted_sum(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, sigma=0.4, rho=1.0)
        eig = neumann_eigensystem(long_domain)
        w, mu = eig.weights.ravel(), eig.mu.ravel()
        want = 0.0
        for k in range(6):
            idx = eig.order[k]
            want += w[idx] * (0.4 * (1 + mu[idx]) ** (-1.0)) ** 2
        assert noise.hs_norm(op) == pytest.approx(np.sqrt(want), rel=1e-14)

    def test_mean_zero_strips_constant_column(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4, mean_zero=True)
        eig = neumann_eigensystem(long_domain)
        assert np.all(op.columns.reshape(4, -1)[:, eig.order[0]] == 0.0)

    def test_multiplicative_is_mean_zero_with_lipschitz(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4, kind="multiplicative", sigma=0.3)
        eig = neumann_eigensystem(long_domain)
        assert np.all(op.columns.reshape(4, -1)[:, eig.order[0]] == 0.0)
        assert op.lipschitz > 0.0
        # lipschitz constant is the root sum of squared column sup norms
        sup = [np.max(np.abs(to_grid(SpectralField(long_domain, c)))) for c in op.columns]
        assert op.lipschitz == pytest.approx(np.sqrt(np.sum(np.array(sup) ** 2)), rel=1e-12)

    def test_validation(self, long_domain):
        with pytest.raises(ValueError):
            noise.diffusion_operator(long_domain, 4, kind="surprising")
        with pytest.raises(noise.DimensionMismatch):
            noise.diffusion_operator(long_domain, 0)
        with pytest.raises(noise.DimensionMismatch):
            noise.diffusion_operator(long_domain, 65)
        with pytest.raises(ValueError):
            noise.diffusion_operator(long_domain, 4, kind="multiplicative", clamp_bound=0.0)

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("name", ("sigma", "rho", "clamp_bound"))
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            noise.diffusion_operator(Domain((1.0,), (8,)), 4, **{name: value})

    @pytest.mark.parametrize("kwargs,label", [
        ({"sigma": np.nan}, "B1"), ({"rho": np.inf}, "B1"), ({"sigma": -1.0}, "B1"),
        ({"mode_count": 9}, "B1"), ({"clamp_bound": np.nan}, "B3"), ({"clamp_bound": 0.0}, "B3"),
    ])
    def test_rejections_name_the_hypothesis(self, kwargs, label):
        kwargs = {"mode_count": 4, **kwargs}
        with pytest.raises(ValueError, match=rf"violates \({label}\)"):
            noise.diffusion_operator(Domain((1.0,), (8,)), **kwargs)

    @pytest.mark.parametrize("mode_count", (3.0, 2.5))
    def test_non_integral_mode_count_is_refused_by_name(self, mode_count):
        # 3.0 used to raise an unlabelled TypeError while building the columns
        with pytest.raises(ValueError,
                           match=rf"^mode_count must be an integer, got {mode_count!r}$"):
            noise.diffusion_operator(Domain((1.0,), (8,)), mode_count)

    def test_overflowing_columns_rejected(self):
        # (1 + mu)**1e308 overflows although sigma and rho are finite; the
        # labelled rejection is the only signal, with no warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflow.*\(B1\)"):
                noise.diffusion_operator(Domain((1.0,), (8,)), 4, rho=-1e308)

    def test_overflowing_lipschitz_is_silent(self):
        # the squared sup norms overflow although sigma is finite: the
        # constant is inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = noise.diffusion_operator(Domain((1.0,), (8,)), 4, kind="multiplicative",
                                          sigma=1e308)
        assert op.lipschitz == np.inf

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be >= 0"):
            noise.diffusion_operator(Domain((1.0,), (8,)), 4, sigma=-1.0)

    def test_building_runs_no_transform(self, plane_domain, monkeypatch):
        # the Lipschitz constant is worked out on request, not at construction
        def refuse(*args):
            raise AssertionError("transform called")

        monkeypatch.setattr(noise, "_synthesis", refuse)
        op = noise.diffusion_operator(plane_domain, 6, kind="multiplicative")
        sm = noise.smooth(op, 3)
        for built in (op, sm):
            with pytest.raises(AssertionError, match="transform called"):
                built.lipschitz

    def test_columns_write_protected(self, long_domain):
        op = noise.diffusion_operator(long_domain, 3)
        with pytest.raises(ValueError):
            op.columns[0, 0] = 1.0


class TestSmoothing:
    def test_exact_elliptic_scaling(self, long_domain):
        op = noise.diffusion_operator(long_domain, 8, sigma=0.5)
        sm = noise.smooth(op, 4)
        mu = neumann_eigensystem(long_domain).mu
        factor = (1 + mu / 4.0) ** (-3)
        assert np.allclose(sm.columns, op.columns * factor[None], rtol=0, atol=0)

    def test_contracts_hs_norm(self, long_domain):
        op = noise.diffusion_operator(long_domain, 8, sigma=0.5)
        assert noise.hs_norm(noise.smooth(op, 2)) < noise.hs_norm(op)

    def test_recomputes_multiplicative_lipschitz(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, kind="multiplicative")
        sm = noise.smooth(op, 3)
        assert 0.0 < sm.lipschitz < op.lipschitz

    def test_level_validation(self, long_domain):
        with pytest.raises(ValueError):
            noise.smooth(noise.diffusion_operator(long_domain, 3), 0)

    def test_level_beyond_float_range_rejected(self, long_domain):
        with pytest.raises(ValueError, match=r"\(B4\)"):
            noise.smooth(noise.diffusion_operator(long_domain, 3), 10**400)

    @pytest.mark.parametrize("level", [1.5, 2.0])
    def test_non_integral_level_refused_by_name(self, long_domain, level):
        # (B4) and the CLI's int codec take an integer level; 1.5 used to smooth
        with pytest.raises(ValueError, match=rf"^smoothing level must be an integer, "
                                             rf"got {level!r}, violates \(B4\)$"):
            noise.smooth(noise.diffusion_operator(long_domain, 3), level)

    def test_integer_levels_keep_their_bits(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, sigma=0.5)
        mu = neumann_eigensystem(long_domain).mu
        for level in (1, 2, np.int64(3)):
            want = op.columns * ((1.0 + mu / float(level)) ** (-3))[None, ...]
            assert noise.smooth(op, level).columns.tobytes() == want.tobytes()


class TestApplyDiffusion:
    def test_additive_is_column_combination(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5, sigma=0.9, rho=0.5)
        dW = RNG.standard_normal(5)
        out = noise.apply_diffusion(op, None, dW)
        want = np.zeros(long_domain.modes)
        for k in range(5):
            want += dW[k] * op.columns[k]
        assert np.allclose(out.coeffs, want, rtol=1e-15, atol=1e-18)

    def test_increment_shape_checked(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5)
        with pytest.raises(noise.DimensionMismatch):
            noise.apply_diffusion(op, None, np.zeros(4))

    def test_multiplicative_needs_state(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5, kind="multiplicative")
        with pytest.raises(noise.KindMismatch):
            noise.apply_diffusion(op, None, np.zeros(5))

    def test_multiplicative_domain_checked(self, long_domain, unit_domain):
        op = noise.diffusion_operator(long_domain, 5, kind="multiplicative")
        v = SpectralField(unit_domain, np.zeros(unit_domain.modes))
        with pytest.raises(noise.DimensionMismatch):
            noise.apply_diffusion(op, v, np.zeros(5))

    def test_multiplicative_output_is_mean_free(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5, kind="multiplicative")
        v = random_field(long_domain, RNG, scale=0.8)
        out = noise.apply_diffusion(op, v, RNG.standard_normal(5))
        assert out.mean == 0.0

    def test_clamp_saturates_large_states(self, long_domain):
        op = noise.diffusion_operator(long_domain, 5, kind="multiplicative",
                                      clamp_bound=1.0)
        dW = RNG.standard_normal(5)
        big = SpectralField(long_domain, np.zeros(64))
        c = big.coeffs.copy()
        c[0] = 7.5  # constant state far above the clamp bound
        big = SpectralField(long_domain, c)
        c1 = c.copy()
        c1[0] = 1.0
        unit = SpectralField(long_domain, c1)
        a = noise.apply_diffusion(op, big, dW)
        b = noise.apply_diffusion(op, unit, dW)
        assert np.allclose(a.coeffs, b.coeffs, rtol=0, atol=1e-15)

    def test_columns_at_lipschitz_bound(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, kind="multiplicative", sigma=0.4)
        eig = neumann_eigensystem(long_domain)
        for _ in range(5):
            v1 = random_field(long_domain, RNG, scale=0.6)
            v2 = random_field(long_domain, RNG, scale=0.6)
            d1 = columns_at(op, v1)
            d2 = columns_at(op, v2)
            hs_sq = np.sum(eig.weights[None] * (d1 - d2) ** 2)
            bound = op.lipschitz * norm(v1 - v2, "H")
            assert np.sqrt(hs_sq) <= bound * (1 + 1e-12) + 1e-15

    def test_columns_at_matches_apply(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4, kind="multiplicative")
        v = random_field(long_domain, RNG, scale=0.5)
        dW = RNG.standard_normal(4)
        via_cols = np.tensordot(dW, columns_at(op, v), axes=(0, 0))
        direct = noise.apply_diffusion(op, v, dW)
        assert np.allclose(via_cols, direct.coeffs, rtol=1e-13, atol=1e-15)


class TestIntegralLedger:
    def test_matches_ordered_sum(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, sigma=0.3)
        p = noise.WienerProcess(6, seed=77)
        led = noise.integral_ledger(op, p, 20, 0.01)
        total = np.zeros(long_domain.modes)
        for s in range(20):
            total = total + noise.apply_diffusion(op, None, p.increments_at(s, 0.01)).coeffs
        assert np.array_equal(led.coeffs, total)

    def test_mean_tracks_constant_mode(self, long_domain):
        op = noise.diffusion_operator(long_domain, 6, sigma=0.3, rho=1.0)
        p = noise.WienerProcess(6, seed=12)
        led = noise.integral_ledger(op, p, 15, 0.02)
        table = np.stack([p.increments_at(s, 0.02) for s in range(15)])
        # constant direction is mode 0, profile sigma*(1+0)^{-rho} = sigma
        assert led.mean == pytest.approx(0.3 * table[:, 0].sum(), rel=1e-13)

    def test_rejects_multiplicative(self, long_domain):
        op = noise.diffusion_operator(long_domain, 3, kind="multiplicative")
        with pytest.raises(noise.KindMismatch):
            noise.integral_ledger(op, noise.WienerProcess(3, seed=1), 4, 0.1)


class TestNoiseModel:
    def test_mode_count_checked(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4)
        with pytest.raises(noise.DimensionMismatch):
            noise.NoiseModel(noise.WienerProcess(5, seed=1), op)


def chunk_fields(models, states, steps, dt):
    """Row m: the march's chunked profile of member m at steps[m], modulated at states[m]."""
    chunks = [slice(0, 5), slice(5, max(steps) + 1)]  # two chunks, the second uneven
    profiles = np.concatenate(list(noise._profile_chunks(models, chunks, dt)))
    return noise._modulate(models[0].operator, states, profiles[steps, np.arange(len(models))])


class TestChunkedDraws:
    """A march's chunked fields: row m is apply_diffusion of state m and member m's
    increments at its step, bitwise."""

    @pytest.mark.parametrize("steps", ((7,) * 5, (7, 0, 3, 7, 12)))
    @pytest.mark.parametrize("kind", ("additive", "multiplicative"))
    @pytest.mark.parametrize("modes", ((64,), (8, 12)))
    def test_rows_equal_apply_diffusion(self, kind, modes, steps):
        domain = Domain((10.0,) * len(modes), modes)
        op = noise.diffusion_operator(domain, 6, kind=kind, sigma=0.4)
        models = [noise.NoiseModel(noise.WienerProcess(6, seed=s), op) for s in (3, 1, 4, 1, 5)]
        states = [random_field(domain, RNG, scale=2.0) for _ in models]
        stack = chunk_fields(models, np.stack([v.coeffs for v in states]), list(steps), 0.02)
        for m, (model, v, s) in enumerate(zip(models, states, steps)):
            dW = model.process.increments_at(s, 0.02)
            assert np.array_equal(stack[m], noise.apply_diffusion(op, v, dW).coeffs)

    @pytest.mark.parametrize("shuffle", (False, True))
    def test_rows_draw_as_their_own_process(self, shuffle):
        """One generator serves a stacked draw: row m equals member m's increments_at,
        bitwise, across 64-bit key words and counters, in any row order."""
        domain = Domain((10.0,), (16,))
        op = noise.diffusion_operator(domain, 5, sigma=0.7)
        pairs = [(seed, step) for seed in (0, 2**64 - 1, 2**64, 2**128 - 1)
                 for step in (0, 5, 2**40)]
        if shuffle:
            pairs = [pairs[k] for k in np.random.default_rng(3).permutation(len(pairs))]
        seeds, steps = zip(*pairs)
        stack = noise._increments(seeds, steps, 5, 0.03)
        for m, (seed, step) in enumerate(pairs):
            dW = noise.WienerProcess(5, seed).increments_at(step, 0.03)
            assert np.array_equal(stack[m], dW)
            assert np.array_equal(noise._increments((seed,), (step,), 5, 0.03)[0], dW)
        # a chunk of one step draws every member at it, as the march does
        models = [noise.NoiseModel(noise.WienerProcess(5, seed), op)
                  for seed in dict.fromkeys(seeds)]
        for step in (0, 5, 2**40):
            chunk, = noise._profile_chunks(models, [slice(step, step + 1)], 0.03)
            for model, got in zip(models, chunk[0]):
                want = noise.apply_diffusion(op, None, model.process.increments_at(step, 0.03))
                assert np.array_equal(got, want.coeffs)

    def test_additive_rows_ignore_the_state(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4)
        model = noise.NoiseModel(noise.WienerProcess(4, seed=6), op)
        states = np.stack([random_field(long_domain, RNG, scale=0.5).coeffs for _ in range(2)])
        stack = chunk_fields((model, model), states, [3, 3], 0.05)
        want = noise.apply_diffusion(op, None, model.process.increments_at(3, 0.05)).coeffs
        assert np.array_equal(stack[0], want) and np.array_equal(stack[1], want)

    def test_multiplicative_rows_use_the_state(self, long_domain):
        op = noise.diffusion_operator(long_domain, 4, kind="multiplicative")
        model = noise.NoiseModel(noise.WienerProcess(4, seed=6), op)
        states = np.stack([random_field(long_domain, RNG, scale=0.5).coeffs for _ in range(2)])
        stack = chunk_fields((model, model), states, [0, 0], 0.05)
        assert not np.array_equal(stack[0], stack[1])

    @pytest.mark.parametrize("kind", ("additive", "multiplicative"))
    def test_modulate_in_a_workspace_is_bitwise(self, kind):
        # the march hands _modulate two grid slots of its workspace
        domain = Domain((4.0, 4.0), (8, 8))
        op = noise.diffusion_operator(domain, 6, kind=kind, sigma=0.4)
        states, profiles = RNG.standard_normal((2, 3, 8, 8))
        want = noise._modulate(op, states, profiles)
        work = np.empty((3, 3, 16, 16))
        got = noise._modulate(op, states, profiles, work[:2])
        assert got.tobytes() == want.tobytes()
        assert not np.may_share_memory(got, work)

    def test_members_share_one_operator(self, long_domain):
        ops = [noise.diffusion_operator(long_domain, 4) for _ in range(2)]
        models = [noise.NoiseModel(noise.WienerProcess(4, seed=1), op) for op in ops]
        with pytest.raises(noise.DimensionMismatch):
            next(noise._profile_chunks(models, [slice(0, 1)], 0.1))
