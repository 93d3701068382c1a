"""
Config parsing, validation labeling, artifact layout, and exit code tests.

End-to-end runs use short horizons so the whole module stays fast; byte-level
reproducibility is asserted on full artifact files.
"""

import csv
import dataclasses
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import svch.cli as cli
import svch.monotone as mn
import svch.stepper as st


def read_series(path: Path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# artifact_version=1 config_hash=")
    rows = list(csv.reader(lines[1:]))
    return lines[0], rows[0], rows[1:]


class TestParseEmit:
    def test_defaults_from_empty_text(self):
        cfg = cli.parse_config("", env={})
        assert cfg.mode == "simulate"
        assert cfg.lengths == (10.0,)
        assert cfg.modes == (64,)
        assert cfg.noise_kind == "none"

    def test_round_trip_is_identity(self):
        cfg = cli.parse_config("", env={})
        text = cli.emit_config(cfg)
        again = cli.parse_config(text, env={})
        assert again == cfg
        assert cli.emit_config(again) == text

    def test_round_trip_preserves_floats_exactly(self):
        text = "[solver]\ndt = 0.0001220703125\nnewton_tol = 3.141e-11\n"
        cfg = cli.parse_config(text, env={})
        again = cli.parse_config(cli.emit_config(cfg), env={})
        assert again.dt == cfg.dt and again.newton_tol == cfg.newton_tol

    def test_hash_tracks_content(self):
        a = cli.parse_config("", env={})
        b = cli.parse_config("[run]\nseed = 1\n", env={})
        assert cli.config_hash(a) != cli.config_hash(b)
        assert cli.config_hash(a) == cli.config_hash(cli.parse_config("", env={}))

    def test_parse_error_carries_line_number(self):
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_config("[solver]\ndt = banana\n", env={})
        assert exc.value.lineno == 2

    def test_missing_section_header(self):
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_config("dt = 1e-3\n", env={})
        assert exc.value.lineno == 1

    def test_unknown_section_and_key(self):
        with pytest.raises(cli.ValidationError, match="unknown section"):
            cli.parse_config("[turbo]\nspeed = 11\n", env={})
        with pytest.raises(cli.ValidationError, match="unknown key"):
            cli.parse_config("[solver]\ndx = 1e-3\n", env={})

    def test_env_overrides_file(self):
        cfg = cli.parse_config("[solver]\ndt = 1e-3\n",
                               env={"SVCH_SOLVER_DT": "5e-4"})
        assert cfg.dt == 5e-4

    def test_env_bad_value(self):
        with pytest.raises(cli.ValidationError, match="SVCH_SOLVER_DT"):
            cli.parse_config("", env={"SVCH_SOLVER_DT": "fast"})

    def test_initial_pairs_codec(self):
        cfg = cli.parse_config("[initial]\ncoefficients = 0:0.1, 3:-0.2\n", env={})
        assert cfg.initial == ((0, 0.1), (3, -0.2))

    def test_comments_are_ignored(self):
        text = "; full-line comment\n[solver]\ndt = 1e-3  ; inline comment\n"
        assert cli.parse_config(text, env={}).dt == 1e-3

    def test_every_field_has_its_own_key(self):
        # the schema is derived from RunConfig: two fields on one key would collapse
        assert len(cli._SCHEMA) == len(dataclasses.fields(cli.RunConfig))

    def test_readme_ini_block_states_the_defaults(self):
        readme = (Path(cli.__file__).resolve().parents[2] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert cli.parse_config(block, env={}) == cli.RunConfig()


class TestValidationLabels:
    def check(self, text, label):
        with pytest.raises(cli.ValidationError, match=label):
            cli.parse_config(text, env={})

    def test_graph_domain_condition(self):
        self.check("[potential]\nname = log_double_well\n", r"\(H1\)")

    def test_regularization_condition(self):
        self.check("[potential]\nlam = 0.0\n", r"\(H2\)")

    def test_viscosity_condition(self):
        self.check("[solver]\neps = -0.1\n", r"\(H4\)")

    def test_noise_mode_count_condition(self):
        self.check("[noise]\nkind = additive\nmodes = 1000\n", r"\(B1\)")

    def test_multiplicative_mean_condition(self):
        self.check("[noise]\nkind = multiplicative\nmean_zero = false\n", r"\(B2\)")

    def test_clamp_condition(self):
        self.check(
            "[noise]\nkind = multiplicative\nmean_zero = true\nclamp_bound = 0\n",
            r"\(B3\)")

    def test_smoothing_condition(self):
        self.check("[noise]\nkind = additive\nsmoothing_level = -1\n", r"\(B4\)")

    @pytest.mark.parametrize("mode", cli.MODES)
    @pytest.mark.parametrize("sweep,label", [("eps_grid = 0.1, -0.1", r"\(H4\)"),
                                             ("lam_grid = 0.1, 0", r"\(H2\)")])
    def test_sweep_grid_conditions(self, mode, sweep, label):
        # every grid value is a solver setting, refused at parse time in every mode
        self.check(f"[run]\nmode = {mode}\n[sweep]\n{sweep}\n", rf"violates {label}")

    def test_mode_and_grid_checks(self):
        self.check("[run]\nmode = warp\n", "unknown mode")
        self.check("[solver]\ndt = 0.2\nt_final = 0.1\n", "exceed")
        self.check("[run]\nmode = vanishing_viscosity\n[sweep]\neps_grid = 0.1, 0.1\n",
                   "two distinct eps")
        self.check("[run]\nmode = yosida_sweep\n[sweep]\nlam_grid = 0.01\n",
                   "two distinct lam")
        self.check("[run]\nmode = ensemble\n[sweep]\nmembers = 4\n", "at least 8")
        self.check("[initial]\ncoefficients = 99:0.1\n[domain]\nmodes = 16\n",
                   "out of range")
        self.check("[initial]\ncoefficients = 1:0.4, 1:0.5\n", "index 1 is given twice")
        self.check("[run]\nmode = continuous_dependence\n[sweep]\noffset_mode = 0\n",
                   "offset_mode")


# every (section, key) whose value holds floats, with its codec
NUMERIC_KEYS = [(section, key, codec) for (section, key), (_, codec) in cli._SCHEMA.items()
                if codec in ("float", "floats", "pairs")]
LABELS = {"lam": "H2", "eps": "H4", "sigma": "B1", "rho": "B1"}


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key,codec", NUMERIC_KEYS,
                             ids=[f"{s}.{k}" for s, k, _ in NUMERIC_KEYS])
    def test_rejected_as_config_error(self, section, key, codec, bad, tmp_path, capsys):
        value = f"1:{bad}" if codec == "pairs" else bad
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(cli.ValidationError, match=rf"{section}\.{key} must be finite") as err:
            cli.parse_config(text, env={})
        if key in LABELS:
            assert f"violates ({LABELS[key]})" in str(err.value)
        ini = tmp_path / "bad.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not out.exists()

    def test_environment_override_is_checked(self):
        with pytest.raises(cli.ValidationError, match=r"\(H2\)"):
            cli.parse_config("", env={"SVCH_POTENTIAL_LAM": "nan"})


_SECTIONS = sorted({section for section, _ in cli._SCHEMA})
_KEYS = sorted({key for _, key in cli._SCHEMA})
_VALUES = hst.one_of(
    hst.text(max_size=12),
    hst.floats().map(repr),
    hst.integers().map(str),
    hst.sampled_from(["nan", "-inf", "1e400", "1:nan", "0:1e400", "2,inf", "true", ""]),
)
_LINES = hst.one_of(
    hst.builds("[{}]".format, hst.one_of(hst.sampled_from(_SECTIONS), hst.text(max_size=8))),
    hst.builds("{} = {}".format, hst.one_of(hst.sampled_from(_KEYS), hst.text(max_size=8)),
               _VALUES),
    hst.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(text=hst.one_of(hst.text(), hst.lists(_LINES, max_size=12).map("\n".join)))
def test_property_parse_raises_only_config_errors(text):
    try:
        cli.parse_config(text, env={})
    except (cli.ParseError, cli.ValidationError):
        pass


SHORT = "[solver]\ndt = 1e-3\nt_final = 0.02\n"
NOISY = SHORT + "[noise]\nkind = additive\nmodes = 8\nsigma = 0.3\n"


class TestRunArtifacts:
    def test_default_simulate(self, tmp_path, capsys):
        cfg = cli.parse_config(SHORT, env={})
        assert cli.run(cfg, tmp_path) == 0
        out = capsys.readouterr().out
        assert "PASS energy_decay" in out
        assert "all assertions passed" in out
        for name in ("config.ini", "series.csv", "summary.json"):
            assert (tmp_path / name).exists()
        comment, header, rows = read_series(tmp_path / "series.csv")
        assert header == list(cli.ex.DIAGNOSTIC_FIELDS)
        assert len(rows) == 21
        assert cli.config_hash(cfg) in comment
        energies = [float(r[header.index("energy")]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_summary_shape(self, tmp_path):
        cfg = cli.parse_config(NOISY, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["artifact_version"] == 1
        assert summary["config_hash"] == cli.config_hash(cfg)
        assert summary["passed"] is True
        assert {a["name"] for a in summary["assertions"]} >= {
            "evolution_identity", "mean_identity"}

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = cli.parse_config(NOISY + "[run]\nseed = 5\n", env={})
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(cfg, a, quiet=True) == 0
        assert cli.run(cfg, b, quiet=True) == 0
        for name in ("config.ini", "series.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        cfg = cli.parse_config(SHORT, env={})
        cli.run(cfg, tmp_path, quiet=True)
        assert capsys.readouterr().out == ""

    def test_config_echo_is_reparseable(self, tmp_path):
        cfg = cli.parse_config(NOISY, env={})
        cli.run(cfg, tmp_path, quiet=True)
        echoed = cli.parse_config((tmp_path / "config.ini").read_text(), env={})
        assert echoed == cfg


class TestStudyModes:
    def test_vanishing_viscosity_mode(self, tmp_path):
        text = SHORT + "[run]\nmode = vanishing_viscosity\n" \
            "[sweep]\neps_grid = 0.1, 0.01, 0.001\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        _, header, rows = read_series(tmp_path / "series.csv")
        assert header[0] == "eps"
        assert [float(r[0]) for r in rows] == [0.1, 0.01, 0.001]

    def test_yosida_mode_pads_ragged_column(self, tmp_path):
        text = SHORT + "[run]\nmode = yosida_sweep\n" \
            "[sweep]\nlam_grid = 0.1, 0.01, 0.001\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        _, header, rows = read_series(tmp_path / "series.csv")
        i = header.index("consecutive_v1_distance")
        assert rows[-1][i] == ""  # one fewer distance than sweep points

    def test_continuous_dependence_mode(self, tmp_path):
        text = NOISY + "[run]\nmode = continuous_dependence\n" \
            "[sweep]\neps_grid = 0.0, 0.01\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert all(np.isfinite(summary["metrics"]["ratio"]))

    def test_ensemble_mode(self, tmp_path):
        text = NOISY + "[run]\nmode = ensemble\n[sweep]\nmembers = 8\n" \
            "eps_grid = 0.0, 0.01\nlam_grid = 0.01\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        _, header, rows = read_series(tmp_path / "series.csv")
        assert header == ["estimate", "mean", "stderr"]
        assert len(rows) == 4 * 2  # four estimates over a 2-point grid

    def test_ensemble_grid_takes_distinct_values(self, tmp_path):
        text = NOISY + "[run]\nmode = ensemble\n[sweep]\nmembers = 8\n" \
            "eps_grid = 0.01, 0.01, 0.0, 0.1\nlam_grid = 0.01, 0.01\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["grid"] == [[0.01, 0.01], [0.0, 0.01]]

    def test_ensemble_requires_noise(self, tmp_path, capsys):
        text = SHORT + "[run]\nmode = ensemble\n"
        with pytest.raises(cli.ValidationError, match="needs a noise section"):
            cli.parse_config(text, env={})
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
        assert "ValidationError" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    def test_failed_assertion_returns_one(self, tmp_path, capsys):
        text = SHORT + "[run]\nmode = vanishing_viscosity\n" \
            "[sweep]\neps_grid = 0.1, 0.09\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 1
        assert "assertion failed" in capsys.readouterr().err
        # artifacts are still written for inspection
        assert (tmp_path / "summary.json").exists()

    def test_overflowing_cubic_bound_is_a_failed_assertion(self, tmp_path, capsys):
        # states of size 1e120 pass Newton on a step of 1e-300, and the cube
        # of their V1 norm overflows: a failed finiteness check, not a crash
        ini = tmp_path / "run.ini"
        ini.write_text("[run]\nmode = regularity\n[domain]\nmodes = 8\n"
                       "[solver]\ndt = 1e-300\nt_final = 1e-300\n"
                       "[initial]\ncoefficients = 1:1e120\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 1
        assert "assertion failed: regularity_norms_finite[eps=" in capsys.readouterr().err
        assert {p.name for p in out.iterdir()} == {"config.ini", "series.csv", "summary.json"}

    def test_frozen_run_is_a_config_error(self, tmp_path, capsys):
        # at newton_tol = 1e-2 the default run accepts Newton's start on every
        # step, so its energy never moves, and it passed all four checks
        ini = tmp_path / "run.ini"
        ini.write_text("[solver]\nnewton_tol = 1e-2\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
        assert "newton_tol must lie in [1e-14, 1e-6], got 0.01" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_returns_three(self, tmp_path, capsys):
        text = "[solver]\ndt = 1e-3\nt_final = 0.02\n" \
            "newton_max_iter = 0\nmax_rejections = 0\n"
        cfg = cli.parse_config(text, env={})
        assert cli.run(cfg, tmp_path, quiet=True) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_solver_failure_names_the_residual(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[solver]\ndt = 0.2\nt_final = 0.2\nnewton_tol = 1e-11\n"
                       "newton_max_iter = 2\nmax_rejections = 4\n"
                       "[initial]\ncoefficients = 1:1.5, 2:0.8, 3:0.6\n")
        assert cli.main(["--config", str(ini), "--out", str(tmp_path / "out"), "--quiet"]) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("solver failure: step 0 still fails after 4 halvings")
        last = float(err.rpartition("(last residual ")[2].rstrip(")"))
        assert err.endswith(f"in 2 iterations (last residual {last:.3e})") and last > 1e-11

    @pytest.mark.parametrize("name", ["exponential", "sixth_power_well"])
    def test_steep_well_at_amplitude_300_passes(self, name, tmp_path):
        # grid values reach 300, where lam*beta(J) dominates the resolvent
        # equation: the exponential root is about 11
        ini = tmp_path / "run.ini"
        ini.write_text(f"[potential]\nname = {name}\n[initial]\ncoefficients = 0:0.0, 1:300.0\n"
                       "[solver]\nt_final = 0.005\n")
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["passed"] is True

    def test_halving_work_is_bounded(self, tmp_path, capsys):
        # every solve fails until dt is tiny, so unbounded halving doubles
        # the work at each of up to 40 levels
        ini = tmp_path / "run.ini"
        ini.write_text("[domain]\nmodes = 8\n[solver]\nnewton_max_iter = 0\n"
                       "max_rejections = 40\ndt = 0.001\nt_final = 0.004\n")
        start = time.perf_counter()
        code = cli.main(["--config", str(ini), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 3 and time.perf_counter() - start < 1.0
        assert "step 0 still fails after" in capsys.readouterr().err

    def test_main_routes_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[solver]\ndt = banana\n")
        assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "ParseError" in capsys.readouterr().err
        assert cli.main(["--config", str(tmp_path / "missing.ini"),
                         "--out", str(tmp_path / "o")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_main_default_run_and_seed_override(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(NOISY)
        out = tmp_path / "out"
        assert cli.main(["--config", str(ini), "--seed", "7",
                         "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        assert "seed = 7" in (out / "config.ini").read_text()


class TestValidationBoundary:
    """Validation builds the problem once; the constructors own the checks."""

    def test_builds_once(self, monkeypatch):
        calls = []
        make_graph = mn.make_graph
        monkeypatch.setattr(mn, "make_graph", lambda name: calls.append(name) or make_graph(name))
        cli.parse_config("[noise]\nkind = additive\n", env={})
        assert calls == ["quartic_double_well"]

    @pytest.mark.parametrize("text,label", [
        ("[potential]\nperturbation_scale = inf\n", "H3"),
        ("[noise]\nkind = additive\nclamp_bound = nan\n", "B3"),
    ])
    def test_loop_labels(self, text, label):
        with pytest.raises(cli.ValidationError, match=rf"must be finite.*\({label}\)"):
            cli.parse_config(text, env={})

    @pytest.mark.parametrize("text", [
        "[domain]\nmodes = 1000000000000\n",
        # np.prod((2**32, 2**32)) wraps around to 0
        "[domain]\nlengths = 1, 1\nmodes = 4294967296, 4294967296\n[initial]\ncoefficients =\n",
        "[noise]\nkind = additive\nmodes = 1000000000000\n",
        "[run]\nmode = ensemble\n[noise]\nkind = additive\n[sweep]\nmembers = 1" + "0" * 400 + "\n",
    ], ids=["modes", "wrapping_product", "noise_modes", "members"])
    def test_grid_budget(self, text):
        with pytest.raises(cli.ValidationError, match="budget"):
            cli.parse_config(text, env={})

    def test_every_solver_field_is_a_solver_config_field(self):
        # _build hands every [solver] field to SolverConfig by name
        names = {f.name for f in dataclasses.fields(cli.RunConfig)
                 if f.metadata["section"] == "solver"}
        assert len(names) == 8
        assert names <= {f.name for f in dataclasses.fields(st.SolverConfig)}
        cfg = cli.parse_config("[solver]\neps = 0.03\ndt = 0.002\nt_final = 0.5\n"
                               "newton_tol = 1e-11\nnewton_max_iter = 9\ncg_max_iter = 77\n"
                               "splitting = fully_implicit\nmax_rejections = 3\n"
                               "[potential]\nlam = 0.04\n", env={})
        solver, _ = cli._build(cfg)
        assert all(getattr(solver, name) == getattr(cfg, name) for name in names | {"lam"})

    def test_budget_admits_the_largest_documented_grid(self):
        text = "[domain]\nlengths = 20, 20\nmodes = 64, 64\n" \
            "[noise]\nkind = multiplicative\nmean_zero = true\nmodes = 16\n"
        cli.parse_config(text, env={})


# inputs that fail deep in a run (a traceback, unset rows, exit 3) unless
# validation rejects them: each is a config error that writes nothing
REPRODUCED = {
    "newton_max_iter": "[solver]\nnewton_max_iter = -3\n",
    # every correction is zero, so each substep of the halving spends every iteration
    "newton_work": "[solver]\ncg_max_iter = 0\nnewton_max_iter = 100000\n",
    # a failing correction would run a billion CG iterations on each substep
    "cg_work": "[solver]\ncg_max_iter = 1000000000\n",
    "step_count_overflow": "[solver]\nt_final = 1e300\ndt = 1e-300\n",
    "noise_column_overflow": "[noise]\nkind = additive\nrho = -1e308\n",
    "modes": "[domain]\nmodes = 1000000000000\n",
    "wrapping_product": "[domain]\nlengths = 1, 1\nmodes = 4294967296, 4294967296\n"
                        "[initial]\ncoefficients =\n",
    "ensemble_members": "[run]\nmode = ensemble\n[noise]\nkind = additive\n"
                        f"[sweep]\nmembers = {10**400}\n",
    "smoothing_level": f"[noise]\nkind = additive\nsmoothing_level = {10**400}\n",
    # the star norm divides by (pi/L)^2, which underflows to 0
    "domain_length": "[domain]\nlengths = 1e308\n",
    # every halving of a non-finite state fails again, one stack frame each
    "halving_depth": "[solver]\nmax_rejections = 2000\n[initial]\ncoefficients = 1:1e308\n",
}


@pytest.mark.parametrize("text", REPRODUCED.values(), ids=REPRODUCED.keys())
def test_reproduced_input_is_a_config_error(text, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert "ValidationError" in capsys.readouterr().err
    assert not out.exists()


def test_run_time_config_error_writes_nothing(tmp_path, capsys):
    # an offset whose squared star norm underflows is refused by the study, at run time
    ini = tmp_path / "run.ini"
    ini.write_text(SHORT + "[run]\nmode = continuous_dependence\n"
                   "[sweep]\neps_grid = 0.01\nstar_offset = 1e-200\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_unrepresentable_star_offset_is_a_config_error(tmp_path, capsys):
    # 1e308 over the star norm of the offset mode overflows
    ini = tmp_path / "run.ini"
    ini.write_text(SHORT + "[run]\nmode = continuous_dependence\n[domain]\nlengths = 1.0\n"
                   "[sweep]\neps_grid = 0.01\nstar_offset = 1e308\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"]) == 2
    assert "star_offset" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["config", "flag"])
@pytest.mark.parametrize("seed", [2**128, -1])
def test_seed_outside_the_philox_key_range_is_a_config_error(route, seed, tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text(NOISY + (f"[run]\nseed = {seed}\n" if route == "config" else ""))
    out = tmp_path / "out"
    flag = ["--seed", str(seed)] if route == "flag" else []
    assert cli.main(["--config", str(ini), "--out", str(out), "--quiet"] + flag) == 2
    assert "run.seed" in capsys.readouterr().err
    assert not out.exists()


# the exit-code contract over structured configs that cannot run long (at
# most 8 modes per axis, 4 steps and 8 members), with a few numeric keys set
# to extreme values
_EXTREMES = ["nan", "inf", "-inf", "0", "-3", "1e308", str(10**400)]
_NUMERIC = [(section, key, codec) for (section, key), (_, codec) in cli._SCHEMA.items()
            if codec in ("int", "ints", "float", "floats", "pairs")]


@hst.composite
def _short_configs(draw):
    modes = draw(hst.lists(hst.integers(2, 8), min_size=1, max_size=2))
    total = math.prod(modes)
    dt = draw(hst.sampled_from([0.01, 0.05]))
    values = {
        ("run", "mode"): draw(hst.sampled_from(cli.MODES)),
        ("run", "seed"): str(draw(hst.integers(0, 3))),
        ("domain", "lengths"): ",".join(draw(hst.sampled_from(["1.0", "10.0"])) for _ in modes),
        ("domain", "modes"): ",".join(map(str, modes)),
        ("potential", "name"): draw(hst.sampled_from(mn.graph_names())),
        ("potential", "perturbation"): draw(hst.sampled_from(["negative_identity", "zero"])),
        ("noise", "kind"): draw(hst.sampled_from(["none", "additive", "multiplicative"])),
        ("noise", "modes"): str(draw(hst.integers(1, total))),
        ("noise", "mean_zero"): "true",
        ("noise", "smoothing_level"): str(draw(hst.integers(0, 2))),
        ("solver", "eps"): draw(hst.sampled_from(["0.0", "0.01"])),
        ("solver", "dt"): repr(dt),
        ("solver", "t_final"): repr(dt * draw(hst.integers(1, 4))),
        ("initial", "coefficients"): f"1:{draw(hst.sampled_from(['0.1', '0.5']))}",
        ("sweep", "eps_grid"): "0.01, 0.001",
        ("sweep", "lam_grid"): "0.1, 0.01",
        ("sweep", "members"): "8",
    }
    for section, key, codec in draw(hst.lists(hst.sampled_from(_NUMERIC), max_size=2,
                                              unique=True)):
        extreme = draw(hst.sampled_from(_EXTREMES))
        values[(section, key)] = f"1:{extreme}" if codec == "pairs" else extreme
    sections = dict.fromkeys(section for section, _ in values)
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in values.items()
                                               if s == section) for section in sections)


@settings(max_examples=300, deadline=None)
@given(text=_short_configs())
def test_property_exit_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "run.ini"
        ini.write_text(text)
        out = Path(tmp) / "out"
        code = cli.main(["--config", str(ini), "--out", str(out), "--quiet"])
        assert code in (0, 1, 2, 3)
        if code == 2:
            assert not out.exists()
