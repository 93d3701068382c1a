"""Self-tests of the benchmark on shrunken workloads (a few seconds in total)."""

import pytest

import harness
from tracing import HOOKS, Hook, Tracer, _binding_sites

cli = harness.load_cli()

SHRUNK = {
    # name: (settings overrides, simulate calls per cli.run)
    "readme_1d": ({"solver": {"t_final": 0.5}}, 1),
    "regularity_2d": ({"solver": {"t_final": 0.1}}, 2),
    "ensemble_1d": ({"solver": {"t_final": 0.1}, "sweep": {"members": 8}}, 8),
}
EXACT_COUNTS = ("stepper.newton_iters", "stepper.cg_iters", "monotone.resolvent_calls",
                "spectral.transform_calls")


def shrunk(name, seed=3, **solver):
    settings = harness.workload_settings(name, seed)
    for section, items in SHRUNK[name][0].items():
        settings[section].update(items)
    settings["solver"].update(solver)
    return settings


def case(settings):
    ini = harness.render_ini(settings)
    return harness.Case(ini, cli.parse_config(ini, env={}), harness.expected_rows(settings))


def run(settings, tracer=None):
    return harness.run_once(cli, case(settings), tracer=tracer)


def hooked_bindings():
    return {(id(owner), attr): obj
            for hook in HOOKS for owner, attr, obj in _binding_sites(hook.target) or ()}


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_traced_counts_repeat_exactly(name):
    first, second = (run(shrunk(name), Tracer()) for _ in range(2))
    assert first.passed and second.passed, first.problems + second.problems
    for key in EXACT_COUNTS:
        assert first.layer[key][0] == second.layer[key][0] > 0, key
    # experiments binds simulate at import time; the hook must still see every call
    assert first.layer["stepper.simulate_calls"][0] == SHRUNK[name][1]
    assert first.layer["stepper.simulate_s"][0] > 0
    assert harness.consistency_problems([first, second]) == []


def test_untraced_runs_leave_every_hooked_name_untouched():
    before = hooked_bindings()
    assert len(before) > len(HOOKS)  # names bound in several modules are all found
    outcome = run(shrunk("readme_1d"))
    assert outcome.passed and outcome.layer == {}
    assert hooked_bindings() == before
    run(shrunk("readme_1d"), Tracer())
    assert hooked_bindings() == before


def test_missing_hook_target_leaves_its_metrics_absent():
    tracer = Tracer(HOOKS + (Hook("svch.stepper:no_such_solver", "stepper.cg", "stepper"),))
    outcome = run(shrunk("readme_1d"), tracer)
    assert outcome.passed
    assert "stepper.cg_calls" not in outcome.layer
    assert "stepper.self_s" not in outcome.layer
    assert outcome.layer["monotone.resolvent_calls"][0] > 0


def test_forced_solver_failure_counts_as_failed():
    outcome = run(shrunk("readme_1d", newton_max_iter=1, max_rejections=0))
    assert not outcome.passed
    assert outcome.problems == ["exit code 3"]


def test_reference_values_are_checked(tmp_path):
    settings = shrunk("readme_1d")
    assert cli.run(case(settings).config, tmp_path, quiet=True) == 0
    summary, last, _ = harness.read_outputs(tmp_path)
    rows = harness.expected_rows(settings)
    reference = {"summary": {"metrics.final_energy": summary["metrics"]["final_energy"]},
                 "last_row": dict(last)}
    assert harness.check_outputs(tmp_path, 0, rows, reference) == []
    reference["last_row"]["energy"] *= 1.0 + 1e-4
    assert harness.check_outputs(tmp_path, 0, rows, reference) == [
        f"last_row energy = {last['energy']!r}, reference {reference['last_row']['energy']!r}"]
    assert harness.check_outputs(tmp_path, 0, rows + 1) == [
        f"series.csv has {rows} rows, expected {rows + 1}"]
