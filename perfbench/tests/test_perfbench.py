"""Tests of the benchmark itself: tiny runs, planted faults, repeatable counts.

    python3 -m pytest perfbench/tests -q

Each workload runs end to end at the tiny scale; each correctness gate is
fed a planted wrong answer and must report it; two traced runs of one seed,
under different hash seeds, must give byte-identical per-layer counts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import metalogic as ml  # noqa: E402
import metalogic.cli  # noqa: E402,F401
from workloads import (  # noqa: E402
    WORKLOADS,
    acceptance_errors,
    brute_force_bounded,
    derive_report_errors,
    expected_property,
    revalidate_derivation,
    sweep_errors,
    sweep_theorem_check,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, env=None):
    """Run the harness; returns (exit code, stdout lines, result object)."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
        env={**os.environ, **(env or {})},
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else None
    return done.returncode, lines, result


# --------------------------------------------------------------------------
# Whole runs at the tiny scale
# --------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_clean_and_reports_every_metric(workload):
    code, _, result = bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                            "--trace", "0", "--scale", "tiny")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


def _traced_counts(workload, hash_seed):
    code, _, result = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                            "--trace", "1", "--scale", "tiny",
                            env={"PYTHONHASHSEED": str(hash_seed)})
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    return json.dumps({name: entry["value"] for name, entry in result["metrics"].items()
                       if entry["unit"] != "s"}, sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_byte_for_byte(workload):
    assert _traced_counts(workload, 1) == _traced_counts(workload, 2)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_self_times_account_for_the_traced_pass(workload):
    code, _, _ = bench("--workload", workload, "--seed", "2", "--seconds", "0.5",
                       "--trace", "1", "--scale", "tiny")
    assert code == 0
    record = json.loads(
        (ROOT / "perfbench-out" / f"{workload}-seed2-tiny-trace1.json").read_text())
    layers = record["layers"]
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    accounted = self_total + layers["trace.unassigned_s"]
    assert accounted == pytest.approx(layers["trace.cpu_s"], rel=0.05)
    assert 0 <= layers["trace.unassigned_s"] < 0.2 * layers["trace.cpu_s"]


def test_without_the_package_the_harness_fails_without_a_result():
    bare = ROOT / "perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# --------------------------------------------------------------------------
# Planted faults: every gate must catch its wrong answer
# --------------------------------------------------------------------------

def test_sweep_gate_catches_a_non_tautology():
    alphabet = ml.builtin_calculus("church_p1").alphabet
    sound = [ml.parse_formula(t, alphabet)
             for t in ("(p -> (q -> p))", "(((p -> f) -> f) -> p)")]
    assert sweep_theorem_check(ml, sound, frozenset("f")) == []
    planted = sound + [ml.parse_formula("((p -> f) -> p)", alphabet)]
    violations = sweep_theorem_check(ml, planted, frozenset("f"))
    assert violations == ["((p -> f) -> p)"]
    assert sweep_errors(violations, ml.STAGE_CAP_HIT, ml.STAGE_CAP_HIT)
    assert sweep_errors([], ml.SATURATED, ml.STAGE_CAP_HIT)
    assert sweep_errors([], ml.STAGE_CAP_HIT, ml.STAGE_CAP_HIT) == []


def _derive(argv):
    import contextlib
    import io
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ml.cli.main(argv)
    return code, out.getvalue()


def test_derive_gate_catches_a_wrong_exit_code_and_a_forged_node():
    kleene = ml.builtin_calculus("kleene")
    code, stdout = _derive(["derive", "--calc", "builtin:kleene", "--goal", "(P -> P)",
                            "--json", "--max-stage", "5", "--max-size", "21",
                            "--pool-size", "2"])
    answer, errors = derive_report_errors(ml, kleene, frozenset(), "(P -> P)", code, stdout)
    assert (answer, errors) == ("found", [])
    _, errors = derive_report_errors(ml, kleene, frozenset(), "(P -> P)", 2, stdout)
    assert any("exit code" in e for e in errors)

    report = json.loads(stdout)
    forged = [dict(node) for node in report["derivation"]]
    forged[0]["formula"] = "(Q -> (P -> Q))"
    node_errors, _ = revalidate_derivation(ml, kleene, forged)
    assert node_errors

    code, stdout = _derive(["derive", "--calc", "builtin:kleene", "--goal", "(P & ~P)",
                            "--json", "--max-stage", "3", "--max-size", "9",
                            "--pool-size", "2"])
    answer, errors = derive_report_errors(ml, kleene, frozenset(), "(P & ~P)", code, stdout)
    assert answer != "found" and errors == []
    _, errors = derive_report_errors(ml, kleene, frozenset(), "(P & ~P)", 0, stdout)
    assert errors


def test_acceptor_gate_catches_an_accepted_non_member():
    alphabet = ml.propositional_alphabet(("P", "Q"))
    body = [ml.parse_formula(t, alphabet) for t in ("P", "(P -> Q)", "~Q")]
    members = frozenset(ml.print_formula(f) for f in body)
    words = ["P", "(P -> Q)", "(P -> P)", "~"]
    for build in (ml.build_body_automaton, ml.build_deterministic_body_automaton):
        nfa = build(body)
        answers = [ml.nfa_accepts(nfa, w) for w in words]
        assert acceptance_errors(words, members, answers) == []
        planted = answers[:2] + [True] + answers[3:]
        assert acceptance_errors(words, members, planted) == ["accepted non-member (P -> P)"]


def test_digest_gate_catches_output_that_differs_from_the_record():
    import run
    workload = WORKLOADS["sweep"]
    jobs = workload.jobs(workload.setup(ml, 1, "tiny"))
    recorded = json.loads((BENCH / "digests.json").read_text())["sweep"]
    key = workload.digest_key(workload.setup(ml, 1, "tiny"))
    tally = run.Tally(jobs)
    run.run_passes(jobs, tally, 0.01, recorded[key])
    assert tally.failed == 0
    tally = run.Tally(jobs)
    run.run_passes(jobs, tally, 0.01, "0" * 64)
    assert tally.failed == 1
    assert tally.errors == ["the pass digest differs from the recorded one"]


def test_boundedness_and_property_references_disagree_with_wrong_verdicts():
    relation = ml.FiniteRelation(frozenset("ab"), frozenset({
        (frozenset(), "a"), (frozenset("ab"), "b")}))
    for kind in ml.BOUNDEDNESS_KINDS:
        verdict = ml.check_boundedness(relation, 1, kind)
        assert verdict.is_holds == brute_force_bounded(relation.pairs, 1, kind)
    assert brute_force_bounded(relation.pairs, 1, "bounded") is False

    calculus = ml.Calculus(alphabet=ml.propositional_alphabet(("P", "Q")),
                           axioms=(ml.parse_formula("P", ml.propositional_alphabet(("P", "Q"))),),
                           rules=ml.rule_system(ml.make_rule("identity")))
    bounds = ml.Bounds(4, 9, 1000, 3)
    body = ml.enumerate_body(calculus, bounds)
    for prop in ("transitively-closed", "completely-closed", "closed-wrt-rules"):
        verdict = ml.check_property(calculus, prop, bounds)
        assert verdict.outcome == expected_property(ml, calculus, body, bounds, prop)
    assert expected_property(ml, calculus, body, bounds, "closed-wrt-rules") == "fails"


# --------------------------------------------------------------------------
# Calibration
# --------------------------------------------------------------------------

def test_calibration_samples_the_kernel_and_leaves_its_time_out_of_jobs():
    import signal

    import run
    from workloads import Job

    def spin():
        end = run.clock() + 0.8
        while run.clock() < end:
            pass

    calibrator = run.CALIBRATOR
    calibrator.start()
    try:
        elapsed, _ = run.run_job(Job("spin", spin, lambda result: None))
    finally:
        calibrator.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert len(calibrator.samples) >= 2 and calibrator.spent > 0
    # spin() stops at 0.8 s of CPU time including the handler's, and the
    # harness leaves the handler's share out.
    assert elapsed == pytest.approx(0.8 - calibrator.spent, abs=0.01)
    assert calibrator.mean_since(0) == pytest.approx(
        sum(calibrator.samples) / len(calibrator.samples))
    assert calibrator.mean_since(0, len(calibrator.samples) + 1) is None


def test_calibration_uses_the_runs_own_samples_then_its_pass_then_the_run():
    import run
    from calibration import NOMINAL_S
    from workloads import Checked, Job

    jobs = [Job("a", None, None), Job("b", None, None)]
    tally = run.Tally(jobs)
    holds = Checked("holds", [], "")
    tally.record(jobs[0], 0.010, holds)           # short run: takes the pass's
    tally.record(jobs[1], 0.030, holds, 0.006)    # long run: its own samples
    tally.close_pass(2 * NOMINAL_S)
    tally.record(jobs[0], 0.012, holds)           # a pass with no samples
    tally.close_pass(None)
    assert tally.calibrated(4 * NOMINAL_S) == {
        "a": [pytest.approx(0.005), pytest.approx(0.003)],
        "b": [pytest.approx(0.030 * NOMINAL_S / 0.006)]}

    raw = run.end_to_end(tally, 0.1)
    calibrated = run.end_to_end(tally, 0.1, 4 * NOMINAL_S)
    assert raw["cpu_s"] == pytest.approx(0.011 + 0.030)
    assert calibrated["cpu_s"] == pytest.approx(0.004 + 0.030 * NOMINAL_S / 0.006)
    assert calibrated["setup_s"] == raw["setup_s"] == 0.1
    assert calibrated["decided_ratio"] == raw["decided_ratio"] == 1.0
