"""Output checks, failure accounting and seeded input generation."""

import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import workloads
from negacap.gaussian import BlockSpec, SymmetricParams, f_block


def _outputs(calls):
    return [run.invoke(call.argv) for call in calls]


def _checked(calls, outputs, seed):
    records = []
    for i, (call, (code, out, err, dt)) in enumerate(zip(calls, outputs)):
        rec = run.Record(call, code, dt)
        run.check(rec, out, err, seed, i)
        records.append(rec)
    return records


def _gaussian_calls(tmp_path, seed=5):
    return workloads.make_round("gaussian-sweep", seed, 0, str(tmp_path))[:3]


def _replace_cell(text: str, row: int, col: int, value: str) -> str:
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def test_honest_outputs_pass(tmp_path):
    calls = _gaussian_calls(tmp_path)
    calls += workloads.make_round("soundness", 5, 0, str(tmp_path))[:1]
    assert run.failures(_checked(calls, _outputs(calls), seed=5)) == {}


def test_corrupted_row_counts_in_error_rate(tmp_path):
    calls = _gaussian_calls(tmp_path)
    outputs = _outputs(calls)
    # E_L beyond any supremum breaks the E_L < sup invariant
    bounded = next(i for i, c in enumerate(calls)
                   if c.meta["n1"] + c.meta["n2"] < c.meta["N"])
    code, out, err, dt = outputs[bounded]
    outputs[bounded] = (code, _replace_cell(out, 7, 3, "99.0"), err, dt)
    failed = run.failures(_checked(calls, outputs, seed=5))
    assert list(failed) == [bounded]
    assert "E_L" in failed[bounded][0]
    assert len(failed) / len(calls) == pytest.approx(1 / 3)


def test_corrupted_sweep_value_is_caught_by_the_schmidt_route(tmp_path):
    rnd = workloads.make_round("channel-sweep", 3, 0, str(tmp_path))
    calls = [next(c for c in rnd if c.kind == "rot23")]
    ((code, out, err, dt),) = _outputs(calls)
    for row in range(calls[0].items):  # perturb min_eig of every row
        value = float(out.split("\n")[row + 1].split(",")[6])
        out = _replace_cell(out, row, 6, repr(value + 1e-6))
    failed = run.failures(_checked(calls, [(code, out, err, dt)], seed=3))
    assert failed and all("Schmidt" in p for p in failed[0])


def test_nonzero_exit_and_nondeterminism_count_as_failures(tmp_path):
    calls = _gaussian_calls(tmp_path)
    outputs = _outputs(calls)
    outputs[0] = (2, "", "error: invalid", outputs[0][3])
    failed = run.failures(_checked(calls, outputs, seed=5), pairs=[(1, run.digest("x"))])
    assert set(failed) == {0, 1}
    assert failed[0] == ["exit code 2", "error: invalid"]
    assert failed[1] == ["output differs between identical calls"]


def test_analyze_outputs_agree_with_the_schmidt_route(tmp_path):
    calls = [c for c in workloads.make_round("analyze-large", 4, 0, str(tmp_path))
             if c.meta["dims"] == (4, 4)][:3]
    assert {c.kind for c in calls} <= {"choi", "unitary"}
    assert run.failures(_checked(calls, _outputs(calls), seed=4)) == {}


def test_fast_by_kind_ignores_stalled_calls():
    def rec(kind, dims, seconds, rnd):
        return run.Record(workloads.Call(kind, [], 1, {"dims": dims}), 0, seconds, rnd)

    records = [rec("rot33", (3, 3), 0.2, 0), rec("rot33", (3, 3), 0.1, 0),
               rec("mix", None, 0.3, 0), rec("rot33", (3, 3), 9.0, 1),
               rec("rot33", (3, 3), 0.12, 1), rec("mix", None, 0.25, 1)]
    fast, mix = run.fast_by_kind(records)
    assert fast == pytest.approx({("rot33", (3, 3)): 0.1012, ("mix", None): 0.251})
    assert mix == {("rot33", (3, 3)): 2, ("mix", None): 1}


@pytest.mark.parametrize("n,n1,n2", [(3, 1, 1), (5, 4, 1), (8, 2, 3)])
def test_f_reference_matches_f_block(n, n1, n2):
    for gamma, r in [(1.0, 1e-3), (2.5, 1.0), (4.0, 1e4)]:
        ref = checks.f_reference(n, n1, n2, 0.6, gamma, r)
        got = f_block(SymmetricParams(n, 0.6, gamma, r), BlockSpec(n, n1, n2))
        assert got == pytest.approx(ref, rel=checks.TOL)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeds_give_new_inputs_with_the_same_size_mix(tmp_path, workload):
    def inputs(calls):
        if workload != "analyze-large":
            return [c.argv for c in calls]
        return [open(c.argv[1], encoding="utf-8").read() for c in calls]

    def sizes(calls):
        return sorted((c.kind, c.items, c.meta.get("dims")) for c in calls)

    rounds = []
    for name, seed in (("a", 1), ("b", 1), ("c", 2)):
        (tmp_path / name).mkdir()
        rounds.append(workloads.make_round(workload, seed, 0, str(tmp_path / name)))
    first, again, other = rounds
    assert inputs(first) == inputs(again)
    assert inputs(first) != inputs(other)
    assert sizes(first) == sizes(other)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_warmup_input_is_never_measured(tmp_path, workload):
    def content(call):
        if workload != "analyze-large":
            return call.argv
        return open(call.argv[1], encoding="utf-8").read()

    for seed in (1, 2):
        warm = workloads.warmup_call(workload, seed, str(tmp_path))
        round0 = workloads.make_round(workload, seed, 0, str(tmp_path))
        assert (warm.kind, warm.items) in {(c.kind, c.items) for c in round0}
        for index in range(4):
            for call in workloads.make_round(workload, seed, index, str(tmp_path)):
                assert call.argv != warm.argv
                assert content(call) != content(warm)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "soundness",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
