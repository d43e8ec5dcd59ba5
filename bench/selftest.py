"""Tests of the benchmark itself (tracer, oracle, determinism check).

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CLI = run.import_program()

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3


def _ops(workload, *labels):
    by_label = {op.label: op for op in workloads.build_ops(workload, SEED)}
    return [by_label[label] for label in labels]


SMALL_OPS = (
    _ops("t0-ladder", "t0(4)", "t0(5)")
    + _ops("solvable-ladder", "J0(6)", "s1(6,0,1)", "s3(6)", "jordan[jordan,1,1;real,1,1,1]",
           "g6_38(a=0)", "g6_38(a)")
    + [op for op in workloads.build_ops("verify-bases", SEED) if op.label.startswith(("t0(6)", "g6_38"))]
)


def _bindings():
    return {
        (name, attr): obj
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lieinv" or name.startswith("lieinv."))
        for attr, obj in vars(mod).items()
    }


def test_tracer_rebinds_by_name_and_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        normalize = sys.modules["lieinv.normalize"]
        assert normalize.make_expr is not before[("lieinv.normalize", "make_expr")]
        assert normalize.make_expr.__wrapped__ is before[("lieinv.expr", "make_expr")]
        run.run_pass(CLI, SMALL_OPS[:1])
    assert len(tracer) > 0
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []


def test_traced_stdout_is_byte_identical_to_untraced():
    plain = run.run_pass(CLI, SMALL_OPS)
    tracer = Tracer()
    with tracer:
        traced = run.run_pass(CLI, SMALL_OPS)
    for op, (_, _, rc1, out1), (_, _, rc2, out2) in zip(SMALL_OPS, plain, traced):
        assert (rc1, out1) == (rc2, out2), op.label
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == len(SMALL_OPS)
    assert summary["expr.poly_gcd"]["top_calls"] <= summary["expr.poly_gcd"]["calls"]


def test_layer_metrics_cover_every_declared_metric():
    ops = SMALL_OPS[:3]
    tracer = Tracer()
    with tracer:
        run.run_pass(CLI, ops)
    metrics = layers.layer_metrics(tracer.summary(), atoms=1, central_requests=0, overhead=0.5)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["normalize.eliminate.pivots"][0] > 0
    assert 0 < metrics["expr.poly_gcd.trivial_frac"][0] <= 1


def _family_result(label):
    (op,) = _ops("t0-ladder" if label.startswith("t0") else "solvable-ladder", label)
    _, _, rc, out = run.run_op(CLI, op)
    return op, rc, out


def test_oracle_accepts_a_right_basis():
    op, rc, out = _family_result("t0(5)")
    verdict = oracle.check(op, rc, out, SEED)
    assert verdict.passed, verdict.reasons


def test_oracle_rejects_a_rotation_rows_short_basis():
    op, rc, out = _family_result("jordan[jordan,1,2;real,1,1,2]")
    assert rc == 1
    verdict = oracle.check(op, rc, out, SEED)
    assert not verdict.passed and not verdict.silent
    assert any("expected 5" in r for r in verdict.reasons)


@pytest.mark.parametrize("tamper", ["replace", "drop", "theta"])
def test_oracle_rejects_a_tampered_invariant_list(tamper):
    op, rc, out = _family_result("t0(5)")
    report = json.loads(out)
    invs = report["run"]["invariants"]
    if tamper == "replace":  # same count, but a dependent set
        invs[-1] = "(%s)^2 + %s" % (invs[0], invs[0])
    elif tamper == "drop":
        invs.pop()
        report["run"]["count"] -= 1
    else:
        invs[0] = invs[0] + " + th1"
    verdict = oracle.check(op, 0, json.dumps(report), SEED)
    assert not verdict.passed and verdict.silent, verdict.reasons


def test_oracle_judges_verify_verdicts():
    (plain,) = [op for op in SMALL_OPS if op.label == "t0(6):I3"]
    (perturbed,) = [op for op in SMALL_OPS if op.label.startswith("t0(6):I1+x")]
    for op in (plain, perturbed):
        _, _, rc, out = run.run_op(CLI, op)
        assert oracle.check(op, rc, out, SEED).passed
    assert oracle.expected_verify(plain) == (0, True, True)
    assert oracle.expected_verify(perturbed) == (1, False, False)
    lie = json.dumps({"expr": perturbed.expr, "ok": True, "central": True})
    verdict = oracle.check(perturbed, 0, lie, SEED)
    assert not verdict.passed and verdict.silent


def test_judge_counts_changed_output_as_failed_and_incorrect():
    ops = SMALL_OPS[:2]
    first = run.run_pass(CLI, ops)
    changed = [first[0], first[1][:3] + (first[1][3] + " ",)]
    failed, correct, problems = run.judge(ops, [first, first, changed], SEED)
    assert failed == 1 and not correct
    assert list(problems) == [ops[1].label]


def test_host_speed_sampling_leaves_output_alone_and_normalizes():
    plain = run.run_pass(CLI, SMALL_OPS[:2])
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        sampled = run.run_pass(CLI, SMALL_OPS[:2])
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(speed.durations) > 0
    assert [r[2:] for r in sampled] == [r[2:] for r in plain]

    speed = HostSpeed()
    for k in range(21):  # a host running at half the reference speed
        speed.starts.append(k / 10)
        speed.durations.append(2 * REFERENCE_S)
    inside = 11 * 2 * REFERENCE_S
    assert speed.normalize(0.0, 1.0) == pytest.approx((1.0 - inside) / 2)
    assert speed.normalize(0.0, 1.0, same_thread=False) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        speed.normalize(5.0, 6.0)


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20))) == (50, 9)
    p, value = run.tail(list(range(100)))
    assert p == 90 and sum(v > value for v in range(100)) == 10


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == {k: v[:2] for k, v in layers.PER_LAYER.items()}
    assert [m["name"] for m in spec["end_to_end"]] == [
        "pass_s", "op_s.p50", "ok_frac", "peak_rss_mb", "setup_s"]


def test_refuses_to_run_without_the_program_sources():
    bare = HERE.parent / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "t0-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
