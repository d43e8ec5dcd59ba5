#!/usr/bin/env python3
"""lieinv benchmark: CLI time to a certified invariant basis.

    python3 bench/run.py --workload t0-ladder --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else.  Each operation is one
in-process call of ``lieinv.cli.main(argv)`` with ``--format json`` and the
workload seed as ``--seed``, stdout captured.  One process runs one
workload, one operation at a time.

--trace 0  Whole passes over the operation list until the next pass would
           end after --seconds (at least one).  Reports the end-to-end
           metrics: pass_s (median pass), op_s.p50 (median operation),
           ok_frac (1 - failed_frac), peak_rss_mb and setup_s (median of
           fresh processes that import, build the operation list and run
           one warm-up operation).  The times are wall times normalized to a
           reference host speed sampled during the run (hostspeed.py); the
           raw wall time of a pass is printed beside them.
--trace 1  One untraced pass, then one pass under the outside-in tracer
           (tracer.py).  Reports the per-layer metrics and writes the spans
           to .bench_out/spans-<workload>.bin.

After the timed passes the oracle (oracle.py) judges every operation of the
first pass, and every later pass must reproduce the first pass's exit codes
and stdout byte for byte.  An operation fails when either check fails.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; correct is false when the program returned a wrong
answer without flagging it by its exit code, or its output changed between
passes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import REFERENCE_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build the operation list, run the warm-up operation, exit")
    return p.parse_args(argv)


def import_program():
    """Import lieinv from this checkout's src/ (never from site-packages)."""
    if not (SRC / "lieinv" / "cli.py").is_file():
        raise SystemExit("bench: no lieinv sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import lieinv.cli

    if Path(lieinv.cli.__file__).resolve().parent != (SRC / "lieinv").resolve():
        raise SystemExit("bench: lieinv imported from %s" % lieinv.cli.__file__)
    return lieinv.cli


def run_op(cli, op):
    """One operation: (start, end, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                rc = "crash: " + traceback.format_exc().strip().splitlines()[-1]
            end = time.perf_counter()
    finally:
        sys.stdin = saved
    return start, end, rc, out.getvalue()


def run_pass(cli, ops):
    """[(start, end, exit code, stdout)] for every operation, in order."""
    return [run_op(cli, op) for op in ops]


def pass_wall(results):
    return results[-1][1] - results[0][0]


def timed_passes(cli, ops, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, ops))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(pass_wall(p) for p in passes) > seconds:
            return passes


def setup_times(args):
    """(start, end) of fresh processes doing the set-up of this workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append((start, time.perf_counter()))
    return times


def _digest(rc, stdout):
    return hashlib.sha256(("%s\n" % (rc,)).encode() + stdout.encode()).hexdigest()


def judge(ops, passes, seed):
    """(failed, correct, problems): the oracle on the first pass, and the
    byte-identical replay of the first pass on every later one."""
    import oracle  # sympy loads only after the timed passes and the RSS reading

    first = passes[0]
    verdicts = [oracle.check(op, rc, out, seed) for op, (_, _, rc, out) in zip(ops, first)]
    digests = [_digest(rc, out) for _, _, rc, out in first]
    problems = {}
    failed = 0
    correct = True
    for k, results in enumerate(passes):
        for op, verdict, digest, (_, _, rc, out) in zip(ops, verdicts, digests, results):
            same = _digest(rc, out) == digest
            if not same:
                problems.setdefault(op.label, []).append(
                    "pass %d: exit code or stdout differs from pass 1" % (k + 1))
                correct = False
            if not (verdict.passed and same):
                failed += 1
    for op, verdict in zip(ops, verdicts):
        if not verdict.passed:
            problems.setdefault(op.label, []).extend(verdict.reasons)
            correct = correct and not verdict.silent
    return failed, correct, problems


def tail(samples):
    """(p, value): the highest whole percentile with at least ten samples
    above it (nearest rank), or None when there are fewer than 20 samples."""
    n = len(samples)
    p = math.floor(100 * (n - 10) / n) if n else 0
    if p < 50:
        return None
    return p, sorted(samples)[math.ceil(p * n / 100) - 1]


def end_to_end(args, cli, ops):
    with HostSpeed() as speed:
        setups = setup_times(args)
        passes = timed_passes(cli, ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct, problems = judge(ops, passes, args.seed)
    attempted = len(ops) * len(passes)
    op_s = [[speed.normalize(a, b) for a, b, _, _ in results] for results in passes]
    pass_s = [sum(ops_s) for ops_s in op_s]
    op_s = [t for ops_s in op_s for t in ops_s]
    setup_s = [speed.normalize(a, b, same_thread=False) for a, b in setups]
    wall = [pass_wall(results) for results in passes]
    lines = [
        "workload %s  seed %d  ops/pass %d  passes %d" % (
            args.workload, args.seed, len(ops), len(passes)),
        "pass_s       median %.4f s at reference speed  (n=%d passes)%s" % (
            statistics.median(pass_s), len(pass_s), _tail_text(pass_s)),
        "op_s.p50     %.4f s  (n=%d ops)%s" % (
            statistics.median(op_s), len(op_s), _tail_text(op_s)),
        "failed_frac  %d/%d = %.4f  (ok_frac %.4f)" % (
            failed, attempted, failed / attempted, 1 - failed / attempted),
        "peak_rss_mb  %.1f MB  (n=1 process)" % peak_rss_mb,
        "setup_s      median %.4f s  (n=%d processes)" % (
            statistics.median(setup_s), len(setup_s)),
        "wall pass    median %.4f s, host slowdown median %.3f  (n=%d samples)" % (
            statistics.median(wall), statistics.median(speed.durations) / REFERENCE_S,
            len(speed.durations)),
    ]
    metrics = {
        "pass_s": (statistics.median(pass_s), "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "ok_frac": (1 - failed / attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    return lines, problems, correct, attempted, failed, metrics


def _tail_text(samples):
    t = tail(samples)
    return "  p%d %.4f s" % t if t else ""


def per_layer(args, cli, ops):
    import lieinv.expr
    from tracer import Tracer
    from layers import layer_metrics

    untraced = run_pass(cli, ops)
    tracer = Tracer()
    with tracer:
        traced = run_pass(cli, ops)
    atoms = len(lieinv.expr._ATOMS)
    failed, correct, problems = judge(ops, [untraced, traced], args.seed)
    requests = sum("--central" in op.argv for op in ops)
    untraced_s, traced_s = pass_wall(untraced), pass_wall(traced)
    metrics = layer_metrics(tracer.summary(), atoms=atoms, central_requests=requests,
                            overhead=traced_s / untraced_s - 1)
    OUT.mkdir(exist_ok=True)
    spans = OUT / ("spans-%s.bin" % args.workload)
    tracer.write_spans(spans)
    lines = [
        "workload %s  seed %d  ops %d  untraced pass %.4f s  traced pass %.4f s  spans %d -> %s"
        % (args.workload, args.seed, len(ops), untraced_s, traced_s, len(tracer),
           spans.relative_to(ROOT)),
    ]
    lines += ["%-40s %s %s" % (name, _num(v), unit) for name, (v, unit) in metrics.items()]
    return lines, problems, correct, 2 * len(ops), failed, metrics


def _num(v):
    return "%d" % v if isinstance(v, int) else "%.6g" % v


def main(argv=None):
    args = parse_args(argv)
    cli = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit("bench: unknown workload %r (choose from %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)))
    ops = workloads.build_ops(args.workload, args.seed)
    run_op(cli, ops[0])  # warm-up
    if args.setup_only:
        return 0
    measure = per_layer if args.trace else end_to_end
    lines, problems, correct, attempted, failed, metrics = measure(args, cli, ops)
    for line in lines:
        print(line)
    for label, reasons in problems.items():
        print("FAILED %s: %s" % (label, "; ".join(reasons)))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
