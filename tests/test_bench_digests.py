"""Seeded CLI output of every benchmark operation stays byte-identical.

One sha256 per operation, over the exit code and standard output, for every
operation that bench/workloads.build_ops yields for the three workloads at
seeds 1, 2 and 31.  The operations run in-process through lieinv.cli.main,
as bench/run.py runs them, and the digest is bench/run.py's: sha256 of
"<exit code>\\n" followed by stdout.

The recorded digests live in bench_digests.json beside this file.  A change
that alters the output on purpose regenerates them with

    PYTHONPATH=src python3 tests/test_bench_digests.py

and lists the output-contract change it makes.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "bench_digests.json"
WORKLOADS = ("t0-ladder", "solvable-ladder", "verify-bases")
SEEDS = (1, 2, 31)


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return workloads


def run_op(op):
    """sha256 of the exit code and stdout of one in-process CLI call."""
    from lieinv.cli import main

    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(op.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code
    finally:
        sys.stdin = saved
    return hashlib.sha256(("%s\n" % (rc,)).encode() + out.getvalue().encode()).hexdigest()


def digests(workload, seed):
    """{op label: digest} for one workload at one seed."""
    ops = _workloads().build_ops(workload, seed)
    out = {op.label: run_op(op) for op in ops}
    assert len(out) == len(ops), "operation labels are not unique"
    return out


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_output_is_unchanged(workload, seed):
    want = json.loads(DIGESTS.read_text())[workload][str(seed)]
    got = digests(workload, seed)
    assert sorted(got) == sorted(want)
    assert [label for label in want if got[label] != want[label]] == []


def test_digest_count():
    recorded = json.loads(DIGESTS.read_text())
    assert sorted(recorded) == sorted(WORKLOADS)
    assert all(sorted(recorded[w]) == sorted(map(str, SEEDS)) for w in WORKLOADS)
    assert sum(len(per_seed) for w in WORKLOADS for per_seed in recorded[w].values()) == 198


if __name__ == "__main__":
    table = {w: {str(s): digests(w, s) for s in SEEDS} for w in WORKLOADS}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
