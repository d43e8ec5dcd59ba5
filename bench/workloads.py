"""The benchmark's workloads: fixed instance lists turned into CLI operations.

An operation is one ``lieinv`` command line (the global options come first),
with an optional document fed on standard input, and what the oracle needs to
judge its output.  The instance lists are fixed; the seed is passed to the
CLI as ``--seed`` and picks the perturbation of each ``verify-bases``
instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from lieinv.expr import expr_str
from lieinv.families import make_g6_38, make_jordan, make_s1, make_s2, make_s3, make_s4, make_t0
from lieinv.io import render_algebra

# lieinv verify's default --degree-bound, passed explicitly so that the
# oracle and the program agree on when a centrality verdict is expected.
DEGREE_BOUND = 6

# The mixed Jordan/rotation block rows (the last four rows of the
# acceptance suite's block-pair table).  They exit 1 at the benchmark's first
# commit: elimination returns one invariant short of dim - 2.
ROTATION_ROWS = (
    "jordan,1,2;real,1,1,2",
    "jordan,1,1;real,1,1,1",
    "real,1,1,2;real,1,2,2",
    "real,1,1,1;real,1,2,1",
)


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple  # lieinv arguments, global options included
    stdin: str = None  # document read through "-"
    build: object = None  # family ops: builds the FamilyInstance for the oracle
    expr: str = None  # verify ops: the expression checked
    perturbed: bool = False  # verify ops: f + x_j, known not to be invariant


def _blocks(text):
    out = []
    for piece in text.split(";"):
        bits = piece.split(",")
        if bits[0] == "jordan":
            out.append(("jordan", Fraction(bits[1]), int(bits[2])))
        else:
            out.append(("real", Fraction(bits[1]), Fraction(bits[2]), int(bits[3])))
    return out


def _family(label, args, build):
    return label, ("family",) + tuple(args) + ("--run",), build


def _t0_ladder():
    return [
        _family("t0(%d)" % n, ["t0", "--n", str(n)], lambda n=n: make_t0(n))
        for n in (4, 5, 6)
    ]


def _solvable_ladder():
    ops = []
    for n in (6, 8, 10, 12, 14):
        blocks = "jordan,0,%d" % (n - 1)
        ops.append(_family("J0(%d)" % n, ["jordan", "--blocks", blocks],
                           lambda b=blocks: make_jordan(_blocks(b))))
    for n in (6, 8):
        for alpha, beta in ((1, 0), (0, 1)):
            ops.append(_family(
                "s1(%d,%d,%d)" % (n, alpha, beta),
                ["s1", "--n", str(n), "--alpha", str(alpha), "--beta", str(beta)],
                lambda n=n, a=alpha, b=beta: make_s1(n, Fraction(a), Fraction(b))))
        for name, make in (("s2", make_s2), ("s3", make_s3), ("s4", make_s4)):
            ops.append(_family("%s(%d)" % (name, n), [name, "--n", str(n)],
                               lambda n=n, make=make: make(n)))
    for blocks in ROTATION_ROWS:
        ops.append(_family("jordan[%s]" % blocks, ["jordan", "--blocks", blocks],
                           lambda b=blocks: make_jordan(_blocks(b))))
    ops.append(_family("g6_38(a=0)", ["g6_38", "--a", "0"], lambda: make_g6_38(Fraction(0))))
    ops.append(_family("g6_38(a)", ["g6_38"], make_g6_38))
    return ops


VERIFY_INSTANCES = (
    ("t0(6)", lambda: make_t0(6)),
    ("t0(7)", lambda: make_t0(7)),
    ("t0(8)", lambda: make_t0(8)),
    ("J0(10)", lambda: make_jordan([("jordan", Fraction(0), 9)])),
    ("s4(8)", lambda: make_s4(8)),
    ("s3(8)", lambda: make_s3(8)),
    ("s2(8)", lambda: make_s2(8)),
    ("g6_38(a)", make_g6_38),
)


def _non_central(g):
    return [
        j for j in range(1, g.dim + 1)
        if any(not c.is_zero() for k in range(1, g.dim + 1) for c in g.bracket(j, k).values())
    ]


def _verify_bases(seed):
    """One verify op per closed-form invariant, plus f + x_j per instance."""
    ops = []
    for name, make in VERIFY_INSTANCES:
        inst = make()
        doc = render_algebra(inst.algebra)
        exprs = [expr_str(f) for f in inst.expected_invariants]
        for k, text in enumerate(exprs, start=1):
            ops.append(Op(label="%s:I%d" % (name, k), argv=_verify_argv(text),
                          stdin=doc, expr=text))
        j = random.Random("%d:%s" % (seed, name)).choice(_non_central(inst.algebra))
        text = "(%s) + x%d" % (exprs[0], j)
        ops.append(Op(label="%s:I1+x%d" % (name, j), argv=_verify_argv(text),
                      stdin=doc, expr=text, perturbed=True))
    return ops


def _verify_argv(text):
    return ("verify", "-", "--expr", text, "--central")


WORKLOADS = {
    "t0-ladder": "family t0 --run for n = 4, 5, 6: the paper's scaling family; "
                 "over 90% of the time is elimination, mostly poly_gcd",
    "solvable-ladder": "21 family --run ops on J0, s1-s4, rotation rows and g6_38: mid-sized "
                       "ops bound by gcd, jacobian_rank, exp_ad recipes and closure rules; "
                       "4 known failures",
    "verify-bases": "verify --central on 34 closed-form invariants and 8 seeded non-invariants: "
                    "parsing, quotient-rule residuals and centrality; never calls normalize",
}


def build_ops(workload, seed):
    """The operation list of a workload, with the global options filled in."""
    if workload == "verify-bases":
        ops = _verify_bases(seed)
    else:
        raw = _t0_ladder() if workload == "t0-ladder" else _solvable_ladder()
        ops = [Op(label=label, argv=args, build=build) for label, args, build in raw]
    head = ("--format", "json", "--seed", str(seed), "--degree-bound", str(DEGREE_BOUND))
    return [replace(op, argv=head + op.argv) for op in ops]
