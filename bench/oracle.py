"""Correctness oracle for benchmark operations, run outside the timed region.

``family ... --run`` operations pass when
  * the exit code is 0 and ``run.complete`` is true,
  * ``run.count`` equals dim - rank_coadjoint(g) at the workload seed, and
  * the printed ``run.invariants`` are functionally equivalent to the
    family's closed-form expected invariants: at two random points the
    Jacobians (over the coordinates x1..xn) of the found set, the expected
    set and their union all have rank equal to the size of the expected set.

``verify ... --central`` operations pass when ``ok`` and ``central`` match the
known verdict: closed-form invariants are invariant and perturbed ones
(f + x_j with e_j non-central) are not; a centrality verdict is expected
exactly for coordinate polynomials of degree at most the degree bound, and
the symmetrization of a polynomial invariant is central.

sympy parses the printed expressions and differentiates them; mpmath
evaluates the Jacobians with 50 significant digits.  Both serve only as an
oracle here; lieinv itself stays stdlib-only.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

import mpmath
import sympy
from sympy.parsing.sympy_parser import parse_expr

from lieinv.algebra import rank_coadjoint
from lieinv.expr import expr_str
from workloads import DEGREE_BOUND

_DIGITS = 50
_RANK_EPS = mpmath.mpf(10) ** -30
_POINTS = 2  # regular sample points that must agree
_ATTEMPTS = 8


@dataclass
class Verdict:
    passed: bool
    silent: bool  # wrong and not flagged by the program's exit code
    reasons: list


def _parse(text, symbols):
    return parse_expr(text.replace("^", "**"), local_dict=symbols)


def _rank(rows):
    m = [list(r) for r in rows]
    if not m:
        return 0
    scale = max(abs(v) for r in m for v in r) or 1
    rank = 0
    for c in range(len(m[0])):
        piv = max(range(rank, len(m)), key=lambda i: abs(m[i][c]), default=None)
        if piv is None or abs(m[piv][c]) <= _RANK_EPS * scale:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][c] / m[rank][c]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def equivalence_problem(found, expected, dim, params=(), param_point=None, seed=0):
    """None when the two lists of expression strings are functionally
    equivalent bases over x1..x<dim>; otherwise a one-line reason."""
    if len(found) != len(expected):
        return "found %d invariants, expected %d" % (len(found), len(expected))
    xs = sympy.symbols("x1:%d" % (dim + 1))
    ps = [sympy.Symbol(p) for p in params]
    symbols = {str(s): s for s in list(xs) + ps}
    allowed = set(xs) | set(ps)
    funcs = []
    for text in list(found) + list(expected):
        f = _parse(text, symbols)
        stray = f.free_symbols - allowed
        if stray:
            return "%s contains %s" % (text, ", ".join(sorted(map(str, stray))))
        funcs.append(f)
    grads = sympy.lambdify(list(xs) + ps, [[sympy.diff(f, x) for x in xs] for f in funcs],
                           modules="mpmath")
    fixed = {atom.data: value for atom, value in (param_point or {}).items()}
    rng = random.Random(seed)
    k = len(found)
    good = 0
    with mpmath.workdps(_DIGITS):
        for _ in range(_ATTEMPTS):
            point = [mpmath.mpf(rng.randint(1, 97)) / rng.randint(1, 13) for _ in xs]
            for p in params:
                value = fixed.get(p)
                if value is None:
                    point.append(mpmath.mpf(rng.randint(1, 97)) / rng.randint(1, 13))
                else:
                    point.append(mpmath.mpf(value.numerator) / value.denominator)
            try:
                rows = grads(*point)
            except (ZeroDivisionError, ValueError):
                continue
            if any(not mpmath.isfinite(v) or isinstance(v, mpmath.mpc)
                   for r in rows for v in r):
                continue
            ranks = (_rank(rows[:k]), _rank(rows[k:]), _rank(rows))
            if ranks != (k, k, k):
                return "Jacobian ranks found/expected/union = %d/%d/%d, want %d" % (ranks + (k,))
            good += 1
            if good == _POINTS:
                return None
    return "no regular sample point in %d attempts" % _ATTEMPTS


def check_family(op, rc, stdout, seed):
    """Judge one ``family ... --run`` operation."""
    try:
        run = json.loads(stdout)["run"]
    except (ValueError, KeyError):
        return Verdict(False, rc == 0, ["exit code %s, no JSON run report" % rc])
    inst = op.build()
    g = inst.algebra
    reasons = []
    if rc != 0:
        reasons.append("exit code %s" % rc)
    if run.get("complete") is not True:
        reasons.append("run.complete is %r" % run.get("complete"))
    rank, _ = rank_coadjoint(g, seed=seed, param_point=inst.param_point)
    if run.get("count") != g.dim - rank:
        reasons.append("run.count %r, dim - rank = %d" % (run.get("count"), g.dim - rank))
    invariants = run.get("invariants") or []
    why = equivalence_problem(
        invariants, [expr_str(f) for f in inst.expected_invariants], g.dim,
        g.params, inst.param_point, seed,
    )
    if why:
        reasons.append(why)
    return Verdict(not reasons, bool(reasons) and rc == 0, reasons)


def expected_verify(op):
    """(exit code, ok, central) that ``verify --central`` must print; central
    is None when no centrality verdict is due."""
    f = _parse(op.expr, {})
    xs = sorted((s for s in f.free_symbols if re.fullmatch(r"x\d+", s.name)), key=str)
    polynomial = not f.atoms(sympy.Function) and f.is_polynomial(*xs)
    decided = polynomial and sympy.Poly(f, *xs).total_degree() <= DEGREE_BOUND
    ok = not op.perturbed
    central = ok if decided else None
    return (0 if ok and central is not False else 1), ok, central


def check_verify(op, rc, stdout):
    """Judge one ``verify ... --central`` operation."""
    want_rc, want_ok, want_central = expected_verify(op)
    try:
        report = json.loads(stdout)
    except ValueError:
        return Verdict(False, True, ["exit code %s, no JSON report" % rc])
    got = (rc, report.get("ok"), report.get("central"))
    want = (want_rc, want_ok, want_central)
    if got == want:
        return Verdict(True, False, [])
    return Verdict(False, True, ["(exit, ok, central) = %r, want %r" % (got, want)])


def check(op, rc, stdout, seed):
    if op.build is not None:
        return check_family(op, rc, stdout, seed)
    return check_verify(op, rc, stdout)
