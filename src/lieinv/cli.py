"""Command-line interface.

Subcommands:

* validate FILE   -- parse a document and report structure violations
* info FILE       -- dimension, series, center, coadjoint rank
* lifted FILE     -- moving-frame factors and the lifted invariants
* invariants FILE -- full pipeline: frame, elimination, verification
* verify FILE --expr EXPR -- check one expression against the PDE system
* family NAME ... -- emit a built-in algebra document with its known basis

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 no exact exponential (irrational or formal rotation frequency) or
elimination incomplete, 141 (128 + SIGPIPE) the reader closed standard output
early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra import (
    StructureError,
    center,
    derived_series,
    lower_central_series,
    rank_coadjoint,
)
from .expr import KernelError, atom_str, expr_str
from .families import (
    make_g6_38,
    make_jordan,
    make_s1,
    make_s2,
    make_s3,
    make_s4,
    make_t0,
)
from .frame import RecipeNeeded, lifted_invariants
from .io import ParseError, expr_latex, parse_expr, load_algebra, render_algebra
from .normalize import eliminate, rescale_to_polynomial
from .verify import check_all, check_invariant, is_central

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RECIPE = 3
EXIT_BROKEN_PIPE = 141


class _Unreadable(Exception):
    """The input file or standard input cannot be read as text."""


def _read_source(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        # UnicodeDecodeError has no filename, so name the path given
        raise _Unreadable("%s: %s" % (path, getattr(err, "strerror", None) or err)) from err


def _load(path):
    text = _read_source(path)
    return load_algebra(text)


def _fmt(args):
    return expr_latex if args.latex else expr_str


def _emit(args, report, text_lines):
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("expected a rational number, got %r" % text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args):
    try:
        g = _load(args.file)
    except StructureError as err:
        report = {"valid": False, "problems": str(err).split("; ")}
        _emit(args, report, ["invalid: %s" % p for p in report["problems"]])
        return EXIT_VERIFY
    report = {"valid": True, "dim": g.dim}
    _emit(args, report, ["valid: %d-dimensional Lie algebra" % g.dim])
    return EXIT_OK


def cmd_info(args):
    g = _load(args.file)
    rank, _ = rank_coadjoint(g, seed=args.seed, trials=args.trials)
    zdim = len(center(g))
    derived = derived_series(g)
    lower = lower_central_series(g)
    report = {
        "name": g.name or None,
        "dim": g.dim,
        "params": list(g.params),
        "center_dim": zdim,
        "derived_series": derived,
        "lower_central_series": lower,
        "nilpotent": lower[-1] == 0,
        "solvable": derived[-1] == 0,
        "coadjoint_rank": rank,
        "num_invariants": g.dim - rank,
    }
    lines = [
        "name: %s" % (g.name or "(unnamed)"),
        "dim: %d" % g.dim,
        "params: %s" % (", ".join(g.params) if g.params else "(none)"),
        "center dim: %d" % zdim,
        "derived series dims: %s" % derived,
        "lower central series dims: %s" % lower,
        "nilpotent: %s, solvable: %s" % (report["nilpotent"], report["solvable"]),
        "coadjoint rank: %d" % rank,
        "independent invariants: %d" % report["num_invariants"],
    ]
    _emit(args, report, lines)
    return EXIT_OK


def cmd_lifted(args):
    g = _load(args.file)
    fmt = _fmt(args)
    lift = lifted_invariants(g)
    exprs = lift.exprs()
    report = {
        "dim": g.dim,
        "thetas": [a.data for a in lift.thetas],
        "lifted": [fmt(f) for f in exprs],
    }
    lines = ["frame parameters: %s" % ", ".join("th%d" % i for i in report["thetas"])]
    for k, f in enumerate(exprs, start=1):
        lines.append("I%d = %s" % (k, fmt(f)))
    _emit(args, report, lines)
    return EXIT_OK


def _pipeline(g, args, signs=None, param_point=None):
    """Frame, elimination and the sampled coadjoint rank.

    eliminate checks every survivor against the coadjoint system and raises
    KernelError on one that fails, so the returned invariants are verified.
    The rank is the generic rank of the structure matrix C(x), sampled by
    rank_coadjoint at --seed/--trials with the parameters at param_point; a
    complete basis has dim - rank members (Beltrametti-Blasi).  It equals
    the generic rank of the lifted set's theta-Jacobian (frame.jacobian_rank).
    """
    lift = lifted_invariants(g, signs=signs)
    res = eliminate(lift)
    rank, _ = rank_coadjoint(g, seed=args.seed, trials=args.trials, param_point=param_point)
    return res, rank


def cmd_invariants(args):
    g = _load(args.file)
    fmt = _fmt(args)
    res, rank = _pipeline(g, args)
    rescaled, notes = rescale_to_polynomial(res.invariants)
    report = {
        "dim": g.dim,
        "frame_rank": rank,
        "expected_count": g.dim - rank,
        "complete": res.complete,
        "invariants": [fmt(f) for f in res.invariants],
        "rescaled": [fmt(f) for f in rescaled],
        "pivots": [
            {"kind": p.kind, "theta": p.theta.data, "solution": expr_str(p.solution)}
            for p in res.pivots
        ],
        "assumptions": [expr_str(a) + " != 0" for a in res.assumptions],
        "applied_recipes": list(res.applied_recipes),
        "residual_count": len(res.residual),
        "verified": True,
    }
    lines = ["invariants found: %d (rank %d, expected %d)" % (
        res.count, rank, g.dim - rank)]
    for f in res.invariants:
        lines.append("  %s" % fmt(f))
    if any(not (a - b).is_zero() for a, b in zip(rescaled, res.invariants)):
        lines.append("rescaled polynomial forms:")
        for f in rescaled:
            lines.append("  %s" % fmt(f))
        for note in notes:
            lines.append("  note: %s" % note)
    if res.pivots:
        lines.append("normalizations:")
        for p in res.pivots:
            lines.append("  th%d (%s) = %s" % (p.theta.data, p.kind, expr_str(p.solution)))
    if res.applied_recipes:
        lines.append("recipes applied: %s" % ", ".join(res.applied_recipes))
    if report["assumptions"]:
        lines.append("generic assumptions: %s" % "; ".join(report["assumptions"]))
    lines.append("verified against the coadjoint system: True")
    if not res.complete:
        lines.append("elimination incomplete: %d lifted expressions unresolved" % len(res.residual))
    _emit(args, report, lines)
    if not res.complete:
        return EXIT_RECIPE
    if res.count != g.dim - rank:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args):
    g = _load(args.file)
    fmt = _fmt(args)
    try:
        f = parse_expr(args.expr)
        _check_coordinates(f, g)
    except ParseError as err:
        print("expression error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    chk = check_invariant(g, f)
    report = {
        "expr": fmt(f),
        "ok": chk.ok,
        "residuals": [
            {"generator": i + 1, "residual": fmt(r)}
            for i, r in enumerate(chk.residuals)
            if not r.is_zero()
        ],
    }
    lines = ["expression: %s" % report["expr"]]
    if chk.ok:
        lines.append("annihilated by all coadjoint fields: true")
    else:
        for item in report["residuals"]:
            lines.append("X_%d residual: %s" % (item["generator"], item["residual"]))
        lines.append("annihilated by all coadjoint fields: false")
    central = None
    if args.central:
        try:
            central = is_central(g, f, degree_bound=args.degree_bound)
        except KernelError as err:
            lines.append("centrality check unavailable: %s" % err)
        else:
            report["central"] = central
            lines.append("symmetrized element central (degree <= %d): %s" % (
                args.degree_bound, central))
    _emit(args, report, lines)
    if not chk.ok or central is False:
        return EXIT_VERIFY
    return EXIT_OK


def _check_coordinates(f, g):
    """Reject frame parameters th_k, coordinates x_k outside 1..dim and
    names that g does not declare as parameters."""
    atoms = f.atoms()
    foreign = sorted(
        (a for a in atoms if a.head == "th" or (a.head == "x" and not 1 <= a.data <= g.dim)),
        key=lambda a: (a.head, a.data),
    )
    undeclared = sorted(a.data for a in atoms if a.head == "p" and a.data not in g.params)
    problems = []
    if foreign:
        problems.append("not a coordinate of the %d-dimensional algebra: %s"
                        % (g.dim, ", ".join(map(atom_str, foreign))))
    if undeclared:
        problems.append("undeclared parameter: %s" % ", ".join(undeclared))
    if problems:
        raise ParseError("; ".join(problems))


def _parse_blocks(text):
    blocks = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        bits = [b.strip() for b in piece.split(",")]
        kind = bits[0]
        if kind == "jordan" and len(bits) == 3:
            blocks.append(("jordan", _parse_fraction(bits[1]), int(bits[2])))
        elif kind == "real" and len(bits) == 4:
            blocks.append(("real", *map(_parse_fraction, bits[1:3]), int(bits[3])))
        else:
            raise argparse.ArgumentTypeError(
                "bad block %r (use jordan,LAMBDA,SIZE or real,MU,NU,HALF)" % piece
            )
    if not blocks:
        raise argparse.ArgumentTypeError("no blocks given")
    return blocks


def _parse_assignments(text):
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise argparse.ArgumentTypeError("bad assignment %r (use INDEX=VALUE)" % piece)
        k, v = piece.split("=", 1)
        k = int(k)
        if k in out:
            raise argparse.ArgumentTypeError("index %d assigned twice" % k)
        out[k] = _parse_fraction(v)
    return out


# name -> (required options, optional options, builder of the FamilyInstance
# from the parsed arguments)
_FAMILIES = {
    "t0": (("n",), (), lambda args: make_t0(args.n)),
    "jordan": (("blocks",), (), lambda args: make_jordan(_parse_blocks(args.blocks))),
    "s1": (("n", "alpha", "beta"), (), lambda args: make_s1(args.n, args.alpha, args.beta)),
    "s2": (("n",), (), lambda args: make_s2(args.n)),
    "s3": (("n",), ("a",),
           lambda args: make_s3(args.n, a=_parse_assignments(args.a) if args.a else None)),
    "s4": (("n",), (), lambda args: make_s4(args.n)),
    "g6_38": ((), ("a",),
              lambda args: make_g6_38(None if args.a is None else _parse_fraction(args.a))),
}


def _flag_list(opts):
    flags = ["--" + opt for opt in opts]
    return " and ".join(filter(None, [", ".join(flags[:-1]), flags[-1]]))


def _make_family(args):
    required, optional, build = _FAMILIES[args.name]
    every = dict.fromkeys(o for req, opt, _ in _FAMILIES.values() for o in req + opt)
    unread = [o for o in every if o not in required + optional and getattr(args, o) is not None]
    if unread:
        raise argparse.ArgumentTypeError("%s does not read %s" % (args.name, _flag_list(unread)))
    # an empty --blocks counts as missing
    if any(getattr(args, opt) in (None, "") for opt in required):
        raise argparse.ArgumentTypeError("%s requires %s" % (args.name, _flag_list(required)))
    return build(args)


def cmd_family(args):
    fmt = _fmt(args)
    try:
        inst = _make_family(args)
    except (argparse.ArgumentTypeError, StructureError, ValueError) as err:
        print("family error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    g = inst.algebra
    doc = render_algebra(g)
    checks = check_all(g, inst.expected_invariants)
    verified = all(c.ok for c in checks)
    report = {
        "family": args.name,
        "dim": g.dim,
        "document": doc,
        "expected_invariants": [fmt(f) for f in inst.expected_invariants],
        "expected_verified": verified,
    }
    lines = []
    for raw in doc.rstrip("\n").split("\n"):
        lines.append(raw)
    lines.append("# expected invariants (%d):" % len(inst.expected_invariants))
    for f, c in zip(inst.expected_invariants, checks):
        mark = "ok" if c.ok else "FAILS"
        lines.append("#   [%s] %s" % (mark, fmt(f)))
    if args.run:
        res, rank = _pipeline(g, args, signs=inst.signs, param_point=inst.param_point)
        report["run"] = {
            "complete": res.complete,
            "count": res.count,
            "frame_rank": rank,
            "invariants": [fmt(f) for f in res.invariants],
            "assumptions": [expr_str(a) + " != 0" for a in res.assumptions],
            "verified": res.complete,
        }
        lines.append("# elimination: complete=%s count=%d rank=%d" % (
            res.complete, res.count, rank))
        for f in res.invariants:
            lines.append("#   %s" % fmt(f))
        if report["run"]["assumptions"]:
            lines.append("# generic assumptions: %s" % "; ".join(report["run"]["assumptions"]))
        _emit(args, report, lines)
        if not res.complete:
            return EXIT_RECIPE
        if not (verified and res.count == g.dim - rank):
            return EXIT_VERIFY
        return EXIT_OK
    _emit(args, report, lines)
    return EXIT_OK if verified else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %d" % (low, value))
        return value
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieinv",
        description="Exact invariants of finite-dimensional Lie algebras "
        "by the moving-frames normalization method.",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument("--trials", type=_int_at_least(1), default=8, help="sampling trials")
    parser.add_argument("--degree-bound", type=_int_at_least(0), default=6,
                        help="degree bound for centrality checks")
    parser.add_argument("--latex", action="store_true", help="render expressions as LaTeX")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document for structure violations")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("info", help="dimension, series, center, coadjoint rank")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("lifted", help="moving-frame lifted invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_lifted)

    p = sub.add_parser("invariants", help="run the full normalization pipeline")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="check an expression against the coadjoint system")
    p.add_argument("file")
    p.add_argument("--expr", required=True)
    p.add_argument("--central", action="store_true",
                   help="also check centrality of the symmetrized element")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("family", help="emit a built-in family instance")
    p.add_argument("name", choices=_FAMILIES)
    p.add_argument("--n", type=int, help="size parameter")
    p.add_argument("--blocks", help="jordan blocks, e.g. 'jordan,0,3;real,1,1,2'")
    p.add_argument("--alpha", type=_parse_fraction)
    p.add_argument("--beta", type=_parse_fraction)
    p.add_argument("--a", help="parameter value(s); for s3 use '3=1,4=-2'")
    p.add_argument("--run", action="store_true",
                   help="also run the elimination pipeline")
    p.set_defaults(func=cmd_family)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # surface a closed pipe here rather than in the interpreter's final flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (`lieinv ... | head`); send whatever is
        # still buffered to /dev/null so the exit flush stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except _Unreadable as err:
        print("cannot read %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except ParseError as err:
        print("parse error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except StructureError as err:
        print("structure violation: %s" % err, file=sys.stderr)
        return EXIT_VERIFY
    except RecipeNeeded as err:
        print("needs closed-form exponential: %s" % err, file=sys.stderr)
        return EXIT_RECIPE
    except KernelError as err:
        print("kernel error: %s" % err, file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
