"""The coefficient rule: integral coefficients are ints, the others Fractions.

Every coefficient a Poly stores is an int when it is integral and a Fraction
with denominator > 1 otherwise.  Equal int and Fraction values compare and
hash equal, so polynomials built from legacy Fraction(k) coefficients must
give the same results as int-built ones, and both must agree with sympy.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieinv.expr import (
    EXPR_ZERO,
    MONO_ONE,
    POLY_ONE,
    Expr,
    Poly,
    atom_str,
    coord,
    coord_atom,
    evaluate,
    expr_str,
    make_expr,
    make_monomial,
    make_poly,
    rational,
)
from lieinv.families import builtin_instances, make_jordan
from lieinv.normalize import eliminate
from test_acceptance import PAIR_ROWS

ATOMS = [coord_atom(k) for k in (1, 2, 3)]
SYMS = {a: sympy.Symbol(atom_str(a)) for a in ATOMS}


def rule_breaks(c):
    """Why c breaks the coefficient rule, or None when it keeps it."""
    if type(c) is int:
        return None
    if type(c) is Fraction:
        return "integral Fraction %r" % (c,) if c.denominator == 1 else None
    return "%s coefficient %r" % (type(c).__name__, c)


def poly_breaks(p):
    return [(m, why) for m, c in p.terms.items() if (why := rule_breaks(c))]


def expr_breaks(f, seen=None):
    """Every rule break in f, its generator-atom arguments and its exp parts."""
    seen = set() if seen is None else seen
    if id(f) in seen:
        return []
    seen.add(id(f))
    out = []
    for p in (f.num, f.den):
        out += poly_breaks(p)
        for m in p.terms:
            for a, _ in m.vars:
                if a.is_generator:
                    out += expr_breaks(a.data, seen)
            if m.ep is not None:
                out += expr_breaks(m.ep.base, seen)
                for a, coeff in m.ep.terms:
                    out += expr_breaks(a.data, seen) + expr_breaks(coeff, seen)
    return out


def to_sympy(p):
    acc = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for a, e in m.vars:
            term *= SYMS[a] ** e
        acc += term
    return acc


# ---------------------------------------------------------------------------
# kernel operations on int-built and Fraction(k)-built inputs

coefficient = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
)
exponents = st.tuples(*[st.integers(0, 2)] * len(ATOMS))
term_lists = st.lists(st.tuples(coefficient, exponents), min_size=1, max_size=4)


def build(terms, legacy):
    """The Poly of terms; legacy stores each integral value as Fraction(k)."""
    acc = {}
    for c, exps in terms:
        m = make_monomial(zip(ATOMS, exps), None)
        acc[m] = acc.get(m, 0) + c
    if not legacy:
        return make_poly(acc)
    return Poly({m: Fraction(c) for m, c in acc.items() if c})


def same(a, b):
    assert a == b and hash(a) == hash(b)
    assert expr_str(Expr(a, POLY_ONE)) == expr_str(Expr(b, POLY_ONE))


class TestKernelAgainstSympy:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(term_lists, term_lists, coefficient, st.integers(0, 3))
    def test_int_and_fraction_inputs_agree_with_sympy(self, t1, t2, q, k):
        p, r = build(t1, False), build(t2, False)
        lp, lr = build(t1, True), build(t2, True)
        sp, sr = to_sympy(p), to_sympy(r)
        for got, legacy, want in (
            (p.add(r), lp.add(lr), sp + sr),
            (p.mul(r), lp.mul(lr), sp * sr),
            (p.pow(k), lp.pow(k), sp**k),
            (p.scale(q), lp.scale(Fraction(q)), sp * sympy.Rational(q.numerator, q.denominator)),
        ):
            assert poly_breaks(got) == []
            same(got, legacy)
            assert sympy.expand(to_sympy(got) - want) == 0
        if r.is_zero:
            return
        got, legacy = make_expr(p, r), make_expr(lp, lr)
        assert expr_breaks(got) == []
        assert got == legacy and hash(got) == hash(legacy)
        assert expr_str(got) == expr_str(legacy)
        assert got.den.lead()[1] == 1
        assert sympy.cancel(to_sympy(got.num) / to_sympy(got.den) - sp / sr) == 0


class TestPins:
    def test_is_one(self):
        x1 = make_monomial([(ATOMS[0], 1)], None)
        assert Poly({MONO_ONE: 1}).is_one
        assert Poly({MONO_ONE: Fraction(1)}).is_one
        assert not Poly({MONO_ONE: 2}).is_one
        assert not Poly({x1: 1}).is_one
        assert not Poly({}).is_one

    def test_monic_scaling_of_an_int_lead_is_exact(self):
        f = make_expr((coord(1) + 1).num, (rational(2) * coord(2) + 3).num)
        assert expr_str(f) == "(1/2*x1 + 1/2)/(x2 + 3/2)"
        coeffs = [c for p in (f.num, f.den) for _, c in p.items()]
        assert [type(c) for c in coeffs] == [Fraction, Fraction, int, Fraction]
        g = make_expr(coord(1).num, Poly({MONO_ONE: 2}))
        assert list(g.num.terms.values()) == [Fraction(1, 2)]
        assert type(list(g.num.terms.values())[0]) is Fraction

    def test_constants_are_read_as_fractions(self):
        for f, want in ((rational(3), 3), (rational(Fraction(6, 2)), 3),
                        (rational(Fraction(-1, 2)), Fraction(-1, 2)), (EXPR_ZERO, 0)):
            got = f.as_fraction()
            assert type(got) is Fraction and got == want
        point = {ATOMS[0]: 2, ATOMS[1]: 3}
        for f, want in ((coord(1) * coord(2) + 1, 7), (coord(1) / coord(2), Fraction(2, 3))):
            got = evaluate(f, point)
            assert type(got) is Fraction and got == want

    def test_integral_fractions_are_stored_as_ints(self):
        half = rational(Fraction(1, 2))
        assert (half + half).num.terms == {MONO_ONE: 1}
        assert type((half * coord(1) * 2).num.lead()[1]) is int
        assert type(rational(Fraction(4, 2)).num.lead()[1]) is int
        assert rule_breaks(0.5) == "float coefficient 0.5"


# ---------------------------------------------------------------------------
# every Expr the pipeline yields keeps the rule


def pipeline_exprs(inst):
    lift = inst.lifted()
    res = eliminate(lift)
    yield from lift.exprs()
    for factor in lift.factors:
        yield from (v for m in (factor.ad, factor.closed) for row in m.rows for v in row)
    yield from res.invariants + res.assumptions + res.residual
    for p in res.pivots:
        yield from [p.solution] + p.assumptions
    yield from inst.expected_invariants


@pytest.mark.parametrize(
    "inst",
    builtin_instances() + [make_jordan(blocks) for blocks in PAIR_ROWS],
    ids=lambda inst: inst.algebra.name,
)
def test_pipeline_coefficients_keep_the_rule(inst):
    count = 0
    for f in pipeline_exprs(inst):
        assert isinstance(f, Expr)
        assert expr_breaks(f) == [], expr_str(f)
        count += 1
    assert count > inst.algebra.dim
