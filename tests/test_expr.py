"""Exact expression kernel: arithmetic, normal forms, calculus rules."""

import random
import sys
from fractions import Fraction
from itertools import chain

import mpmath
import pytest
import sympy
from sympy.parsing.sympy_parser import parse_expr

from lieinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    KernelError,
    SingularPoint,
    ZeroDivision,
    atan_of,
    atom_str,
    coord,
    coord_atom,
    cos_of,
    differentiate,
    evaluate,
    exp_of,
    expr_str,
    from_atom,
    log_of,
    param,
    param_atom,
    poly_gcd,
    pow_rational,
    rational,
    sin_of,
    substitute,
    theta,
    theta_atom,
)
from lieinv.expr import (
    _PROBE_PRIME,
    _content,
    _gcd_is_constant,
    _poly_exact_div,
    make_monomial,
    make_poly,
)

X1, X2, X3 = coord(1), coord(2), coord(3)
T1 = theta(1)


def random_rational_expr(rng, depth=3):
    """Random rational expression in x1..x3 with small integer content."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.randrange(3)
        if choice == 0:
            return rational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return coord(rng.randint(1, 3))
    op = rng.randrange(4)
    a = random_rational_expr(rng, depth - 1)
    b = random_rational_expr(rng, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    if b.is_zero():
        return a
    return a / b


def random_transcendental_expr(rng, depth=3):
    """Random expression mixing rational parts with exp/log/atan/cos/sin."""
    base = random_rational_expr(rng, 2)
    if depth == 0:
        return base
    kind = rng.randrange(6)
    arg = random_rational_expr(rng, 2)
    try:
        if kind == 0:
            return base + exp_of(arg)
        if kind == 1 and not arg.is_zero():
            return base * log_of(arg)
        if kind == 2:
            return base + atan_of(arg)
        if kind == 3:
            return base * cos_of(arg) + sin_of(arg)
        if kind == 4:
            inner = random_transcendental_expr(rng, depth - 1)
            return base + inner
        return base * random_transcendental_expr(rng, depth - 1)
    except KernelError:
        return base


def sympy_symbols(names):
    return {name: sympy.Symbol(name) for name in names}


def parse_printed(f, symbols):
    """The printed form of f read by sympy, as the benchmark oracle reads it."""
    return parse_expr(expr_str(f).replace("^", "**"), local_dict=symbols)


_MP_CONSTANTS = {sympy.pi: mpmath.pi, sympy.E: mpmath.e, sympy.I: mpmath.j}
_MP_FUNCTIONS = {
    sympy.exp: mpmath.exp,
    sympy.log: mpmath.log,
    sympy.atan: mpmath.atan,
    sympy.cos: mpmath.cos,
    sympy.sin: mpmath.sin,
}


def mp_value(e, memo):
    """mpmath value of a sympy expression; memo holds the symbol values and shared subtrees."""
    got = memo.get(e)
    if got is None:
        if e.is_Rational:
            got = mpmath.mpf(e.p) / e.q
        elif e.is_Add:
            got = mpmath.fsum(mp_value(a, memo) for a in e.args)
        elif e.is_Mul:
            got = mpmath.fprod(mp_value(a, memo) for a in e.args)
        elif e.is_Pow:
            got = mp_value(e.base, memo) ** mp_value(e.exp, memo)
        elif e in _MP_CONSTANTS:
            got = _MP_CONSTANTS[e]
        else:
            got = _MP_FUNCTIONS[e.func](mp_value(e.args[0], memo))
        memo[e] = got
    return got


def regular_values(exprs, symbols, rng, points=2, attempts=8):
    """Values of the lists of sympy expressions exprs at seeded rational points.

    mpmath evaluates at its current precision.  A point where any value is
    singular is skipped; fewer than `points` regular points is an error.
    """
    found = []
    for _ in range(attempts):
        memo = {s: mpmath.mpf(rng.randint(1, 97)) / rng.randint(1, 13) for s in symbols.values()}
        try:
            values = [[mp_value(e, memo) for e in row] for row in exprs]
        except (ZeroDivisionError, ValueError):
            continue
        if all(mpmath.isfinite(v) for row in values for v in row):
            found.append(values)
            if len(found) == points:
                return found
    raise AssertionError("no %d regular sample points in %d attempts" % (points, attempts))


def agrees(value, terms):
    """value equals the sum of terms up to 30 digits of the largest magnitude involved."""
    scale = max([mpmath.mpf(1), abs(value)] + [abs(t) for t in terms])
    return abs(value - mpmath.fsum(terms)) <= mpmath.mpf(10) ** -30 * scale


class TestArithmetic:
    def test_field_axioms_on_random_expressions(self):
        rng = random.Random(101)
        for _ in range(60):
            a = random_rational_expr(rng)
            b = random_rational_expr(rng)
            c = random_rational_expr(rng)
            assert (a + b).equals(b + a)
            assert (a * b).equals(b * a)
            assert ((a + b) + c).equals(a + (b + c))
            assert (a * (b + c)).equals(a * b + a * c)
            assert (a - a).is_zero()
            if not a.is_zero():
                assert (a / a).is_one()

    def test_zero_and_one(self):
        assert EXPR_ZERO.is_zero()
        assert EXPR_ONE.is_one()
        assert (X1 + EXPR_ZERO).equals(X1)
        assert (X1 * EXPR_ONE).equals(X1)
        assert (X1 * EXPR_ZERO).is_zero()

    def test_fraction_normalization(self):
        f = (X1 * X1 - X2 * X2) / (X1 - X2)
        assert f.equals(X1 + X2)
        g = (rational(2) * X1) / rational(4)
        assert g.equals(rational(Fraction(1, 2)) * X1)

    def test_division_by_zero_raises(self):
        with pytest.raises(KernelError):
            X1 / EXPR_ZERO

    def test_integer_powers(self):
        assert (X1 ** 3).equals(X1 * X1 * X1)
        assert (X1 ** 0).is_one()
        assert (X1 ** -2).equals(EXPR_ONE / (X1 * X1))
        assert expr_str(X1 ** -2) == "1/(x1^2)"

    def test_fractional_power_becomes_exp_log(self):
        assert expr_str(X1 ** Fraction(1, 2)) == "exp(1/2*log(x1))"
        f = pow_rational(X1 + X2, Fraction(2, 3))
        assert expr_str(f) == "exp(2/3*log(x1 + x2))"
        # integer case stays polynomial
        assert pow_rational(X1, Fraction(4, 2)).equals(X1 * X1)


class TestTranscendentalRules:
    def test_exp_of_zero_is_one(self):
        assert exp_of(EXPR_ZERO).is_one()

    def test_exp_additivity(self):
        assert (exp_of(X1) * exp_of(X2)).equals(exp_of(X1 + X2))
        assert (exp_of(X1) * exp_of(-X1)).is_one()
        assert (exp_of(X1) / exp_of(X2)).equals(exp_of(X1 - X2))

    def test_log_splits_products(self):
        assert log_of(X1 * X2).equals(log_of(X1) + log_of(X2))
        assert log_of(X1 / X2).equals(log_of(X1) - log_of(X2))

    def test_log_unwraps_pure_exponentials(self):
        assert log_of(exp_of(X1)).equals(X1)
        assert log_of(X1 * exp_of(X2)).equals(log_of(X1) + X2)

    def test_integer_log_coefficients_become_powers(self):
        assert exp_of(rational(2) * log_of(X1)).equals(X1 * X1)
        f = exp_of(log_of(X1) + cos_of(X2))
        assert f.equals(X1 * exp_of(cos_of(X2)))
        # the canonical forms themselves agree, not only their values
        assert exp_of(rational(2) * log_of(X1)) == X1 * X1
        assert exp_of(rational(-3) * log_of(X1) + X2) == exp_of(X2) / X1**3
        h = exp_of(rational(Fraction(1, 2)) * log_of(X1))
        assert h * h == X1

    def test_nested_transcendentals_rejected(self):
        with pytest.raises(KernelError):
            atan_of(sin_of(X1))
        with pytest.raises(KernelError):
            cos_of(log_of(X1))
        with pytest.raises(KernelError):
            sin_of(exp_of(X1))

    def test_log_of_zero_rejected(self):
        with pytest.raises(KernelError):
            log_of(EXPR_ZERO)

    def test_parity_normalization(self):
        assert cos_of(-X1).equals(cos_of(X1))
        assert sin_of(-X1).equals(-sin_of(X1))
        assert atan_of(-X2 / X1).equals(-atan_of(X2 / X1))

    def test_pythagorean_identity(self):
        c, s = cos_of(T1), sin_of(T1)
        assert (c * c + s * s).is_one()
        assert (c * c).equals(EXPR_ONE - s * s)

    def test_atan_rotation_rule(self):
        # arctan of a rotated ratio splits off the angle additively
        c, s = cos_of(T1), sin_of(T1)
        rotated = atan_of((X2 * c + X1 * s) / (X1 * c - X2 * s))
        assert rotated.equals(T1 + atan_of(X2 / X1))

    def test_rewrites_reach_fixed_points(self):
        # constructing the same value along different routes stays equal,
        # and for polynomial operands the printed form is bit-identical
        rng = random.Random(202)
        for _ in range(60):
            f = random_transcendental_expr(rng)
            g = random_transcendental_expr(rng)
            assert ((f + g) - g).equals(f)
            if f.den.is_one and g.den.is_one:
                assert expr_str((f + g) - g) == expr_str(f)
            if not g.is_zero():
                assert ((f * g) / g).equals(f)


class TestCalculus:
    def test_polynomial_derivatives(self):
        f = X1 * X1 * X2 + rational(3) * X1
        assert differentiate(f, coord_atom(1)).equals(
            rational(2) * X1 * X2 + rational(3)
        )
        assert differentiate(f, coord_atom(2)).equals(X1 * X1)
        assert differentiate(f, coord_atom(3)).is_zero()

    def test_quotient_rule(self):
        f = X1 / X2
        assert differentiate(f, coord_atom(2)).equals(-X1 / (X2 * X2))

    def test_chain_rules_through_generators(self):
        a1 = coord_atom(1)
        assert differentiate(exp_of(X1 * X1), a1).equals(
            rational(2) * X1 * exp_of(X1 * X1)
        )
        assert differentiate(log_of(X1), a1).equals(EXPR_ONE / X1)
        r2 = X1 * X1 + X2 * X2
        assert differentiate(atan_of(X2 / X1), a1).equals(-X2 / r2)
        assert differentiate(atan_of(X2 / X1), coord_atom(2)).equals(X1 / r2)
        assert differentiate(cos_of(X1), a1).equals(-sin_of(X1))
        assert differentiate(sin_of(X1), a1).equals(cos_of(X1))
        # only variable atoms can be differentiated by
        (log_atom,) = log_of(X1).generator_atoms()
        with pytest.raises(KernelError, match="variable atom"):
            differentiate(X1, log_atom)

    def test_product_rule_on_random_expressions(self):
        rng = random.Random(303)
        a1 = coord_atom(1)
        for _ in range(40):
            f = random_transcendental_expr(rng)
            g = random_transcendental_expr(rng)
            lhs = differentiate(f * g, a1)
            rhs = differentiate(f, a1) * g + f * differentiate(g, a1)
            assert lhs.equals(rhs)

    def test_derivatives_against_sympy(self):
        rng = random.Random(307)
        symbols = sympy_symbols(["x1", "x2", "x3"])
        xs = list(symbols.values())
        randoms = (random_transcendental_expr(rng) for _ in range(40))
        # exp terms whose generator coefficient depends on the variable
        for f in chain(randoms, [exp_of(X1 * log_of(X2)), exp_of(X1 * atan_of(X2))]):
            h = parse_printed(f, symbols)
            got = [parse_printed(differentiate(f, coord_atom(j)), symbols) for j in (1, 2, 3)]
            want = [sympy.Add.make_args(sympy.diff(h, x)) for x in xs]
            with mpmath.workdps(50):
                for values in regular_values([got] + want, symbols, rng):
                    assert all(map(agrees, values[0], values[1:])), expr_str(f)

    def test_derivative_of_parameter_is_zero(self):
        f = param("a") * X1
        assert differentiate(f, param_atom("a")).equals(X1)
        assert differentiate(f, coord_atom(1)).equals(param("a"))

    def test_polynomial_power_rule_matches_monomial_rule(self):
        # on a transcendental-free polynomial the derivation must give the
        # power rule: the sum of c*e*m/a over the monomials c*m, e = deg_a m
        rng = random.Random(29)
        atoms = [coord_atom(1), coord_atom(2), theta_atom(1), param_atom("a")]
        for _ in range(40):
            f = rational(0)
            for _ in range(rng.randint(1, 6)):
                term = rational(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                for a in atoms:
                    term = term * from_atom(a) ** rng.randint(0, 3)
                f = f + term
            for a in atoms:
                reference = EXPR_ZERO
                for m, c in f.num.terms.items():
                    e = m.exponent(a)
                    if e:
                        lower = rational(c * e)
                        for b, k in m.vars:
                            lower = lower * from_atom(b) ** (k - (b == a))
                        reference = reference + lower
                assert differentiate(f, a) == reference


class TestSubstituteEvaluate:
    def test_substitute_is_a_homomorphism(self):
        rng = random.Random(404)
        mapping = {coord_atom(1): X2 + rational(1), coord_atom(2): X3 * X3}
        for _ in range(30):
            f = random_rational_expr(rng)
            g = random_rational_expr(rng)
            lhs = substitute(f * g + f, mapping)
            rhs = substitute(f, mapping) * substitute(g, mapping) + substitute(
                f, mapping
            )
            assert lhs.equals(rhs)

    def test_substitute_into_generator_arguments(self):
        f = exp_of(X1) * atan_of(X2 / X1)
        g = substitute(f, {coord_atom(2): -X2})
        assert g.equals(-exp_of(X1) * atan_of(X2 / X1))

    def test_evaluate_is_exact(self):
        f = (X1 + X2) / X1
        val = evaluate(f, {coord_atom(1): Fraction(2), coord_atom(2): Fraction(3)})
        assert val == Fraction(5, 2)
        assert isinstance(val, Fraction)

    def test_evaluate_takes_generator_and_exponential_values(self):
        f = X1 * cos_of(T1) + exp_of(rational(2) * T1) / sin_of(T1)
        (ep,) = f.exp_parts()
        c = next(a for a in f.generator_atoms() if a.head == "cos")
        s = next(a for a in f.generator_atoms() if a.head == "sin")
        point = {coord_atom(1): Fraction(3), c: Fraction(3, 5), s: Fraction(4, 5), ep: Fraction(7)}
        assert evaluate(f, point) == 3 * Fraction(3, 5) + 7 / Fraction(4, 5)
        del point[ep]
        with pytest.raises(KernelError, match="cannot numerically evaluate an exponential factor"):
            evaluate(f, point)
        with pytest.raises(KernelError, match=r"cannot numerically evaluate cos\(th1\)"):
            evaluate(X1 * cos_of(T1), {coord_atom(1): Fraction(1)})
        with pytest.raises(KernelError, match="no value for x2"):
            evaluate(X1 * X2, {coord_atom(1): Fraction(1)})

    def test_evaluate_at_pole_raises(self):
        with pytest.raises(SingularPoint):
            evaluate(X2 / X1, {coord_atom(1): Fraction(0), coord_atom(2): Fraction(3)})

    def test_substitute_kills_exp_at_zero(self):
        f = X1 * exp_of(X2)
        g = substitute(f, {coord_atom(2): EXPR_ZERO})
        assert g.equals(X1)

    def test_substitute_over_common_denominator(self):
        # 1 and x2^2 lack x1, and 1 and x1 lack x2: each still takes the
        # whole common denominator x3^2 * (x3 + 1)
        f = EXPR_ONE + X1 + X2 * X2
        g = substitute(f, {coord_atom(1): X3 / (X3 + 1), coord_atom(2): EXPR_ONE / X3})
        assert expr_str(g) == "(2*x3^3 + x3^2 + x3 + 1)/(x3^3 + x3^2)"
        assert g == EXPR_ONE + X3 / (X3 + 1) + (EXPR_ONE / X3) ** 2

    @staticmethod
    def term_by_term(f, mapping):
        """f(a -> mapping[a]) as the sum of c * prod v^e over each side's monomials."""

        def side(p):
            acc = EXPR_ZERO
            for m, c in p.terms.items():
                term = rational(c)
                for a, e in m.vars:
                    term = term * mapping.get(a, from_atom(a)) ** e
                acc = acc + term
            return acc

        return side(f.num) / side(f.den)

    def test_substitute_matches_term_by_term_reference_and_sympy(self):
        # a pivot's shape: th1, th2 -> N/D with N, D in x (N may hold th2);
        # the kinds are theta-free f, denominator 1, th1 on both sides with
        # unequal degrees, and th1 and th2 anywhere; every other mapping
        # gives th1 and th2 the same denominator
        rng = random.Random(2006)
        th1, th2 = theta_atom(1), theta_atom(2)
        T2 = theta(2)
        syms = sympy_symbols(["x1", "x2", "x3", "th1", "th2"])

        def poly(atoms, degree, nterms=2):
            """A nonzero random polynomial over atoms, total degree <= degree."""
            while True:
                acc = EXPR_ZERO
                for _ in range(nterms):
                    term = rational(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
                    for _ in range(rng.randint(0, degree)):
                        term = term * rng.choice(atoms)
                    acc = acc + term
                if acc:
                    return acc

        def in_theta(degree, atoms):
            """sum_k c_k(x) * th1^k with c_degree != 0; atoms may add th2."""
            return sum((poly(atoms, 1) * T1 ** k for k in range(degree + 1)), EXPR_ZERO)

        xs = (X1, X2, X3)
        kinds = {"theta-free": 0, "denominator 1": 0, "unequal degrees": 0, "general": 0}
        for trial in range(48):
            kind = list(kinds)[trial % 4]
            if kind == "theta-free":
                f = poly(xs, 2, 3) / poly(xs, 2)
            elif kind == "denominator 1":
                f = in_theta(rng.randint(1, 3), xs + (T2,))
            elif kind == "unequal degrees":
                dn, dd = rng.sample(range(3), 2)
                f = in_theta(dn, xs) / in_theta(dd, xs)
            else:
                f = in_theta(rng.randint(1, 2), xs + (T2,)) / in_theta(rng.randint(0, 2), xs + (T2,))
            d1 = poly(xs, 1)
            while d1.is_rational():
                d1 = poly(xs, 1)
            d2 = d1 if trial % 2 else poly(xs, 1)
            mapping = {th1: poly(xs + (T2,), 1) / d1, th2: poly(xs, 1) / d2}
            try:
                expected = self.term_by_term(f, mapping)
            except ZeroDivision:
                with pytest.raises(ZeroDivision):
                    substitute(f, mapping)
                continue
            got = substitute(f, mapping)
            assert got == expected, (f, mapping)
            if kind == "theta-free":
                assert got is f
            theirs = parse_printed(f, syms).subs(
                {syms[atom_str(a)]: parse_printed(v, syms) for a, v in mapping.items()},
                simultaneous=True,
            )
            assert sympy.cancel(parse_printed(got, syms) - theirs) == 0, (f, mapping)
            kinds[kind] += 1
        assert min(kinds.values()) >= 10, kinds

    VARS = (coord_atom(1), coord_atom(2), coord_atom(3), theta_atom(1), param_atom("a"))
    ATOMS = (X1, X2, X3, T1, param("a"))

    @classmethod
    def random_poly(cls, rng):
        """Random polynomial over ATOMS: up to four terms of degree <= 3."""
        acc = EXPR_ZERO
        for _ in range(rng.randint(1, 4)):
            term = rational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)):
                term = term * rng.choice(cls.ATOMS)
            acc = acc + term
        return acc

    @staticmethod
    def check_commutes(f, mapping, point, exact_f):
        """substitute(f, mapping) at point == exact_f at the mapped point.

        Returns False (sample skipped) when the mapped point is singular.
        """
        mapped = dict(point)
        try:
            mapped.update((a, evaluate(v, point)) for a, v in mapping.items())
            expected = evaluate(exact_f, mapped)
        except SingularPoint:
            return False
        assert evaluate(substitute(f, mapping), point) == expected, (f, mapping)
        return True

    def test_substitute_commutes_with_evaluation(self):
        rng = random.Random(1963)
        checked = 0
        for _ in range(60):
            den = self.random_poly(rng)
            if den.is_zero():
                continue
            f = self.random_poly(rng) / den
            mapping = {
                a: random_rational_expr(rng, 2) for a in rng.sample(self.VARS, rng.randint(1, 3))
            }
            point = {a: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for a in self.VARS}
            checked += self.check_commutes(f, mapping, point, f)
        assert checked >= 40

    def test_substitute_with_exp_part_commutes_with_evaluation(self):
        # exp(x2 - x3) with x2 -> x3 leaves p + q: the exp part takes the
        # term-by-term path, and the result can still be evaluated exactly
        rng = random.Random(1964)
        checked = 0
        for _ in range(20):
            p, q = self.random_poly(rng), self.random_poly(rng)
            if q.is_zero():
                continue
            f = p + q * exp_of(X2 - X3)
            mapping = {coord_atom(2): X3, coord_atom(1): random_rational_expr(rng, 2)}
            point = {a: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for a in self.VARS}
            checked += self.check_commutes(f, mapping, point, p + q)
        assert checked >= 10


class TestStructureQueries:
    def test_atoms_and_dependence(self):
        f = X1 * exp_of(param("a") * theta(2))
        atoms = f.atoms()
        assert coord_atom(1) in atoms
        assert param_atom("a") in atoms
        assert theta_atom(2) in atoms
        assert f.depends_on(theta_atom(2))
        assert not f.depends_on(coord_atom(3))

    def test_rational_and_integer_predicates(self):
        assert rational(Fraction(3, 4)).is_rational()
        assert rational(5).is_integer()
        assert not X1.is_rational()
        assert (X1 - X1 + rational(2)).is_integer()

    def test_string_forms_are_stable(self):
        f = X1 * X3 - rational(Fraction(1, 2)) * X2 * X2
        assert expr_str(f) == "x1*x3 - 1/2*x2^2"
        assert expr_str(f) == expr_str(X1 * X3 - X2 * X2 / rational(2))


class TestPolyGcd:
    ATOMS = (X1, X2, X3, T1, param("a"))

    @classmethod
    def random_terms(cls, rng, nterms):
        """[(coefficient, exponents)] over ATOMS, total degree <= 2 per term."""
        out = []
        for _ in range(nterms):
            exps = [0] * len(cls.ATOMS)
            for _ in range(rng.randint(0, 2)):
                exps[rng.randrange(len(exps))] += 1
            num = rng.choice([n for n in range(-5, 6) if n])
            out.append((Fraction(num, rng.randint(1, 4)), exps))
        return out

    @classmethod
    def build(cls, terms, syms):
        sympy = pytest.importorskip("sympy")
        ours, theirs = EXPR_ZERO, sympy.Integer(0)
        for c, exps in terms:
            mono, smono = rational(c), sympy.Rational(c.numerator, c.denominator)
            for atom, sym, e in zip(cls.ATOMS, syms, exps):
                mono = mono * atom ** e
                smono = smono * sym ** e
            ours, theirs = ours + mono, theirs + smono
        return ours.num, sympy.expand(theirs)

    @staticmethod
    def to_sympy(poly, names):
        sympy = pytest.importorskip("sympy")
        acc = sympy.Integer(0)
        for m, c in poly.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for a, e in m.vars:
                term = term * names[a] ** e
            acc += term
        return acc

    def test_matches_sympy_gcd(self):
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1 x2 x3 th1 a")
        atoms = (coord_atom(1), coord_atom(2), coord_atom(3), theta_atom(1), param_atom("a"))
        names = dict(zip(atoms, syms))
        rng = random.Random(1979)
        nonconstant = 0
        for _ in range(40):
            g = self.random_terms(rng, 0 if rng.random() < 0.3 else rng.randint(1, 3))
            a = self.random_terms(rng, rng.randint(1, 4))
            b = self.random_terms(rng, rng.randint(1, 4))
            pg, sg = self.build(g, syms)
            pa, sa = self.build(a, syms)
            pb, sb = self.build(b, syms)
            if not pg.is_zero:
                pa, sa = pa.mul(pg), sympy.expand(sa * sg)
                pb, sb = pb.mul(pg), sympy.expand(sb * sg)
            if pa.is_zero or pb.is_zero:
                continue
            expected = sympy.gcd(sa, sb)
            got = poly_gcd(pa, pb)
            ratio = sympy.cancel(self.to_sympy(got, names) / expected)
            assert ratio.is_Rational and ratio != 0, (pa, pb, got, expected)
            point = {atom: rng.randrange(_PROBE_PRIME) for atom in pa.atoms() | pb.atoms()}
            if _gcd_is_constant(pa, pb, point):
                assert not expected.free_symbols, (pa, pb)
            else:
                nonconstant += bool(expected.free_symbols)
        assert nonconstant > 10

    @staticmethod
    def from_sympy(expr, syms, atoms):
        sympy = pytest.importorskip("sympy")
        return make_poly({
            make_monomial(zip(atoms, exps), None): Fraction(int(c.p), int(c.q))
            for exps, c in sympy.Poly(expr, *syms).terms()
        })

    def check_against_sympy(self, sp, sq, syms, atoms):
        """poly_gcd of the two sympy polynomials, both argument orders."""
        sympy = pytest.importorskip("sympy")
        p, q = self.from_sympy(sp, syms, atoms), self.from_sympy(sq, syms, atoms)
        expected = sympy.gcd(sp, sq)
        for got in (poly_gcd(p, q), poly_gcd(q, p)):
            ratio = sympy.cancel(self.to_sympy(got, dict(zip(atoms, syms))) / expected)
            assert ratio.is_Rational and ratio != 0, (sp, sq, got, expected)
            assert _content(got) == 1, got  # primitive with a positive lead
        return expected

    @staticmethod
    def random_sympy(rng, syms, nterms, degree=2):
        sympy = pytest.importorskip("sympy")
        acc = sympy.Integer(0)
        for _ in range(nterms):
            term = sympy.Rational(rng.choice([n for n in range(-5, 6) if n]), rng.randint(1, 3))
            for _ in range(rng.randint(0, degree)):
                term *= rng.choice(syms)
            acc += term
        return sympy.expand(acc)

    def test_atoms_one_side_lacks_match_sympy_gcd(self):
        # p = G*A and q = G*B, where A has atoms that B lacks and, in every
        # other trial, B has atoms that A lacks; G is constant or over the
        # shared atoms only
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1:9")
        atoms = [coord_atom(k) for k in range(1, 9)]
        shared, own_a, own_b = syms[:3], syms[3:6], syms[6:]
        rng = random.Random(2006)
        nonconstant = 0
        for trial in range(36):
            g = sympy.Integer(1) if trial % 3 == 0 else self.random_sympy(rng, shared, rng.randint(1, 3))
            sides = []
            for own in (own_a, own_b if trial % 2 else ()):
                u = self.random_sympy(rng, shared + own, rng.randint(1, 4))
                if own:
                    u = sympy.expand(u + rng.randint(1, 3) * rng.choice(own))
                if rng.random() < 0.5:  # a shared factor of every own-atom coefficient
                    u = sympy.expand(u * self.random_sympy(rng, shared, rng.randint(1, 3), 1))
                sides.append(u)
            a, b = sides
            if g == 0 or a == 0 or b == 0:
                continue
            expected = self.check_against_sympy(sympy.expand(g * a), sympy.expand(g * b), syms, atoms)
            nonconstant += bool(expected.free_symbols)
        assert nonconstant >= 12

    def test_own_atom_coefficients_of_both_sides_count(self):
        # the coefficients of p over x3 share (x1 + x2)*(x1 - x2); q's over x4
        # share only x1 + x2
        sympy = pytest.importorskip("sympy")
        syms = x1, x2, x3, x4 = sympy.symbols("x1:5")
        atoms = [coord_atom(k) for k in range(1, 5)]
        p = sympy.expand((x1 + x2) * (x1 - x2) * (x3 + 1))
        q = sympy.expand((x1 + x2) * (x1 - x2) * x4 + (x1 + x2) * x4**2 + (x1 + x2))
        assert self.check_against_sympy(p, q, syms, atoms) == x1 + x2

    def test_many_terms_against_few(self):
        # the shape of a nontrivial gcd in t0(6) elimination: a p of 50 or
        # more terms against a 4-term q, with gcd x3*x8 - x4*x7
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1:13")
        atoms = [coord_atom(k) for k in range(1, 13)]
        x = dict(zip(range(1, 13), syms))
        g = x[3] * x[8] - x[4] * x[7]
        rng = random.Random(56)
        p = sympy.expand(g * self.random_sympy(rng, syms, 50))
        q = sympy.expand(g * (x[5] - x[2]))
        assert len(p.as_ordered_terms()) >= 50 and len(q.as_ordered_terms()) == 4
        assert self.check_against_sympy(p, q, syms, atoms) == g

    def test_exact_division_by_a_monomial_that_does_not_divide_raises(self):
        # x1^2 does not divide x1: no term may come out as x1^-1
        with pytest.raises(KernelError, match="monomial does not divide every term"):
            _poly_exact_div((X1 ** 3 + X1).num, (X1 ** 2).num)
        assert _poly_exact_div((X1 ** 3 + X1 ** 2).num, (X1 ** 2).num) == (X1 + 1).num

    def test_fold_matches_sympy_gcd(self):
        # q over the shared atoms x1..x3 against p = sum_k c_k * y^k over the
        # atoms x4, x5 that only p has: the fold starts from the nonconstant
        # primitive part of q; some c_k are multiples of it, the others only
        # of g; the last case is the monomial x1^2 against x1^3 + x1
        sympy = pytest.importorskip("sympy")
        syms = sympy.symbols("x1:6")
        atoms = [coord_atom(k) for k in range(1, 6)]
        x1, x4, x5 = syms[0], syms[3], syms[4]
        shared = syms[:3]
        rng = random.Random(1989)
        nonconstant = 0
        for trial in range(24):
            g = self.random_sympy(rng, shared, rng.randint(1, 3))
            b = self.random_sympy(rng, shared, rng.randint(1, 3))
            q = sympy.expand(g * b)
            p = 0
            for k in range(rng.randint(2, 4)):
                cofactor = b if rng.random() < 0.5 else 1
                c = sympy.expand(g * cofactor * self.random_sympy(rng, shared, rng.randint(1, 3), 1))
                p += c * rng.choice([x4, x5]) ** k
            p = sympy.expand(p + x4 * x5 * q)
            if g == 0 or q == 0 or p == 0:
                continue
            expected = self.check_against_sympy(p, q, syms, atoms)
            nonconstant += bool(expected.free_symbols)
        assert nonconstant >= 12
        p = sympy.expand(x1**2 + (x1**3 + x1) * x4)
        assert self.check_against_sympy(p, x1**2, syms, atoms) == x1

    def test_fold_skips_the_coefficients_its_gcd_divides(self, monkeypatch):
        # the shape of test_many_terms_against_few: once the running gcd
        # divides a coefficient, the fold calls no poly_gcd for it
        sympy = pytest.importorskip("sympy")
        import lieinv.expr as kernel

        syms = sympy.symbols("x1:13")
        atoms = [coord_atom(k) for k in range(1, 13)]
        x = dict(zip(range(1, 13), syms))
        g = x[3] * x[8] - x[4] * x[7]
        p = sympy.expand(g * self.random_sympy(random.Random(56), syms, 50))
        q = sympy.expand(g * (x[5] - x[2]))
        folded = []
        gcd = kernel.poly_gcd

        def counting(a, b):
            if sys._getframe(1).f_code.co_name == "_gcd_many":
                folded.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(kernel, "poly_gcd", counting)
        assert self.check_against_sympy(p, q, syms, atoms) == g
        names = dict(zip(atoms, syms))
        tried = [(a, b) for a, b in folded if not a.is_zero]
        assert tried, "the fold never met a coefficient its gcd does not divide"
        for a, b in tried:
            _, rem = sympy.div(self.to_sympy(b, names), self.to_sympy(a, names), *syms)
            assert rem != 0, (a, b)

    def test_probe_no_shared_atom_is_constant(self):
        assert _gcd_is_constant((X1 + 1).num, (X2 * X3 + 1).num, {})

    def test_probe_vanishing_leading_coefficient_is_unknown(self):
        p, q = (X1 * X2 + 1).num, (X1 * X2 + X3).num
        x1, x2, x3 = coord_atom(1), coord_atom(2), coord_atom(3)
        assert not _gcd_is_constant(p, q, {x1: 0, x2: 5, x3: 7})
        assert _gcd_is_constant(p, q, {x1: 2, x2: 5, x3: 7})

    def test_probe_denominator_divisible_by_prime_is_unknown(self):
        p = (rational(Fraction(1, _PROBE_PRIME)) * X1 * X2 + 1).num
        q = (X1 + X2).num
        point = {coord_atom(1): 3, coord_atom(2): 5}
        assert not _gcd_is_constant(p, q, point)
        assert _gcd_is_constant((rational(Fraction(1, 3)) * X1 * X2 + 1).num, q, point)

    def test_probe_nonconstant_gcd_is_unknown(self):
        g = X1 + X2
        p, q = (g * (X1 - 1)).num, (g * (X2 + 3)).num
        point = {coord_atom(1): 11, coord_atom(2): 13}
        assert not _gcd_is_constant(p, q, point)
        assert poly_gcd(p, q) == g.num
