"""Independent verification: coadjoint annihilation and enveloping-algebra centrality."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from lieinv import (
    LieAlgebra,
    check_all,
    check_invariant,
    coord,
    eliminate,
    is_central,
    lie_algebra,
    lifted_invariants,
    pbw_normal_form,
    rational,
    symmetrize,
)
from lieinv.expr import (
    EXPR_ZERO,
    KernelError,
    coord_atom,
    differentiate,
    exp_of,
    expr_str,
    from_atom,
    param,
)
from lieinv.families import builtin_instances, make_g6_38, make_jordan, make_t0
from lieinv.io import parse_algebra
from lieinv.verify import NCPoly
from test_acceptance import PAIR_ROWS
from test_expr import agrees, parse_printed, regular_values, sympy_symbols

# structure constants with a parameter denominator, so the coadjoint fields
# are quotients; its one invariant is x4*exp(-1/2*log(x3)/(a + 1/2))
PARAMETER_DENOMINATORS = """dim 5
param a
[1,2] = 1/(a+1)*e3
[1,5] = e1
[2,5] = a/(a+1)*e2
[3,5] = (2*a+1)/(a+1)*e3
[4,5] = 1/(a+1)*e4
"""


def heisenberg():
    return lie_algebra(3, {(1, 2): {3: 1}}, name="heisenberg")


def commutative_image(p):
    """Collapse an enveloping-algebra element to its commutative polynomial."""
    total = rational(0)
    for word, c in p.terms.items():
        m = c
        for i in word:
            m = m * coord(i)
        total = total + m
    return total


class TestSymmetrize:
    def test_distinct_factors_average_all_orders(self):
        p = symmetrize(coord(1) * coord(2))
        assert {w: expr_str(c) for w, c in p.terms.items()} == {
            (1, 2): "1/2",
            (2, 1): "1/2",
        }
        p3 = symmetrize(coord(1) * coord(2) * coord(3))
        assert len(p3.terms) == 6
        assert all(expr_str(c) == "1/6" for c in p3.terms.values())

    def test_repeated_factors_weighted_by_multiplicity(self):
        p = symmetrize(coord(1) * coord(1) * coord(2))
        assert {w: expr_str(c) for w, c in p.terms.items()} == {
            (1, 1, 2): "1/3",
            (1, 2, 1): "1/3",
            (2, 1, 1): "1/3",
        }

    def test_linearity_and_commutative_image(self):
        f = coord(1) * coord(3) - rational(Fraction(1, 2)) * coord(2) ** 2
        p = symmetrize(f)
        assert commutative_image(p).equals(f)

    def test_on_commuting_factors_image_is_clean(self):
        # determinant minors of the strictly-triangular family involve only
        # pairwise commuting basis elements: straightening changes nothing
        inst = make_t0(4)
        g = inst.algebra
        for f in inst.expected_invariants:
            p = symmetrize(f)
            nf = pbw_normal_form(p, g)
            assert commutative_image(nf).equals(f)

    def test_rejects_non_polynomial(self):
        with pytest.raises(KernelError):
            symmetrize(coord(1) / coord(2))
        with pytest.raises(KernelError):
            symmetrize(exp_of(coord(1)))


class TestPbwNormalForm:
    def test_straightening_inserts_bracket_terms(self):
        h = heisenberg()
        # e2 e1 = e1 e2 - e3
        p = NCPoly({(2, 1): rational(1)})
        nf = pbw_normal_form(p, h)
        assert {w: expr_str(c) for w, c in nf.terms.items()} == {
            (1, 2): "1",
            (3,): "-1",
        }

    def test_symmetrized_quadratic(self):
        h = heisenberg()
        nf = pbw_normal_form(symmetrize(coord(1) * coord(2)), h)
        assert {w: expr_str(c) for w, c in nf.terms.items()} == {
            (1, 2): "1",
            (3,): "-1/2",
        }

    def test_normal_form_words_sorted(self):
        g = make_t0(4).algebra
        rng = random.Random(11)
        for _ in range(10):
            word = tuple(rng.randint(1, 6) for _ in range(3))
            nf = pbw_normal_form(NCPoly({word: rational(1)}), g)
            for w in nf.terms:
                assert list(w) == sorted(w)

    def test_idempotent_on_sorted_input(self):
        h = heisenberg()
        p = NCPoly({(1, 2, 3): rational(2), (3,): rational(-1)})
        nf = pbw_normal_form(p, h)
        again = pbw_normal_form(nf, h)
        assert {w: expr_str(c) for w, c in nf.terms.items()} == {
            w: expr_str(c) for w, c in again.terms.items()
        }


class TestCentrality:
    def test_center_elements(self):
        h = heisenberg()
        assert is_central(h, coord(3))
        assert is_central(h, coord(3) * coord(3))
        assert not is_central(h, coord(1))
        assert not is_central(h, coord(1) * coord(2))

    def test_casimir_of_chain_algebra(self):
        inst = make_jordan([("jordan", 0, 3)])
        g = inst.algebra
        xi3 = coord(1) * coord(3) - rational(Fraction(1, 2)) * coord(2) ** 2
        assert is_central(g, coord(1))
        assert is_central(g, xi3)
        assert not is_central(g, xi3 + coord(2))

    def test_determinant_casimirs(self):
        inst = make_t0(4)
        g = inst.algebra
        for f in inst.expected_invariants:
            assert is_central(g, symmetrize(f))

    def test_accepts_expr_or_ncpoly(self):
        h = heisenberg()
        assert is_central(h, coord(3))
        assert is_central(h, symmetrize(coord(3)))

    def test_degree_bound_enforced(self):
        h = heisenberg()
        f = coord(3) ** 7
        with pytest.raises(KernelError):
            is_central(h, f, degree_bound=6)
        assert is_central(h, coord(3) ** 6, degree_bound=6)


class TestCheckInvariant:
    def test_residual_certificate(self):
        h = heisenberg()
        chk = check_invariant(h, coord(1))
        assert not chk.ok
        assert [expr_str(r) for r in chk.residuals] == ["0", "-1*x3", "0"]
        assert chk.failing() == [2]

    def test_transcendental_invariants(self):
        inst = make_jordan([("jordan", 1, 3)])
        for f in inst.expected_invariants:
            assert check_invariant(inst.algebra, f).ok
        inst = make_jordan([("real", 1, 1, 1)])
        for f in inst.expected_invariants:
            assert check_invariant(inst.algebra, f).ok

    def test_check_all_order(self):
        h = heisenberg()
        out = check_all(h, [coord(3), coord(1)])
        assert [c.ok for c in out] == [True, False]

    def test_check_all_builds_the_fields_once(self, monkeypatch):
        inst = make_jordan([("real", 1, 1, 2)])
        g = inst.algebra
        fs = [h for f in inst.expected_invariants for h in (f, f + coord(1), f * coord(2))]
        singles = [check_invariant(g, f) for f in fs]
        calls = []
        fields = LieAlgebra.coadjoint_fields

        def counted(self):
            calls.append(self)
            return fields(self)

        monkeypatch.setattr(LieAlgebra, "coadjoint_fields", counted)
        batch = check_all(g, fs)
        assert calls == [g]

        def summary(reports):
            return [(r.ok, [expr_str(x) for x in r.residuals]) for r in reports]

        assert summary(batch) == summary(singles)
        assert [r.ok for r in batch] == [True, False, False] * len(inst.expected_invariants)

    def test_derivation_property_on_invariant_pairs(self):
        # sums/products/powers of verified invariants remain invariants
        rng = random.Random(47)
        pool = [
            inst
            for inst in builtin_instances()
            if inst.param_point is None and len(inst.expected_invariants) >= 2
        ]
        for _ in range(12):
            inst = rng.choice(pool)
            f, g = rng.sample(inst.expected_invariants, 2)
            combo = f * g + f
            assert check_invariant(inst.algebra, combo).ok


# ---------------------------------------------------------------------------
# differential checks against the straightforward algorithms


def reference_symmetrize(f):
    """Average over all r! orderings of every monomial's letters."""
    if not f.den.is_one:
        raise KernelError("symmetrization needs a polynomial, got a quotient")
    acc = {}
    for m, c in f.num.terms.items():
        if m.ep is not None:
            raise KernelError("symmetrization needs a polynomial expression")
        letters = []
        coeff = rational(c)
        for a, e in m.vars:
            if a.head == "x":
                letters.extend([a.data] * e)
            elif a.head == "p":
                coeff = coeff * from_atom(a) ** e
            else:
                raise KernelError(
                    "symmetrization needs a coordinate polynomial, found %r" % a.head
                )
        scale = coeff * rational(Fraction(1, math.factorial(len(letters))))
        for perm in itertools.permutations(letters):
            acc[perm] = acc.get(perm, EXPR_ZERO) + scale
    return NCPoly(acc)


def reference_pbw_normal_form(p, g):
    """Rewrite the first descent of one pending word at a time, never merging."""
    result = {}
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop()
        if coeff.is_zero():
            continue
        pos = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]), -1)
        if pos < 0:
            result[word] = result[word] + coeff if word in result else coeff
            continue
        a, b = word[pos], word[pos + 1]
        work.append((word[:pos] + (b, a) + word[pos + 2:], coeff))
        for k, ck in g.bracket(a, b).items():
            work.append((word[:pos] + (k,) + word[pos + 2:], coeff * ck))
    return NCPoly(result)


def reference_is_central(g, f):
    p = reference_symmetrize(f)
    for i in range(1, g.dim + 1):
        left = NCPoly({(i,) + w: c for w, c in p.terms.items()})
        right = NCPoly({w + (i,): c for w, c in p.terms.items()})
        if not reference_pbw_normal_form(left - right, g).is_zero():
            return False
    return True


def reference_residuals(g, f):
    """sum_j (sum_k c_ijk x_k) df/dx_j with every gradient by the quotient rule."""
    n = g.dim
    grads = [differentiate(f, coord_atom(j)) for j in range(1, n + 1)]
    out = []
    for i in range(1, n + 1):
        acc = EXPR_ZERO
        for j in range(1, n + 1):
            field = EXPR_ZERO
            for k, c in g.bracket(i, j).items():
                field = field + c * coord(k)
            if not field.is_zero():
                acc = acc + field * grads[j - 1]
        out.append(expr_str(acc))
    return out


def non_central_coordinates(g):
    return [
        j for j in range(1, g.dim + 1)
        if any(g.bracket(i, j) for i in range(1, g.dim + 1))
    ]


def symmetrize_outcome(symmetrizer, f):
    try:
        return symmetrizer(f).terms
    except KernelError as err:
        return str(err)


def residual_cases():
    """(algebra, expression) pairs: known invariants f and a seeded f + x_j each."""
    rng = random.Random(5)
    cases = [(inst.algebra, inst.expected_invariants) for inst in builtin_instances()]
    # elimination survivors of the rotation rows: long exp/atan invariants
    for blocks in PAIR_ROWS:
        if any(b[0] == "real" for b in blocks):
            inst = make_jordan(blocks)
            cases.append((inst.algebra, eliminate(inst.lifted()).invariants))
    g = parse_algebra(PARAMETER_DENOMINATORS)
    cases.append((g, eliminate(lifted_invariants(g)).invariants))
    for g, invariants in cases:
        js = non_central_coordinates(g)
        for f in invariants:
            yield g, f
            yield g, f + coord(rng.choice(js))


class TestAgainstReference:
    def test_residuals_of_every_builtin_invariant(self):
        for g, h in residual_cases():
            got = [expr_str(r) for r in check_invariant(g, h).residuals]
            assert got == reference_residuals(g, h), (g.name, expr_str(h))

    def test_residuals_against_sympy(self):
        # sum_j F_ij dh/dx_j by sympy.diff on the printed h, an oracle that
        # shares no calculus with the kernel
        rng = random.Random(8)
        fields = {}
        for g, h in residual_cases():
            n = g.dim
            symbols = sympy_symbols(["x%d" % j for j in range(1, n + 1)] + list(g.params))
            xs = [symbols["x%d" % j] for j in range(1, n + 1)]
            if g not in fields:
                fields[g] = [
                    [sum((parse_printed(c, symbols) * xs[k - 1]
                          for k, c in g.bracket(i, j).items()), sympy.Integer(0))
                     for j in range(1, n + 1)]
                    for i in range(1, n + 1)
                ]
            grads = [sympy.Add.make_args(sympy.diff(parse_printed(h, symbols), x)) for x in xs]
            got = [parse_printed(r, symbols) for r in check_invariant(g, h).residuals]
            with mpmath.workdps(50):
                for values in regular_values([got] + fields[g] + grads, symbols, rng):
                    rows, terms = values[1:n + 1], values[n + 1:]
                    for value, row in zip(values[0], rows):
                        sums = [f * t for f, ts in zip(row, terms) for t in ts]
                        assert agrees(value, sums), (g.name, expr_str(h))

    def test_symmetrize_and_centrality_of_every_builtin_invariant(self):
        rng = random.Random(6)
        for inst in builtin_instances():
            g = inst.algebra
            js = non_central_coordinates(g)
            for f in inst.expected_invariants:
                for h in (f, f + coord(rng.choice(js))):
                    got = symmetrize_outcome(symmetrize, h)
                    assert got == symmetrize_outcome(reference_symmetrize, h), (
                        g.name, expr_str(h))
                    if isinstance(got, str):
                        continue
                    p = symmetrize(h)
                    assert pbw_normal_form(p, g).terms == reference_pbw_normal_form(p, g).terms
                    assert is_central(g, h) == reference_is_central(g, h), (
                        g.name, expr_str(h))

    @pytest.mark.parametrize(
        "inst", [make_t0(5), make_g6_38()], ids=["t0(5)", "g6_38(a)"]
    )
    def test_normal_form_of_random_words(self, inst):
        # g6_38 with a formal parameter exercises the Expr coefficient path
        g = inst.algebra
        rng = random.Random(17)
        scalars = [rational(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(4)]
        if g.params:
            scalars += [param(g.params[0]), param(g.params[0]) * rational(-2) + rational(1)]
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                word = tuple(rng.randint(1, g.dim) for _ in range(rng.randint(1, 5)))
                terms[word] = terms.get(word, EXPR_ZERO) + rng.choice(scalars)
            p = NCPoly(terms)
            assert pbw_normal_form(p, g).terms == reference_pbw_normal_form(p, g).terms

    def test_symmetrize_with_parameter_coefficients(self):
        a = param("a")
        f = a * coord(1) ** 2 * coord(2) + coord(1) ** 2 * coord(2) - a * coord(3) ** 3
        assert symmetrize(f).terms == reference_symmetrize(f).terms
