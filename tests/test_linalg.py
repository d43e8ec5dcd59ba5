"""Exact linear algebra over the expression field and over Q."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lieinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    KernelError,
    coord,
    evaluate,
    expr_str,
    param,
    rational,
)
from lieinv.linalg import (
    Matrix,
    charpoly_exprs,
    det_exprs,
    inverse_exprs,
    nullspace_exprs,
    rank_exprs,
    rational_roots,
    rref_exprs,
)


def random_rational_matrix(rng, n, lo=-5, hi=5):
    return Matrix(
        [
            [rational(Fraction(rng.randint(lo, hi))) for _ in range(n)]
            for _ in range(n)
        ]
    )


class TestMatrixOps:
    def test_identity_and_zero(self):
        eye = Matrix.identity(3)
        assert eye == Matrix([[EXPR_ONE, EXPR_ZERO, EXPR_ZERO],
                              [EXPR_ZERO, EXPR_ONE, EXPR_ZERO],
                              [EXPR_ZERO, EXPR_ZERO, EXPR_ONE]])
        assert Matrix([[EXPR_ZERO] * 3, [EXPR_ZERO] * 3]).is_zero()
        assert eye.nrows == 3 and eye.ncols == 3

    def test_mul_add_transpose(self):
        a = Matrix([[rational(1), rational(2)], [rational(3), rational(4)]])
        eye = Matrix.identity(2)
        assert a.mul(eye).rows == a.rows
        assert a.sub(a).is_zero()
        assert a.add(a).rows == a.scale(rational(2)).rows
        at = a.transpose()
        assert expr_str(at.rows[0][1]) == "3"
        assert a.transpose().transpose().rows == a.rows

    def test_shift_adds_scalar_on_diagonal(self):
        a = Matrix([[EXPR_ZERO, EXPR_ZERO], [EXPR_ZERO, EXPR_ZERO]])
        s = a.shift(rational(5))
        assert expr_str(s.rows[0][0]) == "5"
        assert s.rows[0][1].is_zero()

    def test_power(self):
        nilp = Matrix([[EXPR_ZERO, EXPR_ONE], [EXPR_ZERO, EXPR_ZERO]])
        assert nilp.power(0) == Matrix.identity(2)
        assert nilp.power(2).is_zero()

    def test_row_vector_times(self):
        a = Matrix([[rational(1), rational(2)], [rational(3), rational(4)]])
        v = a.row_vector_times([coord(1), coord(2)])
        assert v[0].equals(coord(1) + rational(3) * coord(2))
        assert v[1].equals(rational(2) * coord(1) + rational(4) * coord(2))


class TestDeterminant:
    def test_symbolic_2x2(self):
        m = Matrix([[coord(1), coord(2)], [coord(3), coord(4)]])
        assert expr_str(det_exprs(m)) == "x1*x4 - x2*x3"

    def test_det_is_multiplicative(self):
        rng = random.Random(17)
        for _ in range(15):
            a = random_rational_matrix(rng, 3)
            b = random_rational_matrix(rng, 3)
            lhs = det_exprs(a.mul(b))
            rhs = det_exprs(a) * det_exprs(b)
            assert lhs.equals(rhs)

    def test_det_of_triangular_is_diagonal_product(self):
        m = Matrix(
            [
                [param("a"), coord(1), coord(2)],
                [EXPR_ZERO, param("b"), coord(3)],
                [EXPR_ZERO, EXPR_ZERO, param("c")],
            ]
        )
        assert det_exprs(m).equals(param("a") * param("b") * param("c"))


class TestInverse:
    def test_inverse_of_random_invertible(self):
        rng = random.Random(23)
        done = 0
        while done < 10:
            a = random_rational_matrix(rng, 3)
            if det_exprs(a).is_zero():
                continue
            inv = inverse_exprs(a)
            assert a.mul(inv) == Matrix.identity(3)
            assert inv.mul(a) == Matrix.identity(3)
            done += 1

    def test_symbolic_unitriangular_inverse(self):
        m = Matrix(
            [
                [EXPR_ONE, coord(1), coord(2)],
                [EXPR_ZERO, EXPR_ONE, coord(3)],
                [EXPR_ZERO, EXPR_ZERO, EXPR_ONE],
            ]
        )
        inv = inverse_exprs(m)
        assert m.mul(inv) == Matrix.identity(3)
        assert inv.rows[0][2].equals(coord(1) * coord(3) - coord(2))

    def test_singular_matrix_rejected(self):
        m = Matrix([[rational(1), rational(2)], [rational(2), rational(4)]])
        with pytest.raises(Exception):
            inverse_exprs(m)


class TestEchelonRankNullspace:
    def test_rank_of_constructed_low_rank(self):
        rng = random.Random(31)
        for _ in range(10):
            n, r = 4, rng.randint(1, 3)
            left = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
            right = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
            prod = [
                [
                    rational(sum(left[i][k] * right[k][j] for k in range(r)))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            assert rank_exprs(prod) <= r
            frac_prod = [
                [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
                for i in range(n)
            ]
            assert rank_exprs(frac_prod) == rank_exprs(prod)

    def test_rref_reports_divisor_assumptions(self):
        rows = [[param("a"), rational(1)], [rational(0), rational(1)]]
        body, pivots, divisors = rref_exprs(rows)
        assert pivots == [0, 1]
        assert any(d.depends_on(next(iter(param("a").atoms()))) for d in divisors)

    def test_nullspace_vectors_annihilate(self):
        rows = [
            [rational(1), rational(2), rational(3)],
            [rational(2), rational(4), rational(6)],
        ]
        basis = nullspace_exprs(rows)
        assert len(basis) == 2
        for vec in basis:
            for row in rows:
                s = EXPR_ZERO
                for a, b in zip(row, vec):
                    s = s + a * b
                assert s.is_zero()


class TestCharpolyRoots:
    def test_charpoly_of_companion(self):
        # companion matrix of t^2 - 5t + 6
        m = Matrix([[rational(0), rational(-6)], [rational(1), rational(5)]])
        coeffs = charpoly_exprs(m)
        assert [expr_str(c) for c in coeffs] == ["1", "-5", "6"]

    def test_rational_roots_split_and_multiplicity(self):
        # (t-1)^2 (t+2)
        coeffs = [Fraction(1), Fraction(0), Fraction(-3), Fraction(2)]
        roots, rest = rational_roots(coeffs)
        assert roots == [(Fraction(-2), 1), (Fraction(1), 2)]
        assert rest == [1]

    def test_rational_roots_none_when_irreducible(self):
        for c in (1, -2):
            coeffs = [Fraction(1), Fraction(0), Fraction(c)]
            assert rational_roots(coeffs) == ([], coeffs)

    def test_rational_roots_keep_the_cofactor(self):
        # (t+1)(t^2+1): one rational root and a monic cofactor without any
        coeffs = [Fraction(1), Fraction(1), Fraction(1), Fraction(1)]
        assert rational_roots(coeffs) == ([(Fraction(-1), 1)], [1, 0, 1])

    def test_cayley_hamilton_on_random_matrices(self):
        rng = random.Random(41)
        for _ in range(8):
            m = random_rational_matrix(rng, 3)
            coeffs = charpoly_exprs(m)
            acc = Matrix([[EXPR_ZERO] * 3 for _ in range(3)])
            for c in coeffs:
                acc = acc.mul(m).add(Matrix.identity(3).scale(c))
            assert acc.is_zero()


# ---------------------------------------------------------------------------
# one elimination for both fields, against sympy

ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]).map(Fraction)


@st.composite
def fraction_rows(draw, nrows=None, ncols=None):
    nr = nrows or draw(st.integers(1, 4))
    nc = ncols or draw(st.integers(1, 4))
    return [[draw(ENTRIES) for _ in range(nc)] for _ in range(nr)]


def as_exprs(rows):
    return [[rational(v) for v in row] for row in rows]


def from_exprs(rows):
    return [[v.as_fraction() for v in row] for row in rows]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in rows])


def from_sympy(rows):
    return [[Fraction(int(v.p), int(v.q)) for v in row] for row in rows]


def all_fractions(rows):
    return all(isinstance(v, Fraction) for row in rows for v in row)


class TestBothFieldsAgainstSympy:
    @settings(max_examples=80, deadline=None)
    @given(fraction_rows())
    def test_rank_and_nullspace(self, rows):
        ref = to_sympy(rows)
        assert rank_exprs(rows) == rank_exprs(as_exprs(rows)) == ref.rank()
        want = from_sympy([list(v) for v in ref.nullspace()])
        frac = nullspace_exprs(rows)
        assert all_fractions(frac) and frac == want
        assert from_exprs(nullspace_exprs(as_exprs(rows))) == want

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: fraction_rows(n, n)))
    def test_inverse(self, rows):
        ref = to_sympy(rows)
        if ref.det() == 0:
            for mat in (Matrix(rows), Matrix(as_exprs(rows))):
                with pytest.raises(KernelError):
                    inverse_exprs(mat)
            return
        want = from_sympy(ref.inv().tolist())
        frac = [list(row) for row in inverse_exprs(Matrix(rows)).rows]
        assert all_fractions(frac) and frac == want
        assert from_exprs(inverse_exprs(Matrix(as_exprs(rows))).rows) == want

    @settings(max_examples=80, deadline=None)
    @given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda s: st.tuples(fraction_rows(s[0], s[1]), fraction_rows(s[1], s[2]))
    ))
    def test_mul_and_row_vector_times(self, pair):
        a, b = pair
        want = from_sympy((to_sympy(a) * to_sympy(b)).tolist())
        frac = [list(row) for row in Matrix(a).mul(Matrix(b)).rows]
        assert all_fractions(frac) and frac == want
        assert from_exprs(Matrix(as_exprs(a)).mul(Matrix(as_exprs(b))).rows) == want
        row = Matrix(b).row_vector_times(a[0])
        assert all_fractions([row]) and row == want[0]
        assert from_exprs([Matrix(as_exprs(b)).row_vector_times(as_exprs(a)[0])]) == want[:1]
        eye = Matrix.identity(len(b), Fraction(1))
        assert eye.mul(Matrix(b)) == Matrix(b)
