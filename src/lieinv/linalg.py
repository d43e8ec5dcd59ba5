"""Matrices over Q and the expression field, one elimination.

Entries are Fractions or Exprs, one field per matrix; `if v:` is the zero
test of both.  Over Exprs a pivot is usable whenever it is not identically
zero, so parametric entries are handled generically; over Fractions the
same code ranks the sampled matrices of the rank checks.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .expr import EXPR_ONE, EXPR_ZERO, QONE, QZERO, KernelError


def _zero_one(v):
    """Zero and one of the field of v, Fraction or Expr."""
    return (QZERO, QONE) if isinstance(v, Fraction) else (EXPR_ZERO, EXPR_ONE)


class Matrix:
    """A dense matrix of Fractions or expressions."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise KernelError("ragged matrix")

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix(%d x %d)" % (self.nrows, self.ncols)

    @staticmethod
    def identity(n, one=EXPR_ONE):
        """The n x n identity over the field of one (Expr or Fraction)."""
        zero, one = _zero_one(one)
        return Matrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    def mul(self, other):
        if self.ncols != other.nrows:
            raise KernelError("shape mismatch in matrix product")
        return Matrix([other.row_vector_times(row) for row in self.rows])

    def add(self, other):
        return Matrix(
            [
                [self.rows[i][j] + other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ]
        )

    def sub(self, other):
        return Matrix(
            [
                [self.rows[i][j] - other.rows[i][j] for j in range(self.ncols)]
                for i in range(self.nrows)
            ]
        )

    def scale(self, c):
        return Matrix([[c * v for v in row] for row in self.rows])

    def shift(self, c):
        """self + c * identity."""
        out = [list(r) for r in self.rows]
        for i in range(self.nrows):
            out[i][i] = out[i][i] + c
        return Matrix(out)

    def transpose(self):
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def map(self, fn):
        return Matrix([[fn(v) for v in row] for row in self.rows])

    def row_vector_times(self, vec):
        """vec (length nrows) times self as a list; zero products are skipped."""
        zero = _zero_one(self.rows[0][0])[0] if self.ncols else None
        terms = [(v, row) for v, row in zip(vec, self.rows) if v]
        out = []
        for j in range(self.ncols):
            acc = None
            for v, row in terms:
                m = row[j]
                if m:
                    acc = v * m if acc is None else acc + v * m
            out.append(zero if acc is None else acc)
        return out

    def is_zero(self):
        return all(v.is_zero() for row in self.rows for v in row)

    def power(self, k):
        out = Matrix.identity(self.nrows)
        base = self
        n = k
        while n:
            if n & 1:
                out = out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out


# ---------------------------------------------------------------------------
# elimination


def rref_exprs(rows, reduced=True):
    """Row echelon form over Fraction or Expr entries.

    Returns (rows, pivot_columns, pivot_values).  Each pivot row is scaled to
    1 before it clears its column below, and also above when reduced (the
    reduced form); a rank needs only the first.  pivot_values collects the
    entries that were divided by, i.e. the genericity assumptions under
    which the echelon form is valid.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    assumptions = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != _zero_one(pv)[1]:
            assumptions.append(pv)
            m[r] = [v / pv if v else v for v in m[r]]
        mr = m[r]
        for i in range(0 if reduced else r + 1, nr):
            f = m[i][c]
            if i != r and f:
                m[i] = [a - f * b if b else a for a, b in zip(m[i], mr)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots, assumptions


def rank_exprs(rows):
    """Rank of a list of Fraction or Expr rows."""
    return len(rref_exprs(rows, reduced=False)[1])


def nullspace_exprs(rows):
    """Basis of the right kernel as lists over the field of the rows."""
    m, pivots, _ = rref_exprs(rows)
    nc = len(rows[0]) if rows else 0
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        zero, one = _zero_one(rows[0][fc])
        vec = [zero] * nc
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][fc]
        basis.append(vec)
    return basis


def inverse_exprs(mat):
    n = mat.nrows
    if n != mat.ncols:
        raise KernelError("inverse of a non-square matrix")
    aug = []
    for i, row in enumerate(mat.rows):
        zero, one = _zero_one(row[0])
        aug.append(list(row) + [one if j == i else zero for j in range(n)])
    red, pivots, _ = rref_exprs(aug)
    if pivots[:n] != list(range(n)):
        raise KernelError("matrix is singular")
    return Matrix([row[n:] for row in red])


def det_exprs(mat):
    """det(mat) = (-1)^n c_n from the division-free characteristic polynomial."""
    cn = charpoly_exprs(mat)[-1]
    return -cn if mat.nrows % 2 else cn


def charpoly_exprs(mat):
    """Berkowitz characteristic polynomial, division-free.

    Returns monic coefficients [1, c1, ..., cn] so that
    det(t*I - mat) = t^n + c1 t^(n-1) + ... + cn.
    """
    n = mat.nrows
    if n == 0:
        return [EXPR_ONE]
    a = mat.rows
    poly = [EXPR_ONE, -a[0][0]]
    for k in range(1, n):
        # vecs[i] = A_k^i col for the leading k x k block A_k (A_k v = v A_k^T)
        block_t = Matrix([[a[r][t] for r in range(k)] for t in range(k)])
        vecs = [[a[i][k] for i in range(k)]]
        for _ in range(k - 1):
            vecs.append(block_t.row_vector_times(vecs[-1]))
        # svals[i] = row . vecs[i], the columns of the matrix with rows zip(*vecs)
        svals = Matrix(zip(*vecs)).row_vector_times(a[k][:k])
        first = [EXPR_ONE, -a[k][k]] + [-s for s in svals]
        out = []
        for i in range(k + 2):
            acc = EXPR_ZERO
            for j in range(len(poly)):
                d = i - j
                if 0 <= d < len(first):
                    acc = acc + first[d] * poly[j]
            out.append(acc)
        poly = out
    return poly


# ---------------------------------------------------------------------------
# rational roots


def rational_roots(coeffs):
    """The rational roots with multiplicity of a monic rational polynomial.

    coeffs: [1, c1, ..., cn] as Fractions.  Returns (roots, rest): the sorted
    (root, multiplicity) pairs and the monic cofactor without rational roots
    as its coefficient list, [1] when the polynomial splits over Q.
    """
    work = [Fraction(c) for c in coeffs]
    roots = {}
    while len(work) > 1:
        root = _find_rational_root(work)
        if root is None:
            break
        roots[root] = roots.get(root, 0) + 1
        # synthetic division by (t - root)
        out = [work[0]]
        for c in work[1:-1]:
            out.append(c + out[-1] * root)
        rem = work[-1] + out[-1] * root
        if rem != 0:
            raise KernelError("inexact deflation")
        work = out
    return sorted(roots.items()), work


def _find_rational_root(coeffs):
    if coeffs[-1] == 0:
        return Fraction(0)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    a0 = abs(ints[-1])
    an = abs(ints[0])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _horner(coeffs, cand) == 0:
                    return cand
    return None


def _horner(coeffs, x):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)
