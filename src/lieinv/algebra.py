"""Finite-dimensional Lie algebras given by exact structure constants.

Brackets are stored for index pairs i < j (1-based); [e_j, e_i] is implied by
antisymmetry.  Coefficients are expressions, so parametric families are
first-class: validation and nullspaces then hold identically in the
parameters, and sampling-based ranks substitute generic rational parameter
values.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .expr import (
    EXPR_ZERO,
    Expr,
    KernelError,
    QZERO,
    SingularPoint,
    coord,
    evaluate,
    param_atom,
    rational,
)
from .linalg import Matrix, nullspace_exprs, rank_exprs, rref_exprs

SAMPLE_BOUND = 10_000


class StructureError(ValueError):
    """Malformed structure-constant input."""


class LieAlgebra:
    """An n-dimensional Lie algebra over exact scalars."""

    __slots__ = ("dim", "brackets", "params", "name")

    def __init__(self, dim, brackets, params=(), name=""):
        self.dim = dim
        self.brackets = brackets
        self.params = tuple(params)
        self.name = name

    def __repr__(self):
        return "LieAlgebra(%r, dim=%d)" % (self.name, self.dim)

    def bracket(self, i, j):
        """Coefficients of [e_i, e_j] as a dict k -> Expr (any index order).

        For i < j this is the stored mapping itself; callers must not mutate it.
        """
        if i == j:
            return {}
        if i < j:
            return self.brackets.get((i, j), {})
        flipped = self.brackets.get((j, i), {})
        return {k: -c for k, c in flipped.items()}

    def ad_matrix(self, i):
        """Matrix of ad_{e_i}: column j holds the coordinates of [e_i, e_j]."""
        n = self.dim
        rows = [[EXPR_ZERO] * n for _ in range(n)]
        for j in range(1, n + 1):
            for k, c in self.bracket(i, j).items():
                rows[k - 1][j - 1] = c
        return Matrix(rows)

    def structure_matrix(self):
        """The n x n matrix with (i, j) entry sum_k c_ijk * x_k."""
        n = self.dim
        rows = [[EXPR_ZERO] * n for _ in range(n)]
        for (i, j), coeffs in self.brackets.items():
            acc = EXPR_ZERO
            for k, c in coeffs.items():
                acc = acc + c * coord(k)
            rows[i - 1][j - 1] = acc
            rows[j - 1][i - 1] = -acc
        return Matrix(rows)

    def coadjoint_fields(self):
        """Row i is the coefficient vector of the field attached to e_i."""
        return [list(row) for row in self.structure_matrix().rows]

    def bracket_vectors(self, u, v):
        """[u, v] for coefficient vectors of expressions (0-based lists)."""
        n = self.dim
        out = [EXPR_ZERO] * n
        for (i, j), coeffs in self.brackets.items():
            f = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
            if f.is_zero():
                continue
            for k, c in coeffs.items():
                out[k - 1] = out[k - 1] + f * c
        return out


def lie_algebra(dim, entries, params=(), name=""):
    """Build an algebra from (i, j) -> {k: coeff} entries of either order.

    Entries for both (i, j) and (j, i) must be antisymmetric if both appear.
    Coefficients may be int, Fraction or Expr.
    """
    if dim < 1:
        raise StructureError("dimension must be positive")
    norm = {}
    for (i, j), coeffs in entries.items():
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise StructureError("bracket [%d,%d] out of range for dim %d" % (i, j, dim))
        cleaned = {}
        for k, c in coeffs.items():
            if not (1 <= k <= dim):
                raise StructureError("target e%d out of range in [%d,%d]" % (k, i, j))
            c = c if isinstance(c, Expr) else rational(c)
            if not c.is_zero():
                cleaned[k] = c
        if i == j:
            if cleaned:
                raise StructureError("[e%d,e%d] must vanish" % (i, j))
            continue
        key, flip = ((i, j), False) if i < j else ((j, i), True)
        if flip:
            cleaned = {k: -c for k, c in cleaned.items()}
        if key in norm:
            old = norm[key]
            same = set(old) == set(cleaned) and all(old[k].equals(cleaned[k]) for k in old)
            if not same:
                raise StructureError(
                    "conflicting entries for [%d,%d] under antisymmetry" % key
                )
        elif cleaned:
            norm[key] = cleaned
    return LieAlgebra(dim, norm, params=params, name=name)


def jacobi_defects(g):
    """All violated Jacobi triples as (i, j, k, residual dict), i < j < k.

    Only stored nonzero brackets are walked: [[e_a, e_b], e_c] adds
    c_ab^m [e_m, e_c] to the cyclic sum of the triple {a, b, c}, negated
    when (a, b, c) is an odd permutation of it.
    """
    ad = {}
    for (a, b), coeffs in g.brackets.items():
        ad.setdefault(a, []).append((b, coeffs))
        ad.setdefault(b, []).append((a, {k: -c for k, c in coeffs.items()}))
    sums = {}
    for (a, b), coeffs in g.brackets.items():
        for m, cm in coeffs.items():
            for c, row in ad.get(m, ()):
                if c == a or c == b:
                    continue
                res = sums.setdefault(tuple(sorted((a, b, c))), {})
                signed = -cm if a < c < b else cm
                for t, ct in row.items():
                    acc = res.get(t, EXPR_ZERO) + signed * ct
                    if acc:
                        res[t] = acc
                    else:
                        res.pop(t, None)
    return [(i, j, k, res) for (i, j, k), res in sorted(sums.items()) if res]


def validate(g):
    """Exact validation report; empty list means the algebra is consistent."""
    problems = []
    for i, j, k, res in jacobi_defects(g):
        worst = sorted(res.items())[0]
        problems.append(
            "jacobi identity fails on (e%d, e%d, e%d): coefficient of e%d is %s"
            % (i, j, k, worst[0], worst[1].skey())
        )
    return problems


def center(g):
    """Basis of the center over the expression field: the common kernel of all ad_{e_i}."""
    return nullspace_exprs([row for i in range(1, g.dim + 1) for row in g.ad_matrix(i).rows])


def derived_series(g):
    """Dimensions [dim g, dim g', dim g'', ...] until stabilization."""
    return _series_dims(g, lambda cur: [(u, v) for u in cur for v in cur])


def lower_central_series(g):
    """Dimensions of g, [g, g], [g, [g, g]], ..."""
    full = Matrix.identity(g.dim).rows
    return _series_dims(g, lambda cur: [(u, v) for u in full for v in cur])


def _series_dims(g, pair_source):
    cur = Matrix.identity(g.dim).rows
    dims = [g.dim]
    while True:
        brackets = (g.bracket_vectors(u, v) for u, v in pair_source(cur))
        basis, pivots, _ = rref_exprs([w for w in brackets if any(w)])
        d = len(pivots)
        dims.append(d)
        if d == 0 or d == dims[-2]:
            return dims
        cur = basis[:d]


def is_nilpotent(g):
    return lower_central_series(g)[-1] == 0


def is_solvable(g):
    return derived_series(g)[-1] == 0


def sample_fraction(rng):
    return Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND))


def sampled_rank(g, rows_at, seed=0, trials=8, param_point=None, bound=None):
    """Maximum ranks of row sets over exact rational sample points of g.

    Each trial draws x_1..x_n, then each parameter of g in order unless
    param_point fixes it, and ranks each row set of rows_at(x, params, rng)
    (x a 0-based list, params atom -> Fraction; rows_at may draw more).  A
    trial raising SingularPoint is skipped; sampling stops once the first
    rank equals bound.  Returns (ranks, witness), witness mapping index to
    x of the first trial reaching the largest first rank.  Raises
    ValueError when trials < 1, KernelError when every trial is singular.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %r" % (trials,))
    rng = random.Random(seed)
    best = witness = None
    for _ in range(trials):
        x = [sample_fraction(rng) for _ in range(g.dim)]
        params = {}
        for p in g.params:
            a = param_atom(p)
            fixed = param_point and a in param_point
            params[a] = Fraction(param_point[a]) if fixed else sample_fraction(rng)
        try:
            ranks = [rank_exprs(rows) for rows in rows_at(x, params, rng)]
        except SingularPoint:
            continue
        if best is None or ranks[0] > best[0]:
            witness = dict(enumerate(x, start=1))
        best = ranks if best is None else [max(r, b) for r, b in zip(ranks, best)]
        if best[0] == bound:
            break
    if best is None:
        raise KernelError("all sample points were singular")
    return best, witness


def rank_coadjoint(g, seed=0, trials=8, param_point=None):
    """Generic rank of the coadjoint structure matrix, by sampled_rank.

    Returns (rank, witness) where witness maps coordinate index to the
    sampled value attaining the maximal rank.  Deterministic in seed.
    Parameter atoms are taken from param_point when given, else sampled.

    C(x)_ij = sum_k c_ij^k x_k is evaluated over Q straight from g.brackets.
    C(x) is skew-symmetric, so its rank is even, and it is at most the
    number m of basis elements with a nonzero bracket: sampling stops once
    the rank reaches 2*floor(m/2).  Raises sampled_rank's ValueError and
    KernelError.
    """
    bound = len({i for pair in g.brackets for i in pair}) // 2 * 2
    (rank,), witness = sampled_rank(
        g, lambda x, params, rng: [_structure_at(g, x, params)], seed, trials, param_point, bound
    )
    return rank, witness


def _structure_at(g, x, point):
    """C(x) over Q at coordinates x (0-based) and parameter values point."""
    n = g.dim
    rows = [[QZERO] * n for _ in range(n)]
    for (i, j), coeffs in g.brackets.items():
        v = QZERO
        for k, c in coeffs.items():
            v += (c.as_fraction() if c.is_rational() else evaluate(c, point)) * x[k - 1]
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = -v
    return rows


def num_invariants(g, seed=0, trials=8, param_point=None):
    """dim g minus the generic coadjoint rank."""
    r, _ = rank_coadjoint(g, seed=seed, trials=trials, param_point=param_point)
    return g.dim - r
