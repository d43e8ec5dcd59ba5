"""Built-in algebra families with their known invariant bases.

Each constructor returns a FamilyInstance bundling the algebra, the expected
invariants and the frame signs, so the full pipeline can be driven and
cross-checked against the known answers.

Families:

* make_t0(n): nilpotent algebra of strictly upper triangular n x n matrices,
  basis e_ij (i < j), invariants given by corner minors of the coordinate
  matrix.
* make_jordan(blocks): solvable algebra with an Abelian ideal of codimension
  one, the action on the ideal in Jordan canonical form; blocks may be
  ('jordan', eigenvalue, size) or ('real', mu, nu, half_size).
* make_s1/make_s2/make_s3/make_s4: solvable extensions of the filiform
  nilpotent algebra by one or two further generators.
* make_g6_38(a): six-dimensional solvable algebra whose adjoint action mixes
  a dilation with a rotation; its invariant basis changes shape at a = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import LieAlgebra, StructureError, lie_algebra
from .expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Expr,
    atan_of,
    coord,
    exp_of,
    log_of,
    param,
    param_atom,
    pow_rational,
    rational,
)
from .frame import lifted_invariants
from .linalg import Matrix, det_exprs


@dataclass
class FamilyInstance:
    name: str
    algebra: LieAlgebra
    expected_invariants: list
    signs: dict = field(default_factory=dict)
    param_point: dict = None
    extra: dict = field(default_factory=dict)

    def lifted(self):
        return lifted_invariants(self.algebra, signs=self.signs)


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    return rational(Fraction(v))


# ---------------------------------------------------------------------------
# strictly upper triangular matrices


def make_t0(n):
    """Nilpotent algebra of strictly upper triangular n x n matrices."""
    if n < 2:
        raise StructureError("matrix size must be at least 2")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    index = {p: k + 1 for k, p in enumerate(pairs)}
    dim = len(pairs)
    entries = {}
    for a, (i, j) in enumerate(pairs):
        for b in range(a + 1, len(pairs)):
            k, l = pairs[b]
            acc = {}
            if j == k:
                acc[index[(i, l)]] = acc.get(index[(i, l)], 0) + 1
            if l == i:
                acc[index[(k, j)]] = acc.get(index[(k, j)], 0) - 1
            acc = {t: c for t, c in acc.items() if c}
            if acc:
                entries[(a + 1, b + 1)] = acc
    g = lie_algebra(dim, entries, name="t0(%d)" % n)

    def entry(row, col):
        # coordinate matrix is strictly lower triangular: entry (row, col),
        # col < row, is the coordinate dual to the basis element e_(col,row)
        if col < row:
            return coord(index[(col, row)])
        return EXPR_ZERO

    minors = []
    for k in range(1, n // 2 + 1):
        rows = [[entry(r, c) for c in range(1, k + 1)] for r in range(n - k + 1, n + 1)]
        minors.append(det_exprs(Matrix(rows)))
    return FamilyInstance(
        name="t0",
        algebra=g,
        expected_invariants=minors,
        extra={"size": n, "pairs": pairs, "index": index},
    )


# ---------------------------------------------------------------------------
# codimension-one Abelian ideal in Jordan form


def _xi(k, base=0):
    """Polynomial invariants of the filiform chain, relative to a block base."""
    x = lambda j: coord(base + j)
    if k == 1:
        return x(1)
    if k == 2:
        return EXPR_ZERO
    acc = EXPR_ZERO
    for j in range(1, k + 1):
        c = Fraction((-1) ** (k - j), math.factorial(k - j))
        acc = acc + rational(c) * x(1) ** (j - 2) * x(2) ** (k - j) * x(j)
    return acc


def _real_block_zetas(base, mu, nu, r):
    """Invariant set of a single real rotation block of half-size r."""
    x = lambda j: coord(base + j)
    r2 = x(1) * x(1) + x(2) * x(2)
    out = [r2 * exp_of(rational(-2) * (mu / nu) * atan_of(x(2) / x(1)))]
    if r >= 2:
        cross = (x(1) * x(3) + x(2) * x(4)) / r2
        out.append(nu * cross - atan_of(x(2) / x(1)))
        out.append((x(1) * x(4) - x(2) * x(3)) / r2)
        t = -cross
        for k in range(3, r + 1):
            hz_odd = EXPR_ZERO
            hz_even = EXPR_ZERO
            for j in range(1, k + 1):
                c = rational(Fraction(1, math.factorial(k - j)))
                hz_odd = hz_odd + t ** (k - j) * c * x(2 * j - 1)
                hz_even = hz_even + t ** (k - j) * c * x(2 * j)
            out.append((x(1) * hz_odd + x(2) * hz_even) / r2)
            out.append((x(2) * hz_odd - x(1) * hz_even) / r2)
    return out


def _block_internal(base, block):
    kind = block[0]
    if kind == "jordan":
        _, lam, r = block
        if lam.is_zero():
            return [_xi(1, base)] + [_xi(k, base) for k in range(3, r + 1)]
        if r == 1:
            return []
        zeta1 = coord(base + 1) * exp_of(-lam * coord(base + 2) / coord(base + 1))
        out = [zeta1]
        for k in range(3, r + 1):
            out.append(_xi(k, base) / coord(base + 1) ** (k - 1))
        return out
    _, mu, nu, r = block
    return _real_block_zetas(base, mu, nu, r)


def _pair_invariant(bi, ri, bj, rj):
    """Cross-block invariant for two blocks at bases bi, bj (1-based offsets)."""
    ki, kj = bi[0], bj[0]
    if ki == "jordan" and kj == "jordan":
        li, si = bi[1], bi[2]
        lj, sj = bj[1], bj[2]
        if li.is_zero() and lj.is_zero():
            return coord(rj + 2) * coord(ri + 1) - coord(ri + 2) * coord(rj + 1)
        if not li.is_zero() and not lj.is_zero():
            return exp_of(li * log_of(coord(rj + 1)) - lj * log_of(coord(ri + 1)))
        if lj.is_zero():
            nz_l, nz_s, nz_b = li, si, ri
            z_b = rj
        else:
            nz_l, nz_s, nz_b = lj, sj, rj
            z_b = ri
        if nz_s >= 2:
            return coord(z_b + 2) / coord(z_b + 1) - coord(nz_b + 2) / coord(nz_b + 1)
        return coord(nz_b + 1) * exp_of(-nz_l * coord(z_b + 2) / coord(z_b + 1))
    if ki == "real" and kj == "real":
        if bi[3] >= 2 and bj[3] >= 2:
            return _cross(rj) - _cross(ri)
        return bi[2] * atan_of(coord(rj + 2) / coord(rj + 1)) - bj[2] * atan_of(
            coord(ri + 2) / coord(ri + 1)
        )
    # mixed: orient so the jordan block is first
    if ki == "real":
        return _pair_invariant(bj, rj, bi, ri)
    lam, size = bi[1], bi[2]
    nu = bj[2]
    if size >= 2 and bj[3] >= 2:
        return _cross(rj) - coord(ri + 2) / coord(ri + 1)
    if not lam.is_zero():
        return coord(ri + 1) * exp_of(-(lam / nu) * atan_of(coord(rj + 2) / coord(rj + 1)))
    # zero-eigenvalue chain against a half-size-one rotation block
    return atan_of(coord(rj + 2) / coord(rj + 1)) - nu * coord(ri + 2) / coord(ri + 1)


def _cross(base):
    x = lambda j: coord(base + j)
    return (x(1) * x(3) + x(2) * x(4)) / (x(1) * x(1) + x(2) * x(2))


def _block_dim(block):
    return block[2] if block[0] == "jordan" else 2 * block[3]


def normalize_block(block):
    if int(block[-1]) < 1:
        raise StructureError("block size must be at least 1")
    if block[0] == "jordan":
        kind, lam, r = block
        return ("jordan", _as_expr(lam), int(r))
    kind, mu, nu, r = block
    nu = _as_expr(nu)
    if nu.is_zero():
        raise StructureError("rotation block needs a nonzero frequency")
    return ("real", _as_expr(mu), nu, int(r))


def make_jordan(blocks, params=(), name="jordan"):
    """Solvable algebra with Abelian ideal of codimension one in Jordan form."""
    blocks = [normalize_block(b) for b in blocks]
    for b in blocks:
        if b[0] == "jordan" and b[2] == 1 and b[1].is_zero():
            raise StructureError(
                "a one-dimensional kernel block splits off a direct Abelian summand"
            )
    n = sum(_block_dim(b) for b in blocks) + 1
    entries = {}
    base = 0
    for b in blocks:
        if b[0] == "jordan":
            _, lam, r = b
            for q in range(1, r + 1):
                acc = {}
                if not lam.is_zero():
                    acc[base + q] = lam
                if q >= 2:
                    acc[base + q - 1] = EXPR_ONE
                if acc:
                    entries[(base + q, n)] = acc
        else:
            _, mu, nu, r = b
            for k in range(1, r + 1):
                odd, even = base + 2 * k - 1, base + 2 * k
                acc_odd = {}
                acc_even = {}
                if not mu.is_zero():
                    acc_odd[odd] = mu
                    acc_even[even] = mu
                acc_odd[even] = -nu
                acc_even[odd] = nu
                if k >= 2:
                    acc_odd[odd - 2] = EXPR_ONE
                    acc_even[even - 2] = EXPR_ONE
                entries[(odd, n)] = acc_odd
                entries[(even, n)] = acc_even
        base += _block_dim(b)
    g = lie_algebra(n, entries, params=tuple(params), name=name)

    expected = []
    base = 0
    bases = []
    for b in blocks:
        bases.append(base)
        expected.extend(_block_internal(base, b))
        base += _block_dim(b)
    for j in range(1, len(blocks)):
        expected.append(_pair_invariant(blocks[0], bases[0], blocks[j], bases[j]))
    if len(expected) != n - 2:
        raise StructureError(
            "expected-invariant assembly is inconsistent: %d for dimension %d"
            % (len(expected), n)
        )
    return FamilyInstance(
        name=name,
        algebra=g,
        expected_invariants=expected,
        signs={n: -1},
    )


def polynomial_basis_predicate(blocks):
    """Whether the invariant field of the Jordan-form family has a polynomial basis."""
    blocks = [normalize_block(b) for b in blocks]
    if all(b[0] == "jordan" and b[1].is_zero() for b in blocks):
        return True
    n = sum(_block_dim(b) for b in blocks) + 1
    s = len(blocks)
    if s != n - 1 or s <= 2:
        return False
    if any(b[0] != "jordan" or b[2] != 1 for b in blocks):
        return False
    lams = [b[1] for b in blocks]
    if any(not l.is_rational() for l in lams):
        return False
    l1 = lams[0].as_fraction()
    if l1 == 0:
        return False
    ratios = [l.as_fraction() / l1 for l in lams[1:]]
    return all(r > 0 for r in ratios)


# ---------------------------------------------------------------------------
# solvable extensions of the filiform chain


def _filiform_entries(n):
    return {(k, n): {k - 1: EXPR_ONE} for k in range(2, n)}


def make_s1(n, alpha, beta):
    """One-generator extension scaling the chain elements by gamma_k."""
    if n < 4:
        raise StructureError("the series starts at dimension 5 (n = 4)")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not (alpha == 1 or (alpha == 0 and beta == 1)):
        raise StructureError("parameters must be normalized to (1, beta) or (0, 1)")
    gamma = lambda k: (n - k - 1) * alpha + beta
    entries = _filiform_entries(n)
    for k in range(1, n):
        if gamma(k):
            entries[(k, n + 1)] = {k: rational(gamma(k))}
    if alpha:
        entries[(n, n + 1)] = {n: rational(alpha)}
    g = lie_algebra(n + 1, entries, name="s1(%d,%s,%s)" % (n, alpha, beta))
    singular = (alpha, beta) == (Fraction(1), Fraction(2 - n))
    if singular:
        expected = [_xi(1)] + [
            _xi(k) ** 2 / _xi(3) ** (k - 1) for k in range(4, n)
        ]
    else:
        g1, g2 = gamma(1), gamma(2)
        expected = [
            pow_rational(coord(1), Fraction(-(k - 1)) * g2 / g1) * _xi(k)
            for k in range(3, n)
        ]
    return FamilyInstance(
        name="s1",
        algebra=g,
        expected_invariants=expected,
        signs={n: -1, n + 1: -1},
    )


def make_s2(n):
    """One-generator extension with a non-diagonalizable action.

    The action on the chain scales e_k by n - k and sends the shift element
    e_n to e_n + e_{n-1}; the extra component lies along the unique
    eigendirection where the scaling equals that of e_n, which makes it
    impossible to remove by a change of basis.
    """
    if n < 4:
        raise StructureError("the series starts at dimension 5 (n = 4)")
    entries = _filiform_entries(n)
    for k in range(1, n):
        entries[(k, n + 1)] = {k: rational(n - k)}
    entries[(n, n + 1)] = {n: EXPR_ONE, n - 1: EXPR_ONE}
    g = lie_algebra(n + 1, entries, name="s2(%d)" % n)
    q = Fraction(n - 2, n - 1)
    expected = [
        pow_rational(coord(1), -(k - 1) * q) * _xi(k) for k in range(3, n)
    ]
    return FamilyInstance(
        name="s2",
        algebra=g,
        expected_invariants=expected,
        signs={n: -1, n + 1: -1},
    )


def b_coefficients(n, a):
    """Sums of products of the extension parameters over constrained tuples.

    b[m][i] collects products a_{s_1}*...*a_{s_i} over ordered tuples with
    3 <= s_t <= n-1 and s_1 + ... + s_i = m + i.
    """
    out = {}
    for m in range(2, n - 1):
        for i in range(1, m // 2 + 1):
            total = EXPR_ZERO
            target = m + i

            def rec(depth, remaining, prod):
                nonlocal total
                if depth == i:
                    if remaining == 0:
                        total = total + prod
                    return
                lo = 3
                hi = min(n - 1, remaining - 3 * (i - depth - 1))
                for s in range(lo, hi + 1):
                    rec(depth + 1, remaining - s, prod * a[s])

            rec(0, target, EXPR_ONE)
            if not total.is_zero():
                out[(m, i)] = total
    return out


def make_s3(n, a=None):
    """One-generator extension acting as identity plus a nilpotent drift."""
    if n < 4:
        raise StructureError("the series starts at dimension 5 (n = 4)")
    if a is None:
        a = {j: param("a%d" % j) for j in range(3, n)}
        params = tuple("a%d" % j for j in range(3, n))
    else:
        extra = sorted(set(a) - set(range(3, n)))
        if extra:
            raise StructureError("drift index %d outside 3..%d" % (extra[0], n - 1))
        a = {j: _as_expr(v) for j, v in a.items()}
        for j in range(3, n):
            a.setdefault(j, EXPR_ZERO)
        params = tuple(
            sorted({at.data for v in a.values() for at in v.atoms() if at.head == "p"})
        )
    entries = _filiform_entries(n)
    for k in range(1, n):
        acc = {k: EXPR_ONE}
        for i in range(1, k - 1):
            idx = k - i + 1
            if idx in a and not a[idx].is_zero():
                acc[i] = a[idx]
        entries[(k, n + 1)] = acc
    g = lie_algebra(n + 1, entries, params=params, name="s3(%d)" % n)
    b = b_coefficients(n, a)
    lnx1 = log_of(coord(1))
    expected = []
    for k in range(3, n):
        acc = coord(1) ** (1 - k) * _xi(k)
        for m in range(2, k):
            j = k - m
            if j == 2:
                continue
            inner = EXPR_ZERO
            for i in range(1, m // 2 + 1):
                if (m, i) in b:
                    inner = inner + b[(m, i)] * rational(
                        Fraction(1, math.factorial(i))
                    ) * (-lnx1) ** i
            if inner.is_zero():
                continue
            if j == 1:
                acc = acc + inner
            else:
                acc = acc + coord(1) ** (m + 1 - k) * _xi(j) * inner
        expected.append(acc)
    return FamilyInstance(
        name="s3",
        algebra=g,
        expected_invariants=expected,
        signs={n: -1, n + 1: -1},
        param_point=(
            {param_atom(nm): Fraction(2 * i + 3, 2) for i, nm in enumerate(params)}
            if params
            else None
        ),
    )


def make_s4(n):
    """Two-generator extension of the filiform chain."""
    if n < 5:
        raise StructureError("the series starts at n = 5")
    entries = _filiform_entries(n)
    for k in range(1, n):
        gk = n - k - 1
        if gk:
            entries[(k, n + 1)] = {k: rational(gk)}
        entries[(k, n + 2)] = {k: EXPR_ONE}
    entries[(n, n + 1)] = {n: EXPR_ONE}
    g = lie_algebra(n + 2, entries, name="s4(%d)" % n)
    expected = [_xi(k) ** 2 / _xi(3) ** (k - 1) for k in range(4, n)]
    return FamilyInstance(
        name="s4",
        algebra=g,
        expected_invariants=expected,
        signs={n: -1, n + 1: -1, n + 2: -1},
    )


# ---------------------------------------------------------------------------
# the six-dimensional rotation example


def make_g6_38(a=None):
    """Six-dimensional solvable algebra mixing a dilation with a rotation."""
    if a is None:
        a_expr = param("a")
        params = ("a",)
        param_point = {param_atom("a"): Fraction(3, 2)}
    else:
        a_expr = _as_expr(a)
        params = ()
        param_point = None
    entries = {
        (4, 5): {1: EXPR_ONE},
        (1, 6): {1: rational(2) * a_expr},
        (2, 6): {2: a_expr, 3: rational(-1)},
        (3, 6): {2: EXPR_ONE, 3: a_expr},
        (4, 6): {2: EXPR_ONE, 4: a_expr, 5: rational(-1)},
        (5, 6): {3: EXPR_ONE, 4: EXPR_ONE, 5: a_expr},
    }
    entries = {k: {t: v for t, v in d.items() if not (isinstance(v, Expr) and v.is_zero())} for k, d in entries.items()}
    entries = {k: d for k, d in entries.items() if d}
    g = lie_algebra(6, entries, params=params, name="g6.38")
    x1, x2, x3 = coord(1), coord(2), coord(3)
    if a_expr.is_zero():
        expected = [x1, x2 * x2 + x3 * x3]
    else:
        expected = [
            (x2 * x2 + x3 * x3) / x1,
            x1 * exp_of(rational(-2) * a_expr * atan_of(x3 / x2)),
        ]
    return FamilyInstance(
        name="g6.38",
        algebra=g,
        expected_invariants=expected,
        signs={6: -1},
        param_point=param_point,
    )


# ---------------------------------------------------------------------------
# canonical instance registry


def builtin_instances():
    """Return the canonical list of shipped family instances.

    Covers every constructor at small size: strictly upper triangular
    algebras, single- and multi-block nilindependent extensions of the
    abelian ideal (including a real rotation block and the diagonal
    marginal case), the four solvable series, and the six-dimensional
    worked algebra in both parameter regimes.
    """
    out = [make_t0(k) for k in (3, 4, 5, 6)]
    out += [
        make_jordan([("jordan", 0, n - 1)], name="J0(%d)" % n) for n in (4, 5, 6)
    ]
    out += [
        make_jordan([("jordan", 1, n - 1)], name="J1(%d)" % n) for n in (4, 5)
    ]
    out.append(make_jordan([("real", 1, 1, 2)], name="R11(5)"))
    out.append(
        make_jordan([("jordan", 0, 2), ("jordan", 0, 2)], name="J0+J0(5)")
    )
    out.append(
        make_jordan([("jordan", 1, 2), ("jordan", 0, 2)], name="J1+J0(5)")
    )
    out.append(
        make_jordan(
            [("jordan", 1, 1), ("jordan", 2, 1), ("jordan", 3, 1)],
            name="diag123(4)",
        )
    )
    out.append(make_s1(5, 1, 0))
    out.append(make_s1(5, 0, 1))
    out.append(make_s1(5, 1, -3))
    out.append(make_s1(6, 1, 0))
    out.append(make_s2(5))
    out.append(make_s2(6))
    out.append(make_s3(5))
    out.append(make_s3(6))
    out.append(make_s4(6))
    out.append(make_s4(7))
    out.append(make_g6_38(0))
    out.append(make_g6_38())
    return out
