"""Independent checks on computed invariants.

Two verification routes are provided.  The first is analytic: an invariant
must be annihilated by every infinitesimal coadjoint generator
X_i = sum_j F_ij d/dx_j with F_ij = sum_k c_ijk x_k.  X_i is the
expr.Derivation of the field x_j -> F_ij, the same chain rule that
expr.differentiate applies; it gives the exact residual
(Q*X_i(P) - P*X_i(Q))/Q^2 of f = P/Q over shared denominators.  The second
is algebraic and applies to polynomial invariants: the
symmetrization map sends x_{i1}...x_{ir} to the average of all orderings of
e_{i1}...e_{ir}, and the image must commute with every generator once
products are rewritten in normally ordered form using the relations
e_a e_b - e_b e_a = [e_a, e_b].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    EXPR_ZERO,
    Derivation,
    Expr,
    KernelError,
    coord_atom,
    from_atom,
    rational,
)


@dataclass
class InvariantCheck:
    ok: bool
    residuals: list

    def failing(self):
        return [i + 1 for i, r in enumerate(self.residuals) if not r.is_zero()]


def check_invariant(g, f):
    """The report of check_all for the single expression f."""
    return check_all(g, [f])[0]


def check_all(g, exprs):
    """Exact residuals X_i(f) of every f in exprs; one report per f, in order.

    The coadjoint fields are built once and each row becomes one
    expr.Derivation, so X_i of each generator atom and exponential factor
    is computed once per call.
    """
    passes = [
        Derivation({coord_atom(j): F for j, F in enumerate(row, 1)})
        for row in g.coadjoint_fields()
    ]
    reports = []
    for f in exprs:
        residuals = [d.apply(f) for d in passes]
        reports.append(InvariantCheck(all(r.is_zero() for r in residuals), residuals))
    return reports


# ---------------------------------------------------------------------------
# noncommutative polynomials in the generators


class NCPoly:
    """Polynomial in noncommuting generators, words as index tuples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        for word, c in (terms or {}).items():
            if not c.is_zero():
                cleaned[tuple(word)] = c
        self.terms = cleaned

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, EXPR_ZERO) + c
        return NCPoly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, EXPR_ZERO) - c
        return NCPoly(out)

    def __eq__(self, other):
        return isinstance(other, NCPoly) and (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "NCPoly(0)"
        bits = []
        for w in sorted(self.terms, key=lambda t: (len(t), t)):
            bits.append("%s:%s" % ("*".join("e%d" % i for i in w) or "1", self.terms[w]))
        return "NCPoly(%s)" % ", ".join(bits)


def _letter_terms(f):
    """Validate f as a coordinate polynomial; map each sorted letter tuple to its coefficient."""
    if not f.den.is_one:
        raise KernelError("symmetrization needs a polynomial, got a quotient")
    out = {}
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
        key = tuple(sorted(letters))
        out[key] = out[key] + coeff if key in out else coeff
    return out


def _symmetrize_letters(letter_terms):
    terms = {}
    for letters, coeff in letter_terms.items():
        words = {()}
        for a in letters:
            words = {w[:t] + (a,) + w[t:] for w in words for t in range(len(w) + 1)}
        terms.update(dict.fromkeys(words, coeff * rational(Fraction(1, len(words)))))
    return NCPoly(terms)


def symmetrize(f):
    """Image of a coordinate polynomial under the symmetrization map.

    Monomials with the same letters (differing only in parameters) are
    summed first; the coefficient is then shared equally among the
    distinct orderings of the letters, r!/prod(m_i!) of them for letter
    multiplicities m_i.
    """
    return _symmetrize_letters(_letter_terms(f))


def _relations(g, coeffs):
    """Coefficient conversion and the table of [e_a, e_b] for a > b.

    Coefficients are Fractions when the given coefficients and every
    structure constant are rational, and Exprs otherwise.
    """
    structure = [c for row in g.brackets.values() for c in row.values()]
    rational_only = all(c.is_rational() for c in coeffs) and all(
        c.is_rational() for c in structure
    )
    conv = Expr.as_fraction if rational_only else (lambda c: c)
    table = {(j, i): [(k, -conv(c)) for k, c in row.items()] for (i, j), row in g.brackets.items()}
    return conv, table


def _inversions(word):
    return sum(a > b for t, a in enumerate(word) for b in word[t + 1:])


def _straighten(work, table):
    """Normal-order a dict word -> coefficient into non-decreasing words.

    Pending words are bucketed by (length, inversions).  A swap lowers the
    inversions by one and a bracket term lowers the length, so processing
    the largest bucket first merges every contribution to a word before
    that word is rewritten.
    """
    levels = {}

    def put(word, c, inversions):
        bucket = levels.setdefault((len(word), inversions), {})
        bucket[word] = bucket[word] + c if word in bucket else c

    for word, c in work.items():
        put(word, c, _inversions(word))
    result = {}
    while levels:
        key = max(levels)
        for word, c in levels.pop(key).items():
            if not c:
                continue
            if key[1] == 0:
                result[word] = c
                continue
            pos = next(t for t in range(len(word) - 1) if word[t] > word[t + 1])
            a, b = word[pos], word[pos + 1]
            head, tail = word[:pos], word[pos + 2:]
            put(head + (b, a) + tail, c, key[1] - 1)
            for k, ck in table.get((a, b), ()):
                shorter = head + (k,) + tail
                put(shorter, c * ck, _inversions(shorter))
    return result


def pbw_normal_form(p, g):
    """Rewrite into the basis of non-decreasing words using the relations."""
    conv, table = _relations(g, p.terms.values())
    nf = _straighten({w: conv(c) for w, c in p.terms.items()}, table)
    return NCPoly({w: rational(c) if isinstance(c, Fraction) else c for w, c in nf.items()})


def is_central(g, f, degree_bound=6):
    """True when the (symmetrized) element commutes with every generator.

    f is an NCPoly or a coordinate polynomial; the latter is validated and
    its degree checked against the bound before it is symmetrized.
    """
    letter_terms = None if isinstance(f, NCPoly) else _letter_terms(f)
    degree = f.degree if letter_terms is None else max(map(len, letter_terms), default=0)
    if degree > degree_bound:
        raise KernelError("degree %d exceeds the centrality bound %d" % (degree, degree_bound))
    p = f if letter_terms is None else _symmetrize_letters(letter_terms)
    conv, table = _relations(g, p.terms.values())
    # normal-order p once; [e_i, p] is then straightened from its sorted words
    nf = _straighten({w: conv(c) for w, c in p.terms.items()}, table)
    for i in range(1, g.dim + 1):
        comm = {}
        for w, c in nf.items():
            for word, s in (((i,) + w, c), (w + (i,), -c)):
                comm[word] = comm[word] + s if word in comm else s
        if _straighten(comm, table):
            return False
    return True
