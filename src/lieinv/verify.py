"""Independent checks on computed invariants.

Two verification routes are provided.  The first is analytic: an invariant
must be annihilated by every infinitesimal coadjoint generator, i.e. the
exact residuals sum_j (sum_k c_ijk x_k) dF/dx_j must vanish for each i.
The second is algebraic and applies to polynomial invariants: the
symmetrization map sends x_{i1}...x_{ir} to the average of all orderings of
e_{i1}...e_{ir}, and the image must commute with every generator once
products are rewritten in normally ordered form using the relations
e_a e_b - e_b e_a = [e_a, e_b].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    EXPR_ZERO,
    KernelError,
    coord_atom,
    differentiate,
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
    """Exact residuals of the annihilation system applied to f."""
    n = g.dim
    grads = [differentiate(f, coord_atom(j)) for j in range(1, n + 1)]
    fields = g.coadjoint_fields()
    residuals = []
    for i in range(n):
        acc = EXPR_ZERO
        for j in range(n):
            if fields[i][j].is_zero():
                continue
            acc = acc + fields[i][j] * grads[j]
        residuals.append(acc)
    return InvariantCheck(all(r.is_zero() for r in residuals), residuals)


def check_all(g, exprs):
    """check_invariant over a list; returns the list of reports."""
    return [check_invariant(g, f) for f in exprs]


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

    @classmethod
    def generator(cls, i):
        from .expr import EXPR_ONE

        return cls({(i,): EXPR_ONE})

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

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prod = c1 * c2
                if w in out:
                    out[w] = out[w] + prod
                else:
                    out[w] = prod
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


def symmetrize(f):
    """Image of a coordinate polynomial under the symmetrization map."""
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
        r = len(letters)
        if r == 0:
            word = ()
            acc[word] = acc.get(word, EXPR_ZERO) + coeff
            continue
        scale = coeff * rational(Fraction(1, math.factorial(r)))
        for perm in itertools.permutations(letters):
            acc[perm] = acc.get(perm, EXPR_ZERO) + scale
    return NCPoly(acc)


def pbw_normal_form(p, g):
    """Rewrite into the basis of non-decreasing words using the relations."""
    result = {}
    work = list(p.terms.items())
    while work:
        word, coeff = work.pop()
        if coeff.is_zero():
            continue
        pos = -1
        for t in range(len(word) - 1):
            if word[t] > word[t + 1]:
                pos = t
                break
        if pos < 0:
            if word in result:
                result[word] = result[word] + coeff
            else:
                result[word] = coeff
            continue
        a, b = word[pos], word[pos + 1]
        work.append((word[:pos] + (b, a) + word[pos + 2 :], coeff))
        for k, ck in g.bracket(a, b).items():
            if not ck.is_zero():
                work.append((word[:pos] + (k,) + word[pos + 2 :], coeff * ck))
    return NCPoly(result)


def is_central(g, f, degree_bound=6):
    """True when the (symmetrized) element commutes with every generator."""
    p = f if isinstance(f, NCPoly) else symmetrize(f)
    if p.degree > degree_bound:
        raise KernelError(
            "degree %d exceeds the centrality bound %d" % (p.degree, degree_bound)
        )
    for i in range(1, g.dim + 1):
        ei = NCPoly.generator(i)
        comm = pbw_normal_form(ei * p - p * ei, g)
        if not comm.is_zero():
            return False
    return True
