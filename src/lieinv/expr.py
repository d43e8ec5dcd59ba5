"""Exact symbolic expressions over the rationals.

The kernel represents rational functions of three groups of variables
(coordinates x1..xn, frame parameters th1..thr, free parameters) extended by
four transcendental generators: log(u), atan(u), cos(u), sin(u) with
transcendental-free arguments, plus one formal exponential factor per
monomial.  The exponential factor exp(w) carries w = base + sum(c_g * g) where
base and the coefficients c_g are transcendental-free expressions and g ranges
over non-exponential generators.  This is exactly the closure needed so that
products of exponentials stay exponentials (their w parts add) and forms like
exp(q*log(u)) with non-integer rational q (i.e. fractional powers) or
exp(c*atan(u)) remain first-class values.

Canonical rules enforced on construction:

* monomials are ordered graded-lexicographically, coordinates before frame
  parameters before free parameters before transcendental atoms;
* sin(u)^2 is rewritten to 1 - cos(u)^2, so sin-exponents stay <= 1;
* cos(-u) = cos(u), sin(-u) = -sin(u), atan(-u) = -atan(u);
* atan((A*sin(u) + B*cos(u))/(A*cos(u) - B*sin(u))) = u + atan(B/A), which is
  the angle-addition normalization needed when a rotation angle is recovered
  from a ratio of rotated components;
* log(c * m * P) splits into log(c) + sum(e*log(v)) + log(P) with P primitive
  and positive-leading, and log(m * exp(w)) absorbs w;
* exp(n*log(u)) with integer n collapses to u**n;
* fractions clear a common exponential factor and a common monomial factor,
  divide out the polynomial gcd when both sides are transcendental-free, and
  keep a monic denominator;
* a coefficient is an int when it is integral and a Fraction with
  denominator > 1 otherwise (_coeff); a coefficient division keeps a
  Fraction on the left (QONE / c), so it never gives a float.

Zero-testing is structural on the canonical form.  Distinct generator atoms
(and exponentials of inequivalent w) are treated as algebraically independent
apart from the rules above; that is sound for every expression this library
produces, where arguments are canonicalized before atoms are compared.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cmp_to_key

QZERO = Fraction(0)
QONE = Fraction(1)

_GROUP = {"x": 0, "th": 1, "p": 2, "log": 3, "atan": 3, "cos": 3, "sin": 3}
_HEAD_RANK = {"log": 0, "atan": 1, "cos": 2, "sin": 3}
_GEN_HEADS = ("log", "atan", "cos", "sin")


class KernelError(ValueError):
    """Raised when an operation leaves the representable closure."""


class ZeroDivision(KernelError, ZeroDivisionError):
    """Raised on division by an expression that is identically zero."""


class SingularPoint(ArithmeticError):
    """Raised when an evaluation hits a vanishing denominator."""


# ---------------------------------------------------------------------------
# atoms


class Atom:
    """An interned variable or transcendental generator."""

    __slots__ = ("head", "data", "skey", "_hash")

    def __init__(self, head, data, skey):
        self.head = head
        self.data = data
        self.skey = skey
        self._hash = hash(skey)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self is other or (isinstance(other, Atom) and self.skey == other.skey)

    def __repr__(self):
        return "Atom(%s)" % (atom_str(self),)

    @property
    def is_generator(self):
        return self.head in _HEAD_RANK


_ATOMS = {}


def _intern(head, data, skey):
    key = (head, skey)
    got = _ATOMS.get(key)
    if got is None:
        got = Atom(head, data, skey)
        _ATOMS[key] = got
    return got


def coord_atom(i):
    return _intern("x", i, (0, 0, i))


def theta_atom(i):
    return _intern("th", i, (1, 0, i))


def param_atom(name):
    return _intern("p", name, (2, 0, name))


def _gen_atom(head, arg):
    return _intern(head, arg, (3, _HEAD_RANK[head], arg.skey()))


def atom_str(a):
    if a.head == "x":
        return "x%d" % a.data
    if a.head == "th":
        return "th%d" % a.data
    if a.head == "p":
        return a.data
    return "%s(%s)" % (a.head, a.data.skey())


# ---------------------------------------------------------------------------
# exponential parts


class ExpPart:
    """The w of a formal factor exp(w).

    base is a transcendental-free Expr; terms is a sorted tuple of
    (generator atom, transcendental-free nonzero Expr coefficient).
    """

    __slots__ = ("base", "terms", "_hash", "_skey")

    def __init__(self, base, terms):
        self.base = base
        self.terms = terms
        self._hash = hash((base, terms))
        self._skey = None

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ExpPart)
            and self.base == other.base
            and self.terms == other.terms
        )

    def skey(self):
        if self._skey is None:
            bits = [self.base.skey()]
            for atom, coeff in self.terms:
                bits.append(atom.skey)
                bits.append(coeff.skey())
            self._skey = tuple(bits)
        return self._skey

    def as_expr(self):
        """Rebuild w as an ordinary expression."""
        acc = self.base
        for atom, coeff in self.terms:
            acc = acc + coeff * from_atom(atom)
        return acc

    def merged(self, other):
        """w1 + w2 (used when multiplying monomials)."""
        if other is None:
            return self
        acc = dict(self.terms)
        for atom, coeff in other.terms:
            tot = acc.get(atom)
            tot = coeff if tot is None else tot + coeff
            if tot.is_zero():
                acc.pop(atom, None)
            else:
                acc[atom] = tot
        return make_exppart(self.base + other.base, acc.items())

    def negated(self):
        return make_exppart(-self.base, [(a, -c) for a, c in self.terms])


def make_exppart(base, terms):
    items = []
    for atom, coeff in terms:
        if not coeff.is_zero():
            items.append((atom, coeff))
    items.sort(key=lambda it: it[0].skey)
    if not items and base.is_zero():
        return None
    return ExpPart(base, tuple(items))


# ---------------------------------------------------------------------------
# monomials


class Monomial:
    """A power product of atoms with one optional exponential factor."""

    __slots__ = ("vars", "ep", "degree", "_hash")

    def __init__(self, vars, ep):
        self.vars = vars
        self.ep = ep
        self.degree = sum(e for _, e in vars)
        self._hash = hash((vars, ep))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Monomial)
            and self.vars == other.vars
            and self.ep == other.ep
        )

    def __repr__(self):
        return "Monomial(%s)" % (monomial_str(self, 1),)

    def exponent(self, atom):
        for a, e in self.vars:
            if a == atom:
                return e
        return 0

    def mul(self, other):
        """The product: one merge of the two skey-sorted vars tuples.

        Exponents are positive, so no merged exponent vanishes.
        """
        if not other.vars and other.ep is None:
            return self
        if not self.vars and self.ep is None:
            return other
        v1, v2 = self.vars, other.vars
        n1, n2 = len(v1), len(v2)
        out = []
        i = j = 0
        while i < n1 and j < n2:
            a1, e1 = v1[i]
            a2, e2 = v2[j]
            if a1 is a2:
                out.append((a1, e1 + e2))
                i += 1
                j += 1
            elif a1.skey < a2.skey:
                out.append(v1[i])
                i += 1
            else:
                out.append(v2[j])
                j += 1
        out.extend(v1[i:])
        out.extend(v2[j:])
        ep = self.ep.merged(other.ep) if self.ep is not None else other.ep
        return Monomial(tuple(out), ep)

    def without(self, atom, k):
        """Divide out atom**k (k must not exceed the stored exponent)."""
        out = []
        for a, e in self.vars:
            if a == atom:
                if e < k:
                    raise KernelError("monomial not divisible")
                if e > k:
                    out.append((a, e - k))
            else:
                out.append((a, e))
        return make_monomial(out, self.ep)

    def with_ep(self, ep):
        return Monomial(self.vars, ep)


def make_monomial(items, ep):
    vars = tuple(sorted(((a, e) for a, e in items if e != 0), key=lambda it: it[0].skey))
    return Monomial(vars, ep)


MONO_ONE = Monomial((), None)


def _cmp_monomial(m1, m2):
    if m1.degree != m2.degree:
        return -1 if m1.degree < m2.degree else 1
    v1, v2 = m1.vars, m2.vars
    i = j = 0
    while i < len(v1) and j < len(v2):
        a1, e1 = v1[i]
        a2, e2 = v2[j]
        if a1 == a2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif a1.skey < a2.skey:
            return 1
        else:
            return -1
    if i < len(v1):
        return 1
    if j < len(v2):
        return -1
    k1 = () if m1.ep is None else m1.ep.skey()
    k2 = () if m2.ep is None else m2.ep.skey()
    if k1 == k2:
        return 0
    return -1 if k1 < k2 else 1


_MONO_KEY = cmp_to_key(_cmp_monomial)


# ---------------------------------------------------------------------------
# polynomials


def _coeff(c):
    """The stored form of a coefficient: an int when c is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class Poly:
    """Sum of monomials with nonzero coefficients, canonically reduced.

    A coefficient is an int when integral and a Fraction with denominator
    > 1 otherwise: Poly(terms) stores terms as given, and every method and
    builder that makes a new coefficient applies _coeff.  Equal int and
    Fraction values compare and hash equal, so equality does not change.
    """

    __slots__ = ("terms", "_items", "_hash")

    def __init__(self, terms):
        self.terms = terms
        self._items = None
        self._hash = None

    def items(self):
        """Terms sorted leading-first; cached."""
        if self._items is None:
            self._items = tuple(
                sorted(self.terms.items(), key=lambda kv: _MONO_KEY(kv[0]), reverse=True)
            )
        return self._items

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return "Poly(%s)" % (poly_str(self),)

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_one(self):
        c = self.terms.get(MONO_ONE) if len(self.terms) == 1 else None
        return c is not None and c == 1

    def lead(self):
        return self.items()[0]

    def degree(self):
        return max((m.degree for m in self.terms), default=0)

    def degree_in(self, atom):
        return max((m.exponent(atom) for m in self.terms), default=0)

    def add(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        acc = dict(self.terms)
        for m, c in other.terms.items():
            tot = acc.get(m, 0) + c
            if tot:
                acc[m] = _coeff(tot)
            else:
                acc.pop(m, None)
        return Poly(acc)

    def neg(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        if self.is_zero or other.is_zero:
            return POLY_ZERO
        if self.is_one:
            return other
        if other.is_one:
            return self
        acc = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1.mul(m2)
                tot = acc.get(m, 0) + c1 * c2
                if tot:
                    acc[m] = tot
                else:
                    acc.pop(m, None)
        return make_poly(acc)

    def scale(self, q):
        if not q:
            return POLY_ZERO
        if q == 1:
            return self
        return Poly({m: _coeff(c * q) for m, c in self.terms.items()})

    def mul_monomial(self, mono, q=1):
        acc = {}
        for m, c in self.terms.items():
            acc[m.mul(mono)] = c * q
        return make_poly(acc)

    def mul_ep(self, ep):
        """Multiply every monomial by exp(w); ep may be None."""
        if ep is None:
            return self
        acc = {}
        for m, c in self.terms.items():
            nep = m.ep.merged(ep) if m.ep is not None else ep
            key = m.with_ep(nep)
            tot = acc.get(key, 0) + c
            if tot:
                acc[key] = tot
            else:
                acc.pop(key, None)
        return make_poly(acc)

    def pow(self, k):
        out = POLY_ONE
        base = self
        n = k
        while n:
            if n & 1:
                out = out.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return out

    def atoms(self):
        seen = set()
        for m in self.terms:
            for a, _ in m.vars:
                seen.add(a)
        return seen

    def has_transcendentals(self):
        for m in self.terms:
            if m.ep is not None:
                return True
            for a, _ in m.vars:
                if a.is_generator:
                    return True
        return False

    def common_monomial(self, other=None):
        """Greatest monomial dividing every term (of both polys if given)."""
        monos = list(self.terms)
        if other is not None:
            monos += list(other.terms)
        if not monos:
            return MONO_ONE
        acc = dict(monos[0].vars)
        for m in monos[1:]:
            if not acc:
                break
            cur = dict(m.vars)
            for a in list(acc):
                e = cur.get(a, 0)
                if e == 0:
                    del acc[a]
                else:
                    acc[a] = min(acc[a], e)
        return make_monomial(acc.items(), None)

    def div_monomial(self, mono):
        if mono is MONO_ONE or not mono.vars:
            return self
        acc = {}
        for m, c in self.terms.items():
            out = []
            need = dict(mono.vars)
            for a, e in m.vars:
                k = need.pop(a, 0)
                if e - k:
                    out.append((a, e - k))
            if need or any(e < 0 for _, e in out):
                raise KernelError("monomial does not divide every term")
            acc[make_monomial(out, m.ep)] = c
        return make_poly(acc)


def make_poly(terms):
    """Build a polynomial, rewriting sin(u)^k with k >= 2 via sin^2 = 1 - cos^2."""
    acc = {m: _coeff(c) for m, c in terms.items() if c} if isinstance(terms, dict) else {}
    if not isinstance(terms, dict):
        for m, c in terms:
            if not c:
                continue
            tot = acc.get(m, 0) + c
            if tot:
                acc[m] = _coeff(tot)
            else:
                acc.pop(m, None)
    while True:
        offender = None
        for m in acc:
            for a, e in m.vars:
                if a.head == "sin" and e >= 2:
                    offender = (m, a, e)
                    break
            if offender:
                break
        if offender is None:
            return Poly(acc)
        m, a, e = offender
        c = acc.pop(m)
        base = m.without(a, e)
        half, rem = divmod(e, 2)
        cos_a = _gen_atom("cos", a.data)
        # sin^e = sin^rem * (1 - cos^2)^half
        for t in range(half + 1):
            coeff = c * math.comb(half, t) * (-1) ** t
            extra = [(cos_a, 2 * t)]
            if rem:
                extra.append((a, 1))
            piece = base.mul(make_monomial(extra, None))
            tot = acc.get(piece, 0) + coeff
            if tot:
                acc[piece] = _coeff(tot)
            else:
                acc.pop(piece, None)


POLY_ZERO = Poly({})
POLY_ONE = Poly({MONO_ONE: 1})


def poly_var(atom):
    return Poly({make_monomial([(atom, 1)], None): 1})


# ---------------------------------------------------------------------------
# polynomial gcd (transcendental-free only)

# Prime modulus of the trivial-gcd probe, and the source of its points.  The
# gcd that poly_gcd returns does not depend on the point (see its docstring),
# so the draws never reach a result.
_PROBE_PRIME = (1 << 61) - 1
_PROBE_RNG = random.Random(1971)


def _content(p):
    """Signed rational content: p / content is primitive with positive lead.

    gcd(numerators) and lcm(denominators) are coprime, so the quotient is
    reduced as built.
    """
    if p.is_zero:
        return 1
    coeffs = p.terms.values()
    num = math.gcd(*[c.numerator for c in coeffs])
    den = math.lcm(*[c.denominator for c in coeffs])
    if p.lead()[1] < 0:
        num = -num
    return num if den == 1 else Fraction(num, den)


def coefficients(p, atoms):
    """p as a polynomial in atoms: {key: coefficient free of atoms}.

    The key of a monomial is its part in atoms as a tuple of (atom,
    exponent) pairs; () holds the terms free of atoms.  Splitting a
    canonical polynomial merges no monomials and raises no sin power, so
    each coefficient is canonical as built.
    """
    out = {}
    for m, c in p.terms.items():
        key = tuple(it for it in m.vars if it[0] in atoms)
        rest = Monomial(tuple(it for it in m.vars if it[0] not in atoms), m.ep)
        out.setdefault(key, {})[rest] = c
    return {k: Poly(d) for k, d in out.items()}


def _as_univariate(p, v):
    """p as a polynomial in the atom v: {exponent: coefficient free of v}."""
    return {(k[0][1] if k else 0): c for k, c in coefficients(p, (v,)).items()}


def _from_univariate(coeffs, atom):
    acc = POLY_ZERO
    for e, p in coeffs.items():
        acc = acc.add(p.mul_monomial(make_monomial([(atom, e)], None)))
    return acc


def _gcd_many(polys):
    """gcd of polys, normalized as poly_gcd's.

    Once the running gcd g is nonconstant, a p that g divides exactly is
    skipped: gcd(g, p) = g, and g is already primitive with a positive lead.
    """
    acc = POLY_ZERO
    for p in polys:
        if not acc.is_zero:
            try:
                _poly_exact_div(p, acc)
                continue
            except KernelError:
                pass
        acc = poly_gcd(acc, p)
        if acc.is_one:
            return acc
    return acc


def poly_gcd(p, q):
    """Multivariate gcd of transcendental-free polynomials, computed exactly.

    The result is primitive with a positive leading coefficient, POLY_ONE
    when the gcd is constant.  _gcd_is_constant first tries to prove the gcd
    constant from images mod P = _PROBE_PRIME at a drawn point.  When it
    cannot and p and q have different atoms, the gcd is folded from the
    coefficients of q over the atoms only q has and of p over the atoms only
    p has (a side without atoms of its own enters whole).  Otherwise
    primitive Euclid with pseudo-division in the largest atom, on contents
    and primitive parts, computes the gcd.

    The reduction's certificate: a divisor of q has no atom that q lacks, so
    it divides every coefficient of p over those atoms; symmetrically for p.
    The common divisors of p and q are therefore those of the two coefficient
    sets, and each coefficient has fewer atoms than the side it came from.

    The probe's certificate: take the gcd G primitive over the integers and
    let v be an atom shared by p and q (G has no other atoms).  By Gauss's
    lemma p = c*G*A with A integral, so when P divides no coefficient
    denominator of p and lc_v(p) does not vanish at the point, the image of
    G keeps its v-degree and divides the images of p and q in v.  A constant
    image gcd for every such v therefore proves G constant, and the result
    does not depend on the point.
    """
    if p.is_zero:
        return q.scale(QONE / _content(q)) if not q.is_zero else POLY_ZERO
    if q.is_zero:
        return p.scale(QONE / _content(p))
    atoms_p, atoms_q = p.atoms(), q.atoms()
    atoms = atoms_p | atoms_q
    point = {a: _PROBE_RNG.getrandbits(61) for a in atoms}
    if _gcd_is_constant(p, q, point):
        return POLY_ONE
    if atoms_p != atoms_q:
        sides = ((q, atoms_q - atoms_p), (p, atoms_p - atoms_q))
        return _gcd_many(
            c for f, own in sides for c in (coefficients(f, own).values() if own else (f,))
        )
    v = max(atoms, key=lambda a: a.skey)
    pu = _as_univariate(p, v)
    qu = _as_univariate(q, v)
    cont_p = _gcd_many(pu.values())
    cont_q = _gcd_many(qu.values())
    cont = poly_gcd(cont_p, cont_q)
    pp = {e: _poly_exact_div(c, cont_p) for e, c in pu.items()}
    qp = {e: _poly_exact_div(c, cont_q) for e, c in qu.items()}
    a, b = (pp, qp) if max(pp) >= max(qp) else (qp, pp)
    while b:
        a, b = b, _primitive_univ(_pseudo_rem(a, b))
    g = _primitive_univ(a)
    out = cont.mul(_from_univariate(g, v))
    return out.scale(QONE / _content(out))


def _gcd_is_constant(p, q, point):
    """True when images mod P prove gcd(p, q) constant, False for unknown.

    p and q are nonzero; point maps each of their atoms to a residue.  For
    each shared atom v the other atoms are set to the point.  A denominator
    divisible by P, a vanishing leading coefficient (an image below its
    v-degree) or a nonconstant image gcd gives unknown.  See poly_gcd.
    """
    shared = p.atoms() & q.atoms()
    if not shared:
        return True
    terms_p = _residue_terms(p)
    terms_q = _residue_terms(q)
    if terms_p is None or terms_q is None:
        return False
    for v in shared:
        a = _univariate_image(terms_p, v, point)
        b = _univariate_image(terms_q, v, point)
        if not a[-1] or not b[-1]:
            return False
        while b:
            a, b = b, _gf_rem(a, b)
        if len(a) > 1:
            return False
    return True


def _residue_terms(p):
    """[(coefficient mod P, vars)] of p, or None if P divides a denominator."""
    out = []
    for m, c in p.terms.items():
        den = c.denominator
        if den == 1:
            out.append((c.numerator % _PROBE_PRIME, m.vars))
        elif den % _PROBE_PRIME:
            out.append((c.numerator * pow(den, -1, _PROBE_PRIME) % _PROBE_PRIME, m.vars))
        else:
            return None
    return out


def _univariate_image(terms, v, point):
    """Dense coefficients (lowest first) in v, other atoms at point, mod P."""
    coeffs = {}
    for c, vars in terms:
        k = 0
        for a, e in vars:
            if a is v:
                k = e
            else:
                c = c * (point[a] if e == 1 else pow(point[a], e, _PROBE_PRIME)) % _PROBE_PRIME
        coeffs[k] = (coeffs.get(k, 0) + c) % _PROBE_PRIME
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _gf_rem(a, b):
    """Remainder of dense a by dense b (b's top coefficient nonzero) mod P."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, _PROBE_PRIME)
    while len(a) > db:
        c = a.pop() * inv % _PROBE_PRIME
        off = len(a) - db
        for i in range(db):
            a[off + i] = (a[off + i] - c * b[i]) % _PROBE_PRIME
    while a and not a[-1]:
        a.pop()
    return a


def _primitive_univ(u):
    cont = _gcd_many(u.values())
    if cont.is_zero or cont.is_one:
        return u
    return {e: _poly_exact_div(c, cont) for e, c in u.items()}


def _pseudo_rem(a, b):
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        nr = {}
        for e, c in r.items():
            if e == dr:
                continue
            nr[e] = c.mul(lb)
        for e, c in b.items():
            if e == db:
                continue
            k = e + dr - db
            piece = c.mul(lr)
            nr[k] = nr[k].sub(piece) if k in nr else piece.neg()
        r = {e: c for e, c in nr.items() if not c.is_zero}
    return r


def _poly_exact_div(p, d):
    """Exact division p / d for transcendental-free polynomials."""
    if d.is_one:
        return p
    if p.is_zero:
        return POLY_ZERO
    if len(d.terms) == 1:
        mono, c = d.lead()
        return p.div_monomial(mono).scale(QONE / c)
    atoms = sorted(d.atoms(), key=lambda a: a.skey)
    v = atoms[-1]
    du = _as_univariate(d, v)
    dd = max(du)
    lead = du[dd]
    rem = p
    out = POLY_ZERO
    while not rem.is_zero:
        ru = _as_univariate(rem, v)
        dr = max(ru)
        if dr < dd:
            raise KernelError("inexact polynomial division")
        q = _poly_exact_div(ru[dr], lead)
        shift = q.mul_monomial(make_monomial([(v, dr - dd)], None))
        out = out.add(shift)
        rem = rem.sub(shift.mul(d))
    return out


# ---------------------------------------------------------------------------
# expressions


class Expr:
    """A quotient of canonical polynomials."""

    __slots__ = ("num", "den", "_hash", "_skey")

    def __init__(self, num, den):
        self.num = num
        self.den = den
        self._hash = None
        self._skey = None

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __eq__(self, other):
        """Structural equality of canonical forms; use equals() for semantic tests."""
        if self is other:
            return True
        return isinstance(other, Expr) and self.num == other.num and self.den == other.den

    def __repr__(self):
        return "Expr(%s)" % (self.skey(),)

    def __str__(self):
        return self.skey()

    def skey(self):
        if self._skey is None:
            self._skey = expr_str(self)
        return self._skey

    # -- predicates

    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        """Nonzero, as for Fraction, so that `if v:` tests either field."""
        return not self.num.is_zero

    def is_one(self):
        return self.num.is_one and self.den.is_one

    def equals(self, other):
        return (self - other).is_zero()

    def is_rational(self):
        return (
            self.den.is_one
            and (self.num.is_zero or (len(self.num.terms) == 1 and MONO_ONE in self.num.terms))
        )

    def as_fraction(self):
        if not self.is_rational():
            raise KernelError("not a rational constant: %s" % self.skey())
        return Fraction(self.num.terms.get(MONO_ONE, 0))

    def is_integer(self):
        return self.is_rational() and self.as_fraction().denominator == 1

    def has_transcendentals(self):
        return self.num.has_transcendentals() or self.den.has_transcendentals()

    # -- structure scans

    def atoms(self):
        """All atoms appearing at any depth (inside arguments and exp parts)."""
        seen = set()
        _collect_atoms(self, seen)
        return seen

    def depends_on(self, atom):
        return atom in self.atoms()

    def exp_parts(self):
        out = []
        seen = set()
        for poly in (self.num, self.den):
            for m in poly.terms:
                if m.ep is not None and m.ep not in seen:
                    seen.add(m.ep)
                    out.append(m.ep)
        return out

    def generator_atoms(self):
        out = set()
        for poly in (self.num, self.den):
            for m in poly.terms:
                for a, _ in m.vars:
                    if a.is_generator:
                        out.add(a)
                if m.ep is not None:
                    for a, _ in m.ep.terms:
                        out.add(a)
        return out

    # -- arithmetic

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return make_expr(self.num.add(other.num), self.den)
        return make_expr(
            self.num.mul(other.den).add(other.num.mul(self.den)),
            self.den.mul(other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return Expr(self.num.neg(), self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return EXPR_ZERO
        return make_expr(self.num.mul(other.num), self.den.mul(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivision("division by zero expression")
        return make_expr(self.num.mul(other.den), self.den.mul(other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if isinstance(k, Fraction):
            if k.denominator == 1:
                k = k.numerator
            else:
                return pow_rational(self, k)
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return EXPR_ONE
        if k < 0:
            if self.is_zero():
                raise ZeroDivision("zero to a negative power")
            return make_expr(self.den.pow(-k), self.num.pow(-k))
        return make_expr(self.num.pow(k), self.den.pow(k))


def _coerce(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rational(v)
    return NotImplemented


def _collect_atoms(f, seen):
    for poly in (f.num, f.den):
        for m in poly.terms:
            for a, _ in m.vars:
                if a in seen:
                    continue
                seen.add(a)
                if a.is_generator:
                    _collect_atoms(a.data, seen)
            if m.ep is not None:
                _collect_atoms(m.ep.base, seen)
                for a, c in m.ep.terms:
                    if a not in seen:
                        seen.add(a)
                        _collect_atoms(a.data, seen)
                    _collect_atoms(c, seen)


def make_expr(num, den):
    """Canonicalize a quotient of polynomials."""
    if den.is_zero:
        raise ZeroDivision("zero denominator")
    if num.is_zero:
        return EXPR_ZERO
    # a polynomial without exp parts is canonical over 1: every step below
    # would be the identity on it
    if den.is_one and all(m.ep is None for m in num.terms):
        return Expr(num, den)
    # clear the exponential of the denominator's leading monomial
    wlead = den.lead()[0].ep
    if wlead is not None:
        neg = wlead.negated()
        num = num.mul_ep(neg)
        den = den.mul_ep(neg)
    # collapse exp(n*log u) with integer n
    ex_num = _extract_integer_logs(num)
    ex_den = _extract_integer_logs(den)
    if ex_num is not None or ex_den is not None:
        fn = ex_num if ex_num is not None else Expr(num, POLY_ONE)
        fd = ex_den if ex_den is not None else Expr(den, POLY_ONE)
        return fn / fd
    # cancel the common monomial factor
    common = num.common_monomial(den)
    if common.vars:
        num = num.div_monomial(common)
        den = den.div_monomial(common)
    # cancel the polynomial gcd when transcendental-free
    if (
        not den.is_one
        and len(num.terms) + len(den.terms) > 2
        and not num.has_transcendentals()
        and not den.has_transcendentals()
    ):
        g = poly_gcd(num, den)
        if not g.is_one and not g.is_zero and g.degree() > 0:
            num = _poly_exact_div(num, g)
            den = _poly_exact_div(den, g)
    # monic denominator
    lc = den.lead()[1]
    if lc != 1:
        inv = QONE / lc
        num = num.scale(inv)
        den = den.scale(inv)
    return Expr(num, den)


def _extract_integer_logs(poly):
    """Rewrite monomials whose exp part has an integer log coefficient.

    Returns an Expr when a rewrite happened, else None.
    """
    dirty = None
    for m in poly.terms:
        if m.ep is None:
            continue
        for atom, coeff in m.ep.terms:
            if atom.head == "log" and coeff.is_integer():
                dirty = (m, atom, coeff.as_fraction().numerator)
                break
        if dirty:
            break
    if dirty is None:
        return None
    m, atom, n = dirty
    c = poly.terms[m]
    rest = Poly({mm: cc for mm, cc in poly.terms.items() if mm is not m and mm != m})
    kept = [(a, co) for a, co in m.ep.terms if a is not atom and a != atom]
    new_ep = make_exppart(m.ep.base, kept)
    piece = Expr(Poly({m.with_ep(new_ep): c}), POLY_ONE) * (atom.data ** n)
    tail = _extract_integer_logs(rest)
    if tail is None:
        tail = Expr(rest, POLY_ONE)
    return piece + tail


EXPR_ZERO = Expr(POLY_ZERO, POLY_ONE)
EXPR_ONE = Expr(POLY_ONE, POLY_ONE)


# ---------------------------------------------------------------------------
# constructors


def rational(q):
    if not isinstance(q, (int, Fraction)):
        raise KernelError("expected int or Fraction, got %r" % (q,))
    q = _coeff(q)
    if q == 0:
        return EXPR_ZERO
    if q == 1:
        return EXPR_ONE
    return Expr(Poly({MONO_ONE: q}), POLY_ONE)


def from_atom(atom):
    return Expr(poly_var(atom), POLY_ONE)


def coord(i):
    return from_atom(coord_atom(i))


def theta(i):
    return from_atom(theta_atom(i))


def param(name):
    return from_atom(param_atom(name))


def _split_sign(f):
    """Return (g, sign) with g = sign * f and g's leading coefficient positive."""
    if f.num.lead()[1] < 0:
        return -f, -1
    return f, 1


def exp_of(f):
    """exp(f) for f = base + sum(c_g * g) linear over generator atoms."""
    if f.is_zero():
        return EXPR_ONE
    if f.den.has_transcendentals():
        raise KernelError("unsupported exp argument (transcendental denominator)")
    if any(m.ep is not None for m in f.num.terms):
        raise KernelError("unsupported exp argument (nested exponential)")
    parts = coefficients(f.num, {a for a in f.num.atoms() if a.is_generator})
    base = make_expr(parts.pop((), POLY_ZERO), f.den)
    terms = []
    for key, poly in parts.items():
        if len(key) > 1 or key[0][1] != 1:
            raise KernelError("unsupported exp argument (nonlinear in generators)")
        terms.append((key[0][0], make_expr(poly, f.den)))
    # make_expr collapses exp(n*log u) with integer n into u**n
    return make_expr(Poly({Monomial((), make_exppart(base, terms)): 1}), POLY_ONE)


def log_of(f):
    """log(f), decomposed over monomial factors and exponentials."""
    if f.is_zero():
        raise KernelError("log of zero")
    if f.is_one():
        return EXPR_ZERO
    return _log_poly(f.num) - _log_poly(f.den)


def _log_poly(p):
    if p.is_one:
        return EXPR_ZERO
    if len(p.terms) == 1:
        (m, c), = p.terms.items()
        acc = EXPR_ZERO
        if c != 1:
            acc = acc + from_atom(_log_const_atom(c))
        for a, e in m.vars:
            if a.is_generator:
                raise KernelError("log of a transcendental factor")
            acc = acc + rational(e) * from_atom(_gen_atom("log", from_atom(a)))
        if m.ep is not None:
            acc = acc + m.ep.as_expr()
        return acc
    if p.has_transcendentals():
        stripped = strip_common_ep(p)
        if stripped is not None and stripped[1] is not None:
            # a shared exponential factor comes out of the log additively
            return _log_poly(stripped[0]) + stripped[1].as_expr()
        raise KernelError("log of a transcendental polynomial")
    common = p.common_monomial()
    if common.vars:
        return _log_poly(Poly({common: 1})) + _log_poly(p.div_monomial(common))
    cont = _content(p)
    prim = p.scale(QONE / cont)
    acc = from_atom(_gen_atom("log", Expr(prim, POLY_ONE)))
    if cont != 1:
        acc = acc + from_atom(_log_const_atom(cont))
    return acc


def strip_common_ep(poly):
    """(poly without exp parts, ep) when all monomials share one exp part ep, else None."""
    eps = {m.ep for m in poly.terms}
    if len(eps) != 1:
        return None
    ep = next(iter(eps))
    if ep is None:
        return poly, None
    return Poly({m.with_ep(None): c for m, c in poly.terms.items()}), ep


def _log_const_atom(c):
    return _gen_atom("log", rational(c))


def atan_of(f):
    """atan(f) with sign normalization and rotation extraction."""
    if f.is_zero():
        return EXPR_ZERO
    g, sign = _split_sign(f)
    rot = _atan_rotation(g)
    if rot is not None:
        return rot if sign > 0 else -rot
    if g.has_transcendentals():
        raise KernelError("unsupported atan argument: %s" % g.skey())
    out = from_atom(_gen_atom("atan", g))
    return out if sign > 0 else -out


def _atan_rotation(f):
    """Undo a rotation: atan((A s + B c)/(A c - B s)) = u + atan(B/A)."""
    args = {}
    for poly in (f.num, f.den):
        for m in poly.terms:
            for a, _ in m.vars:
                if a.head in ("cos", "sin"):
                    args.setdefault(a.data.skey(), a.data)
    for _, u in sorted(args.items()):
        c_at = _gen_atom("cos", u)
        s_at = _gen_atom("sin", u)
        split_n = _linear_in_pair(f.num, c_at, s_at)
        if split_n is None:
            continue
        split_d = _linear_in_pair(f.den, c_at, s_at)
        if split_d is None:
            continue
        nc, ns = split_n
        dc, ds = split_d
        # numerator = A s + B c, denominator = A c - B s
        a_poly, b_poly = ns, nc
        if a_poly.is_zero:
            continue
        if dc == a_poly and ds == b_poly.neg():
            inner = make_expr(b_poly, POLY_ONE) / make_expr(a_poly, POLY_ONE)
            return u + atan_of(inner)
        if dc == a_poly.neg() and ds == b_poly:
            inner = make_expr(b_poly, POLY_ONE) / make_expr(a_poly, POLY_ONE)
            return -(u + atan_of(inner))
    return None


def _linear_in_pair(p, c_at, s_at):
    """Split p = C*cos + S*sin; None unless homogeneous of degree 1 in the pair."""
    parts = coefficients(p, (c_at, s_at))
    c_key, s_key = ((c_at, 1),), ((s_at, 1),)
    if not parts.keys() <= {c_key, s_key}:
        return None
    return parts.get(c_key, POLY_ZERO), parts.get(s_key, POLY_ZERO)


def cos_of(f):
    if f.is_zero():
        return EXPR_ONE
    if f.has_transcendentals():
        raise KernelError("unsupported cos argument: %s" % f.skey())
    g, _ = _split_sign(f)
    return from_atom(_gen_atom("cos", g))


def sin_of(f):
    if f.is_zero():
        return EXPR_ZERO
    if f.has_transcendentals():
        raise KernelError("unsupported sin argument: %s" % f.skey())
    g, sign = _split_sign(f)
    out = from_atom(_gen_atom("sin", g))
    return out if sign > 0 else -out


def pow_rational(f, q):
    """f**q for rational q; non-integer exponents go through exp(q*log f)."""
    if isinstance(q, int):
        return f ** q
    if q.denominator == 1:
        return f ** q.numerator
    return exp_of(rational(q) * log_of(f))


# ---------------------------------------------------------------------------
# calculus and substitution


def differentiate(f, atom):
    """Exact partial derivative with respect to a variable atom."""
    if atom.is_generator:
        raise KernelError("can only differentiate by a variable atom")
    return Derivation({atom: EXPR_ONE}).apply(f)


class Derivation:
    """The derivation X = sum_a F_a d/da of a field mapping variable atoms a to Exprs F_a.

    X is applied to monomials directly: a variable atom goes to F_a (to zero
    when absent from the field), a log/atan/cos/sin atom to outer'(u)*X(u),
    and an exponential factor exp(w) to exp(w)*X(w).  memo maps an atom or
    ExpPart to its list of (numerator, denominator) polynomial pieces of X;
    an empty list means X annihilates it.
    """

    __slots__ = ("memo",)

    def __init__(self, field):
        self.memo = {a: [(F.num, F.den)] if F else [] for a, F in field.items()}

    def apply(self, f):
        """X(f) for f = P/Q as a canonical Expr.

        X(P) and X(Q) are collected as polynomial sums grouped by
        denominator and each group gives Q*X(P) - P*X(Q) over that
        denominator.  X(f) is zero when every group numerator is
        structurally zero; otherwise one make_expr builds the groups summed
        over Q^2 times the product of their denominators.
        """
        p, q = f.num, f.den
        xp = self._groups(p)
        xq = {} if q.is_one else self._groups(q)
        num, den = None, POLY_ONE
        for d in list(xp) + [d for d in xq if d not in xp]:
            n = q.mul(Poly(xp.get(d, {}))).sub(p.mul(Poly(xq.get(d, {}))))
            if n.is_zero:
                continue
            num = n if num is None else num.mul(d).add(n.mul(den))
            den = den.mul(d)
        if num is None:
            return EXPR_ZERO
        return make_expr(num, den if q.is_one else den.mul(q.mul(q)))

    def _groups(self, p):
        """X(p) for a polynomial p as {denominator: {monomial: coefficient}}."""
        out = {}
        for m, c in p.terms.items():
            for a, e in m.vars:
                pieces = self._atom(a)
                if pieces:
                    lower = m.without(a, 1)
                    for num, den in pieces:
                        _accumulate(out, den, num.mul_monomial(lower, c * e))
            if m.ep is not None:
                for num, den in self._exp_part(m.ep):
                    _accumulate(out, den, num.mul_monomial(m, c))
        return out

    def _atom(self, a):
        got = self.memo.get(a)
        if got is None:
            got = []
            if a.is_generator:
                du = self.apply(a.data)
                if du:
                    on, od = _outer_derivative(a)
                    d = make_expr(on.mul(du.num), od.mul(du.den))
                    got.append((d.num, d.den))
            self.memo[a] = got
        return got

    def _exp_part(self, ep):
        """X(w) for exp(w): X(base) + sum X(c_g)*g + c_g*X(g), piece by piece."""
        got = self.memo.get(ep)
        if got is None:
            got = []
            db = self.apply(ep.base)
            if db:
                got.append((db.num, db.den))
            for a, coeff in ep.terms:
                dc = self.apply(coeff)
                if dc:
                    got.append((dc.num.mul(poly_var(a)), dc.den))
                for num, den in self._atom(a):
                    got.append((coeff.num.mul(num), coeff.den.mul(den)))
            self.memo[ep] = got
        return got


def _accumulate(groups, den, poly):
    acc = groups.setdefault(den, {})
    for m, c in poly.terms.items():
        tot = acc.get(m, 0) + c
        if tot:
            acc[m] = _coeff(tot)
        else:
            del acc[m]


def _outer_derivative(a):
    """d head(u)/du of a generator atom a = head(u), as a (num, den) pair of polynomials."""
    u = a.data
    if a.head == "log":
        return u.den, u.num
    if a.head == "atan":
        sq = u.den.mul(u.den)
        return sq, sq.add(u.num.mul(u.num))
    if a.head == "cos":
        return sin_of(u).num.neg(), POLY_ONE
    return cos_of(u).num, POLY_ONE


def substitute(f, mapping):
    """Substitute variable atoms by expressions, rebuilding canonically.

    mapping: dict Atom -> Expr (or int/Fraction).  Entries for atoms that f
    does not hold are dropped; when none is left, f is returned as it is,
    being canonical already.  When both sides of f take the
    common-denominator route of _subst_poly_common_den, they are joined into
    one quotient and canonicalized once (_quotient): a reduced
    transcendental-free quotient with a monic denominator is unique, so this
    is the quotient of the substituted sides.  The gcd that make_expr
    cancels there is mostly folded over coefficients, and the fold
    trial-divides each coefficient by its running gcd before it computes a
    new one (_gcd_many).  Otherwise each side is substituted on its own, and
    generator arguments and exponential parts are rebuilt through the smart
    constructors, so all canonical rules (rotation extraction, integer-log
    collapse, ...) re-fire.
    """
    held = f.atoms()
    mapping = {a: _coerce(v) for a, v in mapping.items() if a in held}
    if not mapping:
        return f
    top = _subst_poly_common_den(f.num, mapping)
    bottom = _subst_poly_common_den(f.den, mapping)
    if top is not None and bottom is not None:
        return _quotient(top, bottom, mapping)
    cache = {}
    if top is None:
        num = _subst_poly(f.num, mapping, cache)
    else:
        num = _quotient(top, (POLY_ONE, {}), mapping)
    if bottom is None:
        den = _subst_poly(f.den, mapping, cache)
    else:
        den = _quotient(bottom, (POLY_ONE, {}), mapping)
    return num if den.is_one() else num / den


def _subst_poly(p, mapping, cache):
    """p with the mapping substituted term by term, in Expr arithmetic."""
    acc = EXPR_ZERO
    for m, c in p.terms.items():
        term = rational(c)
        for a, e in m.vars:
            term = term * _subst_atom(a, mapping, cache) ** e
        if m.ep is not None:
            w = substitute(m.ep.base, mapping)
            for a, coeff in m.ep.terms:
                w = w + substitute(coeff, mapping) * _subst_atom(a, mapping, cache)
            term = term * exp_of(w)
        acc = acc + term
    return acc


def _subst_poly_common_den(p, mapping):
    """(P', {a: k_a}) with p(a -> N_a/D_a) = P' / prod D_a^k_a.

    k_a is the largest exponent of a mapped atom a in p, so the term of a
    monomial with a^e is multiplied by N_a^e * D_a^(k_a - e); a monomial
    without a still takes the whole D_a^k_a.  P' is built with Poly
    arithmetic only; the caller canonicalizes the quotient with one
    make_expr, whose exact gcd cancellation of a transcendental-free
    quotient makes it the term-by-term sum.  Returns None unless p has no
    exp part and no generator atom and every mapped value of an atom of p
    is transcendental-free.
    """
    degree = {}
    for m in p.terms:
        if m.ep is not None:
            return None
        for a, e in m.vars:
            if a.is_generator:
                return None
            if a in mapping and e > degree.get(a, 0):
                degree[a] = e
    factors = {}
    for a, k in degree.items():
        v = mapping[a]
        if v.has_transcendentals():
            return None
        factors[a] = [v.num.pow(e).mul(v.den.pow(k - e)) for e in range(k + 1)]
    # monomials with equal exponents in the mapped atoms share one product
    terms = []
    for key, term in coefficients(p, factors).items():
        exps = dict(key)
        for a, fs in factors.items():
            term = term.mul(fs[exps.get(a, 0)])
        terms.extend(term.terms.items())
    return make_poly(terms), degree


def _quotient(top, bottom, mapping):
    """(P' / prod D_a^kP_a) / (Q' / prod D_a^kQ_a), canonical.

    top = (P', kP) and bottom = (Q', kQ) as _subst_poly_common_den returns
    them.  The quotient is P' prod D_a^max(0, kQ_a - kP_a) over
    Q' prod D_a^max(0, kP_a - kQ_a), canonicalized by one make_expr.
    """
    (num, k_num), (den, k_den) = top, bottom
    if den.is_zero:
        raise ZeroDivision("division by zero expression")
    for a, v in mapping.items():
        shift = k_den.get(a, 0) - k_num.get(a, 0)
        if shift > 0:
            num = num.mul(v.den.pow(shift))
        elif shift < 0:
            den = den.mul(v.den.pow(-shift))
    return make_expr(num, den)


def _subst_atom(a, mapping, cache):
    if not a.is_generator:
        got = mapping.get(a)
        return got if got is not None else from_atom(a)
    got = cache.get(a)
    if got is not None:
        return got
    arg = substitute(a.data, mapping)
    builder = {"log": log_of, "atan": atan_of, "cos": cos_of, "sin": sin_of}[a.head]
    out = builder(arg)
    cache[a] = out
    return out


def evaluate(f, point):
    """Evaluate an expression to a Fraction.

    point: dict mapping atoms, including generator atoms, and ExpPart keys
    of exponential factors to Fractions.  Raises SingularPoint on a zero
    denominator and KernelError if an atom or exponential has no value.
    """
    num = _eval_poly(f.num, point)
    den = _eval_poly(f.den, point)
    if den == 0:
        raise SingularPoint("denominator vanishes at the sample point")
    return num / den


def _eval_poly(p, point):
    tot = QZERO  # a Fraction, so that evaluate never divides int by int
    for m, c in p.terms.items():
        v = c
        if m.ep is not None:
            if m.ep not in point:
                raise KernelError("cannot numerically evaluate an exponential factor")
            v *= point[m.ep]
        for a, e in m.vars:
            if a not in point:
                if a.is_generator:
                    raise KernelError("cannot numerically evaluate %s" % atom_str(a))
                raise KernelError("no value for %s" % atom_str(a))
            v *= point[a] ** e
        tot += v
    return tot


# ---------------------------------------------------------------------------
# rendering (canonical strings; io builds on these)


def frac_str(q):
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


def monomial_str(m, coeff):
    parts = []
    if coeff != 1 or (not m.vars and m.ep is None):
        parts.append(frac_str(coeff))
    for a, e in m.vars:
        s = atom_str(a)
        parts.append(s if e == 1 else "%s^%d" % (s, e))
    if m.ep is not None:
        parts.append("exp(%s)" % expr_str(m.ep.as_expr()))
    return "*".join(parts)


def poly_str(p):
    if p.is_zero:
        return "0"
    bits = []
    for m, c in p.items():
        if not bits:
            bits.append(monomial_str(m, c))
        elif c < 0:
            bits.append("- " + monomial_str(m, -c))
        else:
            bits.append("+ " + monomial_str(m, c))
    return " ".join(bits)


def expr_str(f):
    if f.den.is_one:
        return poly_str(f.num)
    num = poly_str(f.num)
    den = poly_str(f.den)
    if len(f.num.terms) > 1:
        num = "(%s)" % num
    if len(f.den.terms) > 1 or "*" in den or "^" in den or den.startswith("-"):
        den = "(%s)" % den
    return "%s/%s" % (num, den)
