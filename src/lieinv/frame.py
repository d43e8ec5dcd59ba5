"""Inner automorphisms as products of exponentiated adjoint maps.

A frame is the ordered product B(th) = prod_i exp(sign_i * th_i * ad_{e_i})
over the non-central basis directions.  Lifting the coordinate row vector
through B gives the lifted invariants; their generic Jacobian rank in the
frame parameters equals the coadjoint orbit dimension, which is checked
against the structure-matrix rank.

Exponentials are exact and computed one connected coordinate block of the
adjoint matrix at a time by one rule: a scalar shift times a rotation with
rational frequency times a finite nilpotent series.  A block outside that
rule is first split by a change of basis into the generalized eigenspaces of
its rational eigenvalues and the kernel of the cofactor without rational
roots, and each new block goes through the same rule.  Anything else
(irrational or formal frequencies) raises RecipeNeeded.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .algebra import sample_fraction
from .expr import (
    EXPR_ZERO,
    KernelError,
    SingularPoint,
    coord,
    cos_of,
    evaluate,
    exp_of,
    from_atom,
    param_atom,
    rational,
    sin_of,
    theta_atom,
)
from .linalg import (
    Matrix,
    charpoly_exprs,
    inverse_exprs,
    nullspace_exprs,
    rank_exprs,
    rational_roots,
)


class RecipeNeeded(KernelError):
    """exp_ad has no exact form here (irrational or formal frequency)."""


def exp_nilpotent(mat, t):
    """exp(t * mat) for a nilpotent matrix, as a finite series."""
    n = mat.nrows
    acc = Matrix.identity(n)
    power = mat
    tk = t
    k = 1
    while not power.is_zero():
        if k > n:
            raise KernelError("matrix is not nilpotent")
        acc = acc.add(power.scale(tk * rational(Fraction(1, math.factorial(k)))))
        power = power.mul(mat)
        tk = tk * t
        k += 1
    return acc


def exp_ad(mat, t):
    """exp(t * mat) exactly, one connected coordinate block at a time.

    A block is mu*I + B with mu = tr/size, possibly formal.  When
    (B^2 + nu^2 I)^size = 0 for a rational nu >= 0, B = S + N with
    S^2 = -nu^2 I and N nilpotent, so the block is
    exp(mu t) (cos(nu t) I + sin(nu t)/nu S) exp(t N).  Other blocks are
    split: the rational eigenvalues are taken off in generalized
    eigenspaces, the rest is kept as one block for the same rule; a block
    without a rational eigenvalue raises RecipeNeeded.
    """
    n = mat.nrows
    comp = list(range(n))
    for i, row in enumerate(mat.rows):
        for j, v in enumerate(row):
            if not v.is_zero() and comp[i] != comp[j]:
                comp = [comp[i] if c == comp[j] else c for c in comp]
    out = [[EXPR_ZERO] * n for _ in range(n)]
    for label in sorted(set(comp)):
        idx = [i for i in range(n) if comp[i] == label]
        block = _exp_block(Matrix([[mat.rows[i][j] for j in idx] for i in idx]), t)
        for i, row in zip(idx, block.rows):
            for j, v in zip(idx, row):
                out[i][j] = v
    return Matrix(out)


def _trace(mat):
    return sum((mat.rows[i][i] for i in range(mat.nrows)), EXPR_ZERO)


def _exp_block(block, t):
    size = block.nrows
    per_size = rational(Fraction(1, size))
    mu = _trace(block) * per_size
    b = block.shift(-mu)
    b2 = b.mul(b)
    nu2 = -_trace(b2) * per_size
    # nu = sqrt(nu2) if nu2 is the square of a rational, else nu*nu != q
    q = nu2.as_fraction() if nu2.is_rational() else Fraction(-1)
    nu = Fraction(math.isqrt(max(q.numerator, 0)), math.isqrt(q.denominator))
    residual = b2.shift(nu2)
    if nu * nu != q or not residual.power(size).is_zero():
        return _exp_eigenspaces(block, t)
    if not nu:
        return exp_nilpotent(b, t).scale(exp_of(mu * t))
    # Newton steps S <- S - (S^2 + nu^2)(2S)^-1 stay polynomial in B and at
    # least double the vanishing order of the nilpotent residual S^2 + nu^2
    s = b
    while not residual.is_zero():
        s = s.sub(residual.mul(inverse_exprs(s.scale(rational(2)))))
        residual = s.mul(s).shift(nu2)
    nu = rational(nu)
    rot = Matrix.identity(size).scale(cos_of(nu * t))
    rot = rot.add(s.scale(sin_of(nu * t) / nu))
    return rot.mul(exp_nilpotent(b.sub(s), t)).scale(exp_of(mu * t))


def _exp_eigenspaces(mat, t):
    """exp(t * mat) = S exp_ad(S^-1 mat S, t) S^-1 over invariant subspaces.

    The columns of S span one generalized eigenspace per rational root of
    the characteristic polynomial, then the kernel of the cofactor without
    rational roots, so S^-1 mat S is block diagonal.  Without a rational
    root there is nothing to split, which ends the recursion.
    """
    n = mat.nrows
    coeffs = charpoly_exprs(mat)
    if not all(c.is_rational() for c in coeffs):
        raise RecipeNeeded("characteristic polynomial has non-constant coefficients")
    roots, rest = rational_roots([c.as_fraction() for c in coeffs])
    if not roots:
        raise RecipeNeeded("characteristic polynomial does not split rationally")
    parts = [(mat.shift(rational(-lam)).power(mult), mult) for lam, mult in roots]
    cofactor = Matrix.identity(n)
    for c in rest[1:]:
        cofactor = cofactor.mul(mat).shift(rational(c))
    parts.append((cofactor, len(rest) - 1))
    columns = []
    for part, size in parts:
        kernel = nullspace_exprs(part.rows)
        if len(kernel) != size:
            raise KernelError("generalized eigenspace has unexpected dimension")
        columns.extend(kernel)
    if len(columns) != n:
        raise KernelError("eigenspaces do not fill the space")
    s = Matrix(columns).transpose()
    s_inv = inverse_exprs(s)
    return s.mul(exp_ad(s_inv.mul(mat).mul(s), t)).mul(s_inv)


class FrameFactor:
    """One factor exp(sign * th * ad_{e_i}) of the automorphism product."""

    __slots__ = ("gen_index", "theta", "sign", "ad", "closed")

    def __init__(self, gen_index, theta, sign, ad, closed):
        self.gen_index = gen_index
        self.theta = theta
        self.sign = sign
        self.ad = ad
        self.closed = closed


class MovingFrame:
    """Ordered factor list; the lifted invariants are x . B(th)."""

    __slots__ = ("algebra", "factors")

    def __init__(self, algebra, factors):
        self.algebra = algebra
        self.factors = factors

    @property
    def thetas(self):
        return [f.theta for f in self.factors]

    def exprs(self):
        """The row vector of lifted invariants x -> x . B(th)."""
        row = [coord(i) for i in range(1, self.algebra.dim + 1)]
        for f in self.factors:
            row = f.closed.row_vector_times(row)
        return row


def lifted_invariants(g, signs=None):
    """The frame of g, one factor per non-central generator 1..n.

    Its exprs() are the lifted invariants.  signs: optional dict
    index -> +1/-1 (default +1).
    """
    signs = signs or {}
    factors = []
    for i in range(1, g.dim + 1):
        ad = g.ad_matrix(i)
        if ad.is_zero():
            continue
        sign = signs.get(i, 1)
        th = theta_atom(i)
        t = from_atom(th) * rational(sign)
        factors.append(FrameFactor(i, th, sign, ad, exp_ad(ad, t)))
    return MovingFrame(g, factors)


# ---------------------------------------------------------------------------
# sampled Jacobian rank


def _factor_point(factor, params, rng):
    """Exact rational point at which to evaluate one frame factor.

    params maps parameter atoms to Fractions; the point extends it.  The
    polynomial occurrences of th get an independent rational value, the
    exponentials exp(q*th) become eps**(D*q) for a sampled positive rational
    eps (D clears the denominators of all q seen), and cos/sin of multiples
    nu*th are rational points on the unit circle produced by integer rotation
    powers of a sampled primitive angle, so every trig identity between
    multiples of the same angle is honored.
    """
    theta = factor.theta
    point = dict(params)
    point[theta] = sample_fraction(rng)
    exps, trigs = {}, {}
    for row in factor.closed.rows:
        for entry in row:
            for ep in entry.exp_parts():
                if ep.terms:
                    raise KernelError("generator inside a frame exponential")
                exps[ep] = _theta_coefficient(ep.base, theta, params)
            for atom in entry.generator_atoms():
                if atom.head in ("log", "atan"):
                    raise KernelError("unexpected %s inside a frame factor" % atom.head)
                trigs[atom] = _theta_coefficient(atom.data, theta, params)
    exp_den = math.lcm(1, *(q.denominator for q in exps.values()))
    trig_den = math.lcm(1, *(nu.denominator for nu in trigs.values()))
    base = Fraction(rng.randint(2, 97), rng.randint(2, 97))
    exp_unit = base if base != 1 else Fraction(2)
    r = Fraction(rng.randint(1, 40), rng.randint(41, 80))
    cos_unit = (1 - r * r) / (1 + r * r)
    sin_unit = 2 * r / (1 + r * r)
    for ep, q in exps.items():
        point[ep] = exp_unit ** int(q * exp_den)
    for atom, nu in trigs.items():
        c, s = _rotation_power(cos_unit, sin_unit, int(nu * trig_den))
        point[atom] = c if atom.head == "cos" else s
    return point


def _theta_coefficient(arg, theta, params):
    """Rational coefficient q of th in a transcendental argument q*th."""
    if evaluate(arg, {**params, theta: Fraction(0)}):
        raise KernelError("affine offset in a transcendental argument")
    return evaluate(arg, {**params, theta: Fraction(1)})


def _rotation_power(c, s, m):
    """(cos, sin) of m times the angle with rational cosine c and sine s."""
    if m < 0:
        c2, s2 = _rotation_power(c, s, -m)
        return c2, -s2
    rc, rs = Fraction(1), Fraction(0)
    bc, bs = c, s
    while m:
        if m & 1:
            rc, rs = rc * bc - rs * bs, rc * bs + rs * bc
        m >>= 1
        if m:
            bc, bs = bc * bc - bs * bs, 2 * bc * bs
    return rc, rs


def jacobian_rank(lifted, seed=0, trials=8, param_point=None):
    """Generic rank of d(x . B)/d(theta) of the frame `lifted`, by exact sampling.

    Deterministic in seed; the maximum over the requested trials is
    returned.  This equals the coadjoint orbit dimension generically.
    Raises ValueError when trials < 1.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1, got %r" % (trials,))
    g = lifted.algebra
    n = g.dim
    rng = random.Random(seed)
    params = {}
    for p in g.params:
        a = param_atom(p)
        if param_point and a in param_point:
            params[a] = Fraction(param_point[a])
        else:
            params[a] = sample_fraction(rng)
    ads = [f.ad.map(lambda v: evaluate(v, params)) for f in lifted.factors]
    best = 0
    for _ in range(trials):
        xhat = [sample_fraction(rng) for _ in range(n)]
        try:
            points = [_factor_point(f, params, rng) for f in lifted.factors]
            mats = [
                f.closed.map(lambda v, pt=pt: evaluate(v, pt))
                for f, pt in zip(lifted.factors, points)
            ]
        except SingularPoint:
            continue
        suffix = [Matrix.identity(n, Fraction(1))]
        for mat in reversed(mats):
            suffix.append(mat.mul(suffix[-1]))
        suffix.reverse()
        rows = []
        prefix_vec = xhat
        for i, f in enumerate(lifted.factors):
            deriv = ads[i].row_vector_times(prefix_vec)
            if f.sign < 0:
                deriv = [-v for v in deriv]
            deriv = mats[i].row_vector_times(deriv)
            rows.append(suffix[i + 1].row_vector_times(deriv))
            prefix_vec = mats[i].row_vector_times(prefix_vec)
        best = max(best, rank_exprs(rows))
    return best
