"""Normalization: eliminate frame parameters from the lifted invariants.

The active set starts as the lifted invariants.  Each round scans the set in
order for a pivot: an entry and a frame parameter th (lowest index first)
that one of two rules solves for.  Both rules read where th sits in an
entry, as a set of (side, kind) places: side is the numerator or the
denominator, kind is an explicit power, a log/atan/cos/sin argument, an exp
part's generator term, a linear exp base or another exp base.  A round finds
the places of each entry and th at most once.

* linear: all numerator monomials share one exp part exp(w), and th occurs
  only in the numerator and never in a generator argument, so the
  expression is exp(w) * (A*th + B) / D with A, B, D free of th (w may hold
  th, an exponential never vanishes).  Normalize to 0 and substitute
  th = -B/A everywhere.
* exponential: th occurs only in linear exp bases of the numerator, so the
  expression is (V*exp(c0*th + w') + W) / D with V, W, D, c0, w' free of th.
  Normalize to 1.  The other entries' places choose the route.  When they
  hold th only in linear exp bases, the whole exponential direction is
  replaced: th = log(sol)/c0 with sol = (D - W)*exp(-w')/V, and exp parts
  pick up rational-function multiples of log(sol).  Otherwise, when W = 0
  and no other entry holds th in a generator argument or term, th itself is
  solved as (log D - log V - w')/c0 and substituted, so polynomial
  occurrences of th become logarithmic terms.

When no pivot applies, a rotation pair is put in polar form.  The base pair
is the first pair (Ei, Ej) of entries carrying cos/sin whose radius square
r2 = Ei^2 + Ej^2 is trig-free and whose angle atan(Ej/Ei) collapses to
nu*th + (a part free of th).  Ei becomes r2 and Ej the angle, or
exp(-(rho/nu)*angle) when r2 carries exp(rho*th).  Every other pair
(Ek, El) turning with it becomes the trig-free cross terms
(Ei*Ek + Ej*El)/r2 and (Ei*El - Ej*Ek)/r2; pairs turning at another
frequency wait for the next stall.  Each pair goes in as two entries and
comes out as two, so the step keeps the rank; then pivoting resumes.
Survivors must be parameter-free and are re-verified exactly against the
annihilation system before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import sampled_rank
from .expr import (
    Expr,
    KernelError,
    POLY_ONE,
    POLY_ZERO,
    SingularPoint,
    atan_of,
    coefficients,
    coord_atom,
    differentiate,
    exp_of,
    from_atom,
    log_of,
    make_expr,
    make_poly,
    rational,
    strip_common_ep,
    substitute,
)
from .verify import check_all


@dataclass
class PivotRecord:
    kind: str
    theta: object
    solution: Expr
    assumptions: list


@dataclass
class EliminationResult:
    invariants: list
    pivots: list
    assumptions: list
    residual: list
    applied_recipes: list
    complete: bool

    @property
    def count(self):
        return len(self.invariants)


def _theta_atoms(f):
    return sorted((a for a in f.atoms() if a.head == "th"), key=lambda a: a.skey)


def _where(f, th):
    """The places of th in f as (side, kind) pairs; empty exactly when f is free of th.

    side is "num" or "den".  kind is "power" (an explicit power of th),
    "arg" (inside a log/atan/cos/sin argument), "term" (inside an exp part's
    generator term, atom or coefficient), "linear" (an exp base linear in th)
    or "base" (any other exp base holding th).
    """
    places = set()
    for side, poly in (("num", f.num), ("den", f.den)):
        for m in poly.terms:
            for a, _ in m.vars:
                if a == th:
                    places.add((side, "power"))
                elif a.is_generator and a.data.depends_on(th):
                    places.add((side, "arg"))
            if m.ep is None:
                continue
            if any(g.data.depends_on(th) or c.depends_on(th) for g, c in m.ep.terms):
                places.add((side, "term"))
            degrees = (m.ep.base.num.degree_in(th), m.ep.base.den.degree_in(th))
            if degrees != (0, 0):
                places.add((side, "linear" if degrees == (1, 0) else "base"))
    return places


def _linear_coefficient(base, th):
    """Coefficient of th in an expression linear in th (else None)."""
    parts = coefficients(base.num, (th,))
    if base.den.degree_in(th) or not parts.keys() <= {(), ((th, 1),)}:
        return None
    return make_expr(parts.get(((th, 1),), POLY_ZERO), base.den)


# ---------------------------------------------------------------------------
# pivot rules: rule(f, th, places of th in f, the other entries' places)
# returns (PivotRecord, substitution) or None; the other entries' places come
# as a generator, so a rule that never reads them costs no walk.


def _substituting(th, value):
    return lambda h: substitute(h, {th: value})


def _linear(f, th, at, others):
    if any(side == "den" or kind == "arg" for side, kind in at):
        return None
    stripped = strip_common_ep(f.num)
    parts = {} if stripped is None else coefficients(stripped[0], (th,))
    if parts.keys() - {()} != {((th, 1),)}:
        return None
    a = make_expr(parts[((th, 1),)], f.den)
    sol = -(make_expr(parts.get((), POLY_ZERO), f.den) / a)
    return PivotRecord("linear", th, sol, [a]), _substituting(th, sol)


_LINEAR_BASES = {("num", "linear"), ("den", "linear")}


def _exponential(f, th, at, others):
    if at != {("num", "linear")}:
        return None
    v, w, w0 = {}, {}, None
    for m, c in f.num.terms.items():
        if m.ep is None or not m.ep.base.depends_on(th):
            w[m] = c
        elif w0 is None or m.ep == w0:
            w0 = m.ep
            v[m.with_ep(None)] = c
        else:
            return None
    c0 = _linear_coefficient(w0.base, th)
    w_rest = w0.as_expr() - c0 * from_atom(th)
    v_expr = make_expr(make_poly(v), POLY_ONE)
    d_expr = make_expr(f.den, POLY_ONE)
    others = list(others)
    if all(p <= _LINEAR_BASES for p in others):
        # exp(c'*th + rest) becomes exp((c'/c0)*log(sol) + rest)
        numer = d_expr - make_expr(make_poly(w), POLY_ONE)
        try:
            sol = numer * exp_of(-w_rest) / v_expr
            th_sol = log_of(sol) / c0  # log_of(0) raises: numer = 0 falls through
            return PivotRecord("exp", th, sol, [v_expr, numer]), _substituting(th, th_sol)
        except KernelError:
            pass
    if w or any(kind in ("arg", "term") for p in others for _, kind in p):
        return None
    try:
        sol = (log_of(d_expr) - log_of(v_expr) - w_rest) / c0
    except KernelError:
        return None
    return PivotRecord("exp-log", th, sol, [v_expr, d_expr, c0]), _substituting(th, sol)


# ---------------------------------------------------------------------------
# rotation pairs


def _has_trig(f):
    return any(a.head in ("cos", "sin") for a in f.generator_atoms())


def _turns(f):
    """True when f carries cos/sin of an argument holding a frame parameter."""
    return any(
        a.head in ("cos", "sin") and _theta_atoms(a.data) for a in f.generator_atoms()
    )


def _angle_rate(phi):
    """(th, nu) with phi = nu*th + (a part free of th), nu nonzero, else None."""
    for th in _theta_atoms(phi):
        nu = _linear_coefficient(phi, th)
        if nu is None or nu.is_zero() or nu.depends_on(th):
            continue
        if not (phi - nu * from_atom(th)).depends_on(th):
            return th, nu
    return None


def _polar(ei, ej):
    """(r2, angle entry) for a base rotation pair, or None."""
    r2 = ei * ei + ej * ej
    if _has_trig(r2):
        return None
    phi = atan_of(ej / ei)
    rate = _angle_rate(phi)
    if rate is None:
        return None
    th, nu = rate
    stripped = strip_common_ep(r2.num)
    if stripped is None or stripped[1] is None or r2.den.has_transcendentals():
        return r2, phi
    rho = _linear_coefficient(stripped[1].base, th)
    if rho is None or rho.is_zero():
        return r2, phi
    return r2, exp_of(-(rho / nu) * phi)


def _rotation_step(active):
    """Polar form of the first usable rotation pair; (new active, name) or None."""
    trig = [k for k, (_, f) in enumerate(active) if _turns(f)]
    for a, i in enumerate(trig):
        for j in trig[a + 1:]:
            ei, ej = active[i][1], active[j][1]
            try:
                polar = _polar(ei, ej)
            except (KernelError, ZeroDivisionError):
                continue
            if polar is None:
                continue
            out = list(active)
            out[i] = (active[i][0], polar[0])
            out[j] = (active[j][0], polar[1])
            _rotate_followers(out, trig, (i, j), ei, ej, polar[0])
            return out, "rotation-pair(%s,%s)" % (active[i][0], active[j][0])
    return None


def _rotate_followers(out, trig, used, ei, ej, r2):
    """Replace every pair turning with (ei, ej) by its trig-free cross terms."""
    used = set(used)
    for a, k in enumerate(trig):
        if k in used:
            continue
        for l in trig[a + 1:]:
            if l in used:
                continue
            ek, el = out[k][1], out[l][1]
            try:
                u = (ei * ek + ej * el) / r2
                v = (ei * el - ej * ek) / r2
            except (KernelError, ZeroDivisionError):
                continue
            if _has_trig(u) or _has_trig(v):
                continue
            out[k] = (out[k][0], u)
            out[l] = (out[l][0], v)
            used.update((k, l))
            break


# ---------------------------------------------------------------------------
# the driver


def eliminate(lifted):
    """Run the normalization and return the invariants with a full trace."""
    exprs = lifted.exprs()
    active = [(str(i + 1), f) for i, f in enumerate(exprs)]
    pivots = []
    applied = []
    assumptions = []
    seen_assumptions = set()

    def note_assumptions(exprs_):
        for a in exprs_:
            if a.is_rational():
                continue
            key = a.skey()
            if key not in seen_assumptions:
                seen_assumptions.add(key)
                assumptions.append(a)

    poisoned = set()

    def find_pivot():
        places = {}  # (label, th) -> _where, for this round only

        def where(label, f, th):
            if (label, th) not in places:
                places[label, th] = _where(f, th)
            return places[label, th]

        scan = [(label, f, _theta_atoms(f)) for label, f in active if not f.is_zero()]
        for rule in (_linear, _exponential):
            for label, f, thetas in scan:
                for th in thetas:
                    key = (label, rule.__name__, th.skey)
                    if key in poisoned:
                        continue
                    others = (where(l2, h, th) for l2, h in active if l2 != label)
                    hit = rule(f, th, where(label, f, th), others)
                    if hit is not None:
                        return hit, key
        return None, None

    while True:
        hit, key = find_pivot()
        if hit is not None:
            record, apply = hit
            label = key[0]
            rebuilt = []
            try:
                for l2, h in active:
                    if l2 == label:
                        continue
                    rebuilt.append((l2, apply(h)))
            except (KernelError, ZeroDivisionError):
                poisoned.add(key)
                continue
            note_assumptions(record.assumptions)
            pivots.append(record)
            active = rebuilt
            continue
        # stall: put a rotation pair in polar form
        step = _rotation_step(active)
        if step is None:
            break
        active, name = step
        applied.append(name)
        poisoned.clear()

    survivors = []
    residual = []
    for label, f in active:
        if not any(a.head == "x" for a in f.atoms()):
            continue
        if _theta_atoms(f):
            residual.append(f)
        else:
            survivors.append(f)
    g = lifted.algebra
    for f, report in zip(survivors, check_all(g, survivors)):
        if not report.ok:
            raise KernelError(
                "internal error: eliminated expression fails annihilation by generators %s: %s"
                % (report.failing(), f.skey())
            )
    return EliminationResult(
        invariants=survivors,
        pivots=pivots,
        assumptions=assumptions,
        residual=residual,
        applied_recipes=applied,
        complete=not residual,
    )


# ---------------------------------------------------------------------------
# utilities on invariant lists


def rescale_to_polynomial(exprs):
    """Clear denominators by multiplying with powers of a fellow invariant.

    The polynomial transcendental-free members of exprs are the candidate
    factors; multiplying by powers of a fellow invariant keeps invariance.
    Returns (rescaled list, notes).  Entries that cannot be cleared within
    12 multiplications are returned unchanged with a note.
    """
    candidates = [f for f in exprs if f.den.is_one and not f.has_transcendentals()]
    out = []
    notes = []
    for f in exprs:
        cleared = f if f.den.is_one else _clear_denominator(f, candidates)
        if cleared is None:
            cleared = f
            notes.append("could not clear denominator of %s" % f.skey())
        out.append(cleared)
    return out, notes


def _clear_denominator(f, candidates):
    """f * s**k for the first candidate s and least k <= 12 without denominator, else None."""
    for s in candidates:
        cand = f
        for _ in range(12):
            cand = cand * s
            if cand.den.is_one:
                return cand
    return None


def functionally_equivalent(first, second, g, seed=0, trials=6, param_point=None):
    """Exact test that two invariant families generate each other.

    algebra.sampled_rank substitutes random rational coordinates and
    parameters into the two Jacobians, leaving residual transcendental
    values as formal field elements, and ranks each Jacobian and their
    union; equality of the three generic ranks decides the answer.  A point
    where a substitution divides by zero is singular and skipped.  Raises
    sampled_rank's ValueError and KernelError.
    """
    atoms = [coord_atom(i) for i in range(1, g.dim + 1)]
    grads = [[[differentiate(f, a) for a in atoms] for f in fs] for fs in (first, second)]

    def rows_at(x, params, rng):
        point = {a: rational(v) for a, v in zip(atoms, x)}
        point.update((a, rational(v)) for a, v in params.items())
        try:
            rows_a, rows_b = ([[substitute(v, point) for v in r] for r in grad] for grad in grads)
        except (ZeroDivisionError, KernelError) as err:
            raise SingularPoint(str(err)) from err
        return [rows_a, rows_b, rows_a + rows_b]

    (ra, rb, rab), _ = sampled_rank(g, rows_at, seed, trials, param_point)
    return ra == rb == rab
