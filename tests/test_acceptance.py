"""Acceptance gate: one test per top-level requirement of the deliverable.

Each test below is an end-to-end statement of a shipped capability; the
`pytest -v` line for each function is the pass/fail verdict for that
requirement.  Fine-grained behavior is covered by the per-module suites.
"""

import io
import random
import sys
import time
from fractions import Fraction

from lieinv import (
    atan_of,
    builtin_instances,
    check_all,
    check_invariant,
    coord,
    cos_of,
    eliminate,
    exp_of,
    functionally_equivalent,
    is_central,
    jacobian_rank,
    lie_algebra,
    make_g6_38,
    make_jordan,
    make_s1,
    make_s2,
    make_s3,
    make_s4,
    make_t0,
    num_invariants,
    param,
    polynomial_basis_predicate,
    rank_coadjoint,
    rational,
    rescale_to_polynomial,
    symmetrize,
    theta,
    validate,
)
from lieinv.cli import EXIT_OK, EXIT_RECIPE, EXIT_USAGE, EXIT_VERIFY, main as cli_main
from lieinv.expr import KernelError, expr_str, log_of, sin_of
from lieinv.io import parse_expr


def test_01_strictly_triangular_families_yield_floor_n_half_minor_casimirs():
    """n-by-n strictly triangular algebras, n = 3..8: the invariant count is
    floor(n/2), every nested-minor determinant verifies, within time budget."""
    start = time.monotonic()
    for n in range(3, 9):
        inst = make_t0(n)
        g = inst.algebra
        assert len(inst.expected_invariants) == n // 2
        assert num_invariants(g, seed=5) == n // 2
        for f in inst.expected_invariants:
            assert check_invariant(g, f).ok, (n, expr_str(f))
    assert time.monotonic() - start < 120.0


def test_02_nilpotent_single_chain_elimination_up_to_dim_ten():
    """One kernel Jordan chain, dim 4..10: elimination runs to completion and
    the output is functionally equivalent to the closed-form polynomial set."""
    for n in range(4, 11):
        inst = make_jordan([("jordan", 0, n - 1)])
        res = eliminate(inst.lifted())
        assert res.complete, n
        assert len(res.invariants) == n - 2, n
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, inst.algebra, seed=11
        ), n


def test_03_unit_eigenvalue_single_chain_up_to_dim_eight():
    """One eigenvalue-one Jordan chain, dim 4..8: the closed-form basis
    verifies and elimination reproduces it up to functional equivalence."""
    for n in range(4, 9):
        inst = make_jordan([("jordan", 1, n - 1)])
        g = inst.algebra
        assert len(inst.expected_invariants) == n - 2, n
        for f in inst.expected_invariants:
            assert check_invariant(g, f).ok, (n, expr_str(f))
        res = eliminate(inst.lifted())
        assert res.complete, n
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, g, seed=13
        ), n


def test_04_five_dimensional_rotation_block_basis():
    """Single complex-pair block with r = 2 (dim 5): all three closed-form
    invariants verify and the independent count agrees."""
    inst = make_jordan([("real", 1, 1, 2)])
    g = inst.algebra
    assert len(inst.expected_invariants) == 3
    assert num_invariants(g, seed=5) == 3
    for f in inst.expected_invariants:
        assert check_invariant(g, f).ok, expr_str(f)


PAIR_ROWS = [
    [("jordan", 1, 1), ("jordan", 2, 1)],
    [("jordan", 0, 2), ("jordan", 0, 2)],
    [("jordan", 1, 2), ("jordan", 0, 2)],
    [("jordan", 1, 1), ("jordan", 0, 2)],
    [("jordan", 1, 2), ("real", 1, 1, 2)],
    [("jordan", 1, 1), ("real", 1, 1, 1)],
    [("real", 1, 1, 2), ("real", 1, 2, 2)],
    [("real", 1, 1, 1), ("real", 1, 2, 1)],
]


def _random_blocks(rng):
    blocks = []
    total = 0
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.3:
            mu = rng.randint(-2, 2)
            nu = rng.choice([1, 2, -1])
            r = rng.randint(1, 2)
            blocks.append(("real", mu, nu, r))
            total += 2 * r
        else:
            lam = rng.choice([0, 1, 2, -1, -2, Fraction(1, 2), Fraction(-3, 2), 3])
            r = rng.randint(1, 3)
            if lam == 0 and r == 1:
                r = 2
            blocks.append(("jordan", lam, r))
            total += r
    if total < 2 or total > 7:
        return None
    return blocks


def _direct_two_case_rule(blocks):
    # independent restatement: either everything is nilpotent, or the block
    # structure is diagonal with at least three rationally dependent
    # eigenvalues of a common sign
    jordans = [b for b in blocks if b[0] == "jordan"]
    reals = [b for b in blocks if b[0] == "real"]
    if not reals and all(b[1] == 0 for b in jordans):
        return True
    if reals or any(b[2] != 1 for b in jordans) or len(jordans) <= 2:
        return False
    lams = [Fraction(b[1]) for b in jordans]
    if any(l == 0 for l in lams):
        return False
    return all(l / lams[0] > 0 for l in lams)


def test_05_block_pair_recipes_and_polynomial_basis_criterion():
    """Every tabulated two-block combination produces a verified basis of the
    predicted size on a minimal instance, and the polynomial-basis predicate
    reproduces the two-case rule on worked and randomized block lists."""
    for blocks in PAIR_ROWS:
        inst = make_jordan(blocks)
        g = inst.algebra
        assert validate(g) == [], blocks
        assert len(inst.expected_invariants) == g.dim - 2, blocks
        for f in inst.expected_invariants:
            assert check_invariant(g, f).ok, (blocks, expr_str(f))
        r, _ = rank_coadjoint(g, seed=3)
        assert g.dim - r == g.dim - 2, blocks

    assert polynomial_basis_predicate([("jordan", 0, 3)]) is True
    assert (
        polynomial_basis_predicate(
            [("jordan", 1, 1), ("jordan", 2, 1), ("jordan", 3, 1)]
        )
        is True
    )
    assert (
        polynomial_basis_predicate(
            [("jordan", 1, 1), ("jordan", -1, 1), ("jordan", 2, 1)]
        )
        is False
    )

    rng = random.Random(977)
    checked = 0
    while checked < 20:
        blocks = _random_blocks(rng)
        if blocks is None:
            continue
        assert polynomial_basis_predicate(blocks) is _direct_two_case_rule(blocks)
        checked += 1


def test_06_solvable_series_counts_and_closed_form_bases():
    """Four solvable series, n = 5..8: independent invariant counts are n-3
    (n-4 for the fourth series) and every published basis member verifies,
    including the singular exponent choice and the logarithmic set."""
    for n in range(5, 9):
        members = [
            make_s1(n, 1, 0),
            make_s1(n, 0, 1),
            make_s1(n, 1, 2 - n),
            make_s2(n),
            make_s3(n),
        ]
        for inst in members:
            g = inst.algebra
            r, _ = rank_coadjoint(g, seed=7, param_point=inst.param_point)
            assert g.dim - r == n - 3, g.name
            assert len(inst.expected_invariants) == n - 3, g.name
            for f in inst.expected_invariants:
                assert check_invariant(g, f).ok, (g.name, expr_str(f))
        s4 = make_s4(n)
        r4, _ = rank_coadjoint(s4.algebra, seed=7)
        assert s4.algebra.dim - r4 == n - 4
        assert len(s4.expected_invariants) == n - 4
        for f in s4.expected_invariants:
            assert check_invariant(s4.algebra, f).ok, (s4.algebra.name, expr_str(f))


def test_07_six_dimensional_worked_example_end_to_end():
    """The parametric six-dimensional solvable algebra: lifted invariants
    match the closed form symbolically, both published bases verify, and
    elimination with the rotation-pair recipe returns the generic basis."""
    inst = make_g6_38()
    a = param("a")
    t1, t2, t3, t4, t5, t6 = (theta(i) for i in range(1, 7))
    eps = exp_of(a * t6)
    kap, sig = cos_of(t6), sin_of(t6)
    x = [None] + [coord(i) for i in range(1, 7)]
    half = rational(Fraction(1, 2))
    want = [
        eps * eps * x[1],
        eps * (kap * x[2] - sig * x[3]),
        eps * (sig * x[2] + kap * x[3]),
        eps
        * (
            (-t5 * kap - t4 * sig) * x[1]
            + t6 * kap * x[2]
            - t6 * sig * x[3]
            + kap * x[4]
            - sig * x[5]
        ),
        eps
        * (
            (-t5 * sig + t4 * kap) * x[1]
            + t6 * sig * x[2]
            + t6 * kap * x[3]
            + sig * x[4]
            + kap * x[5]
        ),
        (-half * t5 * t5 + a * t4 * t5 - half * t4 * t4 + rational(2) * a * t1) * x[1]
        + (t4 + t3 + a * t2) * x[2]
        + (t5 + a * t3 - t2) * x[3]
        + (t5 + a * t4) * x[4]
        + (a * t5 - t4) * x[5]
        + x[6],
    ]
    got = inst.lifted().exprs()
    assert len(got) == 6
    for g_expr, w_expr in zip(got, want):
        assert (g_expr - w_expr).is_zero()

    for a_val in (0, None):
        case = make_g6_38(a_val)
        for f in case.expected_invariants:
            assert check_invariant(case.algebra, f).ok, expr_str(f)

    res = eliminate(inst.lifted())
    assert res.complete
    assert [expr_str(f) for f in res.invariants] == [
        "(x2^2 + x3^2)/x1",
        "x1*exp(-2*a*atan(x3/x2))",
    ]


def test_08_two_independent_rank_computations_agree_on_every_builtin():
    """For every built-in instance the jacobian rank of the lifted set equals
    the generic coadjoint rank, and both equal dim minus the size of the
    verified invariant basis."""
    insts = builtin_instances()
    assert len(insts) >= 20
    for inst in insts:
        g = inst.algebra
        jr = jacobian_rank(inst.lifted(), seed=13, param_point=inst.param_point)
        rc, _ = rank_coadjoint(g, seed=13, param_point=inst.param_point)
        assert jr == rc == g.dim - len(inst.expected_invariants), g.name
        assert all(rep.ok for rep in check_all(g, inst.expected_invariants)), g.name


def test_09_polynomial_invariants_symmetrize_to_central_elements():
    """Every polynomial invariant of a built-in instance of dim <= 10 maps to
    a central element of the degree-6 truncated enveloping algebra; the
    dimension-6 and dimension-15 triangular determinants are checked too."""
    seen = 0
    for inst in builtin_instances():
        g = inst.algebra
        if g.dim > 10:
            continue
        for f in inst.expected_invariants:
            if not (f.den.is_one and not f.has_transcendentals()):
                continue
            assert is_central(g, symmetrize(f), degree_bound=6), (g.name, expr_str(f))
            seen += 1
    assert seen >= 10

    for n in (4, 6):
        inst = make_t0(n)
        for f in inst.expected_invariants:
            assert is_central(inst.algebra, symmetrize(f), degree_bound=6), (
                n,
                expr_str(f),
            )


def _random_rational_expr(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        if rng.randrange(3) == 0:
            return rational(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return coord(rng.randint(1, 3))
    op = rng.randrange(4)
    a = _random_rational_expr(rng, depth - 1)
    b = _random_rational_expr(rng, depth - 1)
    if op == 0:
        return a + b
    if op == 1:
        return a - b
    if op == 2:
        return a * b
    return a if b.is_zero() else a / b


def _random_mixed_expr(rng, depth=3):
    base = _random_rational_expr(rng, 2)
    if depth == 0:
        return base
    kind = rng.randrange(6)
    arg = _random_rational_expr(rng, 2)
    try:
        if kind == 0:
            return base + exp_of(arg)
        if kind == 1 and not arg.is_zero():
            return base * log_of(arg)
        if kind == 2:
            return base + atan_of(arg)
        if kind == 3:
            return base * cos_of(arg) + sin_of(arg)
        if kind == 4:
            return base + _random_mixed_expr(rng, depth - 1)
        return base * _random_mixed_expr(rng, depth - 1)
    except KernelError:
        return base


def _jacobi_fails_oracle(g):
    # cyclic-sum check through bracket_vectors, independent of the
    # validator's triple bookkeeping
    n = g.dim
    basis = [[rational(1 if t == i else 0) for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [rational(0)] * n
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.bracket_vectors(basis[u], basis[v])
                    outer = g.bracket_vectors(inner, basis[w])
                    total = [p + q for p, q in zip(total, outer)]
                if any(not t.is_zero() for t in total):
                    return True
    return False


def _cli(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin, sys.stdout, sys.stderr
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    sys.stdout, sys.stderr = out, err
    try:
        code = cli_main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()


def test_10_randomized_property_suites_and_cli_contract():
    """Randomized guarantees: mutated structure constants are flagged exactly
    when an independent cyclic-sum check fails (100 trials); products and
    combinations of invariants stay invariant (50 pairs); printing then
    reparsing an expression is a fixed point (200 samples); the command-line
    tool honors its exit-code contract and seeded runs are byte-identical."""
    # structure-constant mutation vs independent oracle
    rng = random.Random(4099)
    base_entries = [
        (3, {(1, 2): {3: 1}}),
        (3, {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}),
        (4, {(1, 4): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: 1}, (1, 2): {3: 1}}),
    ]
    flagged = 0
    for _ in range(100):
        n, entries = rng.choice(base_entries)
        table = {ij: dict(vec) for ij, vec in entries.items()}
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        k = rng.randint(1, n)
        delta = rng.choice([-2, -1, 1, 2])
        vec = table.setdefault((i, j), {})
        vec[k] = vec.get(k, 0) + delta
        if vec[k] == 0:
            del vec[k]
        mutated = lie_algebra(n, table)
        bad = _jacobi_fails_oracle(mutated)
        assert bool(validate(mutated)) is bad
        flagged += bad
    assert flagged > 0

    # invariance is preserved under field operations
    rng = random.Random(515)
    pool = [
        make_t0(4),
        make_t0(5),
        make_jordan([("jordan", 0, 4)]),
        make_jordan([("jordan", 0, 5)]),
        make_s2(5),
    ]
    for _ in range(50):
        inst = rng.choice(pool)
        f = rng.choice(inst.expected_invariants)
        h = rng.choice(inst.expected_invariants)
        c = rational(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        combo = rng.choice([f * h, f + c * h, f * h + c * f])
        assert check_invariant(inst.algebra, combo).ok, inst.algebra.name

    # canonical form is a fixed point of print-then-parse
    rng = random.Random(20107)
    for _ in range(200):
        f = _random_mixed_expr(rng)
        s = expr_str(f)
        g = parse_expr(s)
        assert g.equals(f), s
        s2 = expr_str(g)
        assert expr_str(parse_expr(s2)) == s2, s

    # exit-code contract and determinism
    heis = "dim 3\n[1,2] = e3\n"
    rot = "dim 3\n[1,3] = e2\n[2,3] = -2*e1\n"  # eigenvalues +-i*sqrt(2)
    assert _cli(["validate", "-"], stdin=heis)[0] == EXIT_OK
    assert _cli(["verify", "-", "--expr", "x1"], stdin=heis)[0] == EXIT_VERIFY
    assert _cli(["validate", "/no/such/file"])[0] == EXIT_USAGE
    assert _cli(["invariants", "-"], stdin=rot)[0] == EXIT_RECIPE
    first = _cli(["--seed", "3", "--format", "json", "invariants", "-"], stdin=heis)
    second = _cli(["--seed", "3", "--format", "json", "invariants", "-"], stdin=heis)
    assert first == second and first[0] == EXIT_OK
