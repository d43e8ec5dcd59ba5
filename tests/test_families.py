"""Shipped algebra families: construction, published bases, elimination, registry."""

import random
from fractions import Fraction

import pytest

from lieinv import (
    check_invariant,
    coord,
    eliminate,
    functionally_equivalent,
    num_invariants,
    param,
    rank_coadjoint,
    rescale_to_polynomial,
    validate,
)
from lieinv.algebra import StructureError
from lieinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    atan_of,
    cos_of,
    exp_of,
    expr_str,
    rational,
    sin_of,
    theta,
)
from lieinv.families import (
    b_coefficients,
    builtin_instances,
    make_g6_38,
    make_jordan,
    make_s1,
    make_s2,
    make_s3,
    make_s4,
    make_t0,
    polynomial_basis_predicate,
)
from lieinv.frame import RecipeNeeded
from lieinv.linalg import Matrix


def unipotent_conjugation_entries(inst):
    """Entries of G^-1 X G for the unipotent matrix G built from the frame.

    G is the product of elementary unipotent matrices I + s*theta_p*E_(i,j)
    in frame order; the (j, i) entries (i < j) of the conjugated coordinate
    matrix reproduce the lifted invariants, giving an independent check of
    the frame construction.
    """
    n = inst.extra["size"]
    pairs = inst.extra["pairs"]
    index = inst.extra["index"]

    def elementary(i, j, s):
        """I + s*E_(i,j)."""
        return Matrix(
            [
                [
                    (EXPR_ONE if r == c else EXPR_ZERO)
                    + (s if (r, c) == (i - 1, j - 1) else EXPR_ZERO)
                    for c in range(n)
                ]
                for r in range(n)
            ]
        )

    G = inv = elementary(1, 1, EXPR_ZERO)
    for p, (i, j) in enumerate(pairs):
        t = theta(p + 1)
        t = t if inst.signs.get(p + 1, 1) > 0 else -t
        G = G.mul(elementary(i, j, t))
        inv = elementary(i, j, -t).mul(inv)
    X = Matrix(
        [
            [coord(index[(c, r)]) if c < r else EXPR_ZERO for c in range(1, n + 1)]
            for r in range(1, n + 1)
        ]
    )
    M = inv.mul(X).mul(G)
    return {
        (r, c): M.rows[r - 1][c - 1]
        for r in range(1, n + 1)
        for c in range(1, n + 1)
        if c < r
    }


class TestTriangularFamily:
    def test_dimensions_and_labels(self):
        inst = make_t0(3)
        g = inst.algebra
        assert g.dim == 3
        assert make_t0(5).algebra.dim == 10

    def test_bracket_table_matches_matrix_commutators(self):
        # [E_ij, E_kl] = d_jk E_il - d_li E_kj on elementary matrices
        inst = make_t0(4)
        g = inst.algebra
        index = inst.extra["index"]
        for (i, j), p in index.items():
            for (k, l), q in index.items():
                if p >= q:
                    continue
                expect = {}
                if j == k:
                    expect[(i, l)] = expect.get((i, l), 0) + 1
                if l == i:
                    expect[(k, j)] = expect.get((k, j), 0) - 1
                got = g.bracket(p, q)
                want = {
                    index[pair]: c for pair, c in expect.items() if c and pair in index
                }
                assert set(got) == set(want)
                for idx, c in want.items():
                    assert got[idx].equals(rational(c))

    def test_expected_counts_floor_half(self):
        for n in range(3, 7):
            inst = make_t0(n)
            assert len(inst.expected_invariants) == n // 2

    def test_minors_pass_and_count_matches_rank(self):
        for n in range(3, 7):
            inst = make_t0(n)
            g = inst.algebra
            for f in inst.expected_invariants:
                assert check_invariant(g, f).ok
            assert num_invariants(g, seed=13) == n // 2

    def test_small_expected_forms(self):
        assert [expr_str(f) for f in make_t0(3).expected_invariants] == ["x2"]
        assert [expr_str(f) for f in make_t0(4).expected_invariants] == [
            "x3",
            "x2*x5 - x3*x4",
        ]

    def test_lifted_equals_conjugated_matrix_entries(self):
        # the lifted set coincides entrywise with the conjugated coordinate
        # matrix, giving an independent derivation of the same expressions
        for n in (3, 4):
            inst = make_t0(n)
            lift = inst.lifted().exprs()
            conj = unipotent_conjugation_entries(inst)
            index = inst.extra["index"]
            for (i, j), p in index.items():
                assert conj[(j, i)].equals(lift[p - 1])

    def test_lifted_small_closed_form(self):
        got = [expr_str(f) for f in make_t0(3).lifted().exprs()]
        assert got == ["-1*x2*th3 + x1", "x2", "x2*th1 + x3"]


class TestChainBlockFamily:
    def test_zero_block_polynomial_basis(self):
        inst = make_jordan([("jordan", 0, 3)])
        assert [expr_str(f) for f in inst.expected_invariants] == [
            "x1",
            "x1*x3 - 1/2*x2^2",
        ]

    def test_nonzero_block_exponential_basis(self):
        inst = make_jordan([("jordan", 1, 3)])
        assert [expr_str(f) for f in inst.expected_invariants] == [
            "x1*exp(-1*x2/x1)",
            "(x1*x3 - 1/2*x2^2)/(x1^2)",
        ]

    def test_real_block_arctan_basis(self):
        inst = make_jordan([("real", 1, 1, 2)])
        x1, x2, x3, x4 = (coord(i) for i in range(1, 5))
        r2 = x1 * x1 + x2 * x2
        want = [
            r2 * exp_of(rational(-2) * atan_of(x2 / x1)),
            (x1 * x3 + x2 * x4) / r2 - atan_of(x2 / x1),
            (x1 * x4 - x2 * x3) / r2,
        ]
        assert len(inst.expected_invariants) == 3
        for got, expect in zip(inst.expected_invariants, want):
            assert got.equals(expect)

    def test_indecomposability_guard(self):
        with pytest.raises(StructureError):
            make_jordan([("jordan", 0, 1)])
        with pytest.raises(StructureError):
            make_jordan([("jordan", 0, 2), ("jordan", 0, 1)])

    def test_real_block_needs_rotation(self):
        with pytest.raises(StructureError):
            make_jordan([("real", 1, 0, 1)])

    def test_formal_eigenvalue_eliminates(self):
        inst = make_jordan([("jordan", param("l"), 2)], params=("l",))
        res = eliminate(inst.lifted())
        assert res.complete
        assert [expr_str(f) for f in res.invariants] == ["x1*exp(-1*x2*l/x1)"]

    def test_formal_frequency_has_no_exact_frame(self):
        inst = make_jordan([("real", 1, param("n"), 1)], params=("n",))
        with pytest.raises(RecipeNeeded):
            inst.lifted()

    @pytest.mark.parametrize(
        "blocks",
        [
            [("jordan", 1, 1), ("jordan", 2, 1)],
            [("jordan", 0, 2), ("jordan", 0, 2)],
            [("jordan", 1, 2), ("jordan", 0, 2)],
            [("jordan", 1, 1), ("jordan", 0, 2)],
            [("jordan", 1, 2), ("real", 1, 1, 2)],
            [("jordan", 1, 1), ("real", 1, 1, 1)],
            [("real", 1, 1, 2), ("real", 1, 2, 2)],
            [("real", 1, 1, 1), ("real", 1, 2, 1)],
            [("jordan", 0, 2), ("jordan", 1, 1)],
            [("real", 1, 1, 1), ("jordan", 0, 2)],
        ],
        ids=[
            "nonzero-nonzero",
            "zero-zero",
            "nonzero-zero",
            "scalar-zero",
            "chain-rotation",
            "scalar-scalar-rotation",
            "rotation-rotation",
            "plane-plane",
            "zero-scalar",
            "plane-zero",
        ],
    )
    def test_pairwise_invariants_on_minimal_instances(self, blocks):
        inst = make_jordan(blocks)
        g = inst.algebra
        assert validate(g) == []
        n = g.dim
        assert len(inst.expected_invariants) == n - 2
        for f in inst.expected_invariants:
            assert check_invariant(g, f).ok
        r, _ = rank_coadjoint(g, seed=3)
        assert n - r == n - 2

    def test_marginal_diagonal_case(self):
        # all blocks of size one: power products of the first coordinate
        inst = make_jordan(
            [("jordan", 1, 1), ("jordan", 2, 1), ("jordan", 3, 1)]
        )
        assert len(inst.expected_invariants) == 2
        for f in inst.expected_invariants:
            assert check_invariant(inst.algebra, f).ok

    def test_multiblock_elimination_matches_expected(self):
        for blocks in (
            [("jordan", 0, 2), ("jordan", 0, 2)],
            [("jordan", 1, 1), ("jordan", 0, 2)],
        ):
            inst = make_jordan(blocks)
            res = eliminate(inst.lifted())
            assert res.complete
            assert functionally_equivalent(
                res.invariants, inst.expected_invariants, inst.algebra, seed=21
            )


class TestPolynomialBasisPredicate:
    def test_worked_examples(self):
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

    def test_sign_and_rationality_conditions(self):
        assert (
            polynomial_basis_predicate(
                [("jordan", Fraction(1, 2), 1), ("jordan", 2, 1), ("jordan", 1, 1)]
            )
            is True
        )
        # a size > 1 block breaks the diagonal case
        assert (
            polynomial_basis_predicate([("jordan", 1, 2), ("jordan", 2, 1)]) is False
        )
        # s = n-1 > 2 requires at least three blocks
        assert (
            polynomial_basis_predicate([("jordan", 1, 1), ("jordan", 2, 1)]) is False
        )

    def test_real_blocks_never_polynomial_unless_zero_case(self):
        assert polynomial_basis_predicate([("real", 1, 1, 1)]) is False
        assert (
            polynomial_basis_predicate(
                [("real", 1, 1, 1), ("jordan", 1, 1), ("jordan", 2, 1)]
            )
            is False
        )

    def test_nilpotent_case_semantics(self):
        # predicate true: elimination output rescales to a polynomial set
        inst = make_jordan([("jordan", 0, 4)])
        assert polynomial_basis_predicate([("jordan", 0, 4)]) is True
        res = eliminate(inst.lifted())
        out, notes = rescale_to_polynomial(res.invariants)
        assert notes == []
        assert all(f.den.is_one and not f.has_transcendentals() for f in out)

    def test_negative_case_semantics(self):
        # predicate false: the published basis itself carries transcendentals
        inst = make_jordan([("jordan", 1, 3)])
        assert polynomial_basis_predicate([("jordan", 1, 3)]) is False
        assert any(f.has_transcendentals() for f in inst.expected_invariants)

    def test_randomized_specs_against_direct_rule(self):
        rng = random.Random(131)
        checked = 0
        while checked < 20:
            blocks = random_blocks(rng)
            if blocks is None:
                continue
            want = direct_two_case_rule(blocks)
            assert polynomial_basis_predicate(blocks) is want
            checked += 1


def random_blocks(rng):
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
            lam = rng.choice(
                [0, 1, 2, -1, -2, Fraction(1, 2), Fraction(-3, 2), 3]
            )
            r = rng.randint(1, 3)
            if lam == 0 and r == 1:
                r = 2
            blocks.append(("jordan", lam, r))
            total += r
    if total < 2 or total > 7:
        return None
    return blocks


def direct_two_case_rule(blocks):
    """Independent restatement of the two-case polynomial-basis rule."""
    jordans = [b for b in blocks if b[0] == "jordan"]
    reals = [b for b in blocks if b[0] == "real"]
    if not reals and all(b[1] == 0 for b in jordans):
        return True
    if reals:
        return False
    if any(b[2] != 1 for b in jordans):
        return False
    if len(jordans) <= 2:
        return False
    lams = [Fraction(b[1]) for b in jordans]
    if any(l == 0 for l in lams):
        return False
    ratios = [l / lams[0] for l in lams]
    return all(r > 0 for r in ratios)


class TestSolvableSeries:
    def test_parameter_domain(self):
        with pytest.raises(StructureError):
            make_s1(5, 2, 1)
        with pytest.raises(StructureError):
            make_s1(5, 0, 0)
        make_s1(5, 0, 1)
        make_s1(5, 1, 7)

    def test_series_counts(self):
        for n in (5, 6):
            assert len(make_s1(n, 1, 0).expected_invariants) == n - 3
            assert len(make_s2(n).expected_invariants) == n - 3
            assert len(make_s3(n).expected_invariants) == n - 3
            assert len(make_s4(n).expected_invariants) == n - 4

    def test_first_series_twisted_powers(self):
        inst = make_s1(5, 1, 0)
        assert [expr_str(f) for f in inst.expected_invariants] == [
            "x1*x3*exp(-4/3*log(x1)) - 1/2*x2^2*exp(-4/3*log(x1))",
            "(x1^2*x4 - x1*x2*x3 + 1/3*x2^3)/(x1^2)",
        ]
        for f in inst.expected_invariants:
            assert check_invariant(inst.algebra, f).ok

    def test_singular_member_quotient_basis(self):
        inst = make_s1(5, 1, -3)
        got = [expr_str(f) for f in inst.expected_invariants]
        assert got[0] == "x1"
        assert "x4^2" in got[1] and "x3^3" in got[1]
        for f in inst.expected_invariants:
            assert check_invariant(inst.algebra, f).ok

    def test_second_series_structure_is_consistent(self):
        for n in (5, 6, 7):
            inst = make_s2(n)
            g = inst.algebra
            assert validate(g) == []
            vec = g.bracket(n, n + 1)
            assert set(vec) == {n, n - 1}
            assert vec[n].is_one() and vec[n - 1].is_one()
            for f in inst.expected_invariants:
                assert check_invariant(g, f).ok

    def test_third_series_log_corrected_basis(self):
        for n in (5, 6):
            inst = make_s3(n)
            for f in inst.expected_invariants:
                assert check_invariant(inst.algebra, f).ok
        numeric = make_s3(5, {3: 1, 4: 2})
        assert numeric.algebra.params == ()
        for f in numeric.expected_invariants:
            assert check_invariant(numeric.algebra, f).ok

    def test_enumerated_extension_coefficients(self):
        a = {3: param("a3"), 4: param("a4"), 5: param("a5")}
        b = b_coefficients(6, a)
        assert {k: expr_str(v) for k, v in sorted(b.items())} == {
            (2, 1): "a3",
            (3, 1): "a4",
            (4, 1): "a5",
            (4, 2): "a3^2",
        }
        a8 = dict(a)
        a8[6] = param("a6")
        a8[7] = param("a7")
        b8 = b_coefficients(8, a8)
        # (m, i) = (5, 2): tuples (3,4) and (4,3) -> 2*a3*a4
        assert expr_str(b8[(5, 2)]) == "2*a3*a4"
        # (m, i) = (6, 3): only (3,3,3) -> a3^3
        assert expr_str(b8[(6, 3)]) == "a3^3"
        # (m, i) = (6, 2): (3,5), (5,3), (4,4)
        assert expr_str(b8[(6, 2)]) == "2*a3*a5 + a4^2"

    def test_fourth_series_counts_and_basis(self):
        for n in (6, 7):
            inst = make_s4(n)
            g = inst.algebra
            assert g.dim == n + 2
            r, _ = rank_coadjoint(g, seed=5)
            assert g.dim - r == n - 4
            for f in inst.expected_invariants:
                assert check_invariant(g, f).ok


class TestWorkedSixDimensional:
    def test_bracket_table(self):
        inst = make_g6_38()
        g = inst.algebra
        a = param("a")
        assert g.bracket(4, 5)[1].is_one()
        assert g.bracket(1, 6)[1].equals(rational(2) * a)
        assert g.bracket(2, 6)[2].equals(a)
        assert g.bracket(2, 6)[3].equals(rational(-1))
        assert g.bracket(4, 6)[5].equals(rational(-1))
        assert set(g.bracket(5, 6)) == {3, 4, 5}

    def test_lifted_matches_closed_form_display(self):
        inst = make_g6_38()
        a = param("a")
        t4, t5, t6 = theta(4), theta(5), theta(6)
        t1, t2, t3 = theta(1), theta(2), theta(3)
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
            (-half * t5 * t5 + a * t4 * t5 - half * t4 * t4 + rational(2) * a * t1)
            * x[1]
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

    def test_both_bases_verified(self):
        for a in (0, None):
            inst = make_g6_38(a)
            for f in inst.expected_invariants:
                assert check_invariant(inst.algebra, f).ok

    def test_zero_parameter_basis_is_polynomial(self):
        inst = make_g6_38(0)
        assert [expr_str(f) for f in inst.expected_invariants] == [
            "x1",
            "x2^2 + x3^2",
        ]

    def test_formal_parameter_basis_from_elimination(self):
        inst = make_g6_38()
        res = eliminate(inst.lifted())
        assert res.complete
        assert [expr_str(f) for f in res.invariants] == [
            "(x2^2 + x3^2)/x1",
            "x1*exp(-2*a*atan(x3/x2))",
        ]
        for got, want in zip(res.invariants, inst.expected_invariants):
            assert got.equals(want)


class TestRegistry:
    def test_registry_covers_all_constructors(self):
        insts = builtin_instances()
        names = {inst.name for inst in insts}
        assert {"t0", "s1", "s2", "s3", "s4", "g6.38"} <= names
        assert any(n.startswith("J0") for n in names)
        assert any(n.startswith("R11") for n in names)

    def test_every_instance_is_consistent(self):
        for inst in builtin_instances():
            g = inst.algebra
            assert validate(g) == [], g.name
            assert (
                num_invariants(g, seed=17, param_point=inst.param_point)
                == len(inst.expected_invariants)
            ), g.name
