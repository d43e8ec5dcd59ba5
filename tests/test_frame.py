"""Inner-automorphism frames: exact exponentials and lifted coordinate sets."""

import random
from fractions import Fraction

import pytest

from lieinv import (
    coord,
    exp_ad,
    jacobian_rank,
    lie_algebra,
    lifted_invariants,
    rank_coadjoint,
    theta,
)
from lieinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    KernelError,
    SingularPoint,
    coord_atom,
    differentiate,
    expr_str,
    param,
    param_atom,
    rational,
    substitute,
    theta_atom,
)
from lieinv.families import builtin_instances, make_jordan
from lieinv.io import load_algebra
from lieinv import frame
from lieinv.frame import RecipeNeeded
from lieinv.linalg import Matrix, det_exprs
from test_acceptance import PAIR_ROWS


def heisenberg():
    return lie_algebra(3, {(1, 2): {3: 1}}, name="heisenberg")


def filiform(n):
    return lie_algebra(n, {(k, n): {k - 1: 1} for k in range(2, n)})


def mixed_spectrum():
    # ad e4 on <e1, e2, e3> has eigenvalues -1 and -1 +- i in one block
    return lie_algebra(
        4, {(1, 4): {1: 1}, (2, 4): {1: 1, 2: 1, 3: -1}, (3, 4): {2: 1, 3: 1}}
    )


class TestExpAd:
    def test_value_at_zero_is_identity(self):
        g = filiform(5)
        for i in range(1, 6):
            r = exp_ad(g.ad_matrix(i), theta(i))
            at0 = r.map(lambda e: substitute(e, {theta_atom(i): EXPR_ZERO}))
            assert at0 == Matrix.identity(5)

    def test_derivative_equals_generator_times_flow(self):
        # d/dt exp(t A) = A exp(t A), entrywise, exactly
        g = filiform(5)
        for i in (2, 3, 4, 5):
            a = g.ad_matrix(i)
            r = exp_ad(a, theta(1))
            deriv = r.map(lambda e: differentiate(e, theta_atom(1)))
            assert deriv.sub(a.mul(r)).is_zero()

    def test_one_parameter_group_law(self):
        g = filiform(6)
        a = g.ad_matrix(6)
        s, t = param("s"), param("t")
        rs, rt = exp_ad(a, s), exp_ad(a, t)
        rst = exp_ad(a, s + t)
        assert rs.mul(rt).sub(rst).is_zero()

    def test_diagonalizable_rational_spectrum(self):
        # [e3, e1] = -e1 and [e3, e2] = -2 e2 give exponential diagonal entries
        g = lie_algebra(3, {(1, 3): {1: 1}, (2, 3): {2: 2}})
        r = exp_ad(g.ad_matrix(3), theta(3))
        assert expr_str(r.rows[0][0]) == "exp(-1*th3)"
        assert expr_str(r.rows[1][1]) == "exp(-2*th3)"
        # group law holds across exponential entries too
        s, t = param("s"), param("t")
        assert (
            exp_ad(g.ad_matrix(3), s)
            .mul(exp_ad(g.ad_matrix(3), t))
            .sub(exp_ad(g.ad_matrix(3), s + t))
            .is_zero()
        )

    def test_mixed_jordan_structure(self):
        # nilpotent part on top of a repeated eigenvalue: entries t^k exp(lam t)
        g = lie_algebra(
            3, {(1, 3): {1: 1}, (2, 3): {1: 1, 2: 1}}
        )  # ad_3 restricted to <e1,e2> is -[[1,1],[0,1]]
        r = exp_ad(g.ad_matrix(3), theta(3))
        assert expr_str(r.rows[0][1]) == "-1*th3*exp(-1*th3)"

    def test_irrational_spectrum_needs_recipe(self, monkeypatch):
        # eigenvalues +-i: a rotation with rational frequency has a closed form
        rot = Matrix([[EXPR_ZERO, rational(-1)], [EXPR_ONE, EXPR_ZERO]])
        got = [[expr_str(v) for v in row] for row in exp_ad(rot, theta(1)).rows]
        assert got == [["cos(th1)", "-1*sin(th1)"], ["sin(th1)", "cos(th1)"]]
        # eigenvalues +-sqrt(2) neither split over Q nor form a rotation
        skew = Matrix([[EXPR_ZERO, rational(2)], [EXPR_ONE, EXPR_ZERO]])
        with pytest.raises(RecipeNeeded):
            exp_ad(skew, theta(1))
        # one connected block with eigenvalues +-i and +-2i: no rational
        # eigenvalue to split off, so the split raises without recursing
        g = lie_algebra(
            5, {(1, 5): {2: 1, 3: 1}, (2, 5): {1: -1}, (3, 5): {4: 1}, (4, 5): {3: -4}}
        )
        calls = []
        inner = frame.exp_ad
        monkeypatch.setattr(frame, "exp_ad", lambda m, t: calls.append(m) or inner(m, t))
        with pytest.raises(RecipeNeeded):
            frame.exp_ad(g.ad_matrix(5), theta(5))
        assert len(calls) == 1

    def test_every_frame_factor_is_the_exact_flow(self):
        # exp(sign*th*ad) is I at th = 0 and solves d/dth F = sign*ad*F,
        # checked symbolically on every branch of exp_ad: nilpotent blocks,
        # shifted rotations (formal shift in g6.38), formal-parameter drifts
        # (s3), a coupled block that needs the eigenspace split and a mixed
        # spectrum -1, -1 +- i whose rotation is left after the split
        coupled = lie_algebra(3, {(1, 3): {1: 1}, (2, 3): {1: 1, 2: 2}})
        lifts = [inst.lifted() for inst in builtin_instances()]
        lifts += [make_jordan(blocks).lifted() for blocks in PAIR_ROWS]
        lifts.append(lifted_invariants(coupled))
        lifts.append(lifted_invariants(mixed_spectrum()))
        for lift in lifts:
            for f in lift.factors:
                zero = {f.theta: EXPR_ZERO}
                at0 = f.closed.map(lambda e: substitute(e, zero))
                assert at0 == Matrix.identity(f.closed.nrows)
                deriv = f.closed.map(lambda e: differentiate(e, f.theta))
                flow = f.ad.scale(rational(f.sign)).mul(f.closed)
                assert deriv.sub(flow).is_zero(), (lift.algebra.name, f.gen_index)


class TestBuildFrame:
    def test_frame_at_zero_is_identity(self):
        # x . B(0) = x for every x, so B(0) is the identity
        for g in (heisenberg(), filiform(5)):
            fr = lifted_invariants(g)
            zero = {a: EXPR_ZERO for a in fr.thetas}
            at0 = [substitute(e, zero) for e in fr.exprs()]
            assert at0 == [coord(i) for i in range(1, g.dim + 1)]

    def test_unimodular_for_nilpotent(self):
        fr = lifted_invariants(filiform(6))
        for f in fr.factors:
            assert det_exprs(f.closed).is_one()

    def test_signs_flip_chosen_factors(self):
        g = heisenberg()
        plain = lifted_invariants(g)
        flipped = lifted_invariants(g, signs={2: -1})
        assert [(f.gen_index, f.sign) for f in plain.factors] == [(1, 1), (2, 1)]
        assert [(f.gen_index, f.sign) for f in flipped.factors] == [(1, 1), (2, -1)]
        swap = {theta_atom(2): -theta(2)}
        assert [substitute(e, swap) for e in plain.exprs()] == flipped.exprs()

    def test_central_generators_contribute_no_factor(self):
        fr = lifted_invariants(heisenberg())
        assert [f.gen_index for f in fr.factors] == [1, 2]
        assert fr.thetas == [theta_atom(1), theta_atom(2)]


class TestLiftedInvariants:
    def test_heisenberg_closed_form(self):
        lift = lifted_invariants(heisenberg())
        got = [expr_str(f) for f in lift.exprs()]
        assert got == ["-1*x3*th2 + x1", "x3*th1 + x2", "x3"]

    def test_reduce_to_coordinates_at_zero(self):
        g = filiform(5)
        lift = lifted_invariants(g)
        zero = {a: EXPR_ZERO for a in lift.thetas}
        for i, f in enumerate(lift.exprs(), start=1):
            assert substitute(f, zero).equals(coord(i))

    def test_linear_homogeneity_in_coordinates(self):
        g = filiform(5)
        lift = lifted_invariants(g)
        doubling = {coord_atom(i): rational(2) * coord(i) for i in range(1, 6)}
        for f in lift.exprs():
            assert substitute(f, doubling).equals(rational(2) * f)

    def test_lifted_annihilated_by_total_fields(self):
        # each lifted expression is killed by the prolonged coadjoint action:
        # equivalently, substituting the infinitesimal flow of every field
        # into x |-> x . B leaves first-order terms that cancel; we verify the
        # finite form instead: rank of the joint jacobian equals the orbit rank
        g = filiform(6)
        r, _ = rank_coadjoint(g, seed=3)
        assert jacobian_rank(lifted_invariants(g), seed=3) == r

    def test_jacobian_rank_on_knowns(self):
        assert jacobian_rank(lifted_invariants(heisenberg()), seed=2) == 2
        abelian = lie_algebra(3, {})
        assert jacobian_rank(lifted_invariants(abelian), seed=2) == 0
        g = mixed_spectrum()
        assert jacobian_rank(lifted_invariants(g), seed=2) == 2
        assert rank_coadjoint(g, seed=2)[0] == 2

    @pytest.mark.parametrize("trials", [0, -5])
    def test_jacobian_rank_rejects_fewer_than_one_trial(self, trials):
        lift = lifted_invariants(heisenberg())
        with pytest.raises(ValueError, match="trials must be at least 1, got %d" % trials):
            jacobian_rank(lift, seed=2, trials=trials)
        assert jacobian_rank(lift, seed=2, trials=1) == 2

    def test_jacobian_rank_at_a_parameter_pole_raises(self):
        # 1/(a - 1) has a pole at a = 1, where every sample point is singular
        g = load_algebra("dim 3\nparam a\n[1,2] = e3/(a - 1)\n")
        lift = lifted_invariants(g)
        pole = {param_atom("a"): Fraction(1)}
        for route in (lambda: jacobian_rank(lift, param_point=pole),
                      lambda: rank_coadjoint(g, param_point=pole)):
            with pytest.raises(KernelError, match="all sample points were singular"):
                route()
        regular = {param_atom("a"): Fraction(2)}
        assert jacobian_rank(lift, param_point=regular) == 2
        assert rank_coadjoint(g, param_point=regular)[0] == 2

    def test_jacobian_rank_with_every_factor_point_singular_raises(self, monkeypatch):
        def singular(factor, params, rng):
            raise SingularPoint("forced")

        monkeypatch.setattr(frame, "_factor_point", singular)
        with pytest.raises(KernelError, match="all sample points were singular"):
            jacobian_rank(lifted_invariants(heisenberg()), seed=2)

    def test_jacobian_rank_on_pair_rows(self):
        # the frequency-2 rotation rows sample cos/sin of twice a rational
        # angle, which goes through the squaring step of _rotation_power
        for blocks in PAIR_ROWS:
            inst = make_jordan(blocks)
            g = inst.algebra
            rank = jacobian_rank(inst.lifted(), seed=13)
            assert rank == rank_coadjoint(g, seed=13)[0], blocks
            assert rank == g.dim - len(inst.expected_invariants), blocks

    def test_rotation_power_matches_repeated_rotation(self):
        c, s = Fraction(3, 5), Fraction(4, 5)
        rc, rs = Fraction(1), Fraction(0)
        for m in range(7):
            assert frame._rotation_power(c, s, m) == (rc, rs)
            assert frame._rotation_power(c, s, -m) == (rc, -rs)
            rc, rs = rc * c - rs * s, rc * s + rs * c


class TestRandomizedFrameProperties:
    def test_filiform_chain_frames_random_sizes(self):
        rng = random.Random(91)
        for _ in range(5):
            n = rng.randint(4, 7)
            g = filiform(n)
            fr = lifted_invariants(g)
            zero = {a: EXPR_ZERO for a in fr.thetas}
            at0 = [substitute(e, zero) for e in fr.exprs()]
            assert at0 == [coord(i) for i in range(1, n + 1)]
            r, _ = rank_coadjoint(g, seed=rng.randint(0, 99))
            assert jacobian_rank(fr, seed=1) == r
