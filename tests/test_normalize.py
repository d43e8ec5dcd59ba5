"""Parameter elimination: pivoting, rotation pairs, rescaling, functional equivalence."""

import contextlib
import io

import pytest

from lieinv import (
    builtin_instances,
    check_invariant,
    coord,
    eliminate,
    functionally_equivalent,
    lie_algebra,
    lifted_invariants,
    rank_coadjoint,
    rescale_to_polynomial,
)
from lieinv import normalize
from lieinv.cli import EXIT_OK, main as cli_main
from lieinv.expr import (
    EXPR_ZERO,
    KernelError,
    atan_of,
    exp_of,
    expr_str,
    log_of,
    theta,
    theta_atom,
)
from lieinv.families import make_g6_38, make_jordan, make_s1, make_s4
from test_acceptance import PAIR_ROWS


class _Row:
    """A hand-made lifted row: the algebra and the expressions to eliminate."""

    def __init__(self, algebra, exprs):
        self.algebra = algebra
        self._exprs = exprs

    def exprs(self):
        return list(self._exprs)


def heisenberg():
    return lie_algebra(3, {(1, 2): {3: 1}}, name="heisenberg")


class TestBasicElimination:
    def test_heisenberg_single_invariant(self):
        res = eliminate(lifted_invariants(heisenberg()))
        assert res.complete
        assert [expr_str(f) for f in res.invariants] == ["x3"]
        assert res.residual == [] and res.applied_recipes == []

    def test_heisenberg_pivot_records(self):
        res = eliminate(lifted_invariants(heisenberg()))
        assert [p.kind for p in res.pivots] == ["linear", "linear"]
        assert {p.theta for p in res.pivots} == {theta_atom(1), theta_atom(2)}
        # both pivots divided by +-x3, recorded as genericity assumptions
        assert {expr_str(a) for a in res.assumptions} <= {"x3", "-1*x3"}
        solved = {p.theta: p.solution for p in res.pivots}
        assert solved[theta_atom(2)].equals(coord(1) / coord(3))
        assert solved[theta_atom(1)].equals(-coord(2) / coord(3))

    def test_abelian_everything_survives(self):
        g = lie_algebra(3, {})
        res = eliminate(lifted_invariants(g))
        assert res.complete
        assert [expr_str(f) for f in res.invariants] == ["x1", "x2", "x3"]
        assert res.pivots == []

    def test_outputs_are_verified_invariants(self):
        for inst in (
            make_jordan([("jordan", 0, 4)]),
            make_s1(5, 1, 0),
            make_s4(6),
        ):
            res = eliminate(inst.lifted())
            assert res.complete
            for f in res.invariants:
                assert check_invariant(inst.algebra, f).ok


    def test_annihilation_failure_names_the_generators(self, monkeypatch):
        from lieinv.verify import InvariantCheck

        def failing(g, exprs):
            return [InvariantCheck(False, [EXPR_ZERO, coord(3), EXPR_ZERO]) for _ in exprs]

        monkeypatch.setattr(normalize, "check_all", failing)
        with pytest.raises(KernelError, match=r"annihilation by generators \[2\]: x3$"):
            eliminate(lifted_invariants(heisenberg()))


def _linear(f, th, others):
    return normalize._linear(
        f, th, normalize._where(f, th), [normalize._where(h, th) for h in others]
    )


def _exponential(f, th, others):
    return normalize._exponential(
        f, th, normalize._where(f, th), [normalize._where(h, th) for h in others]
    )


_x1, _x2, _x3, _x4 = (coord(i) for i in range(1, 5))
_th1, _th2 = theta(1), theta(2)

# (rule, entry, the other entries, pivot kind and solution or None); th1 is pivoted
PIVOT_ROWS = [
    ("common exp factor", _linear, exp_of(_th1) * (_x1 * _th1 + _x2), [], ("linear", "-1*x2/x1")),
    ("exp generator term", _linear, exp_of(_th1 * log_of(_x3)) * (_x1 * _th1 + _x2), [],
     ("linear", "-1*x2/x1")),
    ("log argument", _linear, _x1 * _th1 + log_of(_x2 + _th1), [], None),
    ("atan argument", _exponential, exp_of(_th1) * _x1 + atan_of(_x2 * _th1), [], None),
    ("explicit power", _exponential, exp_of(_th1) * (_x1 + _th1), [], None),
    ("linear: theta in denominator", _linear, (_x1 * _th1 + _x2) / (_x3 + _th1), [], None),
    ("exp: theta in denominator", _exponential, exp_of(_th1) * _x1 / (_x2 + _th1), [], None),
    ("quadratic in theta", _linear, _x1 * _th1 ** 2 + _x2, [], None),
    ("exp route", _exponential, exp_of(_th1) * _x1 + _x2, [exp_of(2 * _th1) * _x3 + _x4],
     ("exp", "(-1*x2 + 1)/x1")),
    ("W = 0, explicit theta elsewhere", _exponential, exp_of(_th1) * _x1,
     [_x2 * _th1 ** 2 + _x3], ("exp-log", "-1*log(x1)")),
    ("W != 0, explicit theta elsewhere", _exponential, exp_of(_th1) * _x1 + _x2,
     [_x2 * _th1 ** 2 + _x3], None),
    ("W = 0, theta in a log argument elsewhere", _exponential, exp_of(_th1) * _x1,
     [log_of(_x2 + _th1)], None),
    ("W = 0, theta in an exp generator term elsewhere", _exponential, exp_of(_th1) * _x1,
     [exp_of(_th1 * log_of(_x2)) * _x3], None),
    ("quadratic exp base elsewhere", _exponential, exp_of(_th1) * _x1 + _x2,
     [exp_of(_th1 ** 2) * _x3], None),
    ("W = 0, quadratic exp base elsewhere", _exponential, exp_of(_th1) * _x1,
     [exp_of(_th1 ** 2) * _x3], ("exp-log", "-1*log(x1)")),
    ("other theta only", _exponential, exp_of(_th2) * _x1 + _x2, [], None),
]


class TestPivotRules:
    @pytest.mark.parametrize(
        "rule, f, others, want", [row[1:] for row in PIVOT_ROWS], ids=[row[0] for row in PIVOT_ROWS]
    )
    def test_pivot_rule_table(self, rule, f, others, want):
        hit = rule(f, theta_atom(1), others)
        got = None if hit is None else (hit[0].kind, expr_str(hit[0].solution))
        assert got == want

    def test_log_route_end_to_end(self, tmp_path):
        doc = tmp_path / "log_route.lie"
        doc.write_text("dim 4\n[1,4] = -e1\n[2,4] = e1\n[3,4] = 2*e1 - e2\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["invariants", str(doc)])
        assert code == EXIT_OK
        assert out.getvalue() == (
            "invariants found: 2 (rank 2, expected 2)\n"
            "  x1 + x2 - 1\n"
            "  -1*x1*log(x1) - x2*log(x1) + 3*x1 + x3 - 3\n"
            "normalizations:\n"
            "  th1 (linear) = (x1*th2 + 2*x1*th3 - x2*th3 + x4)/x1\n"
            "  th4 (exp-log) = -1*log(x1)\n"
            "generic assumptions: -1*x1 != 0; x1 != 0\n"
            "verified against the coadjoint system: True\n"
        )


class TestChainFamilyOracles:
    def test_zero_block_exact_output(self):
        inst = make_jordan([("jordan", 0, 3)])
        res = eliminate(inst.lifted())
        assert [expr_str(f) for f in res.invariants] == [
            "x1",
            "(x1*x3 - 1/2*x2^2)/x1",
        ]
        assert {expr_str(a) for a in res.assumptions} == {"x1"}

    def test_zero_block_rescales_to_polynomial_basis(self):
        inst = make_jordan([("jordan", 0, 5)])
        res = eliminate(inst.lifted())
        out, notes = rescale_to_polynomial(res.invariants)
        assert notes == []
        assert len(out) == len(inst.expected_invariants) == 4
        for got, want in zip(out, inst.expected_invariants):
            assert got.equals(want)

    def test_nonzero_eigenvalue_no_polynomial_rescale(self):
        inst = make_jordan([("jordan", 1, 3)])
        res = eliminate(inst.lifted())
        assert res.complete and len(res.invariants) == 2
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, inst.algebra, seed=5
        )
        _, notes = rescale_to_polynomial(res.invariants)
        assert notes  # exp factors admit no polynomial form

    def test_real_block_rotation_pair_matches_expected(self):
        inst = make_jordan([("real", 1, 1, 2)], name="R11(5)")
        res = eliminate(inst.lifted())
        assert res.complete
        assert res.applied_recipes == ["rotation-pair(1,2)"]
        assert len(res.invariants) == 3
        for f in res.invariants:
            assert check_invariant(inst.algebra, f).ok
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, inst.algebra, seed=4
        )


class TestRecipes:
    def test_unresolvable_entry_stays_residual(self):
        # quadratic in th1: no pivot applies and no rotation pair exists
        stuck = coord(1) * theta(1) ** 2 + coord(2)
        res = eliminate(_Row(lie_algebra(2, {}), [stuck, coord(1)]))
        assert not res.complete
        assert res.residual == [stuck]
        assert [expr_str(f) for f in res.invariants] == ["x1"]
        assert res.applied_recipes == []

    def test_rotation_pair_completes(self):
        inst = make_g6_38()
        res = eliminate(inst.lifted())
        assert res.complete
        assert res.applied_recipes == ["rotation-pair(2,3)"]
        got = [expr_str(f) for f in res.invariants]
        assert got == ["(x2^2 + x3^2)/x1", "x1*exp(-2*a*atan(x3/x2))"]

    def test_sum_of_squares_on_unrotated_case(self):
        inst = make_g6_38(0)
        res = eliminate(inst.lifted())
        assert res.complete
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, inst.algebra, seed=1
        )


class TestRankGate:
    """Elimination keeps the rank: dim - rank_coadjoint verified invariants."""

    def _check(self, inst, label):
        g = inst.algebra
        res = eliminate(inst.lifted())
        assert res.complete, label
        rank, _ = rank_coadjoint(g, seed=3, param_point=inst.param_point)
        assert res.count == g.dim - rank, label
        assert functionally_equivalent(
            res.invariants,
            inst.expected_invariants,
            g,
            seed=1,
            param_point=inst.param_point,
        ), label

    def test_pair_rows(self):
        for blocks in PAIR_ROWS:
            self._check(make_jordan(blocks), blocks)

    def test_builtin_instances(self):
        for inst in builtin_instances():
            self._check(inst, inst.algebra.name)

    def test_cli_mixed_rotation_row(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(
                ["family", "jordan", "--blocks", "real,1,1,2;jordan,1,2", "--run"]
            )
        assert code == EXIT_OK
        assert "# elimination: complete=True count=5 rank=2" in out.getvalue()


class TestSingularMembers:
    def test_singular_series_uses_log_pivots(self):
        inst = make_s1(5, 1, -3)
        res = eliminate(inst.lifted())
        assert res.complete
        assert "exp" in [p.kind for p in res.pivots]
        assert functionally_equivalent(
            res.invariants,
            inst.expected_invariants,
            inst.algebra,
            seed=2,
            param_point=inst.param_point,
        )

    def test_quotient_powers_series(self):
        inst = make_s4(6)
        res = eliminate(inst.lifted())
        assert res.complete and len(res.invariants) == 2
        assert functionally_equivalent(
            res.invariants, inst.expected_invariants, inst.algebra, seed=3
        )


class TestFunctionalEquivalence:
    def test_positive_cases(self):
        inst = make_jordan([("jordan", 0, 3)])
        g = inst.algebra
        a, b = inst.expected_invariants
        # generated sets: {a, b} vs {a + b^2, b} are equivalent
        assert functionally_equivalent([a, b], [a + b * b, b], g, seed=7)
        assert functionally_equivalent([a, b], [b, a], g, seed=7)

    def test_negative_cases(self):
        inst = make_jordan([("jordan", 0, 3)])
        g = inst.algebra
        a, b = inst.expected_invariants
        assert not functionally_equivalent([a], [a, b], g, seed=7)
        assert not functionally_equivalent([a, b], [a, coord(2)], g, seed=7)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_fewer_than_one_trial(self, trials):
        inst = make_jordan([("jordan", 0, 3)])
        a, b = inst.expected_invariants
        with pytest.raises(ValueError, match="trials must be at least 1, got %d" % trials):
            functionally_equivalent([a, b], [b, a], inst.algebra, seed=7, trials=trials)
        assert functionally_equivalent([a, b], [b, a], inst.algebra, seed=7, trials=1)

    def test_samples_the_parameters_without_a_point(self):
        inst = make_g6_38()
        res = eliminate(inst.lifted())
        expected = inst.expected_invariants
        assert functionally_equivalent(res.invariants, expected, inst.algebra, seed=3)
        assert not functionally_equivalent(res.invariants, expected[:1], inst.algebra, seed=3)

    def test_respects_parameter_point(self):
        inst = make_s1(5, 1, -3)
        assert functionally_equivalent(
            inst.expected_invariants,
            inst.expected_invariants,
            inst.algebra,
            seed=9,
            param_point=inst.param_point,
        )


class TestRescale:
    def test_explicit_scaler(self):
        f = (coord(1) * coord(3) - coord(2) ** 2) / coord(1) ** 2
        out, notes = rescale_to_polynomial([coord(1), f])
        assert notes == []
        assert out[1].equals(coord(1) * coord(3) - coord(2) ** 2)

    def test_already_polynomial_passthrough(self):
        fs = [coord(1), coord(1) * coord(2)]
        out, notes = rescale_to_polynomial(fs)
        assert notes == [] and [expr_str(f) for f in out] == ["x1", "x1*x2"]

    def test_unclearable_reports_note(self):
        f = coord(2) / coord(1)
        out, notes = rescale_to_polynomial([f])
        assert out[0].equals(f)
        assert len(notes) == 1
