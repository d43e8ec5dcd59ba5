"""Structure-constant layer: construction, validation, series, coadjoint data."""

import random
from fractions import Fraction

import pytest

from lieinv import (
    center,
    coord,
    is_nilpotent,
    is_solvable,
    jacobi_defects,
    lie_algebra,
    num_invariants,
    param,
    rank_coadjoint,
    validate,
)
from lieinv import algebra
from lieinv.algebra import StructureError, derived_series, lower_central_series
from lieinv.expr import KernelError, SingularPoint, coord_atom, evaluate, expr_str, param_atom, rational
from lieinv.families import builtin_instances, make_jordan, make_t0
from lieinv.io import load_algebra
from lieinv.linalg import rank_exprs
from test_acceptance import PAIR_ROWS, _jacobi_fails_oracle


def heisenberg():
    return lie_algebra(3, {(1, 2): {3: 1}}, name="heisenberg")


def so3():
    return lie_algebra(
        3, {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}, name="so3"
    )


def borel2():
    # [e1, e2] = e2: solvable, non-nilpotent
    return lie_algebra(2, {(1, 2): {2: 1}}, name="borel2")


def random_nilpotent(rng, n):
    """Random algebra with brackets dropping strictly in index: always Jacobi-consistent
    for n <= 3 is not guaranteed in general, so build from a filiform chain."""
    entries = {}
    for k in range(2, n):
        entries[(k, n)] = {k - 1: rng.randint(1, 3)}
    return lie_algebra(n, entries)


class TestConstruction:
    def test_bracket_dict_and_antisymmetry(self):
        h = heisenberg()
        assert {k: expr_str(v) for k, v in h.bracket(1, 2).items()} == {3: "1"}
        assert {k: expr_str(v) for k, v in h.bracket(2, 1).items()} == {3: "-1"}
        assert h.bracket(1, 1) == {}
        assert h.bracket(1, 3) == {}

    def test_coefficient_coercion(self):
        g = lie_algebra(3, {(1, 2): {3: Fraction(1, 2)}})
        assert expr_str(g.bracket(1, 2)[3]) == "1/2"
        gp = lie_algebra(3, {(1, 2): {3: param("a")}}, params=("a",))
        assert expr_str(gp.bracket(1, 2)[3]) == "a"

    def test_ad_matrix_columns_are_brackets(self):
        g = so3()
        for i in range(1, 4):
            ad = g.ad_matrix(i)
            for j in range(1, 4):
                col = {k + 1: ad.rows[k][j - 1] for k in range(3)}
                expect = g.bracket(i, j)
                for k in range(1, 4):
                    want = expect.get(k)
                    got = col[k]
                    if want is None:
                        assert got.is_zero()
                    else:
                        assert got.equals(want)

    def test_structure_matrix_antisymmetric_linear(self):
        g = so3()
        m = g.structure_matrix()
        for i in range(3):
            assert m.rows[i][i].is_zero()
            for j in range(3):
                assert (m.rows[i][j] + m.rows[j][i]).is_zero()
        assert expr_str(m.rows[0][1]) == "x3"

    def test_coadjoint_fields_encode_structure(self):
        h = heisenberg()
        fields = h.coadjoint_fields()
        # [e1, e2] = e3 contributes x3 d/dx2 to the first field
        assert expr_str(fields[0][1]) == "x3"
        assert fields[2] == [f for f in fields[2] if f.is_zero()] or all(
            f.is_zero() for f in fields[2]
        )

    def test_bad_indices_rejected(self):
        with pytest.raises(StructureError):
            lie_algebra(3, {(1, 5): {3: 1}})
        with pytest.raises(StructureError):
            lie_algebra(3, {(2, 2): {3: 1}})

    def test_bracket_vectors_bilinear(self):
        g = so3()
        u = [rational(1), rational(2), rational(0)]
        v = [rational(0), rational(1), rational(3)]
        w = g.bracket_vectors(u, v)
        # [u, v] for so3 cross-product-like table
        direct = [
            g.bracket(i, j)
            for i in range(1, 4)
            for j in range(1, 4)
        ]
        assert len(w) == 3
        # antisymmetry of the bilinear extension
        wv = g.bracket_vectors(v, u)
        for a, b in zip(w, wv):
            assert (a + b).is_zero()


class TestValidation:
    def test_valid_algebras_report_clean(self):
        for g in (heisenberg(), so3(), borel2()):
            assert validate(g) == []
            assert jacobi_defects(g) == []

    def test_jacobi_violation_detected_and_located(self):
        bad = lie_algebra(3, {(1, 2): {3: 1}, (1, 3): {2: 1}, (2, 3): {3: 1}})
        defects = jacobi_defects(bad)
        assert len(defects) == 1
        i, j, k, res = defects[0]
        assert (i, j, k) == (1, 2, 3)
        assert expr_str(res[2]) == "-1"
        report = validate(bad)
        assert len(report) == 1 and "jacobi" in report[0]

    def test_mutation_detection_matches_independent_oracle(self):
        # perturb structure constants of valid algebras and compare the
        # validator's verdict against a direct cyclic-sum computation
        rng = random.Random(59)
        bases = [heisenberg(), so3(), borel2(), random_nilpotent(rng, 5)]
        checked = flagged = 0
        for _ in range(100):
            base = rng.choice(bases)
            n = base.dim
            entries = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    vec = {
                        k: Fraction(expr_str_to_int(v))
                        for k, v in base.bracket(i, j).items()
                    }
                    if vec:
                        entries[(i, j)] = dict(vec)
            i = rng.randint(1, n - 1)
            j = rng.randint(i + 1, n)
            k = rng.randint(1, n)
            delta = rng.choice([-2, -1, 1, 2])
            tgt = entries.setdefault((i, j), {})
            tgt[k] = tgt.get(k, 0) + delta
            if tgt[k] == 0:
                del tgt[k]
            mutated = lie_algebra(n, entries)
            oracle_defect = oracle_jacobi_fails(mutated)
            verdict = bool(validate(mutated))
            assert verdict == oracle_defect
            checked += 1
            flagged += verdict
        assert checked == 100
        assert flagged > 0  # the mutations do produce genuine violations


def expr_str_to_int(e):
    return int(expr_str(e))


def oracle_jacobi_fails(g):
    """Direct cyclic-sum Jacobi check via bracket_vectors, independent of
    jacobi_defects' index bookkeeping."""
    n = g.dim
    basis = []
    for i in range(n):
        basis.append([rational(1) if t == i else rational(0) for t in range(n)])

    def bk(u, v):
        return g.bracket_vectors(u, v)

    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = [rational(0)] * n
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = bk(basis[u], basis[v])
                    outer = bk(inner, basis[w])
                    total = [a + b for a, b in zip(total, outer)]
                if any(not t.is_zero() for t in total):
                    return True
    return False


def _cyclic_residuals(g):
    """Every nonzero Jacobi cyclic sum over i < j < k through bracket_vectors."""
    n = g.dim
    basis = [[rational(1 if t == i else 0) for t in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [rational(0)] * n
                for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = g.bracket_vectors(basis[u], basis[v])
                    total = [a + b for a, b in zip(total, g.bracket_vectors(inner, basis[w]))]
                res = {t + 1: expr_str(c) for t, c in enumerate(total) if not c.is_zero()}
                if res:
                    out.append((i + 1, j + 1, k + 1, res))
    return out


def _random_semidirect(rng, n):
    """An abelian ideal e1..e_{n-1} acted on by e_n through a random matrix."""
    entries = {}
    for j in range(1, n):
        col = {k: rng.randint(-2, 2) for k in range(1, n) if rng.random() < 0.5}
        entries[(n, j)] = col
    return lie_algebra(n, entries)


class TestJacobiDefectsDifferential:
    def test_matches_cyclic_sums_on_random_algebras(self):
        rng = random.Random(1511)
        pool = [inst.algebra for inst in builtin_instances() if inst.algebra.dim <= 7]
        flagged = clean = 0
        for trial in range(120):
            if trial % 3 == 0:
                g = _random_semidirect(rng, rng.randint(3, 6))
            else:
                g = rng.choice(pool)
            if trial % 2:
                # perturb one structure constant, by a parameter half the time
                entries = {ij: dict(row) for ij, row in g.brackets.items()}
                i = rng.randint(1, g.dim - 1)
                j = rng.randint(i + 1, g.dim)
                k = rng.randint(1, g.dim)
                delta = param("b") if rng.random() < 0.5 else rational(rng.choice([-1, 1, 2]))
                row = entries.setdefault((i, j), {})
                row[k] = row.get(k, rational(0)) + delta
                g = lie_algebra(g.dim, entries, params=g.params + ("b",))
            defects = jacobi_defects(g)
            got = [(i, j, k, {t: expr_str(c) for t, c in res.items()}) for i, j, k, res in defects]
            assert got == _cyclic_residuals(g), g.name
            assert bool(defects) is _jacobi_fails_oracle(g), g.name
            assert len(validate(g)) == len(defects)
            flagged += bool(defects)
            clean += not defects
        assert flagged > 20 and clean > 20


class TestSeriesAndClasses:
    def test_heisenberg_is_nilpotent(self):
        h = heisenberg()
        assert is_nilpotent(h) and is_solvable(h) and h.brackets
        assert lower_central_series(h) == [3, 1, 0]
        assert derived_series(h) == [3, 1, 0]

    def test_borel_solvable_not_nilpotent(self):
        b = borel2()
        assert is_solvable(b) and not is_nilpotent(b)
        assert derived_series(b) == [2, 1, 0]
        assert lower_central_series(b)[-1] == 1  # stabilizes at dim 1

    def test_so3_is_neither(self):
        g = so3()
        assert not is_solvable(g) and not is_nilpotent(g)
        assert derived_series(g) == [3, 3]

    def test_abelian(self):
        a = lie_algebra(4, {})
        assert not a.brackets and is_nilpotent(a) and is_solvable(a)
        assert lower_central_series(a) == [4, 0]

    def test_center_dimensions(self):
        assert len(center(heisenberg())) == 1
        assert len(center(so3())) == 0
        assert len(center(lie_algebra(2, {}))) == 2
        vec = center(heisenberg())[0]
        assert [expr_str(c) for c in vec] == ["0", "0", "1"]


class TestCoadjointRank:
    def test_known_ranks(self):
        assert rank_coadjoint(heisenberg(), seed=1)[0] == 2
        assert rank_coadjoint(so3(), seed=1)[0] == 2
        assert rank_coadjoint(lie_algebra(3, {}), seed=1)[0] == 0
        assert num_invariants(heisenberg(), seed=1) == 1
        assert num_invariants(so3(), seed=1) == 1

    def test_rank_witness_certifies(self):
        g = so3()
        r, witness = rank_coadjoint(g, seed=4)
        assert r == 2
        assert witness is not None

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1, got %d" % trials):
            rank_coadjoint(heisenberg(), seed=1, trials=trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            num_invariants(heisenberg(), seed=1, trials=trials)
        assert rank_coadjoint(heisenberg(), seed=1, trials=1)[0] == 2

    def test_rank_is_even(self):
        # the structure matrix is antisymmetric, so ranks are even
        rng = random.Random(73)
        for n in (3, 4, 5):
            g = random_nilpotent(rng, n)
            r, _ = rank_coadjoint(g, seed=9)
            assert r % 2 == 0

    def test_direct_sum_adds_invariant_counts(self):
        rng = random.Random(83)
        for _ in range(6):
            g1 = rng.choice([heisenberg(), so3(), borel2()])
            g2 = rng.choice([heisenberg(), lie_algebra(2, {}), borel2()])
            off = g1.dim
            entries = dict(g1.brackets)
            for (i, j), coeffs in g2.brackets.items():
                entries[(i + off, j + off)] = {k + off: c for k, c in coeffs.items()}
            s = lie_algebra(g1.dim + g2.dim, entries)
            assert s.dim == g1.dim + g2.dim
            assert validate(s) == []
            n1 = num_invariants(g1, seed=5)
            n2 = num_invariants(g2, seed=5)
            assert num_invariants(s, seed=5) == n1 + n2


def reference_rank(g, seed=0, trials=8, param_point=None):
    """rank_coadjoint by the Expr route: g.structure_matrix() with every
    entry evaluated at the point, rank_exprs over Q, and sampling stopped
    only at full rank.  Same draws, in the same order, as rank_coadjoint."""
    rng = random.Random(seed)
    smat = g.structure_matrix()
    n = g.dim
    best, witness = -1, None
    for _ in range(trials):
        point = {coord_atom(i): algebra.sample_fraction(rng) for i in range(1, n + 1)}
        for p in g.params:
            a = param_atom(p)
            if param_point and a in param_point:
                point[a] = Fraction(param_point[a])
            else:
                point[a] = algebra.sample_fraction(rng)
        try:
            rows = smat.map(lambda v: evaluate(v, point)).rows
        except SingularPoint:
            continue
        r = rank_exprs(rows)
        if r > best:
            best = r
            witness = {i: point[coord_atom(i)] for i in range(1, n + 1)}
        if best == n:
            break
    if best < 0:
        raise KernelError("all sample points were singular")
    return best, witness


RANK_INSTANCES = builtin_instances() + [make_jordan(blocks) for blocks in PAIR_ROWS]

# 1/(a - 1) has a pole at a = 1; Jacobi holds: [[e1,e2],e3] + [[e3,e1],e2] = 0
POLE_DOC = "dim 3\nparam a\n[1,2] = e3/(a - 1)\n[1,3] = -e2\n"


class TestCoadjointRankFromBrackets:
    """rank_coadjoint reads C(x) from g.brackets and stops at the even bound."""

    @pytest.mark.parametrize(
        "inst", RANK_INSTANCES, ids=[inst.algebra.name or str(k) for k, inst in enumerate(RANK_INSTANCES)]
    )
    def test_matches_the_expr_route(self, inst):
        g = inst.algebra
        for seed in range(5):
            for point in (None, inst.param_point):
                got = rank_coadjoint(g, seed=seed, param_point=point)
                assert got == reference_rank(g, seed=seed, param_point=point), (seed, point)

    @pytest.mark.parametrize("inst, draws", [
        # t0(4): the corner matrix unit is central, m = 5; rank 4 = 2*floor(5/2) at the first point
        (make_t0(4), 6),
        # t0(5): the corner matrix unit is central, m = 9; rank 8 = 2*floor(9/2) at the first point
        (make_t0(5), 10),
        # J0(5): m = 5 but the rank is 2 < 4, so all 8 trials run
        (make_jordan([("jordan", 0, 4)]), 8 * 5),
    ])
    def test_sampling_stops_at_the_even_bound(self, monkeypatch, inst, draws):
        real = algebra.sample_fraction
        calls = []
        monkeypatch.setattr(algebra, "sample_fraction", lambda rng: calls.append(1) or real(rng))
        rank_coadjoint(inst.algebra, seed=0)
        assert len(calls) == draws

    def test_singular_points_are_skipped(self, monkeypatch):
        g = load_algebra(POLE_DOC)
        real = algebra.sample_fraction
        results = []
        for route in (rank_coadjoint, reference_rank):
            # x1..x3, then a at its pole; later draws are the seeded ones
            draws = iter([Fraction(2), Fraction(3), Fraction(5), Fraction(1)])
            monkeypatch.setattr(algebra, "sample_fraction", lambda rng: next(draws, None) or real(rng))
            results.append(route(g, seed=3))
        assert results[0] == results[1]
        rank, witness = results[0]
        assert rank == 2
        assert witness != {1: 2, 2: 3, 3: 5}

    def test_pole_at_the_parameter_point_raises(self):
        g = load_algebra(POLE_DOC)
        point = {param_atom("a"): Fraction(1)}
        for route in (rank_coadjoint, reference_rank):
            with pytest.raises(KernelError, match="all sample points were singular"):
                route(g, seed=0, param_point=point)
        assert rank_coadjoint(g, seed=0, param_point={param_atom("a"): Fraction(2)}) == (
            reference_rank(g, seed=0, param_point={param_atom("a"): Fraction(2)})
        )
