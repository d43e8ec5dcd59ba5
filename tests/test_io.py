"""Text and JSON formats: expression grammar, algebra documents, LaTeX."""

import json
import random

import pytest
import sympy

from lieinv import lie_algebra
from lieinv.algebra import StructureError
from lieinv.expr import ZeroDivision, coord, expr_str, param, rational, theta
from lieinv.families import builtin_instances, make_g6_38, make_jordan, make_t0
from lieinv.io import (
    ParseError,
    algebra_from_json,
    expr_latex,
    load_algebra,
    parse_algebra,
    parse_expr,
    render_algebra,
)
from test_acceptance import PAIR_ROWS

SO3_DOC = "dim 3\n[1,2] = e3\n[1,3] = -e2\n[2,3] = e1\n"
SO3_JSON = {"dim": 3, "brackets": [[1, 2, [[3, "1"]]], [1, 3, [[2, "-1"]]], [2, 3, [[1, "1"]]]]}


class TestExpressionGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "x1",
            "-3/4",
            "x1*x3 - 1/2*x2^2",
            "th1 + x2^-2",
            "exp(-2*a*atan(x3/x2))",
            "log(x1) + cos(th2)*sin(th2)",
            "(x1 + x2)^3/(x1 - x2)",
            "x1*exp(-1*x2/x1)",
        ],
    )
    def test_parse_print_round_trip(self, text):
        f = parse_expr(text)
        s = expr_str(f)
        again = parse_expr(s)
        assert (f - again).is_zero()
        assert expr_str(again) == s

    def test_round_trip_on_shipped_expressions(self):
        for inst in builtin_instances():
            for f in inst.expected_invariants:
                s = expr_str(f)
                again = parse_expr(s)
                assert (f - again).is_zero(), s
                assert expr_str(again) == s

    def test_round_trip_on_lifted_sets(self):
        for inst in (make_t0(4), make_g6_38()):
            for f in inst.lifted().exprs():
                s = expr_str(f)
                again = parse_expr(s)
                assert (f - again).is_zero(), s

    def test_names_map_to_atom_kinds(self):
        assert parse_expr("x2").equals(coord(2))
        assert parse_expr("th4").equals(theta(4))
        assert parse_expr("alpha").equals(param("alpha"))

    def test_rational_powers_and_simplification(self):
        assert expr_str(parse_expr("2^3")) == "8"
        assert expr_str(parse_expr("log(x1*x2)")) == "log(x1) + log(x2)"

    @pytest.mark.parametrize(
        "text,printed",
        [
            ("2*-x1^2", "-2*x1^2"),
            ("x2 - -x1^2", "x1^2 + x2"),
            ("x1/-x2^2", "-1*x1/(x2^2)"),
            ("2*-2^2", "-8"),
            ("x1*x3 + -x2^2/2", "x1*x3 - 1/2*x2^2"),
            ("2*+x1", "2*x1"),
        ],
    )
    def test_a_sign_binds_looser_than_a_power(self, text, printed):
        assert expr_str(parse_expr(text)) == printed

    @pytest.mark.parametrize(
        "text",
        [
            "", "x1 +", "((x1)", "foo(x1)", "x1^x2", "1/0", "log(0)", "x1 $ x2",
            pytest.param("(" * 400 + "x1" + ")" * 400, id="400-parentheses"),
            pytest.param("-" * 3000 + "x1", id="3000-signs"),
            pytest.param("1" * 5000, id="5000-digits"),
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_expr(text)

    def test_agrees_with_sympy_on_signs_and_powers(self):
        rng = random.Random(2006)
        symbols = {name: sympy.Symbol(name) for name in SIGNED_ATOMS[:5]}
        for _ in range(300):
            text = signed_text(rng, 2)
            theirs = sympy.parse_expr(text.replace("^", "**"), local_dict=symbols)
            try:
                ours = parse_expr(text)
            except ParseError as err:
                # the one rejection is a zero denominator; sympy reads it as zoo,
                # which a later ^0 may absorb
                assert isinstance(err.__cause__, ZeroDivision), text
                continue
            mine = sympy.parse_expr(expr_str(ours).replace("^", "**"), local_dict=symbols)
            assert sympy.cancel(mine - theirs) == 0, text


SIGNED_ATOMS = ["x1", "x2", "x3", "a", "th1", "0", "1", "2", "3"]


def signed_text(rng, depth):
    """Seeded expression text without calls: signs after operators, negative exponents."""
    sign = rng.choice(["", "", "-", "+", "--", "-+"])
    if depth and rng.random() < 0.3:
        operand = "(%s)" % signed_text(rng, depth - 1)
    else:
        operand = rng.choice(SIGNED_ATOMS)
    if rng.random() < 0.4:
        operand += "^%s%d" % (rng.choice(["", "-"]), rng.randint(0, 3))
    text = sign + operand
    for _ in range(rng.randint(0, 3) if depth else 0):
        text += rng.choice([" + ", " - ", "*", "/"]) + signed_text(rng, depth - 1)
    return text


class TestAlgebraDocuments:
    def test_parse_well_formed(self):
        g = parse_algebra(SO3_DOC)
        assert g.dim == 3
        assert {k: expr_str(v) for k, v in g.bracket(2, 3).items()} == {1: "1"}
        assert {k: expr_str(v) for k, v in g.bracket(1, 3).items()} == {2: "-1"}

    def test_comments_semicolons_blank_lines(self):
        doc = "# chain algebra\ndim 3; [1,2] = e3\n\n# done\n"
        g = parse_algebra(doc)
        assert g.dim == 3
        assert expr_str(g.bracket(1, 2)[3]) == "1"

    def test_parameters_and_names(self):
        doc = "name twisted\ndim 3\nparam a\n[1,2] = a*e3\n"
        g = parse_algebra(doc)
        assert g.name == "twisted"
        assert g.params == ("a",)
        assert g.bracket(1, 2)[3].equals(param("a"))

    def test_coefficient_grammar(self):
        doc = "dim 4\nparam a\n[1,2] = 2*e3 - e4\n[1,3] = (a + 1)*e4\n"
        g = parse_algebra(doc)
        assert expr_str(g.bracket(1, 2)[3]) == "2"
        assert expr_str(g.bracket(1, 2)[4]) == "-1"
        assert g.bracket(1, 3)[4].equals(param("a") + rational(1))

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("dim 3\ndim 4\n[1,2] = e3", "duplicate dim"),
            ("dim 3\n[1,7] = e3", "index out of range"),
            ("dim 3\n[2,2] = e3", "itself"),
            ("dim 3\n[2,1] = e3", "i < j"),
            ("dim 3\n[1,2] = e3\n[1,2] = e3", "duplicate bracket"),
            ("dim 3\n[1,2] = e1*e2", "linear"),
            ("dim 3\n[1,2] = e3/e1", "denominator"),
            ("[1,2] = e3", "before dim"),
            ("dim 3\nparam _basis3\n[1,2] = _basis3", "linear"),
            ("dim 3\n[1,2] = x1*e3", "coefficient x1 of e3"),
            ("dim 3\n[1,2] = e3/x1", "coefficient 1/x1 of e3"),
            ("dim 3\n[1,2] = e3*th1", "coefficient th1 of e3"),
            ("dim 3\n[1,2] = b*e3", "coefficient b of e3"),
            ("dim 3\n[1,2] = exp(1)*e3", "of e3 is not a rational function"),
            ("dim 3\n[1,2] = log(2)*e3", "of e3 is not a rational function"),
            ("dim 3\n[1,2] = e7", "e7 is not a basis symbol of the 3-dimensional"),
            ("dim 3\n[1,2] = e3 + e03", "linear"),
            ("dim 3\nparam x1\n[1,2] = x1*e3", "reserved"),
            ("dim 3\nparam e2\n[1,2] = e3", "reserved"),
            ("dim 3\nparam th1\n[1,2] = e3", "reserved"),
        ],
    )
    def test_document_errors_carry_line_numbers(self, doc, fragment):
        with pytest.raises(ParseError) as exc:
            parse_algebra(doc)
        assert "line" in str(exc.value)
        assert fragment in str(exc.value)

    def test_inconsistent_structure_rejected(self):
        with pytest.raises(StructureError) as exc:
            parse_algebra("dim 3\n[1,2] = e3\n[1,3] = e2\n[2,3] = e3")
        assert "jacobi" in str(exc.value)

    def test_render_parse_round_trip(self):
        algebras = [inst.algebra for inst in builtin_instances()]
        algebras += [make_jordan(blocks).algebra for blocks in PAIR_ROWS]
        for g in algebras:
            g2 = parse_algebra(render_algebra(g))
            assert g2.dim == g.dim
            assert g2.params == g.params
            for i in range(1, g.dim + 1):
                for j in range(i + 1, g.dim + 1):
                    assert g2.bracket(i, j) == g.bracket(i, j)

    def test_later_parameter_declaration(self):
        g = parse_algebra("dim 3\n[1,2] = a*e3\nparam a\n")
        assert g.bracket(1, 2)[3] == param("a")


class TestJson:
    def test_round_trip_with_parameters(self):
        g = make_g6_38().algebra
        payload = {
            "dim": 6,
            "name": "g6.38",
            "params": ["a"],
            "brackets": [
                [1, 6, [[1, "2*a"]]],
                [2, 6, [[2, "a"], [3, "-1"]]],
                [3, 6, [[2, "1"], [3, "a"]]],
                [4, 5, [[1, "1"]]],
                [4, 6, [[2, "1"], [4, "a"], [5, "-1"]]],
                [5, 6, [[3, "1"], [4, "1"], [5, "a"]]],
            ],
        }
        g2 = algebra_from_json(payload)
        assert g2.params == ("a",)
        for i in range(1, 7):
            for j in range(i + 1, 7):
                a, b = g.bracket(i, j), g2.bracket(i, j)
                assert set(a) == set(b)
                for k in a:
                    assert a[k].equals(b[k])

    @pytest.mark.parametrize(
        "coeff,fragment",
        [("x1", "coefficient x1 of e3"), ("b", "coefficient b of e3")],
    )
    def test_rejects_non_scalar_coefficients(self, coeff, fragment):
        doc = {"dim": 3, "params": ["a"], "brackets": [[1, 2, [[3, coeff]]]]}
        with pytest.raises(ParseError) as exc:
            algebra_from_json(doc)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ({"dim": "3", "brackets": [[1, 2, [[3, "1"]]]]}, 'dim must be an integer, not "3"'),
            ({"dim": 3.0, "brackets": []}, "dim must be an integer, not 3.0"),
            ({"dim": True}, "dim must be an integer, not true"),
            ({"brackets": []}, "dim must be an integer, not null"),
            ({"dim": 3, "params": "ab"}, 'params must be a list, not "ab"'),
            ({"dim": 3, "brackets": [[1, 2, [["3", "1"]]]]}, 'basis index must be an integer, not "3"'),
            ({"dim": 3, "brackets": [["1", 2, [[3, "1"]]]]}, 'bracket index must be an integer, not "1"'),
            ({"dim": 3, "brackets": [[1, 2]]}, "a bracket must be [i, j, terms], not [1, 2]"),
            ({"dim": 3, "brackets": [[1, 2, [[3]]]]}, "a term must be [k, coefficient], not [3]"),
            ({"dim": 3, "brackets": [[1, 2, [[3, 1]]]]}, "a coefficient must be a string, not 1"),
            (
                {"dim": 3, "brackets": [[1, 2, [[3, "1"], [3, "2"]]]]},
                "duplicate basis index 3 in [1,2]",
            ),
            (
                {"dim": 3, "brackets": [[1, 2, [[3, "1"]]], [1, 2, [[3, "2"]]]]},
                "duplicate bracket [1,2]",
            ),
            ({"dim": 3, "bracket": [[1, 2, [[3, "1"]]]]}, 'unknown key "bracket"'),
            ({"dim": 3, "name": [1, 2]}, "name must be a string, not [1, 2]"),
        ],
    )
    def test_rejects_malformed_documents(self, doc, fragment):
        for source in (doc, json.dumps(doc)):
            with pytest.raises(ParseError) as exc:
                load_algebra(source) if isinstance(source, str) else algebra_from_json(source)
            assert fragment in str(exc.value)

    def test_rejects_malformed_json_text(self):
        with pytest.raises(ParseError) as exc:
            load_algebra('{"dim": 3,')
        assert str(exc.value).startswith("malformed JSON")

    def test_load_autodetects_format(self):
        blob = json.dumps(SO3_JSON)
        for source in (SO3_DOC, blob, "  \n" + blob):
            g = load_algebra(source)
            assert g.dim == 3
            assert expr_str(g.bracket(1, 2)[3]) == "1"


class TestLatex:
    def test_expression_forms(self):
        assert (
            expr_latex(parse_expr("x1*x3 - 1/2*x2^2"))
            == "x_{1} x_{3} - \\tfrac{1}{2} x_{2}^{2}"
        )
        out = expr_latex(parse_expr("x1*exp(-2*a*atan(x3/x2))"))
        assert "e^{" in out and "\\arctan" in out

    def test_theta_and_functions(self):
        out = expr_latex(parse_expr("cos(th6)*x2 - sin(th6)*x3"))
        assert "\\cos" in out and "\\sin" in out and "\\theta_{6}" in out
        assert "\\ln" in expr_latex(parse_expr("log(x1)"))
