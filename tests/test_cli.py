"""Command-line interface: subcommands, exit codes, formats, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from lieinv.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_OK,
    EXIT_RECIPE,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from lieinv.expr import expr_str
from lieinv.families import make_jordan, make_t0
from lieinv.io import parse_expr, render_algebra
from lieinv.normalize import functionally_equivalent

SO3_DOC = "dim 3\n[1,2] = e3\n[1,3] = -e2\n[2,3] = e1\n"
HEIS_DOC = "dim 3\n[1,2] = e3\n"
BAD_DOC = "dim 3\n[1,2] = e3\n[1,3] = e2\n[2,3] = e3\n"
REAL_DOC = (
    "dim 3\n"
    "[1,3] = e1 - e2\n"
    "[2,3] = e1 + e2\n"
)
IRRATIONAL_DOC = "dim 3\n[1,3] = e2\n[2,3] = -2*e1\n"
COUPLED_DOC = "dim 3\n[1,3] = e1\n[2,3] = e1 + 2*e2\n"
MIXED_DOC = "dim 4\n[1,4] = e1\n[2,4] = e1 + e2 - e3\n[3,4] = e2 + e3\n"

# Output of `family t0 --n N --run` from its "# elimination:" line to the end.
T0_RUN_TAILS = {
    5: (
        "# elimination: complete=True count=2 rank=8\n"
        "#   x4\n"
        "#   (-1*x3*x7 + x4*x6)/x4\n"
        "# generic assumptions: -1*x2 != 0; -1*x3 != 0; -1*x4 != 0; (-1*x3*x7 + "
        "x4*x6)/x3 != 0; x4 != 0; (x3^2*x7 - x3*x4*x6)/(x2*x4) != 0\n"
    ),
    6: (
        "# elimination: complete=True count=3 rank=12\n"
        "#   x5\n"
        "#   (-1*x4*x9 + x5*x8)/x5\n"
        "#   (x3*x8*x12 - x3*x9*x11 - x4*x7*x12 + x4*x9*x10 + x5*x7*x11 - "
        "x5*x8*x10)/(x4*x9 - x5*x8)\n"
        "# generic assumptions: -1*x2 != 0; -1*x3 != 0; -1*x4 != 0; -1*x5 != 0; "
        "(-1*x3*x8 + x4*x7)/x3 != 0; (-1*x4*x9 + x5*x8)/x4 != 0; x5 != 0; (x3*x4*x9 - "
        "x3*x5*x8)/(x2*x5) != 0; (x4^2*x9 - x4*x5*x8)/(x3*x5) != 0\n"
    ),
    7: (
        "# elimination: complete=True count=3 rank=18\n"
        "#   x6\n"
        "#   (-1*x5*x11 + x6*x10)/x6\n"
        "#   (x4*x10*x15 - x4*x11*x14 - x5*x9*x15 + x5*x11*x13 + x6*x9*x14 - "
        "x6*x10*x13)/(x5*x11 - x6*x10)\n"
        "# generic assumptions: -1*x2 != 0; -1*x3 != 0; -1*x4 != 0; -1*x5 != 0; -1*x6 "
        "!= 0; (-1*x3*x9 + x4*x8)/x3 != 0; (-1*x4*x10 + x5*x9)/x4 != 0; (-1*x5*x11 + "
        "x6*x10)/x5 != 0; x6 != 0; (-1*x4*x10*x15 + x4*x11*x14 + x5*x9*x15 - x5*x11*x13 "
        "- x6*x9*x14 + x6*x10*x13)/(x4*x10 - x5*x9) != 0; (x3*x5*x11 - "
        "x3*x6*x10)/(x2*x6) != 0; (x4^2*x10^2*x15 - x4^2*x10*x11*x14 - "
        "2*x4*x5*x9*x10*x15 + x4*x5*x9*x11*x14 + x4*x5*x10*x11*x13 + x4*x6*x9*x10*x14 - "
        "x4*x6*x10^2*x13 + x5^2*x9^2*x15 - x5^2*x9*x11*x13 - x5*x6*x9^2*x14 + "
        "x5*x6*x9*x10*x13)/(x3*x5*x9*x11 - x3*x6*x9*x10 - x4*x5*x8*x11 + x4*x6*x8*x10) "
        "!= 0; (x4*x5*x11 - x4*x6*x10)/(x3*x6) != 0; (x5^2*x11 - x5*x6*x10)/(x4*x6) != "
        "0\n"
    ),
}

# sha256 of the stdout of `--seed 1 family ARGS --run` for the 21 mid-sized
# solvable instances (J0, s1-s4, the mixed Jordan/rotation rows and g6.38).
SOLVABLE_RUN_SHA256 = {
    "jordan --blocks jordan,0,5": (
        "df3860c5a286f337c1e336b288d0cbeff8a49e80db5cd99643555ec86fde8685"
    ),
    "jordan --blocks jordan,0,7": (
        "1066586d078d54d6a2cf69a56d74c2dd1d70c3add6326ebe885da1ff0a1ee6bd"
    ),
    "jordan --blocks jordan,0,9": (
        "aa21ae7d11832e0b2a4bdff66d02d90cd7159bfb891400fc15be0f3b5e61571c"
    ),
    "jordan --blocks jordan,0,11": (
        "3aa8b4919842ef9d67ee1e53bdae71aae453d4db8165d524bd3ef674179dace2"
    ),
    "jordan --blocks jordan,0,13": (
        "91795fca6fbc5635bf0624a54e9dc45d48f95b8083c57ba54401d130a520ead5"
    ),
    "s1 --n 6 --alpha 1 --beta 0": (
        "0776396a26ec7510761006858f83277a63713d0576c6736f2d9faa68d3446e51"
    ),
    "s1 --n 6 --alpha 0 --beta 1": (
        "cf8a435d93fd5b7431f3046a163554493ac704b348f985bcb9294c90bfb6cdf7"
    ),
    "s2 --n 6": (
        "49b35b5331d8def9de3f7e0239207fab286d2373478cf7017b22902caf9ea727"
    ),
    "s3 --n 6": (
        "b7d02d03e3b3391745a42b0c65a32ae59032613c3320dd06279fb2a55d1830dd"
    ),
    "s4 --n 6": (
        "4630fa054748170111870c0a6552c164784b3feb5d72b133736a7de630cd8a71"
    ),
    "s1 --n 8 --alpha 1 --beta 0": (
        "3e88a263afd0234a58662625c47cc5a06ee387e20349e83e86473724494958bb"
    ),
    "s1 --n 8 --alpha 0 --beta 1": (
        "c908e5abb09394bea97b8607b710f5f210c7a61556610ce42bd0773ac674ca44"
    ),
    "s2 --n 8": (
        "e4d90096b27ff6529a16913ce5c15aa6b0b54b6df8e35ad0e5b155f270592423"
    ),
    "s3 --n 8": (
        "9a59a6019e97a38580275028b89feb168efb8d817b006854cbc373d05e668211"
    ),
    "s4 --n 8": (
        "6867c9ff3ac411e579e45f82d6bc4580063c38e3ac505d960454c95599dc1697"
    ),
    "jordan --blocks jordan,1,2;real,1,1,2": (
        "beb1f612bb490ab6ebbabac3b77ca9dd2fdcbd2af33ca2e79b514e1b4d60ebd3"
    ),
    "jordan --blocks jordan,1,1;real,1,1,1": (
        "eb8c7678030902c101a120c4522a57d0639cc9146c787d63dda4e7194630d6c4"
    ),
    "jordan --blocks real,1,1,2;real,1,2,2": (
        "1fe98235cf89b89b281fa88e05672dbccc04f8cb49a758aafd6af5b469118e5f"
    ),
    "jordan --blocks real,1,1,1;real,1,2,1": (
        "c43a0972ca6679c12c34b7347ad31bfc43608e5b675ae5ede7078909e97f269d"
    ),
    "g6_38 --a 0": (
        "1487590d045039f05cf9026d2ada857a7559b159a21e77183051c098bb397ecc"
    ),
    "g6_38": (
        "ac7102e61a6835111a580dcc1c73d5ff6860835eb8a74e513510c31a3e0dc9aa"
    ),
}


def run(argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin, old_stdout, old_stderr = sys.stdin, sys.stdout, sys.stderr
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_stdin, old_stdout, old_stderr
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def heis(tmp_path):
    p = tmp_path / "heis.txt"
    p.write_text(HEIS_DOC)
    return str(p)


class TestValidate:
    def test_clean_document(self, heis):
        code, out, _ = run(["validate", heis])
        assert code == EXIT_OK
        assert out == "valid: 3-dimensional Lie algebra\n"

    def test_structure_violation(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(BAD_DOC)
        code, out, err = run(["validate", str(p)])
        assert code == EXIT_VERIFY
        assert "jacobi" in (out + err)

    def test_malformed_document(self, tmp_path):
        p = tmp_path / "broken.txt"
        p.write_text("dim 3\n[1,2] = e1*e2\n")
        code, _, err = run(["validate", str(p)])
        assert code == EXIT_USAGE
        assert "parse error" in err

    def test_coordinate_coefficient_is_parse_error(self, tmp_path):
        p = tmp_path / "coord.txt"
        p.write_text("dim 3\n[1,2] = x1*e3\n")
        code, out, err = run(["validate", str(p)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("parse error: line 2: coefficient x1 of e3")

    def test_string_dim_in_json_is_parse_error(self, tmp_path):
        p = tmp_path / "alg.json"
        p.write_text('{"dim": "3", "brackets": [[1, 2, [[3, "1"]]]]}')
        code, out, err = run(["validate", str(p)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith('parse error: dim must be an integer, not "3"')

    def test_missing_file(self):
        code, _, err = run(["validate", "/nonexistent/alg.txt"])
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_directory_is_unreadable(self, tmp_path):
        code, out, err = run(["info", str(tmp_path)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("cannot read %s: " % tmp_path) and err.count("\n") == 1

    def test_undecodable_file_is_unreadable(self, tmp_path):
        p = tmp_path / "binary.txt"
        p.write_bytes(b"\xff\xfe")
        code, out, err = run(["info", str(p)])
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("cannot read %s: " % p) and err.count("\n") == 1

    def test_stdin_dash(self):
        code, out, _ = run(["validate", "-"], stdin=SO3_DOC)
        assert code == EXIT_OK and "valid" in out


class TestInfo:
    def test_text_report(self, heis):
        code, out, _ = run(["info", heis])
        assert code == EXIT_OK
        assert "dim: 3" in out
        assert "center dim: 1" in out
        assert "coadjoint rank: 2" in out
        assert "independent invariants: 1" in out
        assert "nilpotent: True" in out

    def test_json_report(self, heis):
        code, out, _ = run(["--format", "json", "info", heis])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dim"] == 3
        assert doc["coadjoint_rank"] == 2
        assert doc["num_invariants"] == 1


class TestLiftedAndInvariants:
    def test_lifted_closed_form(self, heis):
        code, out, _ = run(["lifted", heis])
        assert code == EXIT_OK
        assert "I1 = -1*x3*th2 + x1" in out
        assert "I2 = x3*th1 + x2" in out
        assert "I3 = x3" in out

    def test_invariants_pipeline_report(self, heis):
        code, out, _ = run(["invariants", heis])
        assert code == EXIT_OK
        assert "invariants found: 1 (rank 2, expected 1)" in out
        assert "  x3" in out
        assert "th2 (linear) = x1/x3" in out
        assert "verified against the coadjoint system: True" in out

    def test_irrational_spectrum_exits_needs_recipe(self, tmp_path):
        # ad e3 has eigenvalues +-i*sqrt(2): no exact exponential
        p = tmp_path / "rot.txt"
        p.write_text(IRRATIONAL_DOC)
        for cmd in ("lifted", "invariants"):
            code, out, err = run([cmd, str(p)])
            assert code == EXIT_RECIPE
            assert "closed-form exponential" in (out + err)

    def test_rotation_with_rational_frequency(self, tmp_path):
        # ad e3 has eigenvalues -1 +- i
        p = tmp_path / "real.txt"
        p.write_text(REAL_DOC)
        code, out, _ = run(["lifted", str(p)])
        assert code == EXIT_OK
        assert "I1 = x1*cos(th3)*exp(-1*th3) + x2*sin(th3)*exp(-1*th3)" in out
        code, out, _ = run(["invariants", str(p)])
        assert code == EXIT_OK
        assert "invariants found: 1 (rank 2, expected 1)" in out
        assert (
            "  x1^2*exp(-2*atan(x2/x1)) + x2^2*exp(-2*atan(x2/x1))\n" in out
        )

    def test_coupled_rational_spectrum(self, tmp_path):
        # ad e3 couples e1, e2 with eigenvalues -1, -2: the eigenspace split
        p = tmp_path / "coupled.txt"
        p.write_text(COUPLED_DOC)
        code, out, _ = run(["invariants", str(p)])
        assert code == EXIT_OK
        assert "invariants found: 1 (rank 2, expected 1)\n" in out
        assert "  (-1*x1^2 + x1 + x2)/(x1^2)\n" in out

    def test_mixed_spectrum_lifted(self, tmp_path):
        # ad e4 has eigenvalues -1, -1 +- i in one block: the rational
        # eigenspace is split off and the rotation rule takes the rest
        p = tmp_path / "mixed.txt"
        p.write_text(MIXED_DOC)
        code, out, _ = run(["lifted", str(p)])
        assert code == EXIT_OK
        assert out == (
            "frame parameters: th1, th2, th3, th4\n"
            "I1 = x1*exp(-1*th4)\n"
            "I2 = -1*x1*sin(th4)*exp(-1*th4) + x2*cos(th4)*exp(-1*th4)"
            " + x3*sin(th4)*exp(-1*th4)\n"
            "I3 = -1*x1*cos(th4)*exp(-1*th4) - x2*sin(th4)*exp(-1*th4)"
            " + x3*cos(th4)*exp(-1*th4) + x1*exp(-1*th4)\n"
            "I4 = x1*th1 + x1*th2 + x2*th2 + x2*th3 - x3*th2 + x3*th3 + x4\n"
        )

    def test_json_invariants(self, heis):
        code, out, _ = run(["--format", "json", "invariants", heis])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["invariants"] == ["x3"]
        assert doc["complete"] is True
        assert doc["verified"] is True


class TestVerify:
    def test_invariant_accepted(self, heis):
        code, out, _ = run(["verify", heis, "--expr", "x3"])
        assert code == EXIT_OK
        assert "annihilated by all coadjoint fields: true" in out

    def test_non_invariant_certificate(self, heis):
        code, out, _ = run(["verify", heis, "--expr", "x1"])
        assert code == EXIT_VERIFY
        assert "X_2 residual: -1*x3" in out

    def test_centrality_flag(self, heis):
        code, out, _ = run(["verify", heis, "--expr", "x3", "--central"])
        assert code == EXIT_OK
        assert "central (degree <= 6): True" in out

    def test_bad_expression_is_usage_error(self, heis):
        code, _, err = run(["verify", heis, "--expr", "x1 +"])
        assert code == EXIT_USAGE
        assert "expression error" in err

    FOREIGN = {
        "x3 + x4": "not a coordinate of the 3-dimensional algebra: x4",
        "x0": "not a coordinate of the 3-dimensional algebra: x0",
        "th1": "not a coordinate of the 3-dimensional algebra: th1",
        "atan(x5)": "not a coordinate of the 3-dimensional algebra: x5",
        "y": "undeclared parameter: y",
        "b*x3": "undeclared parameter: b",
        "e1": "undeclared parameter: e1",
        "log(y)": "undeclared parameter: y",
        "y + x9 + b": "not a coordinate of the 3-dimensional algebra: x9; undeclared parameter: b, y",
    }

    @pytest.mark.parametrize("text", list(FOREIGN))
    def test_foreign_atoms_are_usage_errors(self, heis, text):
        code, out, err = run(["verify", heis, "--expr", text, "--central"])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "expression error: %s\n" % self.FOREIGN[text]

    def test_foreign_atoms_are_listed(self, heis):
        code, _, err = run(["verify", heis, "--expr", "x1*th2 + x9 + x0"])
        assert code == EXIT_USAGE
        assert err == (
            "expression error: not a coordinate of the 3-dimensional algebra: th2, x0, x9\n"
        )

    def test_family_invariant_with_a_sign_after_an_operator(self):
        _, doc, _ = run(["family", "jordan", "--blocks", "jordan,0,3"])
        code, out, err = run(["verify", "-", "--expr", "x1*x3 + -x2^2/2"], stdin=doc)
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[0] == "expression: x1*x3 - 1/2*x2^2"

    def test_bracket_coefficient_with_a_sign_after_an_operator(self):
        # [e1,e2] = c*e3 gives X_2 the residual -c*x3 on x1, so c = -2*a^2
        doc = "dim 3\nparam a\n[1,2] = 2*-a^2*e3\n"
        code, out, _ = run(["verify", "-", "--expr", "x1"], stdin=doc)
        assert code == EXIT_VERIFY
        assert "X_2 residual: 2*x3*a^2" in out.splitlines()

    def test_declared_parameters_are_accepted(self):
        doc = "dim 3\nparam a\n[1,2] = a*e3\n"
        code, out, err = run(["verify", "-", "--expr", "a*x3"], stdin=doc)
        assert code == EXIT_OK
        assert out == "expression: x3*a\nannihilated by all coadjoint fields: true\n"
        assert err == ""


class TestCentralityBound:
    """The degree bound is checked after validation and before symmetrizing."""

    J0 = make_jordan([("jordan", 0, 9)], name="J0(10)")
    DOC = render_algebra(J0.algebra)
    DEGREE_EIGHT = expr_str(J0.expected_invariants[7])

    def verify(self, text, *options):
        return run([*options, "verify", "-", "--expr", text, "--central"], stdin=self.DOC)

    def test_degree_eight_exceeds_default_bound(self):
        code, out, _ = self.verify(self.DEGREE_EIGHT)
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "centrality check unavailable: degree 8 exceeds the centrality bound 6"
        )

    def test_degree_eight_central_under_raised_bound(self):
        code, out, _ = self.verify(self.DEGREE_EIGHT, "--degree-bound", "8")
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "symmetrized element central (degree <= 8): True"

    def test_validation_precedes_the_bound(self):
        _, out, _ = self.verify("atan(x1)*x3^8")
        assert out.splitlines()[-1] == (
            "centrality check unavailable: "
            "symmetrization needs a coordinate polynomial, found 'atan'"
        )
        _, out, _ = self.verify("x3^9/x1")
        assert out.splitlines()[-1] == (
            "centrality check unavailable: symmetrization needs a polynomial, got a quotient"
        )


class TestFamily:
    def test_emits_reparseable_document(self):
        code, out, _ = run(["family", "t0", "--n", "3"])
        assert code == EXIT_OK
        assert "dim 3" in out
        assert "# expected invariants (1):" in out
        assert "#   [ok] x2" in out

    def test_pipes_into_invariants(self):
        code, doc, _ = run(["family", "jordan", "--blocks", "jordan,0,4"])
        assert code == EXIT_OK
        code2, out2, _ = run(["invariants", "-"], stdin=doc)
        assert code2 == EXIT_OK
        assert "invariants found: 3" in out2

    def test_run_flag_full_pipeline(self):
        code, out, _ = run(["family", "jordan", "--blocks", "jordan,0,3", "--run"])
        assert code == EXIT_OK
        assert "# elimination: complete=True count=2 rank=2" in out

    def test_series_parameters(self):
        code, out, _ = run(["family", "s1", "--n", "5", "--alpha", "1", "--beta", "0"])
        assert code == EXIT_OK
        assert "dim 6" in out
        code, out, _ = run(["family", "s3", "--n", "5", "--a", "3=1,4=2"])
        assert code == EXIT_OK
        assert "dim 6" in out and "[ok]" in out

    def test_worked_six_dimensional(self):
        code, out, _ = run(["family", "g6_38", "--run"])
        assert code == EXIT_OK
        assert "param a" in out
        assert "# elimination: complete=True count=2" in out

    def test_every_expected_line_verifies(self):
        for argv in (
            ["family", "t0", "--n", "4"],
            ["family", "jordan", "--blocks", "jordan,1,2;jordan,0,2"],
            ["family", "s2", "--n", "5"],
            ["family", "s4", "--n", "6"],
        ):
            code, out, _ = run(argv)
            assert code == EXIT_OK
            assert "[ok]" in out and "FAILS" not in out

    @pytest.mark.parametrize("n", [5, 6])
    def test_t0_run_prints_the_pinned_elimination(self, n):
        code, out, _ = run(["family", "t0", "--n", str(n), "--run"])
        assert code == EXIT_OK
        assert out.endswith(T0_RUN_TAILS[n])

    def test_t0_seven_run_matches_the_minors(self):
        code, out, _ = run(["family", "t0", "--n", "7", "--run"])
        assert code == EXIT_OK
        assert out.endswith(T0_RUN_TAILS[7])
        lines = out.splitlines()
        at = lines.index("# elimination: complete=True count=3 rank=18")
        printed = [parse_expr(line[4:]) for line in lines[at + 1:at + 4]]
        inst = make_t0(7)
        assert functionally_equivalent(printed, inst.expected_invariants, inst.algebra, seed=7)

    @pytest.mark.parametrize("args", list(SOLVABLE_RUN_SHA256))
    def test_solvable_run_stdout_is_pinned(self, args):
        code, out, _ = run(["--seed", "1", "family", *args.split(), "--run"])
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == SOLVABLE_RUN_SHA256[args]

    @pytest.mark.parametrize("args", [
        ["jordan", "--blocks", "jordan,0,1"],
        ["jordan", "--blocks", "jordan,1,0"],
        ["jordan", "--blocks", "jordan,1/0,2"],
        ["jordan", "--blocks", "real,1,0,1"],
        ["g6_38", "--a", "1/0"],
        ["s3", "--n", "5", "--a", "3=1/0"],
    ], ids=["kernel-block", "size-zero", "lambda-div0", "nu-zero", "a-div0", "drift-div0"])
    def test_invalid_block_spec_is_usage_error(self, args):
        code, _, err = run(["family"] + args)
        assert code == EXIT_USAGE
        assert err.startswith("family error: ")

    @pytest.mark.parametrize("assignments, message", [
        ("9=1", "drift index 9 outside 3..4"),
        ("2=1,3=1", "drift index 2 outside 3..4"),
        ("3=1,3=2", "index 3 assigned twice"),
    ], ids=["index-above", "index-below", "repeated-index"])
    def test_s3_drift_assignment_it_would_drop_is_usage_error(self, assignments, message):
        # s3 at n = 5 reads a3 and a4 only; an ignored or overwritten value
        # must not give the output of another assignment
        code, out, err = run(["family", "s3", "--n", "5", "--a", assignments])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "family error: %s\n" % message

    @pytest.mark.parametrize("args, message", [
        (["t0", "--n", "3", "--alpha", "3", "--blocks", "jordan,0,2", "--a", "5"],
         "t0 does not read --blocks, --alpha and --a"),
        (["s2", "--n", "5", "--a", "3=1"], "s2 does not read --a"),
        (["g6_38", "--n", "6", "--run"], "g6_38 does not read --n"),
        (["jordan", "--blocks", "jordan,0,3", "--beta", "1"], "jordan does not read --beta"),
    ], ids=["t0", "s2-drift", "g6_38-size", "jordan-beta"])
    def test_option_the_family_does_not_read_is_usage_error(self, args, message):
        code, out, err = run(["family"] + args)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "family error: %s\n" % message


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "somefile"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("option, value, message", [
        ("--trials", "0", "argument --trials: expected an integer >= 1, got 0"),
        ("--trials", "-3", "argument --trials: expected an integer >= 1, got -3"),
        ("--trials", "many", "argument --trials: expected an integer, got 'many'"),
        ("--degree-bound", "-1", "argument --degree-bound: expected an integer >= 0, got -1"),
    ])
    def test_sampling_and_degree_options_out_of_range(self, heis, capsys, option, value, message):
        # --trials 0 used to sample once and --degree-bound -1 was accepted
        with pytest.raises(SystemExit) as exc:
            main([option, value, "info", heis])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "lieinv: error: " + message

    def test_lowest_sampling_and_degree_options_are_accepted(self, heis):
        code, out, _ = run(["--trials", "1", "info", heis])
        assert code == EXIT_OK and "coadjoint rank: 2" in out
        code, out, _ = run(["--degree-bound", "0", "verify", heis, "--expr", "x3", "--central"])
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            "centrality check unavailable: degree 1 exceeds the centrality bound 0"
        )

    def test_closed_stdout_exits_quietly(self):
        # as in `lieinv invariants - | head -0`: the reader is gone first
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "lieinv.cli", "invariants", "-"],
                input=HEIS_DOC.encode(),
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_BROKEN_PIPE
        assert proc.stderr == b""


class TestDeterminismGoldens:
    def test_seeded_runs_byte_identical_in_process(self, heis):
        first = run(["--seed", "7", "--format", "json", "invariants", heis])
        second = run(["--seed", "7", "--format", "json", "invariants", heis])
        assert first == second

    def test_seeded_runs_byte_identical_subprocess(self):
        argv = [
            sys.executable,
            "-m",
            "lieinv.cli",
            "--seed",
            "11",
            "--format",
            "json",
            "invariants",
            "-",
        ]
        runs = [
            subprocess.run(argv, input=HEIS_DOC.encode(), capture_output=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_family_emission_deterministic(self):
        a = run(["family", "s4", "--n", "6", "--run"])
        b = run(["family", "s4", "--n", "6", "--run"])
        assert a == b

    @pytest.mark.parametrize("family", [
        ["t0", "--n", "5"],
        ["g6_38"],
        ["jordan", "--blocks", "real,1,1,2;real,1,2,2"],
    ])
    def test_family_run_replays_byte_identical_in_process(self, family):
        argv = ["--format", "json", "--seed", "1", "family"] + family + ["--run"]
        first = run(argv)
        assert first[0] == EXIT_OK
        assert run(argv) == first

    def test_golden_invariants_document(self, heis):
        code, out, _ = run(["--format", "json", "invariants", heis])
        assert code == EXIT_OK
        assert json.loads(out) == {
            "applied_recipes": [],
            "assumptions": ["-1*x3 != 0", "x3 != 0"],
            "complete": True,
            "dim": 3,
            "expected_count": 1,
            "frame_rank": 2,
            "invariants": ["x3"],
            "pivots": [
                {"kind": "linear", "solution": "x1/x3", "theta": 2},
                {"kind": "linear", "solution": "-1*x2/x3", "theta": 1},
            ],
            "rescaled": ["x3"],
            "residual_count": 0,
            "verified": True,
        }


class TestLatexOutput:
    def test_lifted_latex(self, heis):
        code, out, _ = run(["--latex", "lifted", heis])
        assert code == EXIT_OK
        assert "x_{3}" in out and "\\theta_{1}" in out
