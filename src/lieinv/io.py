"""Text formats: algebra documents, expression parsing, LaTeX rendering.

The algebra document is line oriented (semicolons also separate statements):

    # a comment
    name heisenberg
    dim 3
    param a
    [1,2] = e3

Bracket lines list [i,j] with i < j (1-based).  A right-hand side is a
linear form in the basis symbols e1..en: every term of its numerator holds
exactly one of them, to the first power, and its denominator holds none.
The coefficient of each e_k must be a rational function of the declared
parameters; a coordinate x_k, a frame parameter th_k, an undeclared name or
a transcendental such as exp(1) is a ParseError.  Parameter names of the
form e<k>, x<k> or th<k> are reserved, because expressions read them as
basis symbols, coordinates or frame parameters.  The JSON format is checked
the same way, and both formats end in the same Jacobi validation.

Expressions use the same syntax the library prints: integers, names (x1
coordinates, th2 frame parameters, anything else a parameter),
exp/log/atan/cos/sin calls, + - * / associating to the left with * and /
binding tighter, and ^ with an integer exponent.  A + or - where an operand
starts binds looser than ^ and tighter than * and /: -x1^2, 2*-x1^2 and
x2 - -x1^2 each negate the power.  Malformed text, nesting too deep to
parse and an integer literal past Python's digit limit are ParseErrors.
"""

from __future__ import annotations

import json
import re

from .algebra import StructureError, lie_algebra, validate
from .expr import (
    KernelError,
    atan_of,
    coefficients,
    coord,
    cos_of,
    exp_of,
    expr_str,
    log_of,
    make_expr,
    param,
    rational,
    sin_of,
    theta,
)


class ParseError(ValueError):
    """Syntax or structure error in a document, with position information."""


# ---------------------------------------------------------------------------
# expression parser

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {
    "exp": exp_of,
    "log": log_of,
    "atan": atan_of,
    "cos": cos_of,
    "sin": sin_of,
}

_COORD = re.compile(r"^x(\d+)$")
_THETA = re.compile(r"^th(\d+)$")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(
                    "unexpected character %r at position %d" % (text[pos], pos)
                )
            break
        if m.group("num") is not None:
            try:
                out.append(("num", int(m.group("num")), m.start()))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                raise ParseError("integer too long at position %d" % m.start()) from None
        elif m.group("name") is not None:
            out.append(("name", m.group("name"), m.start()))
        else:
            out.append(("op", m.group("op"), m.start()))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


_BINARY = {
    "+": (1, lambda f, g: f + g),
    "-": (1, lambda f, g: f - g),
    "*": (2, lambda f, g: f * g),
    "/": (2, lambda f, g: f / g),
}


def _climb(tokens, k, least, text):
    """Read tokens[k:] while operators bind at least `least`: (value, next k).

    Each right side is read one level tighter, so operators associate left.
    """
    f, k = _signed(tokens, k, text)
    while _BINARY.get(tokens[k][1], (0,))[0] >= least:
        prec, apply = _BINARY[tokens[k][1]]
        g, k = _climb(tokens, k + 1, prec + 1, text)
        f = apply(f, g)
    return f, k


def _signed(tokens, k, text):
    """Read an operand: any signs, then an atom with an optional ^ exponent.

    This is the one sign rule: wherever an operand starts, a sign binds
    looser than ^ and tighter than * and /.
    """
    kind, val, pos = tokens[k]
    if kind == "op" and val in "+-":
        f, k = _signed(tokens, k + 1, text)
        return (-f if val == "-" else f), k
    f, k = _atom(tokens, k, text)
    if tokens[k][:2] != ("op", "^"):
        return f, k
    kind, val, pos = tokens[k + 1]
    sign = -1 if val == "-" else 1
    if kind == "op" and val in "+-":
        k += 1
        kind, val, pos = tokens[k + 1]
    if kind != "num":
        raise ParseError("expected integer exponent at position %d" % pos)
    return f ** (sign * val), k + 2


def _atom(tokens, k, text):
    """Read a number, a parenthesized expression, a function call or a name."""
    kind, val, pos = tokens[k]
    if kind == "num":
        return rational(val), k + 1
    if kind == "op" and val == "(":
        f, k = _climb(tokens, k + 1, 1, text)
        if tokens[k][:2] != ("op", ")"):
            raise ParseError("expected ')' at position %d in %r" % (tokens[k][2], text))
        return f, k + 1
    if kind != "name":
        raise ParseError("unexpected token at position %d in %r" % (pos, text))
    if val in _FUNCTIONS and tokens[k + 1][:2] == ("op", "("):
        arg, k = _atom(tokens, k + 1, text)
        try:
            return _FUNCTIONS[val](arg), k
        except KernelError as err:
            raise ParseError("%s at position %d" % (err, pos))
    m = _COORD.match(val)
    if m:
        return coord(int(m.group(1))), k + 1
    m = _THETA.match(val)
    return (theta(int(m.group(1))) if m else param(val)), k + 1


def parse_expr(text):
    """Parse an expression in the syntax the library prints."""
    tokens = _tokenize(text)
    try:
        f, k = _climb(tokens, 0, 1, text)
    except KernelError as exc:
        raise ParseError(str(exc)) from exc
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if tokens[k][0] != "end":
        raise ParseError("trailing input at position %d in %r" % (tokens[k][2], text))
    return f


# ---------------------------------------------------------------------------
# algebra documents

_BRACKET_LINE = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.*)$")
_PARAM_NAME = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")
_RESERVED = re.compile(r"^(e|x|th)[0-9]+$")
_BASIS = re.compile(r"^e([1-9][0-9]*)$")


def _statements(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for piece in line.split(";"):
            piece = piece.strip()
            if piece:
                yield lineno, piece


def parse_algebra(text):
    """Parse an algebra document and return a validated LieAlgebra."""
    dim = None
    name = None
    params = []
    rows = {}
    for lineno, stmt in _statements(text):
        low = stmt.split(None, 1)
        head = low[0]
        if head == "dim":
            if dim is not None:
                raise ParseError("line %d: duplicate dim statement" % lineno)
            try:
                dim = int(low[1])
            except (IndexError, ValueError):
                raise ParseError("line %d: malformed dim statement" % lineno)
            if dim < 1:
                raise ParseError("line %d: dimension must be positive" % lineno)
        elif head == "name":
            if len(low) < 2:
                raise ParseError("line %d: malformed name statement" % lineno)
            name = low[1].strip()
        elif head == "param":
            if len(low) < 2:
                raise ParseError("line %d: malformed param statement" % lineno)
            params.extend(low[1].replace(",", " ").split())
            try:
                _check_params(params)
            except ParseError as err:
                raise ParseError("line %d: %s" % (lineno, err))
        elif stmt.startswith("["):
            if dim is None:
                raise ParseError("line %d: bracket before dim statement" % lineno)
            m = _BRACKET_LINE.match(stmt)
            if not m:
                raise ParseError("line %d: malformed bracket statement" % lineno)
            i, j = int(m.group(1)), int(m.group(2))
            if not (1 <= i <= dim and 1 <= j <= dim):
                raise ParseError("line %d: index out of range" % lineno)
            if i == j:
                raise ParseError(
                    "line %d: bracket of a basis element with itself must be zero"
                    % lineno
                )
            if i > j:
                raise ParseError("line %d: list brackets with i < j only" % lineno)
            if (i, j) in rows:
                raise ParseError("line %d: duplicate bracket [%d,%d]" % (lineno, i, j))
            rows[(i, j)] = (lineno, m.group(3))
        else:
            raise ParseError("line %d: unknown statement %r" % (lineno, stmt))
    if dim is None:
        raise ParseError("missing dim statement")
    # parameters may be declared after the brackets that use them
    entries = {}
    for key, (lineno, rhs) in rows.items():
        try:
            entries[key] = _check_scalars(_linear_form(rhs, dim), dim, params)
        except ParseError as err:
            raise ParseError("line %d: %s" % (lineno, err))
    return _validated(dim, entries, params, name)


def _e_index(atom):
    """k when the atom is the basis symbol e_k (read as a parameter), else 0."""
    m = _BASIS.match(atom.data) if atom.head == "p" else None
    return int(m.group(1)) if m else 0


def _linear_form(text, dim):
    """Read a bracket right-hand side as {k: coefficient of e_k}."""
    f = parse_expr(text)
    if any(_e_index(a) for a in f.den.atoms()):
        raise ParseError("basis symbols may not appear in a denominator")
    parts = coefficients(f.num, {a for a in f.num.atoms() if _e_index(a)})
    if any(len(key) != 1 or key[0][1] != 1 for key in parts):
        raise ParseError("bracket right-hand side must be linear in e1..e%d" % dim)
    parts = {_e_index(key[0][0]): c for key, c in parts.items()}
    return {k: make_expr(parts[k], f.den) for k in sorted(parts)}


def _check_params(names):
    """Raise ParseError on a malformed, reserved or repeated parameter name."""
    seen = set()
    for nm in names:
        if not isinstance(nm, str) or not _PARAM_NAME.match(nm):
            raise ParseError("bad parameter name %r" % (nm,))
        if _RESERVED.match(nm):
            raise ParseError(
                "parameter name %r is reserved for basis symbols, coordinates "
                "and frame parameters" % nm
            )
        if nm in seen:
            raise ParseError("duplicate parameter %r" % nm)
        seen.add(nm)


def _check_scalars(vec, dim, params):
    """Return vec after checking that it maps e1..e<dim> to scalars.

    A scalar is a rational function of the declared parameters.
    """
    for k, c in vec.items():
        if not 1 <= k <= dim:
            raise ParseError(
                "e%d is not a basis symbol of the %d-dimensional algebra" % (k, dim)
            )
        if c.has_transcendentals() or any(
            a.head != "p" or a.data not in params for a in c.atoms()
        ):
            raise ParseError(
                "coefficient %s of e%d is not a rational function of the "
                "declared parameters" % (expr_str(c), k)
            )
    return vec


def _validated(dim, entries, params, name):
    g = lie_algebra(dim, entries, params=tuple(params), name=name)
    problems = validate(g)
    if problems:
        raise StructureError("; ".join(problems))
    return g


def _coeff_term(c, k):
    s = expr_str(c)
    if s == "1":
        return "e%d" % k
    if s == "-1":
        return "-e%d" % k
    if " " in s:
        s = "(%s)" % s
    return "%s*e%d" % (s, k)


def render_algebra(g):
    """Render an algebra as a document that parses back to the same algebra."""
    lines = []
    if g.name:
        lines.append("name %s" % g.name)
    lines.append("dim %d" % g.dim)
    if g.params:
        lines.append("param %s" % " ".join(g.params))
    for i in range(1, g.dim + 1):
        for j in range(i + 1, g.dim + 1):
            vec = g.bracket(i, j)
            terms = [
                _coeff_term(vec[k], k) for k in sorted(vec) if not vec[k].is_zero()
            ]
            if terms:
                rhs = terms[0]
                for t in terms[1:]:
                    rhs += " - " + t[1:] if t.startswith("-") else " + " + t
                lines.append("[%d,%d] = %s" % (i, j, rhs))
    return "\n".join(lines) + "\n"


def _json_value(v, kind, expected, length=None):
    """v, after checking its JSON type (bool is not an integer) and length."""
    if type(v) is not kind or (length is not None and len(v) != length):
        raise ParseError("%s, not %s" % (expected, json.dumps(v, default=repr)))
    return v


def algebra_from_json(data):
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except ValueError as err:
            raise ParseError("malformed JSON: %s" % err)
    data = _json_value(data, dict, "an algebra must be a JSON object")
    unknown = set(data) - {"dim", "name", "params", "brackets"}
    if unknown:
        raise ParseError("unknown key %s" % json.dumps(min(unknown)))
    if "name" in data:
        _json_value(data["name"], str, "name must be a string")
    dim = _json_value(data.get("dim"), int, "dim must be an integer")
    params = tuple(_json_value(data.get("params", []), list, "params must be a list"))
    _check_params(params)
    entries = {}
    for entry in _json_value(data.get("brackets", []), list, "brackets must be a list"):
        i, j, terms = _json_value(entry, list, "a bracket must be [i, j, terms]", 3)
        key = tuple(_json_value(a, int, "a bracket index must be an integer") for a in (i, j))
        if key in entries:
            raise ParseError("duplicate bracket [%d,%d]" % key)
        vec = {}
        for term in _json_value(terms, list, "the terms of [%d,%d] must be a list" % key):
            k, c = _json_value(term, list, "a term must be [k, coefficient]", 2)
            if _json_value(k, int, "a basis index must be an integer") in vec:
                raise ParseError("duplicate basis index %d in [%d,%d]" % ((k,) + key))
            vec[k] = parse_expr(_json_value(c, str, "a coefficient must be a string"))
        entries[key] = _check_scalars(vec, dim, params)
    return _validated(dim, entries, params, data.get("name"))


def load_algebra(text):
    """Parse an algebra from document or JSON text (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return algebra_from_json(stripped)
    return parse_algebra(text)


# ---------------------------------------------------------------------------
# LaTeX rendering

_HEAD_LATEX = {"log": r"\ln", "atan": r"\arctan", "cos": r"\cos", "sin": r"\sin"}

_GREEK = {
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lam", "lambda", "mu", "nu", "xi", "pi", "rho", "sigma",
    "tau", "phi", "chi", "psi", "omega",
}


def _atom_latex(a):
    if a.head == "x":
        return "x_{%d}" % a.data
    if a.head == "th":
        return r"\theta_{%d}" % a.data
    if a.head == "p":
        name = a.data
        m = re.match(r"^([A-Za-z]+)_?(\d+)$", name)
        if m:
            stem, sub = m.group(1), m.group(2)
            stem = "\\" + stem if stem in _GREEK else stem
            return "%s_{%s}" % (stem, sub)
        return "\\" + name if name in _GREEK else name
    return r"%s\!\left(%s\right)" % (_HEAD_LATEX[a.head], expr_latex(a.data))


def _frac_latex(q):
    if q.denominator == 1:
        return str(q.numerator)
    s = r"\tfrac{%d}{%d}" % (abs(q.numerator), q.denominator)
    return "-" + s if q.numerator < 0 else s


def _monomial_latex(m, coeff):
    parts = []
    sign = ""
    if coeff < 0:
        sign = "-"
        coeff = -coeff
    if coeff != 1 or (not m.vars and m.ep is None):
        parts.append(_frac_latex(coeff))
    for a, e in m.vars:
        s = _atom_latex(a)
        parts.append(s if e == 1 else "%s^{%d}" % (s, e))
    if m.ep is not None:
        parts.append(r"e^{%s}" % expr_latex(m.ep.as_expr()))
    return sign + " ".join(parts)


def _poly_latex(p):
    if p.is_zero:
        return "0"
    bits = []
    for m, c in p.items():
        piece = _monomial_latex(m, c)
        if not bits:
            bits.append(piece)
        elif piece.startswith("-"):
            bits.append("- " + piece[1:])
        else:
            bits.append("+ " + piece)
    return " ".join(bits)


def expr_latex(f):
    """Render an expression as LaTeX."""
    if f.den.is_one:
        return _poly_latex(f.num)
    return r"\frac{%s}{%s}" % (_poly_latex(f.num), _poly_latex(f.den))
