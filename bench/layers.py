"""Per-layer metrics of the traced run, with the end-to-end metric each one
is expected to move and on which workload.

``self_s`` is span time minus the time covered by child spans, summed over
every call; a layer's ``self_s`` sums it over the layer's public functions.
The predictions are recorded before any optimisation is measured.
"""

from __future__ import annotations

from tracer import LAYERS

# name -> (unit, better, what it should move)
PER_LAYER = {
    "expr.poly_gcd.calls": ("count", "lower", "pass_s on t0-ladder; partly solvable-ladder; on verify-bases only the s4/s3 residual ops, nothing for centrality"),
    "expr.poly_gcd.top_calls": ("count", "lower", "as expr.poly_gcd.calls"),
    "expr.poly_gcd.self_s": ("s", "lower", "as expr.poly_gcd.calls"),
    "expr.poly_gcd.trivial_frac": ("frac", "lower", "as expr.poly_gcd.calls (top-level gcds that returned 1 / top-level gcds)"),
    "expr.make_expr.calls": ("count", "lower", "pass_s on verify-bases (centrality) and on every other workload"),
    "expr.make_expr.self_s": ("s", "lower", "as expr.make_expr.calls"),
    "expr.substitute.calls": ("count", "lower", "pass_s on t0-ladder"),
    "expr.substitute.self_s": ("s", "lower", "pass_s on t0-ladder"),
    "expr.differentiate.calls": ("count", "lower", "pass_s on verify-bases"),
    "expr.differentiate.self_s": ("s", "lower", "pass_s on verify-bases"),
    "expr.atoms": ("count", "lower", "peak_rss_mb on every workload (intern table size at the end)"),
    "normalize.eliminate.self_s": ("s", "lower", "pass_s on t0-ladder; stays 0 on verify-bases"),
    "normalize.eliminate.pivots": ("count", "lower", "pass_s on t0-ladder; stays 0 on verify-bases"),
    "normalize.rescale_to_polynomial.self_s": ("s", "lower", "pass_s on t0-ladder; stays 0 on verify-bases"),
    "frame.lifted_invariants.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "frame.jacobian_rank.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "algebra.rank_coadjoint.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "linalg.calls": ("count", "lower", "op_s.p50 on solvable-ladder (all linalg public functions)"),
    "linalg.self_s": ("s", "lower", "op_s.p50 on solvable-ladder (all linalg public functions)"),
    "verify.check_invariant.calls": ("count", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.check_invariant.self_s": ("s", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.symmetrize.self_s": ("s", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.symmetrize.words": ("count", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.pbw_normal_form.self_s": ("s", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.is_central.self_s": ("s", "lower", "pass_s on verify-bases; nothing on t0-ladder"),
    "verify.central_decided_frac": ("frac", "higher", "pass_s on verify-bases (centrality verdicts / centrality requests; 0 without requests)"),
    "io.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "families.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "cli.self_s": ("s", "lower", "op_s.p50 on solvable-ladder (operation time not covered by deeper spans)"),
    "expr.self_s": ("s", "lower", "pass_s on every workload"),
    "algebra.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "frame.self_s": ("s", "lower", "op_s.p50 on solvable-ladder"),
    "normalize.self_s": ("s", "lower", "pass_s on t0-ladder and solvable-ladder"),
    "verify.self_s": ("s", "lower", "pass_s on verify-bases"),
    "trace.overhead_frac": ("frac", "lower", "nothing: traced pass_s / untraced pass_s - 1, the cost of tracing"),
}


def layer_metrics(summary, atoms, central_requests, overhead):
    """{name: (value, unit)} for every PER_LAYER metric, from Tracer.summary()."""
    def layer(name, key):
        return sum(v[key] for k, v in summary.items() if k.startswith(name + "."))

    gcd = summary["expr.poly_gcd"]
    central = summary["verify.is_central"]
    values = {
        "expr.poly_gcd.top_calls": gcd["top_calls"],
        "expr.poly_gcd.trivial_frac": gcd["trivial"] / gcd["top_calls"] if gcd["top_calls"] else 0.0,
        "expr.atoms": atoms,
        "normalize.eliminate.pivots": summary["normalize.eliminate"]["observed"],
        "verify.symmetrize.words": summary["verify.symmetrize"]["observed"],
        "verify.central_decided_frac": (
            (central["calls"] - central["raised"]) / central_requests if central_requests else 0.0),
        "linalg.calls": layer("linalg", "calls"),
        "trace.overhead_frac": overhead,
    }
    for name in LAYERS:
        values["%s.self_s" % name] = layer(name, "self_s")
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        if name not in values:
            func, key = name.rsplit(".", 1)
            values[name] = summary[func][key]
        out[name] = (values[name], unit)
    return out
