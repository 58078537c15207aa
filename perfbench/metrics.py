"""Names, units and sources of every metric the benchmark prints.

End-to-end metrics come from the untraced run of a workload; per-layer
metrics from the traced run.  Per-layer counts and times are per operation
of the workload (one command, or one n_threshold call), so runs of different
length compare.
"""

from __future__ import annotations

# name -> (unit, better)
END_TO_END = {
    "op_ms": ("ms", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

GROUP_KINDS = ("TorusOnly", "Borel", "FullEnvelopeGroup", "UnipotentEnvelope")


def _layer(span: str, *fields: str) -> list[tuple[str, str, str, str]]:
    units = {"calls": "calls/op", "self_s": "s/op", "points_out": "points/op", "moves_out": "moves/op"}
    return [(f"{span}.{f}", units[f], "lower", f) for f in fields]


# (metric name, unit, better, source); source is a span field ("calls",
# "self_s"), a counter ("points_out", "moves_out", "bucket"), or computed
# by the worker ("computed").
PER_LAYER = [
    *_layer("polytope.contains_origin", "calls", "self_s"),
    *[(f"polytope.contains_origin.calls.{b}", "calls/op", "lower", "bucket") for b in ("k_le_6", "k_7_12", "k_gt_12")],
    *_layer("polytope.scaled_minkowski", "calls", "self_s", "points_out"),
    *_layer("envelope.point_polytope", "calls", "self_s", "points_out"),
    ("polytope.affine_ops_per_s", "1/s", "higher", "computed"),
    *_layer("hilbert_mumford.torus_status", "calls", "self_s"),
    *_layer("envelope.torus_case_status", "calls", "self_s"),
    *_layer("envelope.unipotent_case_status", "calls", "self_s"),
    *_layer("envelope.group_status", "calls", "self_s"),
    *_layer("envelope.unipotent_status", "calls", "self_s"),
    *_layer("envelope.enumerate_env_points", "calls", "self_s"),
    *_layer("envelope.concrete_torus_case_status", "calls", "self_s"),
    *_layer("envelope.n_threshold", "self_s"),
    *[row for kind in GROUP_KINDS for row in _layer(f"oracle.moves_for.{kind}", "calls", "moves_out", "self_s")],
    *_layer("oracle.diff_report", "self_s"),
    *_layer("binary_forms.classify_borel", "calls", "self_s"),
    *_layer("binary_forms.classify_sl2", "calls", "self_s"),
    *_layer("binary_forms.classify_unipotent", "calls", "self_s"),
    *_layer("vgit.chamber_profile", "calls", "self_s"),
    ("vgit.census_enumerations", "enum/op", "lower", "computed"),
    *_layer("cli.build_parser", "self_s"),
    *_layer("cli.emit_report", "self_s"),
    *_layer("cli.parse_profile", "self_s"),
    ("trace.overhead_frac", "ratio", "lower", "computed"),
]


def per_layer_values(spans: dict, counts: dict, ops: int, computed: dict) -> dict[str, float]:
    """Per-op values of every PER_LAYER metric from the recorder's totals."""
    out = {}
    for name, _, _, source in PER_LAYER:
        if source == "computed":
            out[name] = computed[name]
        elif source == "calls":
            out[name] = spans.get(name.rsplit(".", 1)[0], (0, 0, 0))[0] / ops
        elif source == "self_s":
            out[name] = spans.get(name.rsplit(".", 1)[0], (0, 0, 0))[2] / 1e9 / ops
        else:
            out[name] = counts.get(name, 0) / ops
    return out
