"""Per-layer metrics and tables from a traced run.

Every time is per item (summed over the traced items, divided by their
count) unless the name says otherwise. ``*.macs``, ``*.bytes`` and
``*.gflops`` are computed from array sizes, not measured, and their units say
so. Layers a workload does not exercise report 0.
"""

from __future__ import annotations

import statistics

from spans import OP_KINDS, Tracer

GRADCHECK_FAMILIES = (
    "conv2d", "batchnorm", "silu", "upsample", "concat", "split",
    "pool", "cross_entropy", "rephdw", "bottleneck", "saf", "aaf",
)

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("tensor.ops_recorded", "count", "lower"),
    ("tensor.backward_self_ms", "ms", "lower"),
    ("tensor.accumulate_grad_ms", "ms", "lower"),
    ("tensor.check_finite_ms", "ms", "lower"),
]
for _o in OP_KINDS:
    PER_LAYER += [
        (f"ops.{_o}.calls", "count", "lower"),
        (f"ops.{_o}.fwd_ms", "ms", "lower"),
        (f"ops.{_o}.bwd_ms", "ms", "lower"),
        (f"ops.{_o}.us_per_call", "us", "lower"),
        (f"ops.{_o}.macs", "MAC-computed", "lower"),
        (f"ops.{_o}.bytes", "B-computed", "lower"),
        (f"ops.{_o}.gflops", "GFLOP/s-computed", "higher"),
    ]
PER_LAYER += [
    ("repconv.RepHDWConv.fused_ms", "ms", "lower"),
    ("repconv.RepHDWConv.branch_ms", "ms", "lower"),
    ("repconv.fuse_model_ms", "ms", "lower"),
    ("blocks.Bottleneck.ms", "ms", "lower"),
    ("blocks.RepHELAN.self_ms", "ms", "lower"),
    ("mafpn.SAFFuse.ms", "ms", "lower"),
    ("mafpn.AAFFuse.ms", "ms", "lower"),
    ("mafpn.MAFPN.ms", "ms", "lower"),
    ("model.Backbone.ms", "ms", "lower"),
    ("model.HeadBranch.ms", "ms", "lower"),
    ("model.calibrate_bn_stats_s", "s", "lower"),
    ("train.forward_ms", "ms", "lower"),
    ("train.backward_ms", "ms", "lower"),
    ("train.sgd_step_ms", "ms", "lower"),
]
PER_LAYER += [(f"gradcheck.{f}.ms", "ms", "lower") for f in GRADCHECK_FAMILIES]
PER_LAYER += [
    ("gradcheck.fd_evals", "count", "lower"),
    ("trace.item_ms_p50_untraced", "ms", "lower"),
    ("trace.item_ms_p50_traced", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]

CALLS, INCL, SELF, MODSELF = range(4)


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(tr: Tracer, wl, untraced_p50_ms: float, traced_p50_ms: float) -> dict:
    """Every PER_LAYER value for this traced run, keyed by name."""
    n = max(tr.n_passes("item"), 1)

    def per_item(name: str, col: int) -> float:
        return tr.stat("item", name)[col] / n * 1e3

    v: dict[str, float] = {}
    item_ops = [ops for kind, ops, _ in tr.pass_ops if kind == "item"]
    v["tensor.ops_recorded"] = item_ops[0] if item_ops else 0
    v["tensor.backward_self_ms"] = per_item("tensor.backward", SELF)
    v["tensor.accumulate_grad_ms"] = per_item("tensor.accumulate_grad", SELF)
    v["tensor.check_finite_ms"] = per_item("tensor.check_finite", SELF)
    for o in OP_KINDS:
        calls = tr.stat("item", f"ops.{o}")[CALLS] / n
        fwd_ms = per_item(f"ops.{o}", SELF)
        macs = tr.cost[("item", f"ops.{o}.macs")] / n
        v[f"ops.{o}.calls"] = calls
        v[f"ops.{o}.fwd_ms"] = fwd_ms
        v[f"ops.{o}.bwd_ms"] = per_item(f"ops.{o}.bwd", SELF)
        v[f"ops.{o}.us_per_call"] = fwd_ms * 1e3 / calls if calls else 0.0
        v[f"ops.{o}.macs"] = macs
        v[f"ops.{o}.bytes"] = tr.cost[("item", f"ops.{o}.bytes")] / n
        v[f"ops.{o}.gflops"] = 2 * macs / fwd_ms / 1e6 if fwd_ms else 0.0
    for kind, metric in ((wl.fused_pass, "fused_ms"), ("branch", "branch_ms")):
        passes = max(tr.n_passes(kind), 1)
        v[f"repconv.RepHDWConv.{metric}"] = tr.stat(kind, "repconv.RepHDWConv")[INCL] / passes * 1e3
    v["repconv.fuse_model_ms"] = _median(wl.layer_times.get("fuse_model_ms"))
    v["blocks.Bottleneck.ms"] = per_item("blocks.Bottleneck", INCL)
    v["blocks.RepHELAN.self_ms"] = per_item("blocks.RepHELAN", MODSELF)
    for cls in ("SAFFuse", "AAFFuse", "MAFPN"):
        v[f"mafpn.{cls}.ms"] = per_item(f"mafpn.{cls}", INCL)
    v["model.Backbone.ms"] = per_item("model.Backbone", INCL)
    v["model.HeadBranch.ms"] = per_item("model.HeadBranch", INCL)
    v["model.calibrate_bn_stats_s"] = _median(wl.layer_times.get("calibrate_bn_stats_s"))
    for phase in ("forward", "backward", "sgd_step"):
        v[f"train.{phase}_ms"] = per_item(f"train.{phase}", INCL)
    for fam in GRADCHECK_FAMILIES:
        v[f"gradcheck.{fam}.ms"] = per_item(f"gradcheck.{fam}", INCL)
    v["gradcheck.fd_evals"] = tr.counters[("item", "gradcheck.fd_evals")] / n
    v["trace.item_ms_p50_untraced"] = untraced_p50_ms
    v["trace.item_ms_p50_traced"] = traced_p50_ms
    v["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms
    return v


def trace_checks(tr: Tracer, checks) -> None:
    """Counts that must agree exactly inside the traced run."""
    bad = [(kind, rec, out) for kind, rec, out in tr.pass_ops if rec != out]
    checks.add("count_ops total == traced op outputs, every pass", not bad,
               f"{len(bad)} passes differ, e.g. {bad[:2]} (kind, count_ops, traced)")
    item_ops = {o for kind, o, _ in tr.pass_ops if kind == "item"}
    checks.add("ops per item repeat exactly", len(item_ops) <= 1, f"per-item counts {sorted(item_ops)}")
    evals = tr.counters[("item", "gradcheck.fd_evals")]
    expected = tr.counters[("item", "gradcheck.fd_evals_expected")]
    if evals or expected:
        checks.add("fd evals == 2 x leaf elements", evals == expected,
                   f"{evals} evals, expected {expected}")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def name_table(tr: Tracer, kind: str) -> list[dict]:
    """Self and inclusive time per span name, per pass of `kind`."""
    n = max(tr.n_passes(kind), 1)
    rows = [
        {"name": name, "calls": s[CALLS] / n, "self_ms": s[SELF] / n * 1e3,
         "incl_ms": s[INCL] / n * 1e3}
        for name, s in tr.self_by_name(kind).items()
    ]
    rows.sort(key=lambda r: -r["self_ms"])
    return rows


def layer_table(tr: Tracer, kind: str) -> list[dict]:
    """Self time rolled up by layer: the first component of the span name."""
    acc: dict[str, float] = {}
    for r in name_table(tr, kind):
        layer = r["name"].split(".", 1)[0]
        acc[layer] = acc.get(layer, 0.0) + r["self_ms"]
    return sorted(({"layer": k, "self_ms": v} for k, v in acc.items()), key=lambda r: -r["self_ms"])


def path_table(tr: Tracer, kind: str) -> list[dict]:
    """Module self time (own ops included, child modules excluded) per path."""
    n = max(tr.n_passes(kind), 1)
    rows = [
        {"path": p, "calls": s[0] / n, "incl_ms": s[1] / n * 1e3, "self_ms": s[2] / n * 1e3}
        for p, s in tr.self_by_path(kind).items()
    ]
    rows.sort(key=lambda r: -r["self_ms"])
    return rows


def join_costs(tr: Tracer, kind: str, report, checks, label: str) -> dict:
    """Join module self time to count_costs rows by module name.

    Every CostReport row must have a span at its module path in the passes
    of `kind`; an unmatched row is a failed check, never skipped.
    """
    n = max(tr.n_passes(kind), 1)
    by_path = tr.self_by_path(kind)
    rows, unmatched = [], []
    for r in report.rows:
        s = by_path.get(r.name)
        if s is None:
            unmatched.append(r.name)
            continue
        ms = s[2] / n * 1e3
        rows.append({"name": r.name, "kind": r.kind, "ms": ms, "macs": r.macs,
                     "gflops": 2 * r.macs / ms / 1e6 if ms > 0 else 0.0})
    checks.add(f"{label}: every cost row matched", not unmatched,
               f"{len(unmatched)} unmatched, e.g. {unmatched[:3]}")
    rollup: dict[str, dict] = {}
    for r in rows:
        k = rollup.setdefault(r["kind"], {"kind": r["kind"], "rows": 0, "ms": 0.0, "macs": 0})
        k["rows"] += 1
        k["ms"] += r["ms"]
        k["macs"] += r["macs"]
    for k in rollup.values():
        k["gflops"] = 2 * k["macs"] / k["ms"] / 1e6 if k["ms"] > 0 else 0.0
    return {"pass": kind, "rows": rows, "rollup": sorted(rollup.values(), key=lambda k: -k["ms"]),
            "unmatched": unmatched}


def format_join(join: dict, title: str, top: int = 15) -> list[str]:
    lines = [f"## {title}: ms per pass, count_costs MACs, achieved GFLOP/s "
             f"({len(join['rows'])} rows; top {top} by ms)"]
    lines.append(f"{'row':<44} {'kind':<13} {'ms':>9} {'MMACs':>10} {'GFLOP/s':>8}")
    for r in sorted(join["rows"], key=lambda r: -r["ms"])[:top]:
        lines.append(f"{r['name']:<44} {r['kind']:<13} {r['ms']:>9.3f} {r['macs'] / 1e6:>10.2f} "
                     f"{r['gflops']:>8.2f}")
    lines.append(f"## {title}: rollup by cost-row kind")
    for k in join["rollup"]:
        lines.append(f"{k['kind']:<13} rows {k['rows']:>4}  {k['ms']:>9.3f} ms  "
                     f"{k['macs'] / 1e6:>10.2f} MMACs  {k['gflops']:>7.2f} GFLOP/s")
    return lines
