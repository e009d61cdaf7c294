#!/usr/bin/env python3
"""mafnet benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload deploy640 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Full results, with
provenance, are also written under ``perfbench/out/``. See README.md.
"""

from __future__ import annotations

import os
import sys

# Pin threads before numpy loads: one BLAS thread, one client, checked mode on.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["MAF_CHECKED"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

# Every reported time is CPU time of this process. The loop is one thread and
# BLAS is pinned to one, so on an idle machine this equals wall time; on a
# shared VM it leaves out the time other tenants hold the CPU, which made
# wall-clock tails swing by up to 2.5x per item. Wall-clock figures are kept
# in the result file for comparison.
from time import process_time as clock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (name, unit, better) for every end-to-end metric.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("item_ms_p50", "ms", "lower"),
    ("item_ms_tail", "ms", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("branch_ms_p50", "ms", "lower"),
    ("fused_speedup", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def import_program():
    """Import mafnet from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mafnet
    except ImportError as e:
        sys.exit(f"perfbench: cannot import mafnet from {src}: {e}")
    if not Path(mafnet.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: mafnet resolved to {mafnet.__file__}, not under {src}")


class NullCtx:
    """The untraced stand-in for Tracer's span/pass_ interface."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def pass_(self, kind):
        return self._null


def p50(xs) -> float:
    return statistics.median(xs)


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with >= 10
    samples beyond it; with fewer than 11 samples none has, so the maximum."""
    s = sorted(xs)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def provenance(args) -> dict:
    import numpy as np
    from mafnet import tensor

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "MAF_CHECKED": tensor.checked_enabled(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


def timed_loop(wl, seconds: float, ctx) -> dict:
    """Closed loop: next item only after the previous one, for `seconds` of wall time."""
    item_s, item_wall_s, side_s, side_wall_s = [], [], 0.0, 0.0
    start, start_wall = clock(), perf_counter()
    i = 0
    while i < wl.min_items or perf_counter() - start_wall < seconds:
        with ctx.pass_("item"):
            t0, w0 = clock(), perf_counter()
            out = wl.item(i, ctx)
            item_s.append(clock() - t0)
            item_wall_s.append(perf_counter() - w0)
        wl.check(i, out)
        t0, w0 = clock(), perf_counter()
        wl.side_sample(i, out, ctx)
        side_s += clock() - t0
        side_wall_s += perf_counter() - w0
        i += 1
    cpu = clock() - start - side_s
    wall = perf_counter() - start_wall - side_wall_s
    fused_s, branch_s = wl.finish(item_s)
    return {"item_s": item_s, "item_wall_s": item_wall_s, "cpu_s": cpu, "wall_s": wall,
            "fused_s": fused_s, "branch_s": branch_s}


def end_to_end(setup_s: list, loop: dict) -> tuple[dict, dict]:
    item_ms = [t * 1e3 for t in loop["item_s"]]
    tail_ms, tail_pct, beyond = tail(item_ms)
    values = {
        "setup_s": p50(setup_s),
        "item_ms_p50": p50(item_ms),
        "item_ms_tail": tail_ms,
        "items_per_s": len(item_ms) / loop["cpu_s"],
        "branch_ms_p50": p50(loop["branch_s"]) * 1e3,
        "fused_speedup": p50(loop["branch_s"]) / p50(loop["fused_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "item_samples": len(item_ms),
        "item_ms_tail_percentile": tail_pct,
        "item_ms_tail_samples_beyond": beyond,
        "fused_samples": len(loop["fused_s"]),
        "branch_samples": len(loop["branch_s"]),
        "fused_ms_p50": p50(loop["fused_s"]) * 1e3,
        "setup_s_all": setup_s,
        "item_ms_all": item_ms,
        "item_wall_ms_all": [t * 1e3 for t in loop["item_wall_s"]],
        "item_wall_ms_p50": p50(loop["item_wall_s"]) * 1e3,
        "items_per_wall_s": len(item_ms) / loop["wall_s"],
        "wall_over_cpu_max": max(w / max(c, 1e-9) for w, c in zip(loop["item_wall_s"], loop["item_s"])),
        "fused_ms_all": [t * 1e3 for t in loop["fused_s"]],
        "branch_ms_all": [t * 1e3 for t in loop["branch_s"]],
    }
    return values, detail


def run_workload(args) -> int:
    import_program()
    from mafnet import analysis, model as mmodel

    import layers
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    checks = Checks()
    wl = WORKLOADS[args.workload](args.seed, args.tiny, checks)
    setup_s = []
    for _ in range(wl.setup_reps):
        t0 = clock()
        wl.setup()
        setup_s.append(clock() - t0)
    wl.warmup(NullCtx())
    loop = timed_loop(wl, args.seconds, NullCtx())
    e2e, detail = end_to_end(setup_s, loop)
    report = {"provenance": provenance(args), "end_to_end": e2e, "detail": detail}
    lines = [f"# mafnet benchmark: workload {args.workload}, seed {args.seed}"]
    lines += [f"# {k}: {v}" for k, v in report["provenance"].items()]
    for name, unit, better in END_TO_END:
        lines.append(f"{name:<16} {e2e[name]:>14.6f} {unit:<6} ({better} is better)")
    lines.append(f"  tail = p{detail['item_ms_tail_percentile']:.1f} of {detail['item_samples']} "
                 f"item samples, {detail['item_ms_tail_samples_beyond']} beyond it")
    lines.append(f"  fused samples {detail['fused_samples']}, branch samples {detail['branch_samples']}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    if args.trace:
        wl.setup()
        wl.warmup(NullCtx())
        tr = Tracer(wl.module_paths())
        tr.install()
        try:
            traced = timed_loop(wl, args.seconds, tr)
        finally:
            tr.uninstall()
        traced_p50 = p50(traced["item_s"]) * 1e3
        values = layers.layer_metrics(tr, wl, e2e["item_ms_p50"], traced_p50)
        layers.trace_checks(tr, checks)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
        report["per_layer"] = values
        report["trace"] = {
            "layers": layers.layer_table(tr, "item"),
            "names": layers.name_table(tr, "item"),
            "paths": layers.path_table(tr, "item"),
        }
        lines.append("## per-layer self time per item (ms), traced")
        lines += [f"{r['layer']:<12} {r['self_ms']:>12.3f}" for r in report["trace"]["layers"]]
        lines.append("## top span names by self time per item")
        lines.append(f"{'name':<34} {'calls':>9} {'self_ms':>10} {'incl_ms':>10}")
        lines += [f"{r['name']:<34} {r['calls']:>9.1f} {r['self_ms']:>10.3f} {r['incl_ms']:>10.3f}"
                  for r in report["trace"]["names"][:20]]
        lines.append("## top module paths by module self time per item")
        lines += [f"{r['path']:<48} {r['calls']:>6.1f} {r['self_ms']:>10.3f}"
                  for r in report["trace"]["paths"][:10]]
        if args.workload == "deploy640":
            fused = analysis.count_costs(wl.model, wl.size)
            plain = mmodel.build_model(wl.model.cfg).eval()
            branch = analysis.count_costs(plain, wl.size)
            for kind, cost, title in (("item", fused, "fused pass"), ("branch", branch, "branch pass")):
                join = layers.join_costs(tr, kind, cost, checks, title)
                report["trace"][f"join_{kind}"] = join
                lines += layers.format_join(join, title)
        lines.append(f"## tracing overhead: traced item p50 {traced_p50:.3f} ms - untraced "
                     f"{e2e['item_ms_p50']:.3f} ms = {traced_p50 - e2e['item_ms_p50']:.3f} ms")
        OUT.mkdir(exist_ok=True)
        tr.save(OUT / f"{args.workload}-seed{args.seed}.spans.npz")

    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "fail_ratio": checks.failed / max(checks.attempted, 1),
                        "worst": checks.worst, "failures": checks.failures}
    lines.append(f"fail_ratio {report['checks']['fail_ratio']} "
                 f"({checks.failed} failed of {checks.attempted} checks)")
    lines += [f"  worst {name}: {value:.3e}" for name, value in sorted(checks.worst.items())]
    lines += [f"  FAILED {f}" for f in checks.failures]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=float) + "\n")
    lines.append(f"# written {out_file.relative_to(ROOT)}")
    print("\n".join(lines))
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    names = ["deploy640", "train_toy", "gradcheck_all"]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time per loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: 128x128 deploy, batch-4 toy, one gradcheck family")
    args = ap.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    # Every workload in its own process, so peak RSS is per workload.
    summary, ok = {}, True
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and summary[name]["correct"]
    metrics = {f"{w}.{k}": m for w, r in summary.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in summary.values()),
                      "failed": sum(r["failed"] for r in summary.values()), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
