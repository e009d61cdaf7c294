"""Command-line surface.

Exit codes: 0 = success / check passed, 1 = check failed, 2 = usage or
configuration error, 3 = numerical error (NaN/Inf in checked mode).
Every command is deterministic given --seed. MAF_CHECKED=0|1 toggles
NaN/Inf detection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import gradcheck as gc
from .analysis import count_costs, erf_map, erf_radius, write_heatmap_csv, write_heatmap_pgm
from .errors import ConfigError, MafError, NumericalError, SerializationError, ShapeError
from .model import (
    ModelConfig,
    build_model,
    calibrate_bn_stats,
    fuse_model,
    ghks_kernels,
    load_config,
    nano_config,
    rep_units,
    toy_config,
)
from .repconv import fuse_equivalence_deviation, randomize_bn_stats, randomize_weights
from .serialize import load_weights, save_weights
from .tensor import Tensor
from .train import ToyClassifier, make_blob_dataset, train_toy, write_curve_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _load_model_config(args) -> ModelConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return nano_config(seed=getattr(args, "seed", 0))


def _check_tol(command: str, tol: float) -> None:
    # nan, inf or < 0 make every comparison a vacuous PASS or FAIL; 0 asks for equality
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"{command}: --tol must be finite and >= 0, got {tol}")


# Largest input side a command accepts, over 6x the largest documented size
# (640). It bounds the side, not its product with a batch or sample count.
MAX_INPUT_SIDE = 4096


def _check_size(command: str, flag: str, size: int) -> None:
    # a model input side is a multiple of 32; a negative one would reach numpy
    if size < 1 or size % 32:
        raise ConfigError(f"{command}: {flag} must be a positive multiple of 32, got {size}")
    if size > MAX_INPUT_SIDE:
        raise ConfigError(f"{command}: {flag} must be at most {MAX_INPUT_SIDE}, got {size}")


def _finite_or_null(v):
    # JSON has no NaN or inf: a non-finite number is written as null
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "format", "text") == "json":
        text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader has gone (`maf ... | head`). Point stdout at /dev/null so
        # the flush at exit cannot fail again; the command keeps its exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_summary(args) -> int:
    _check_size("summary", "--input-size", args.input_size)
    cfg = _load_model_config(args)
    model = build_model(cfg)
    if args.fused:
        model.eval()
        fuse_model(model)
    report = count_costs(model, args.input_size)
    schedule = ghks_kernels(model)
    payload = report.to_dict()
    payload["kernel_schedule"] = schedule
    text = report.format_table() + (
        f"\nkernel schedule: backbone {schedule['backbone']}, neck {schedule['neck']}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def cmd_verify_fuse(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"verify-fuse: --trials must be >= 1, got {args.trials}")
    if args.mode == "model":
        _check_size("verify-fuse", "--input-size", args.input_size)
    if args.tol is None:
        args.tol = 1e-4 if args.mode == "unit" else 1e-3
    _check_tol("verify-fuse", args.tol)
    cfg = _load_model_config(args)
    model = build_model(cfg)
    if args.weights:
        load_weights(model, args.weights)
    model.eval()
    rng = np.random.default_rng(args.seed)
    lines = []
    if args.mode == "unit":
        for name, unit in rep_units(model):
            devs = []
            for _ in range(args.trials):
                if not args.weights:
                    randomize_weights(unit, rng)
                    randomize_bn_stats(unit, rng)
                    unit.fuse()  # new weights make its held kernels stale
                x = Tensor(
                    rng.standard_normal((2, unit.channels, 16, 16)).astype(np.float32)
                )
                devs.append(fuse_equivalence_deviation(unit, x))
            lines.append((name, float(np.max(devs))))
    else:
        if not args.weights:
            # finalize running statistics at the evaluation resolution so the
            # branch and fused paths are compared on sane activation scales
            calibrate_bn_stats(
                model, rng, input_shape=(1, cfg.in_channels, args.input_size, args.input_size)
            )
        for trial in range(args.trials):
            x = Tensor(
                rng.standard_normal((1, cfg.in_channels, args.input_size, args.input_size))
                .astype(np.float32)
            )
            lines.append((f"trial{trial}", fuse_equivalence_deviation(model, x)))
    # np.max keeps a NaN wherever it comes, so NaN <= tol reads FAIL
    worst = float(np.max([d for _, d in lines]))
    ok = worst <= args.tol
    payload = {
        "mode": args.mode,
        "trials": args.trials,
        "tol": args.tol,
        "max_deviation": worst,
        "pass": ok,
        "per_item": [{"name": n, "max_deviation": d} for n, d in lines],
    }
    text = "\n".join([f"{n}: max deviation {d:.3e}" for n, d in lines])
    text += f"\nmax deviation {worst:.3e} vs tol {args.tol:g}: {'PASS' if ok else 'FAIL'}"
    _emit(args, payload, text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_gradcheck(args) -> int:
    names = [s for s in args.ops.split(",") if s]
    if not names:
        raise ConfigError("gradcheck: empty op list")
    _check_tol("gradcheck", args.tol)
    ok, rows = gc.run_gradcheck(names, rtol=args.tol, seed=args.seed)
    payload = {
        "tol": args.tol,
        "pass": ok,
        "checks": [{"op": label, "max_rel_err": err, "pass": o} for label, err, o in rows],
    }
    text = "\n".join(
        f"{label:30s} max rel err {err:.3e}  {'ok' if o else 'FAIL'}" for label, err, o in rows
    )
    text += f"\ngradcheck: {'PASS' if ok else 'FAIL'} (tol {args.tol:g})"
    _emit(args, payload, text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_erf(args) -> int:
    if args.random_inputs < 0:
        raise ConfigError(f"erf: --random-inputs must be >= 0, got {args.random_inputs}")
    _check_size("erf", "--input-size", args.input_size)
    cfg = _load_model_config(args)
    model = build_model(cfg)
    shape = (1, cfg.in_channels, args.input_size, args.input_size)
    if args.random_inputs:
        rng = np.random.default_rng(args.seed)
        heats = [
            erf_map(model, args.tap, Tensor(rng.standard_normal(shape).astype(np.float32)))
            for _ in range(args.random_inputs)
        ]
        heat = np.mean(heats, axis=0)
        heat /= heat.sum()
    else:
        heat = erf_map(model, args.tap, Tensor(np.ones(shape, dtype=np.float32)))
    radius = erf_radius(heat, args.mass)
    if args.out:
        write_heatmap_csv(heat, args.out)
    if args.pgm:
        write_heatmap_pgm(heat, args.pgm)
    payload = {
        "tap": args.tap,
        "input_size": args.input_size,
        "mass": args.mass,
        "radius": radius,
    }
    _emit(args, payload, f"tap {args.tap}: {int(100 * args.mass)}%-mass radius = {radius}")
    return EXIT_OK


def cmd_toy_train(args) -> int:
    _check_size("toy-train", "--size", args.size)
    if not math.isfinite(args.lr):
        # a usage error, not a divergence for a training step to report (exit 3)
        raise ConfigError(f"toy-train: --lr must be finite, got {args.lr}")
    cfg = toy_config(seed=args.seed)
    ds = make_blob_dataset(n=args.samples, size=args.size, seed=args.seed)
    model = ToyClassifier(cfg)
    result = train_toy(model, ds, steps=args.steps, lr=args.lr, batch_size=args.batch_size)
    if args.out:
        write_curve_csv(result, args.out)
    if args.save_weights:
        save_weights(model, args.save_weights)
    payload = {
        "steps": result.steps,
        "final_loss": result.final_loss,
        "accuracy": result.accuracy,
    }
    _emit(
        args,
        payload,
        f"{result.steps} steps: final loss {result.final_loss:.4f}, "
        f"train accuracy {result.accuracy:.3f}",
    )
    return EXIT_OK


# Ablation presets, one row per variant: (preset, label, toggles switched off).
# use_elan/use_rep/use_large apply to the backbone and the neck alike;
# enable_saf/enable_aaf are neck-only.
ABLATIONS = (
    ("table2", "plain", ("use_elan", "use_large", "use_rep")),
    ("table2", "elan", ("use_large", "use_rep")),
    ("table2", "elan+rep", ("use_large",)),
    ("table2", "elan+lk", ("use_rep",)),
    ("table2", "lk+rep", ("use_elan",)),
    ("table2", "elan+lk+rep", ()),
    ("table3", "none", ("enable_saf", "enable_aaf")),
    ("table3", "saf", ("enable_aaf",)),
    ("table3", "aaf", ("enable_saf",)),
    ("table3", "saf+aaf", ()),
    ("table5", "baseline", ("enable_saf", "enable_aaf", "use_elan", "use_rep", "use_large")),
    ("table5", "+neck", ("use_elan", "use_rep", "use_large")),
    ("table5", "+blocks", ("use_large",)),
    ("table5", "+kernels", ()),
)


def _ablation_config(off, seed: int) -> ModelConfig:
    c = nano_config(seed=seed)
    for toggle in off:
        if hasattr(c, toggle):
            setattr(c, toggle, False)
    c.neck = dataclasses.replace(c.neck, **dict.fromkeys(off, False))
    return c


def _ablate_rows(preset: str, seed: int):
    """(label, ModelConfig) grid for a structure-toggle preset."""
    rows = [(label, _ablation_config(off, seed)) for p, label, off in ABLATIONS if p == preset]
    if not rows:
        raise ConfigError(f"unknown ablation preset {preset!r} (table2|table3|table5)")
    return rows


def cmd_ablate(args) -> int:
    _check_size("ablate", "--input-size", args.input_size)
    rows = []
    for label, cfg in _ablate_rows(args.preset, args.seed):
        model = build_model(cfg)
        train_report = count_costs(model, args.input_size)
        model.eval()
        fuse_model(model)
        fused_report = count_costs(model, args.input_size)
        rows.append(
            {
                "variant": label,
                "params": train_report.total_params,
                "flops": train_report.flops,
                "fused_params": fused_report.total_params,
                "fused_flops": fused_report.flops,
            }
        )
    text_lines = [f"preset {args.preset} @ {args.input_size}x{args.input_size}"]
    text_lines.append(f"{'variant':<14} {'params':>10} {'FLOPs':>14} {'fused params':>13} {'fused FLOPs':>14}")
    for r in rows:
        text_lines.append(
            f"{r['variant']:<14} {r['params']:>10} {r['flops']:>14} "
            f"{r['fused_params']:>13} {r['fused_flops']:>14}"
        )
    _emit(args, {"preset": args.preset, "rows": rows}, "\n".join(text_lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="maf",
        description="build, verify and analyze reparameterized multi-branch fusion networks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        # numpy generators reject negative seeds; a ConfigError (not an argparse
        # error) reaches main(), which reports it as "error: ..." with exit 2
        value = int(text)
        if value < 0:
            raise ConfigError(f"--seed must be >= 0, got {value}")
        return value

    def common(sp, config=True):
        sp.add_argument("--seed", type=seed, default=0)
        sp.add_argument("--format", choices=["text", "json"], default="text")
        if config:
            sp.add_argument("--config", help="model config JSON path (default: built-in nano)")

    sp = sub.add_parser("summary", help="parameter/MAC table for a model config")
    common(sp)
    sp.add_argument("--input-size", type=int, default=640)
    sp.add_argument("--fused", action="store_true", help="count the fused inference path")
    sp.set_defaults(fn=cmd_summary)

    sp = sub.add_parser("verify-fuse", help="train vs fused forward equivalence")
    common(sp)
    sp.add_argument(
        "--weights",
        help="weight file (default: randomized statistics). fuse_equivalence_deviation "
        "checks each unit or the whole model: a fused file with the kernels it holds, "
        "an unfused one after fusing it",
    )
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument(
        "--tol", type=float, default=None,
        help="max deviation (default: 1e-4 unit mode, 1e-3 model mode)",
    )
    sp.add_argument("--mode", choices=["unit", "model"], default="unit")
    sp.add_argument(
        "--input-size", type=int, default=320,
        help="model-mode input size; below 320 the noise calibration of the batch-norm "
        "statistics is ill-conditioned, so model mode can exceed 1e-3 with a correct fusion "
        "(README's verify-fuse note gives the deviations measured per size)",
    )
    sp.set_defaults(fn=cmd_verify_fuse)

    sp = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    common(sp, config=False)
    sp.add_argument("--ops", default="all", help="comma-separated op list or 'all'")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.set_defaults(fn=cmd_gradcheck)

    sp = sub.add_parser("erf", help="effective-receptive-field map and radius")
    common(sp)
    sp.add_argument("--tap", default="N3", help="tap name, e.g. P4, P'4, N3, out5")
    sp.add_argument("--input-size", type=int, default=320)
    sp.add_argument("--mass", type=float, default=0.95)
    sp.add_argument(
        "--random-inputs", type=int, default=0,
        help="average over N random inputs instead of the all-ones probe",
    )
    sp.add_argument("--out", help="write the map as CSV")
    sp.add_argument("--pgm", help="write the map as a PGM grayscale image")
    sp.set_defaults(fn=cmd_erf)

    sp = sub.add_parser("toy-train", help="overfit the synthetic two-scale blob set")
    common(sp, config=False)
    sp.add_argument("--steps", type=int, default=500)
    sp.add_argument("--lr", type=float, default=0.05)
    sp.add_argument("--batch-size", type=int, default=16)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--size", type=int, default=64)
    sp.add_argument("--out", help="write the loss curve as CSV")
    sp.add_argument("--save-weights", help="write the trained classifier weights")
    sp.set_defaults(fn=cmd_toy_train)

    sp = sub.add_parser("ablate", help="structure-toggle grids with params/FLOPs per row")
    common(sp, config=False)
    sp.add_argument("--preset", required=True)
    sp.add_argument("--input-size", type=int, default=640)
    sp.set_defaults(fn=cmd_ablate)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # A diverging run's numpy overflow and invalid-value warnings would
        # come before its one `numerical error:` line; muting them changes no
        # computed value.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, SerializationError, ShapeError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:
        # numpy names the allocation; a bare MemoryError carries no text
        print(f"error: out of memory: {str(e) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except MafError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
