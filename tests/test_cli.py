import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mafnet import gradcheck as gc
from mafnet import (
    RepHDWConv,
    build_model,
    calibrate_bn_stats,
    fuse_model,
    save_config,
    save_weights,
    toy_config,
    using,
)
from mafnet import cli
from mafnet.cli import MAX_INPUT_SIDE, main


def _not_json(token):
    raise ValueError(f"non-standard JSON token {token}")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def toy_cfg_path(tmp_path):
    p = tmp_path / "toy.json"
    save_config(toy_config(), str(p))
    return str(p)


def test_summary_totals_consistent(capsys, toy_cfg_path):
    code, out, _ = run(capsys, "summary", "--config", toy_cfg_path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total_params"] == sum(r["params"] for r in payload["rows"])
    assert payload["total_flops"] == 2 * payload["total_macs"]


def test_summary_text_has_total_row(capsys, toy_cfg_path):
    code, out, _ = run(capsys, "summary", "--config", toy_cfg_path, "--input-size", "64")
    assert code == 0
    assert "TOTAL" in out
    assert "FLOPs = 2 * MACs" in out
    assert "backbone [3, 5, 7, 9], neck [5, 7, 9]" in out


def test_summary_resolution_scaling(capsys, toy_cfg_path):
    _, out640, _ = run(capsys, "summary", "--config", toy_cfg_path, "--format", "json")
    _, out320, _ = run(
        capsys, "summary", "--config", toy_cfg_path, "--format", "json", "--input-size", "320"
    )
    m640 = json.loads(out640)["total_macs"]
    m320 = json.loads(out320)["total_macs"]
    assert m640 == 4 * m320


def test_summary_bad_config_path_exits_2(capsys):
    code, _, err = run(capsys, "summary", "--config", "/nonexistent/cfg.json")
    assert code == 2
    assert "error" in err.lower()


def test_summary_deterministic_output(capsys, toy_cfg_path):
    _, a, _ = run(capsys, "summary", "--config", toy_cfg_path)
    _, b, _ = run(capsys, "summary", "--config", toy_cfg_path)
    assert a == b


def test_verify_fuse_unit_mode_passes(capsys, toy_cfg_path):
    code, out, _ = run(
        capsys,
        "verify-fuse", "--config", toy_cfg_path, "--trials", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["per_item"]


def test_verify_fuse_zero_tol_fails_with_report(capsys, toy_cfg_path):
    code, out, _ = run(
        capsys,
        "verify-fuse", "--config", toy_cfg_path, "--trials", "1", "--tol", "0",
    )
    assert code == 1
    assert "max deviation" in out
    assert "FAIL" in out


def test_verify_fuse_model_mode(capsys, toy_cfg_path):
    code, out, _ = run(
        capsys,
        "verify-fuse", "--config", toy_cfg_path, "--mode", "model",
        "--trials", "1", "--input-size", "64", "--tol", "1e-3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.fixture(scope="module")
def toy_weight_files(tmp_path_factory):
    """A calibrated toy model saved unfused, fused, fused with every RepHDW
    kernel zeroed, and fused with one NaN in the last unit's kernel, next to
    its config."""
    d = tmp_path_factory.mktemp("weights")
    save_config(toy_config(), str(d / "toy.json"))
    model = build_model(toy_config())
    calibrate_bn_stats(model, np.random.default_rng(0), (1, 3, 64, 64))
    save_weights(model, str(d / "unfused.mafw"))
    model.eval()
    fuse_model(model)
    save_weights(model, str(d / "fused.mafw"))
    units = [m for m in model.modules() if isinstance(m, RepHDWConv)]
    kernels = [u.fused_weight for u in units]
    for unit in units:
        unit.set_buffer("fused_weight", np.zeros_like(unit.fused_weight))
    save_weights(model, str(d / "zeroed.mafw"))
    for unit, kernel in zip(units, kernels):
        unit.set_buffer("fused_weight", kernel)
    # the last unit feeds only the last model output, so a reduction that
    # keeps a NaN only when it comes first would drop it
    units[-1].fused_weight[0, 0, 0, 0] = np.nan
    save_weights(model, str(d / "nan.mafw"))
    return d


@pytest.mark.parametrize("mode", ["unit", "model"])
@pytest.mark.parametrize("name, code", [("unfused", 0), ("fused", 0), ("zeroed", 1)])
def test_verify_fuse_checks_the_kernels_a_weight_file_holds(
    capsys, toy_weight_files, name, code, mode
):
    d = toy_weight_files
    got, out, _ = run(
        capsys,
        "verify-fuse", "--config", str(d / "toy.json"), "--weights", str(d / f"{name}.mafw"),
        "--mode", mode, "--input-size", "64", "--trials", "1", "--format", "json",
    )
    assert got == code
    assert json.loads(out)["pass"] is (code == 0)


@pytest.mark.parametrize("mode", ["unit", "model"])
def test_verify_fuse_nan_deviation_fails(capsys, toy_weight_files, mode):
    """With checked mode off, a NaN in one unit's fused kernel reads a NaN
    deviation and FAIL, not a vacuous PASS."""
    d = toy_weight_files
    with using(checked=False):
        got, out, _ = run(
            capsys,
            "verify-fuse", "--config", str(d / "toy.json"), "--weights", str(d / "nan.mafw"),
            "--mode", mode, "--input-size", "64", "--trials", "2", "--format", "json",
        )
    payload = json.loads(out, parse_constant=_not_json)
    assert got == 1 and payload["pass"] is False
    assert payload["max_deviation"] is None
    assert sum(item["max_deviation"] is None for item in payload["per_item"]) == (
        1 if mode == "unit" else 2
    )


# A child process whose `print` to stdout fails as it does once the reader of
# a pipe has gone: it buffers some output, then raises BrokenPipeError.
_PIPE_GONE = """
import builtins, sys
from mafnet import cli

def gone(*args, file=None, **kwargs):
    if file is not None:
        return builtins.print(*args, file=file, **kwargs)
    sys.stdout.write("output the reader never takes")
    raise BrokenPipeError(32, "Broken pipe")

cli.print = gone
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("weights, want", [("fused.mafw", 0), ("nan.mafw", 1)])
def test_broken_pipe_keeps_the_command_exit_code(toy_weight_files, weights, want):
    """Output into a closed pipe ends the command with its own exit code (0
    for a PASS, 1 for the NaN FAIL), with no `error:` line or traceback and
    no failed flush at exit."""
    d = toy_weight_files
    argv = [
        "verify-fuse", "--config", str(d / "toy.json"), "--weights", str(d / weights),
        "--input-size", "64", "--trials", "1", "--format", "json",
    ]
    # stdout block-buffered, as usual for a pipe, so output is still pending at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["MAF_CHECKED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", _PIPE_GONE, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == want, proc.stderr
    assert proc.stdout == ""
    assert "error" not in proc.stderr and "Traceback" not in proc.stderr


def test_gradcheck_selected_ops(capsys):
    code, out, _ = run(capsys, "gradcheck", "--ops", "silu,upsample")
    assert code == 0
    assert "PASS" in out


def test_gradcheck_corrupted_backward_fails_naming_op(capsys, monkeypatch):
    registry = gc.registry

    def corrupted():
        checks = registry()
        checks["upsample"] = [
            (label, lambda seed=0, fn=fn: max(fn(seed=seed), 1.0))
            for label, fn in checks["upsample"]
        ]
        return checks

    monkeypatch.setattr(gc, "registry", corrupted)
    code, out, _ = run(capsys, "gradcheck", "--ops", "silu,upsample")
    assert code == 1
    lines = [l for l in out.splitlines() if "upsample" in l]
    assert lines and "FAIL" in lines[0]


def test_gradcheck_empty_ops_exits_2(capsys):
    code, _, err = run(capsys, "gradcheck", "--ops", "")
    assert code == 2
    assert "empty op list" in err


def test_gradcheck_unknown_op_exits_2(capsys):
    code, _, err = run(capsys, "gradcheck", "--ops", "warp_drive")
    assert code == 2
    assert "unknown ops" in err


CHEAP_FAMILIES = ["silu", "upsample", "concat", "split", "pool", "cross_entropy", "batchnorm"]
TOLS = ["-1", "-1e-3", "0", "1e-4", "1.0", "nan", "-nan", "inf", "-inf", "1e400"]


@settings(max_examples=40, deadline=None)
@given(
    tokens=st.lists(
        st.sampled_from(CHEAP_FAMILIES) | st.sampled_from(["", "warp_drive", "Silu", " silu"]),
        max_size=4,
    ),
    tol=st.sampled_from(TOLS),
    seed=st.sampled_from([-(2**70), -1, 0, 3]) | st.integers(2**64 + 1, 2**80),
    fmt=st.sampled_from(["text", "json"]),
)
def test_gradcheck_argv_property(tokens, tol, seed, fmt):
    """Every gradcheck argv ends in its documented exit code with no
    traceback: exit 2 for an empty or unknown op, a tolerance that is
    negative or not finite, or a negative seed; otherwise 0 (PASS) or 1 (FAIL),
    and --format json prints one JSON object whose pass field agrees."""
    argv = ["gradcheck", f"--ops={','.join(tokens)}", f"--tol={tol}", f"--seed={seed}",
            "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    names = [t for t in tokens if t]
    bad = (
        not names
        or any(n not in CHEAP_FAMILIES for n in names)
        or not (math.isfinite(float(tol)) and float(tol) >= 0)
        or seed < 0
    )
    if bad:
        assert code == 2 and out == "" and err.startswith("error:")
        return
    assert code in (0, 1) and err == ""
    if fmt == "json":
        payload = json.loads(out)
        assert payload["pass"] is (code == 0)
        assert len(payload["checks"]) == sum(2 if n == "batchnorm" else 1 for n in names)
    else:
        verdict = "PASS" if code == 0 else "FAIL"
        assert out.rstrip().endswith(f"gradcheck: {verdict} (tol {float(tol):g})")


# (command argv, size flag, count flag, its least valid value); every size
# drawn is bad, so each argv fails before any forward. toy-train checks its
# size first, so it draws no count.
SIZED_COMMANDS = [
    (["erf"], "--input-size", "--random-inputs", 0),
    (["verify-fuse", "--mode", "model"], "--input-size", "--trials", 1),
    (["toy-train", "--steps", "1"], "--size", None, None),
]


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(SIZED_COMMANDS),
    size=st.sampled_from([-32, 0, 31, 33, 48, 2147483648]),
    count=st.sampled_from([None, 0, -1]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_input_size_argv_property(command, size, count, fmt):
    """A size that is not a positive multiple of 32 up to cli.MAX_INPUT_SIDE,
    or a count below its least valid value, is exit 2 with an error naming
    the flag, never a traceback or an output."""
    argv, size_flag, flag, least = command
    argv = [*argv, f"{size_flag}={size}", "--format", fmt]
    if flag is None:
        count = None
    if count is not None:
        argv.append(f"{flag}={count}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    assert code == 2 and out == "" and err.startswith("error:")
    named = flag if count is not None and count < least else size_flag
    assert named in err
    if size > MAX_INPUT_SIDE and named == size_flag:
        assert str(MAX_INPUT_SIDE) in err


@settings(max_examples=30, deadline=None)
@given(
    command=st.sampled_from(["summary", "ablate"]),
    size=st.sampled_from([-32, 0, 31, 33, 64, 4097]),
    fused=st.booleans(),
    preset=st.sampled_from(["table3", "table9"]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_summary_and_ablate_argv_property(command, size, fused, preset, fmt):
    """summary (with and without --fused) and ablate (a known and an unknown
    --preset) exit 0 with a report at a valid size and 2 with an error naming
    the bad flag otherwise, never with a traceback; JSON output parses."""
    argv = [command, f"--input-size={size}", "--format", fmt]
    argv += (["--fused"] if fused else []) if command == "summary" else ["--preset", preset]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if size != 64:
        assert code == 2 and out == "" and err.startswith("error:") and "--input-size" in err
    elif command == "ablate" and preset == "table9":
        assert code == 2 and out == "" and "unknown ablation preset 'table9'" in err
    else:
        assert code == 0 and err == "" and out
        if fmt == "json":
            payload = json.loads(out)
            assert payload["total_params"] if command == "summary" else len(payload["rows"]) == 4


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 12.0 GiB")])
def test_memory_error_is_exit_2(capsys, monkeypatch, exc):
    """A command that runs out of memory is a usage error, not a traceback."""
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_summary", boom)
    code, out, err = run(capsys, "summary")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory: ") and "Traceback" not in err
    assert str(exc) in err


def test_erf_writes_csv_and_radius(capsys, toy_cfg_path, tmp_path):
    out_csv = tmp_path / "erf.csv"
    pgm = tmp_path / "erf.pgm"
    code, out, _ = run(
        capsys,
        "erf", "--config", toy_cfg_path, "--tap", "P3",
        "--input-size", "64", "--out", str(out_csv), "--pgm", str(pgm),
    )
    assert code == 0
    assert "radius" in out
    assert out_csv.exists() and pgm.exists()
    assert pgm.read_text().startswith("P2\n")


def test_erf_unknown_tap_exits_2(capsys, toy_cfg_path):
    code, _, err = run(
        capsys, "erf", "--config", toy_cfg_path, "--tap", "Q9", "--input-size", "64"
    )
    assert code == 2
    assert "unknown tap" in err


def test_erf_random_input_averaging(capsys, toy_cfg_path):
    code, out, _ = run(
        capsys,
        "erf", "--config", toy_cfg_path, "--tap", "P3", "--input-size", "64",
        "--random-inputs", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["radius"] >= 0


def test_toy_train_smoke(capsys, tmp_path):
    curve = tmp_path / "loss.csv"
    weights = tmp_path / "toy.mafw"
    code, out, _ = run(
        capsys,
        "toy-train", "--steps", "3", "--samples", "8", "--size", "32",
        "--batch-size", "4", "--out", str(curve), "--format", "json",
        "--save-weights", str(weights),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"] == 3
    assert curve.read_text().startswith("step,loss")
    assert weights.read_bytes()[:4] == b"MAFW"


def test_toy_train_json_output_is_reproducible(capsys):
    """Both output formats are identical across runs, and the text line
    carries only the JSON payload's steps, loss and accuracy."""
    args = ["toy-train", "--steps", "2", "--samples", "4", "--size", "32",
            "--batch-size", "2", "--format"]
    outs = {}
    for fmt in ("json", "text"):
        _, a, _ = run(capsys, *args, fmt)
        _, b, _ = run(capsys, *args, fmt)
        assert a == b, fmt
        outs[fmt] = a
    p = json.loads(outs["json"])
    assert outs["text"] == (
        f"{p['steps']} steps: final loss {p['final_loss']:.4f}, "
        f"train accuracy {p['accuracy']:.3f}\n"
    )


@settings(max_examples=40, deadline=None)
@given(
    steps=st.integers(-3, 2),
    samples=st.integers(-2, 4),
    lr=st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.05", "1e30"]),
    fmt=st.sampled_from(["text", "json"]),
)
def test_toy_train_argv_property(steps, samples, lr, fmt):
    """toy-train at any --steps, --samples and --lr exits 0 with its report,
    2 with one `error:` line or 3 (a diverging run) with one `numerical
    error:` line, never with a traceback or a numpy warning; JSON output
    parses. Values go as --flag=value, so --lr=-inf reaches the finiteness
    check, not argparse's option parser."""
    argv = [
        "toy-train", f"--steps={steps}", f"--samples={samples}", f"--lr={lr}",
        "--size", "32", "--batch-size", "2", "--format", fmt,
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3) and not caught
    assert "Traceback" not in err and "Warning" not in err
    bad = steps < 1 or samples < 1 or not math.isfinite(float(lr))
    assert (code == 2) == bad
    if code == 0:
        assert err == "" and out
        if fmt == "json":
            assert json.loads(out)["steps"] == steps
    else:
        prefix = "error: " if code == 2 else "numerical error: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1


def test_toy_train_divergence_in_final_accuracy_pass_names_train_toy(capsys):
    """A step that survives training but leaves non-finite weights fails in
    the final accuracy pass: exit 3, with train_toy and its last step named."""
    code, out, err = run(
        capsys,
        "toy-train", "--steps", "1", "--samples", "4", "--size", "32",
        "--batch-size", "2", "--lr", "1e30",
    )
    assert code == 3 and out == ""
    assert err.startswith(
        "numerical error: train_toy: diverged in the final accuracy evaluation after step 0: "
    )
    assert err.count("\n") == 1


def test_ablate_table3_params_strictly_increase(capsys):
    code, out, _ = run(capsys, "ablate", "--preset", "table3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["variant"] for r in rows] == ["none", "saf", "aaf", "saf+aaf"]
    params = [r["params"] for r in rows]
    assert params == sorted(params) and len(set(params)) == 4


def test_ablate_table2_rep_keeps_fused_params(capsys):
    code, out, _ = run(capsys, "ablate", "--preset", "table2", "--format", "json")
    assert code == 0
    rows = {r["variant"]: r for r in json.loads(out)["rows"]}
    assert rows["elan+rep"]["fused_params"] == rows["elan"]["fused_params"]
    assert rows["elan+rep"]["params"] > rows["elan"]["params"]


def test_ablate_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "ablate", "--preset", "table9")
    assert code == 2
    assert "unknown ablation preset" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["toy-train", "--steps", "1", "--batch-size", "0"],
        ["toy-train", "--steps", "1", "--batch-size", "-2"],
        ["toy-train", "--steps", "1", "--samples", "0"],
        ["toy-train", "--steps", "1", "--samples", "-1"],
        *(["toy-train", "--steps", "1", "--size", s] for s in ["0", "8", "12", "16", "24", "33"]),
        *(["toy-train", "--steps", "1", "--lr", lr] for lr in ["nan", "inf"]),
        ["verify-fuse", "--trials", "0"],
        ["verify-fuse", "--trials", "-1"],
        ["verify-fuse", "--trials", "0", "--mode", "model"],
        ["verify-fuse", "--trials", "-1", "--mode", "model"],
        ["erf", "--random-inputs", "-1"],
        *(["gradcheck", "--ops", "silu", "--tol", t] for t in ["nan", "inf", "-1", "-0.5"]),
        *(["verify-fuse", "--trials", "1", "--tol", t] for t in ["nan", "inf", "-1", "-0.5"]),
        ["verify-fuse", "--trials", "1", "--mode", "model", "--tol", "inf"],
        *([cmd, "--seed", "-1"] for cmd in ["summary", "toy-train", "gradcheck", "verify-fuse", "erf"]),
        ["ablate", "--preset", "table2", "--seed", "-1"],
    ],
    ids=" ".join,
)
def test_degenerate_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "PASS" not in out


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"stem_width": "a"}, "stem_width"),
        ({"stage_widths": 5}, "stage_widths"),
        ({"stage_widths": [32, 64, True, 256]}, "stage_widths"),
        ({"expansion": "x"}, "expansion"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -1}, "seed"),
        ({"use_rep": "no"}, "use_rep"),
        ({"use_rep": 1}, "use_rep"),
        ({"in_channels": 2.5}, "in_channels"),
        ({"neck": 5}, "neck"),
        ({"neck": {"widths": "abc"}}, "widths"),
        ({"neck": {"saf_ratio": "half"}}, "saf_ratio"),
        ({"neck": {"saf_ratio": 0.005}}, "saf_ratio"),
        ({"neck": {"enable_saf": 0}}, "enable_saf"),
        # out-of-range block values name their JSON field (json reads NaN/Infinity)
        ({"neck": {"depth": 0}}, "neck.depth"),
        ({"neck": {"kernels": [4, 7, 9]}}, "neck.kernels"),
        ({"backbone_kernels": [1, 3, 5, 7]}, "config: backbone_kernels"),
        ({"neck": {"widths": [1, 1, 1]}}, "neck.widths"),
        ({"expansion": 0.5}, "config: expansion"),
        ({"expansion": float("nan")}, "config: expansion"),
        ({"expansion": float("inf")}, "config: expansion"),
        ({"expansion": -float("inf")}, "config: expansion"),
        ({"neck": {"expansion": float("nan")}}, "neck.expansion"),
        ({"neck": {"expansion": float("inf")}}, "neck.expansion"),
        # channel counts and expansions are capped before numpy allocates anything
        ({"stage_widths": [32, 64, 128, 100000000]}, "config: stage_widths"),
        ({"neck": {"widths": [96, 192, 4097]}}, "neck.widths"),
        ({"head_out_channels": 4097}, "config: head_out_channels"),
        ({"expansion": 1e12}, "config: expansion"),
        ({"neck": {"expansion": 16.5}}, "neck.expansion"),
        ({"stage_depths": [2, 4, 4]}, "config: stage_depths"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else v,
)
def test_summary_rejects_mistyped_config_field(capsys, tmp_path, cfg, field):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, err = run(capsys, "summary", "--config", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and field in err


def test_usage_error_exits_2(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_verify_fuse_model_numerical_error_names_the_op(capsys):
    """On the default nano config at 32, the fused forward overflows: exit 3
    with one `numerical error:` line naming the first non-finite op."""
    code, out, err = run(
        capsys, "verify-fuse", "--mode", "model", "--input-size", "32", "--trials", "1",
    )
    assert code == 3 and out == ""
    assert err == "numerical error: conv2d: non-finite values in output\n"
