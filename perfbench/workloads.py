"""The three benchmark workloads.

Each workload is one closed loop driven by run.py: a single client issues the
next item only after the previous one returned. Every input is generated from
the workload seed. A workload provides

- ``setup()``: the timed set-up, repeated ``setup_reps`` times for a median;
  it also resets per-phase state, so the traced phase starts afresh;
- ``warmup(ctx)``: one untimed item, so caches fill before timing;
- ``item(i, ctx)``: one timed unit of work;
- ``check(i, out)``: untimed correctness checks on the item's output;
- ``side_sample(i, out, ctx)``: untimed by the item clock, the fused and
  branch-path samples behind ``fused_speedup``, spread through the loop;
- ``finish(item_s)``: end-of-loop checks; returns the fused and branch
  sample lists.

Failed checks are counted in ``Checks``, never dropped.
"""

from __future__ import annotations

from time import process_time as clock  # the benchmark's clock; see run.py

import numpy as np

from mafnet import gradcheck, model as mmodel, ops, repconv, tensor, train
from mafnet.errors import MafError

FUSED_TOL = 1e-3  # README: whole-model fusion equivalence, float32
FUSED_TOL_F64 = 1e-10  # README: unit fusion equivalence, float64
GRADCHECK_RTOL = 1e-4  # gradcheck.DEFAULT_RTOL


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}  # largest measured value per check

    def add(self, name: str, ok: bool, detail: str = "", value: float | None = None) -> None:
        self.attempted += 1
        if value is not None:
            self.worst[name] = max(self.worst.get(name, value), value)
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")

    def guard(self, name: str, fn, *args):
        """Run fn; a program error (MafError) counts as a failed check."""
        try:
            return fn(*args)
        except MafError as e:
            self.add(name, False, f"{type(e).__name__}: {e}")
            return None


def _seed32(seed: int) -> int:
    return seed % 2**32


def _outputs_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


class Deploy640:
    """Fused nano model at 640x640, batch 1, float32, no_grad, checked mode."""

    name = "deploy640"
    fused_pass = "item"  # the item itself is the fused sample
    min_items = 2  # the second item gives the first bitwise-repeat check
    setup_reps = 3

    def __init__(self, seed: int, tiny: bool, checks: Checks):
        self.seed = seed
        # Small maps need a larger calibration batch: with one 128x128 image
        # the 4x4 stride-32 maps give BN statistics that blow activations up.
        self.size, self.calib_batch = (128, 8) if tiny else (640, 1)
        self.checks = checks
        self.layer_times: dict[str, list[float]] = {"calibrate_bn_stats_s": [], "fuse_model_ms": []}

    def setup(self) -> None:
        rng = np.random.default_rng([_seed32(self.seed), 640])
        m = mmodel.build_model(mmodel.nano_config(seed=_seed32(self.seed)))
        t0 = clock()
        # One calibration batch keeps three set-ups per run affordable; the
        # library default of four batches costs ~4x the time.
        shape = (self.calib_batch, 3, self.size, self.size)
        mmodel.calibrate_bn_stats(m, rng, shape, batches=1)
        t1 = clock()
        m.eval()
        t2 = clock()
        mmodel.fuse_model(m)
        t3 = clock()
        self.layer_times["calibrate_bn_stats_s"].append(t1 - t0)
        self.layer_times["fuse_model_ms"].append((t3 - t2) * 1e3)
        self.model = m
        self.x = tensor.Tensor(rng.standard_normal((1, 3, self.size, self.size)).astype(np.float32))
        self.ref = None
        self.branch_s: list[float] = []

    def warmup(self, ctx) -> None:
        self.check(-1, self.item(-1, ctx))
        with repconv.branch_path():
            self.checks.guard("branch forward", self._forward)

    def module_paths(self) -> dict[int, str]:
        return {id(m): name or "model" for name, m in self.model.named_modules()}

    def _forward(self):
        with tensor.no_grad():
            outs, _ = self.model.forward_taps(self.x)
        return {k: v.data for k, v in outs.items()}

    def item(self, i, ctx):
        return self.checks.guard("fused forward", self._forward)

    def check(self, i, out) -> None:
        if out is None:
            return
        if self.ref is None:
            self.ref = out
        else:
            self.checks.add("fused output bitwise repeat", _outputs_equal(out, self.ref),
                            "output differs from the first item's for the same input")

    def side_sample(self, i, out, ctx) -> None:
        """The same input once through the branch path, timed separately."""
        with ctx.pass_("branch"):
            t0 = clock()
            with repconv.branch_path():
                branch = self.checks.guard("branch forward", self._forward)
            self.branch_s.append(clock() - t0)
        if out is None or branch is None:
            return
        dev = max(float(np.abs(out[k] - branch[k]).max()) for k in out)
        self.checks.add("fused vs branch", dev <= FUSED_TOL, f"max |fused-branch| {dev:.3e}", dev)

    def finish(self, item_s):
        return item_s, self.branch_s


class TrainToy:
    """SGD on ToyClassifier(toy_config()) over the 64-sample blob set, batch 16."""

    name = "train_toy"
    fused_pass = "fused"
    min_items = 10  # two loss windows of at least five steps
    setup_reps = 15
    sample_every = 4  # one fused/branch sample pair after every 4th step

    def __init__(self, seed: int, tiny: bool, checks: Checks):
        self.seed = seed
        self.tiny = tiny
        self.batch = 4 if tiny else 16
        self.checks = checks
        self.layer_times: dict[str, list[float]] = {"fuse_model_ms": []}

    def setup(self) -> None:
        s = _seed32(self.seed)
        # 64x64 in both sizes: at 32x32 the stride-32 maps are 1x1 and early
        # eval-mode activations grow large enough to fail the fusion check.
        self.ds = train.make_blob_dataset(n=16 if self.tiny else 64, size=64, seed=s)
        self.model = train.ToyClassifier(mmodel.toy_config(seed=s))
        self.model.train()
        self.opt = train.SGD(self.model.parameters(), lr=0.05)
        self.step = 0
        self.losses: list[float] = []
        self.fused_s: list[float] = []
        self.branch_s: list[float] = []

    def warmup(self, ctx) -> None:
        self.item(-1, ctx)

    def module_paths(self) -> dict[int, str]:
        return {id(m): name or "model" for name, m in self.model.named_modules()}

    def _step(self, ctx) -> float:
        # The loop body of train.train_toy, one SGD step per item.
        n = len(self.ds)
        idx = [(self.step * self.batch + j) % n for j in range(self.batch)]
        self.step += 1
        xb = tensor.Tensor(self.ds.images[idx])
        with ctx.span("train.forward"):
            loss = ops.softmax_cross_entropy(self.model(xb), self.ds.labels[idx])
        with ctx.span("train.backward"):
            self.opt.zero_grad()
            loss.backward()
        with ctx.span("train.sgd_step"):
            self.opt.step()
        return loss.item()

    def item(self, i, ctx):
        return self.checks.guard("sgd step", self._step, ctx)

    def check(self, i, loss) -> None:
        if loss is None:
            return
        self.checks.add("loss finite", bool(np.isfinite(loss)), f"loss {loss}")
        self.losses.append(loss)

    def side_sample(self, i, out, ctx) -> None:
        """Deploy the classifier as trained so far: fused vs branch eval forward."""
        if i % self.sample_every != self.sample_every - 1:
            return
        m = self.model
        m.eval()
        t0 = clock()
        mmodel.fuse_model(m)
        self.layer_times["fuse_model_ms"].append((clock() - t0) * 1e3)
        x = tensor.Tensor(self.ds.images[: self.batch])
        _fused_branch_pair(m, x, FUSED_TOL, ctx, self.checks, self.fused_s, self.branch_s)
        m.train()

    def finish(self, item_s):
        w = max(1, min(10, len(self.losses) // 2))
        first, last = np.mean(self.losses[:w]), np.mean(self.losses[-w:])
        self.checks.add("loss decreases", len(self.losses) >= 2 and last < first,
                        f"mean loss of last {w} steps {last:.4f} vs first {w} {first:.4f}")
        return self.fused_s, self.branch_s


class GradcheckAll:
    """One full run_gradcheck(["all"]) sweep per item, float64, tiny tensors."""

    name = "gradcheck_all"
    fused_pass = "fused"
    min_items = 1
    setup_reps = 100  # set-up takes ~0.4 ms; fewer reps leave its median noisy
    sample_pairs = 50  # fused/branch sample pairs after each sweep
    sample_calls = 10  # forwards per sample: one call is too short to time alone

    def __init__(self, seed: int, tiny: bool, checks: Checks):
        self.seed = seed
        self.families = ["silu"] if tiny else ["all"]
        self.checks = checks
        self.layer_times: dict[str, list[float]] = {"fuse_model_ms": []}

    def setup(self) -> None:
        self.n_checks = sum(
            len(rows) for fam, rows in gradcheck.registry().items()
            if self.families == ["all"] or fam in self.families
        )
        # Fused vs branch on the rephdw check's unit: the per-call regime.
        rng = np.random.default_rng([_seed32(self.seed), 5])
        self.unit = repconv.RepHDWConv(3, 5, rng=rng, dtype=np.float64)
        repconv.randomize_bn_stats(self.unit, rng)
        self.unit.eval()
        t0 = clock()
        self.unit.fuse()
        self.layer_times["fuse_model_ms"].append((clock() - t0) * 1e3)
        self.x = tensor.Tensor(rng.standard_normal((2, 3, 6, 6)), dtype=np.float64)
        self.ref = None
        self.fused_s: list[float] = []
        self.branch_s: list[float] = []

    def warmup(self, ctx) -> None:
        self.checks.guard("gradcheck warm-up", gradcheck.run_gradcheck, ["silu"])

    def module_paths(self) -> dict[int, str]:
        return {}

    def item(self, i, ctx):
        return self.checks.guard(
            "gradcheck sweep", gradcheck.run_gradcheck, self.families, GRADCHECK_RTOL,
            _seed32(self.seed),
        )

    def check(self, i, result) -> None:
        if result is None:
            return
        _, rows = result
        self.checks.add("gradcheck row count", len(rows) == self.n_checks,
                        f"{len(rows)} rows, registry has {self.n_checks}")
        for label, err, ok in rows:
            self.checks.add("gradcheck row", ok and err <= GRADCHECK_RTOL,
                            f"{label}: max rel err {err:.3e}", err)

    def side_sample(self, i, out, ctx) -> None:
        for _ in range(self.sample_pairs):
            fused = _fused_branch_pair(self.unit, self.x, FUSED_TOL_F64, ctx, self.checks,
                                       self.fused_s, self.branch_s, self.sample_calls)
            if self.ref is None:
                self.ref = fused
            self.checks.add("fused output bitwise repeat", np.array_equal(fused, self.ref),
                            "output differs from the first sample's")

    def finish(self, item_s):
        return self.fused_s, self.branch_s


def _fused_branch_pair(m, x, tol, ctx, checks, fused_s, branch_s, calls=1):
    """Fused then branch-path eval forwards of m on x, timed and compared.

    Each sample is the mean time of `calls` forwards on the same input.
    """
    with ctx.pass_("fused"), tensor.no_grad():
        t0 = clock()
        for _ in range(calls):
            fused = m(x).data
        fused_s.append((clock() - t0) / calls)
    with ctx.pass_("branch"), tensor.no_grad(), repconv.branch_path():
        t0 = clock()
        for _ in range(calls):
            branch = m(x).data
        branch_s.append((clock() - t0) / calls)
    dev = float(np.abs(fused - branch).max())
    checks.add("fused vs branch", dev <= tol, f"max |fused-branch| {dev:.3e} > {tol}", dev)
    return fused


WORKLOADS = {w.name: w for w in (Deploy640, TrainToy, GradcheckAll)}
