"""The two command-line workloads: ``verify-large`` and ``roundtrip-small``.

Both are closed loops with one client and one request in flight.
Untraced, every operation is a fresh ``python -m lightcone`` process, so
interpreter start, the numpy import and JSON parsing are part of each
figure.  Traced, the same operations run in-process through
``lightcone.cli.main``, once plain and once with the library's public
names wrapped in spans, alternating, so the overhead of the wrappers is
measured on the same inputs.
"""

from __future__ import annotations

import io
import json
import os
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import oracle
from common import SPEEDS, WORK, ChildResult, SetupSampler, median, metric, run_child, tail
from spans import Tracer, duration, patched, self_times

LIGHT = 2.99792458e8

#: The tail is taken over a fixed number of verifies -- the first whole
#: passes over the inputs that hold at least this many -- so its percentile
#: does not move with the speed of the program: one pass of roundtrip-small's
#: 32 inputs (p68.75), four of verify-large's four (p37.5).  A run of
#: verify-large holds too few verifies for an upper percentile with ten
#: samples beyond it, so there tail_s is a low-order statistic of the
#: accepts: it duplicates accept_s and shows no tail.  Sixteen keeps that
#: rank among the accepts, not on the step between accepts and refusals.
MIN_TAIL_VERIFIES = 16


#: Stages wrapped in traced runs: (module, attribute, span name).
STAGES = (
    ("cli", "load_samples", "sampleio.load_samples"),
    ("cli", "recover_lorentz", "recover.recover_lorentz"),
    ("cli", "save_report", "sampleio.save_report"),
    ("cli", "make_samples", "generate.make_samples"),
    ("cli", "save_samples", "sampleio.save_samples"),
    ("cli", "save_truth", "sampleio.save_truth"),
    ("recover", "check_cone_preservation", "recover.check_cone_preservation"),
    ("recover", "check_collinearity", "recover.check_collinearity"),
    ("recover", "check_parallelism", "recover.check_parallelism"),
    ("recover", "fit_affine", "recover.fit_affine"),
    ("recover", "induced_field_map_check", "recover.induced_field_map_check"),
    ("recover", "decompose_conformal", "boost.decompose_conformal"),
    # the benchmark's own set-up looks these up on their modules
    ("generate", "make_samples", "generate.make_samples"),
    ("sampleio", "save_samples", "sampleio.save_samples"),
)

#: Per-layer mean seconds per call, by span name.
TIMED_STAGES = (
    "recover.check_cone_preservation",
    "recover.recover_lorentz",
    "recover.fit_affine",
    "recover.check_collinearity",
    "recover.check_parallelism",
    "recover.induced_field_map_check",
    "boost.decompose_conformal",
    "sampleio.load_samples",
    "sampleio.save_report",
    "sampleio.save_samples",
    "generate.make_samples",
)


@dataclass(frozen=True)
class Item:
    """One input: the generator configuration, the file it lives in, and
    the verdict a correct verify must reach."""

    workload: str
    tag: str
    kind: str
    c: float
    v: float
    alpha: float
    num_samples: int
    seed: int
    expect: str  # "accept" or "refuse"
    permute_seed: int | None = None

    @property
    def path(self) -> str:
        # relative to the checkout root, so reports name their input the
        # same way in every checkout and their sizes repeat exactly
        return f".perfbench/{self.workload}/{self.tag}.json"

    @property
    def report(self) -> str:
        return f".perfbench/{self.workload}/{self.tag}.report.json"

    def generate_argv(self) -> list[str]:
        return [
            "generate", "--kind", self.kind, "--c", repr(self.c), "--v", repr(self.v),
            "--alpha", repr(self.alpha), "--num-samples", str(self.num_samples),
            "--seed", str(self.seed), "--out", self.path,
        ]

    def verify_argv(self) -> list[str]:
        return ["verify", self.path, "--out", self.report]


def _seeds(seed: int, salt: int):
    rng = np.random.default_rng([seed, salt])
    return rng, lambda: int(rng.integers(2 ** 31))


def verify_large_items(seed: int, tiny: bool) -> list[Item]:
    n = 200 if tiny else 2000
    rng, draw = _seeds(seed, 1)
    alphas = [float(a) for a in rng.choice([0.5, 2.0], size=2)]
    w = "verify-large"
    return [
        Item(w, "lorentz-c1", "lorentz", 1.0, 0.6, alphas[0], n, draw(), "accept"),
        Item(w, "lorentz-c3e8", "lorentz", LIGHT, 0.6 * LIGHT, alphas[1], n, draw(), "accept"),
        Item(w, "permuted-c1", "lorentz", 1.0, 0.6, 1.0, n, draw(), "refuse", permute_seed=draw()),
        Item(w, "cubing-c1", "cubing", 1.0, 0.6, 1.0, n, draw(), "refuse"),
    ]


ROUNDTRIP_KINDS = ("lorentz", "cubing", "translation", "shear")


def roundtrip_items(seed: int, tiny: bool, workload: str = "roundtrip-small") -> list[Item]:
    """kind x N x c, ordered so that every run of eight consecutive items
    holds each kind at both sizes."""
    sizes = (50, 200)
    rng, draw = _seeds(seed, 2)
    items = []
    for i in range(len(ROUNDTRIP_KINDS) * len(sizes) * len(SPEEDS)):
        kind = ROUNDTRIP_KINDS[i % 4]
        n = sizes[(i // 4) % 2]
        c = SPEEDS[(i // 8) % 4]
        expect = "accept" if kind in ("lorentz", "translation") else "refuse"
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        items.append(Item(workload, f"{i:02d}-{kind}", kind, c, 0.6 * c, alpha, n, draw(), expect))
    return items[:8] if tiny else items


class CliWorkload:
    """Set-up, operations and oracle shared by both command-line workloads."""

    def __init__(self, items: list[Item], files_in_setup: bool):
        self.items = items
        self.files_in_setup = files_in_setup
        self.truth: dict[str, dict] = {}
        self.pairs: dict[str, int] = {}
        self.attempted = 0
        self.failures: list[str] = []
        (WORK / items[0].workload).mkdir(parents=True, exist_ok=True)

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Build every input from its seed.  verify-large writes the sample
        files here; roundtrip-small keeps the expected ground truth, since
        the program writes its own files."""
        from lightcone import generate, sampleio

        for it in self.items:
            cfg = generate.GenerateConfig(
                kind=it.kind, c=it.c, v=it.v, alpha=it.alpha,
                num_samples=it.num_samples, seed=it.seed,
            )
            samples, truth = generate.make_samples(cfg)
            if it.permute_seed is not None:
                samples = generate.permute_images(samples, it.permute_seed)
            if self.files_in_setup:
                sampleio.save_samples(it.path, samples, seed=it.seed, kind=it.kind)
                sampleio.save_truth(it.path + ".truth.json", truth)
            self.truth[it.tag] = truth
            self.pairs[it.tag] = len(samples) * (len(samples) - 1) // 2

    # -- operations and their oracle --------------------------------------

    def ops(self, it: Item) -> list[tuple[str, list[str]]]:
        verify = ("verify", it.verify_argv())
        if self.files_in_setup:
            return [verify]
        return [("generate", it.generate_argv()), verify]

    def check(self, it: Item, op: str, res: ChildResult) -> str | None:
        if "Traceback" in res.stderr:
            return "traceback on stderr"
        if op == "generate":
            if res.exit_code != 0:
                return f"generate exit {res.exit_code}"
            if it.expect == "refuse":
                return None
            written = _load(it.path + ".truth.json")
            if written is None:
                return "no ground-truth sidecar written"
            if written["a"] != self.truth[it.tag]["a"]:
                return "sidecar translation differs from the one the seed gives"
            return oracle.check_truth(written, it.kind, it.v, it.c, it.alpha)
        report = _load(it.report)
        if it.expect == "refuse":
            return oracle.check_refuse(res, report)
        truth = _load(it.path + ".truth.json")
        if truth is None:
            return "no ground-truth sidecar"
        bad = oracle.check_truth(truth, it.kind, it.v, it.c, it.alpha)
        if bad:
            return bad
        return oracle.check_accept(res, report, truth, it.c)

    def run_op(self, it: Item, op: str, argv: list[str], runner) -> ChildResult:
        for stale in ((it.report,) if op == "verify" else (it.path, it.path + ".truth.json")):
            if os.path.exists(stale):
                os.remove(stale)
        res = runner(argv)
        self.attempted += 1
        try:
            err = self.check(it, op, res)
        except (KeyError, TypeError, ValueError) as exc:  # an output missing a field
            err = f"malformed output: {exc!r}"
        if err:
            self.failures.append(f"{op} {it.tag}: {err}")
        return res

    def fresh(self, argv: list[str]) -> ChildResult:
        return run_child(argv, tag=f"{self.items[0].workload}/child")

    def inproc(self, argv: list[str], tracer: Tracer | None = None) -> ChildResult:
        from lightcone import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    code = cli.main(argv)
                else:
                    with tracer.span("cli.main", command=argv[0]):
                        code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        return ChildResult(time.perf_counter() - start, code, 0.0, out.getvalue(), err.getvalue())

    # -- runs ---------------------------------------------------------------

    def untraced(self, seconds: float) -> dict:
        """Fresh-process operations for ``seconds``; the end-to-end metrics."""
        setups = SetupSampler(self.setup, seconds)
        accept, refuse, verify_walls, trip_walls = [], [], [], []
        pairs = 0
        rss = 0.0
        start = time.perf_counter()
        k = 0
        tail_n = len(self.items) * -(-MIN_TAIL_VERIFIES // len(self.items))
        while (
            time.perf_counter() - start < seconds
            or len(verify_walls) < tail_n
            or (self.files_in_setup and k % len(self.items))
        ):
            it = self.items[k % len(self.items)]
            k += 1
            trip = 0.0
            for op, argv in self.ops(it):
                res = self.run_op(it, op, argv, self.fresh)
                rss = max(rss, res.maxrss_mb)
                trip += res.wall_s
                if op == "verify":
                    verify_walls.append(res.wall_s)
                    pairs += self.pairs[it.tag]
                    {0: accept, 2: refuse}.get(res.exit_code, []).append(res.wall_s)
            trip_walls.append(trip)
            setups.poll()
        if self.files_in_setup:
            throughput = pairs / sum(verify_walls)  # sample pairs checked per second
        else:
            throughput = len(trip_walls) / sum(trip_walls)  # round trips per second
        tail_value, tail_pct, _ = tail(verify_walls[:tail_n])
        metrics = {
            "accept_s": metric(median(accept), "s"),
            "refuse_s": metric(median(refuse), "s"),
            "tail_s": metric(tail_value, "s"),
            "throughput_per_s": metric(throughput, "1/s"),
            "peak_rss_mb": metric(rss, "MB"),
            "setup_s": metric(setups.median(), "s"),
        }
        notes = {
            "tail": f"p{tail_pct:.1f} of the first {tail_n} verifies",
            "accepts": len(accept),
            "refusals": len(refuse),
            "set-ups timed": len(setups.walls),
        }
        raw = {"verify_s": verify_walls, "round_trip_s": trip_walls, "accept_s": accept, "refuse_s": refuse}
        return {"metrics": metrics, "notes": notes, "raw": raw}

    def traced(self, seconds: float) -> dict:
        """Per-layer metrics: spans from a traced set-up and a timed
        in-process loop, peaks and exact counts from one separate
        tracemalloc pass over every input."""
        tracer = Tracer()
        with patched(tracer, self._targets()):
            self.setup()
        walls = {False: 0.0, True: 0.0}  # by traced
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds or k < len(self.items):
            it = self.items[k % len(self.items)]
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                with patched(tracer, self._targets() if traced else []):
                    for op, argv in self.ops(it):
                        runner = (lambda a: self.inproc(a, tracer)) if traced else self.inproc
                        walls[traced] += self.run_op(it, op, argv, runner).wall_s
            k += 1

        mem = Tracer(memory=True)
        tracemalloc.start()
        try:
            with patched(mem, self._targets()):
                for it in self.items:
                    for op, argv in self.ops(it):
                        self.run_op(it, op, argv, lambda a: self.inproc(a, mem))
        finally:
            tracemalloc.stop()

        return {
            "metrics": {
                **self._layer_times(tracer.spans),
                **self._layer_memory(mem),
                "trace.overhead_frac": metric(walls[True] / walls[False] - 1.0, "ratio"),
            },
            "spans": {"timed": tracer.exported(), "memory": mem.exported()},
        }

    def _targets(self):
        from lightcone import cli, generate, recover, sampleio

        modules = {"cli": cli, "recover": recover, "generate": generate, "sampleio": sampleio}
        hooks = {
            "recover.check_cone_preservation": _count_cone,
            "recover.recover_lorentz": _mark_outcome,
            "sampleio.load_samples": _count_read,
            "sampleio.save_report": _count_written,
            "sampleio.save_samples": _count_written,
            "sampleio.save_truth": _count_written,
        }
        return [(modules[mod], attr, name, hooks.get(name)) for mod, attr, name in STAGES]

    @staticmethod
    def _layer_times(spans: list[dict]) -> dict:
        out = {}
        for name in TIMED_STAGES:
            durations = [duration(s) for s in spans if s["name"] == name]
            if durations:
                out[f"{name}_s"] = metric(sum(durations) / len(durations), "s")
        own = self_times(spans)
        recovers = [s for s in spans if s["name"] == "recover.recover_lorentz"]
        for label, chosen in (
            ("", recovers),
            ("_accept", [s for s in recovers if s.get("outcome") == "accept"]),
            ("_refuse", [s for s in recovers if s.get("outcome") == "refuse"]),
        ):
            if chosen:
                out[f"recover.self{label}_s"] = metric(
                    sum(own[s["id"]] for s in chosen) / len(chosen), "s")
                if label:
                    out[f"recover.recover_lorentz{label}_s"] = metric(
                        sum(duration(s) for s in chosen) / len(chosen), "s")
        mains = [duration(s) for s in spans if s["name"] == "cli.main" and s["command"] == "verify"]
        if mains:
            out["cli.main_s"] = metric(sum(mains) / len(mains), "s")
        return out

    @staticmethod
    def _layer_memory(mem: Tracer) -> dict:
        out = {}
        for name in ("recover.check_cone_preservation", "recover.recover_lorentz"):
            peaks = [s["peak_bytes"] for s in mem.spans if s["name"] == name]
            if peaks:
                out[f"{name}_peak_mb"] = metric(max(peaks) / 2 ** 20, "MB")
        c = mem.counts
        if c["cone_pairs"]:
            out["recover.cone_pairs"] = metric(c["cone_pairs"], "count")
            out["recover.cone_tensor_bytes_computed"] = metric(c["cone_tensor_bytes"], "B")
            out["recover.indeterminate_frac"] = metric(c["indeterminate"] / c["cone_pairs"], "ratio")
        out["sampleio.bytes_read"] = metric(c["bytes_read"], "B")
        out["sampleio.bytes_written"] = metric(c["bytes_written"], "B")
        return out


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _count_cone(tracer, span, args, kwargs, result) -> None:
    s = args[0]
    n_pts, dim = len(s), s.metric.n
    tracer.counts["cone_pairs"] += n_pts * (n_pts - 1) // 2
    # two explicit (N, N, n) float64 difference tensors, one per side
    tracer.counts["cone_tensor_bytes"] += 2 * n_pts * n_pts * dim * 8
    tracer.counts["indeterminate"] += result.indeterminate


def _mark_outcome(tracer, span, args, kwargs, result) -> None:
    span["outcome"] = "accept" if result.recovered is not None else "refuse"


def _count_read(tracer, span, args, kwargs, result) -> None:
    tracer.counts["bytes_read"] += os.path.getsize(args[0])


def _count_written(tracer, span, args, kwargs, result) -> None:
    tracer.counts["bytes_written"] += os.path.getsize(args[0])
