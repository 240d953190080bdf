"""Shared pieces of the benchmark: checkout layout, fresh-process runs,
statistics and provenance.

The benchmark runs from the root of a source checkout.  The library is
imported from ``<root>/src`` (it is never installed), and every file the
benchmark writes goes under ``<root>/.perfbench``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: A seed that no tuning of the benchmark used; later claims are re-checked on it.
HELD_OUT_SEED = 20011

#: The invariant speeds every workload sweeps.
SPEEDS = (0.1, 1.0, 343.0, 2.99792458e8)

#: A child process that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in holds no library source."""


def import_library():
    """Put ``<root>/src`` first on the import path and import the library
    from there, refusing a copy installed elsewhere."""
    if not (SRC / "lightcone" / "__init__.py").is_file():
        raise CheckoutError(f"no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    import lightcone

    if Path(lightcone.__file__).resolve().parent != SRC / "lightcone":
        raise CheckoutError(f"lightcone was imported from {lightcone.__file__}, not {SRC}")
    return lightcone


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@dataclass
class ChildResult:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], tag: str) -> ChildResult:
    """Run ``python -m lightcone <argv>`` as a fresh process from the root.

    Wall time runs from just before the fork to the reap.  Peak RSS is the
    child's own ``ru_maxrss``, read through ``os.wait4`` rather than the
    cumulative ``RUSAGE_CHILDREN``.
    """
    out_path = WORK / f"{tag}.stdout"
    err_path = WORK / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lightcone", *argv],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall_s=wall,
        exit_code=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``; needs at least eleven
    samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def median(values) -> float:
    return float(statistics.median(values))


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class SetupSampler:
    """Times the set-up again and again over a run: once at the start and
    then on a schedule of evenly spaced moments, so the median reflects the
    whole run and not how busy the machine was in its first second.  On a
    shared machine the speed of Python-level work such as verify-large's
    JSON writing varies by a fifth or more from one second to the next, and
    only a median of many set-ups is steady."""

    SAMPLES = 25

    def __init__(self, setup, seconds: float):
        self.setup = setup
        self.every = seconds / self.SAMPLES
        self.walls: list[float] = []
        self.due = time.perf_counter()
        self.poll()

    def poll(self) -> None:
        """Run and time each set-up that has fallen due.  Call it only where
        the workload may rebuild its inputs."""
        while time.perf_counter() >= self.due and len(self.walls) < self.SAMPLES:
            start = time.perf_counter()
            self.setup()
            self.walls.append(time.perf_counter() - start)
            self.due += self.every

    def median(self) -> float:
        return median(self.walls)


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _l3_size() -> str:
    size = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip()
    if size:
        return size
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("cache size"):
            return line.split(":", 1)[1].strip() + " (last level, from cpuinfo)"
    return "unknown"


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def source_digest() -> str:
    """sha256 over the library sources, so a result names its code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lightcone").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3": _l3_size(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def write_json(path: Path, payload, compact: bool = False) -> None:
    text = json.dumps(payload, separators=(",", ":")) if compact else json.dumps(
        payload, indent=1, sort_keys=True)
    path.write_text(text + "\n")
