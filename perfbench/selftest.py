"""Self-test of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

It checks that

1. a tiny run of every workload, untraced and traced, reports every metric
   declared in BENCHMARK.json with its unit, and no failed operation;
2. the exact counts of a traced run repeat bit for bit at a fixed seed;
3. the oracle can fail: fed a wrong expected boost matrix, or the opposite
   verdict, every workload reports failed operations;
4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without printing a result.

It also calls the known program defects of the geometry-kernel mix
(``kernelwork.KNOWN_DEFECTS``), which the timed mix leaves out, and lists
each that is still wrong.  Exit code 0 means every check passed and no known
defect is still wrong; 1 means a check failed or a program defect stands.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import cliwork
import common
import kernelwork
import oracle
import run

EXACT_COUNTS = (
    "recover.cone_pairs",
    "recover.cone_tensor_bytes_computed",
    "recover.indeterminate_frac",
    "sampleio.bytes_read",
    "sampleio.bytes_written",
)

def bench(*args: str, cwd=common.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_tiny_runs(problems: list[str], defects: list[str]) -> None:
    declared = run.declared()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--tiny")
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = last_json(proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            with open(common.WORK / workload / f"result-trace{trace}.json") as fh:
                record = json.load(fh)
            failures = record["failures"]
            if len(failures) != result["failed"] or result["correct"] != (not failures):
                problems.append(f"{workload} trace {trace}: result line disagrees with the record")
            for line in failures[:10]:
                problems.append(f"{workload} trace {trace}: {line}")
            if workload == "geometry-kernel" and trace == 0:
                check_known_defects(record["known_defects"], problems, defects)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{workload} trace {trace}: metrics differ from BENCHMARK.json")
            print(f"tiny {workload} trace {trace}: {result['attempted']} operations, "
                  f"failed_frac {result['failed'] / result['attempted']:.3g}")


def check_known_defects(known: list[dict], problems: list[str], defects: list[str]) -> None:
    """Every known defect is called, and each is either still wrong (a
    program defect) or fixed (then it belongs back in the timed mix)."""
    called = {d["call"] for d in known}
    for name, c in sorted(kernelwork.KNOWN_DEFECTS):
        if f"{name} at c={c:g}" not in called:
            problems.append(f"known defect {name} at c={c:g} was not called")
    for d in known:
        if d["error"]:
            defects.append(f"{d['call']}: {d['error']}")
        else:
            problems.append(f"{d['call']} is now correct: take it off kernelwork.KNOWN_DEFECTS")


def check_exact_counts(problems: list[str]) -> None:
    for workload in ("verify-large", "roundtrip-small"):
        runs = [
            last_json(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                            "--trace", "1", "--tiny"))["metrics"]
            for _ in range(2)
        ]
        for name in EXACT_COUNTS:
            a, b = runs[0][name]["value"], runs[1][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between runs ({a!r} vs {b!r})")
        print(f"exact counts of {workload} repeat: "
              + ", ".join(f"{n}={runs[0][n]['value']!r}" for n in EXACT_COUNTS))


def check_oracle_can_fail(problems: list[str]) -> None:
    real_boost, real_items = oracle.boost_matrix, dict(vars(cliwork))

    def wrong_boost(v, c):
        return real_boost(v, c) * 1.001

    def flipped(make):
        def items(*args, **kwargs):
            return [
                cliwork.Item(**{**vars(it), "expect": "refuse" if it.expect == "accept" else "accept"})
                for it in make(*args, **kwargs)
            ]
        return items

    cases = [("wrong boost matrix", lambda: setattr(oracle, "boost_matrix", wrong_boost))]
    cases.append(("opposite verdict", lambda: (
        setattr(cliwork, "verify_large_items", flipped(real_items["verify_large_items"])),
        setattr(cliwork, "roundtrip_items", flipped(real_items["roundtrip_items"])),
    )))
    for label, corrupt in cases:
        for workload in run.WORKLOADS:
            if label == "opposite verdict" and workload == "geometry-kernel":
                continue
            corrupt()
            try:
                record = run.run(workload, seed=3, seconds=0.5, trace=0, tiny=True)
            finally:
                oracle.boost_matrix = real_boost
                cliwork.verify_large_items = real_items["verify_large_items"]
                cliwork.roundtrip_items = real_items["roundtrip_items"]
            frac = len(record["failures"]) / max(record["attempted"], 1)
            print(f"{label}, {workload}: failed_frac {frac:.3g}")
            if frac == 0:
                problems.append(f"{label} on {workload} was not caught")


def check_bare_directory(problems: list[str]) -> None:
    bare = common.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-large", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> int:
    common.import_library()
    problems: list[str] = []
    defects: list[str] = []
    check_tiny_runs(problems, defects)
    check_exact_counts(problems)
    check_oracle_can_fail(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"PROBLEM: {p}")
    for d in defects:
        print(f"PROGRAM DEFECT (kept out of the timed mix): {d}")
    print("selftest: benchmark", "ok" if not problems else f"{len(problems)} problem(s)",
          f"- {len(defects)} known program defect(s) still wrong")
    return 1 if problems or defects else 0


if __name__ == "__main__":
    sys.exit(main())
