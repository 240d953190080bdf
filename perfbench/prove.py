"""Show that the benchmark is steady enough for its own bounds.

    python3 perfbench/prove.py

Runs every workload untraced ten times, each with another seed from 100
on, for the ``run_seconds`` in BENCHMARK.json, and then does it all a
second time.  For each set and end-to-end metric it prints the median and
the spread -- the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median -- against
the metric's bound; the target is a third of the bound.  It checks that no
second-set median is worse than the first by more than the bound, that no
operation failed, and, running every command-line workload traced twice at
one seed, that the exact counts repeat bit for bit.  Everything goes to ``.perfbench/prove.json``; the exit
code is 0 when every check passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import common
import run
import selftest

RUNS = 10
FIRST_SEED = 100
SETS = 2


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run: its result line and its recorded failures."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    with open(common.WORK / workload / f"result-trace{trace}.json") as fh:
        failures = json.load(fh)["failures"]
    return json.loads(proc.stdout.strip().splitlines()[-1]), failures


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> int:
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    problems: list[str] = []
    values = {s: {w: {name: [] for name in bounds} for w in run.WORKLOADS} for s in range(SETS)}
    for s in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + i
            for w in run.WORKLOADS:
                result, failures = bench(w, seed, seconds, 0)
                for line in failures[:3]:
                    problems.append(f"{w} seed {seed}: {line}")
                for name in bounds:
                    values[s][w][name].append(result["metrics"][name]["value"])
                print(f"set {s + 1} run {i + 1} {w}: failed {result['failed']} of "
                      f"{result['attempted']}", file=sys.stderr, flush=True)

    summary: dict = {"provenance": common.provenance(FIRST_SEED), "sets": []}
    for s in range(SETS):
        table = {}
        for w in run.WORKLOADS:
            for name, m in bounds.items():
                med, sp = spread(values[s][w][name])
                table[f"{w}/{name}"] = {"median": med, "spread": sp, "values": values[s][w][name]}
                verdict = "ok"
                if sp > m["bound"]:
                    verdict = "OVER BOUND"
                    problems.append(f"set {s + 1} {w} {name}: spread {sp:.3f} > bound {m['bound']}")
                elif sp > m["bound"] / 3:
                    verdict = "over a third of the bound"
                print(f"set {s + 1}  {w:16s} {name:17s} median {med:.6g} {m['unit']:5s} "
                      f"spread {sp:.3f} (bound {m['bound']})  {verdict}")
        summary["sets"].append(table)
    for key, first in summary["sets"][0].items():
        m = bounds[key.split("/", 1)[1]]
        worse = (summary["sets"][1][key]["median"] - first["median"]) / first["median"]
        if m["better"] == "higher":
            worse = -worse
        print(f"second set vs first  {key:36s} {worse:+.3f} (bound {m['bound']})")
        if worse > m["bound"]:
            problems.append(f"{key}: second median worse by {worse:.3f}")

    for w in ("verify-large", "roundtrip-small"):
        counts = [bench(w, FIRST_SEED, seconds, 1)[0]["metrics"] for _ in range(2)]
        for name in selftest.EXACT_COUNTS:
            a, b = counts[0][name]["value"], counts[1][name]["value"]
            print(f"exact count {w} {name}: {a!r} {'==' if a == b else '!='} {b!r}")
            if a != b:
                problems.append(f"{w} {name} does not repeat")
        summary[f"counts/{w}"] = counts[0]

    summary["problems"] = problems
    common.WORK.mkdir(exist_ok=True)
    common.write_json(common.WORK / "prove.json", summary)
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
