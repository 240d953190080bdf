"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is a separate run that wraps the library's public
names in spans and reports the per-layer metrics.  The metric names and
units are those declared in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the provenance and each metric by name with its unit.  The full
result, the failures and (traced) the spans go to
``.perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import (
    ROOT, WORK, CheckoutError, import_library, median, metric, provenance, run_child, write_json,
)

WORKLOADS = ("verify-large", "roundtrip-small", "geometry-kernel")

#: Seed of the probe that measures, in a traced run, the layers its own
#: workload never calls, so every per-layer figure is measured on every workload.
PROBE_SEED = 7

STARTUP_REPEATS = 5


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def startup_s(workload: str) -> float:
    """Median wall of a fresh ``python -m lightcone --version``."""
    return median(
        run_child(["--version"], tag=f"{workload}/startup").wall_s for _ in range(STARTUP_REPEATS)
    )


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Set up and run one workload; returns the full result record."""
    import cliwork
    import kernelwork

    if workload == "geometry-kernel":
        main = kernelwork.KernelWorkload(seed, variants=1 if tiny else kernelwork.VARIANTS)
        probe = cliwork.CliWorkload(
            cliwork.roundtrip_items(PROBE_SEED, tiny=True, workload="probe")[:2], files_in_setup=False)
    else:
        items = (cliwork.verify_large_items if workload == "verify-large" else cliwork.roundtrip_items)(
            seed, tiny)
        main = cliwork.CliWorkload(items, files_in_setup=workload == "verify-large")
        probe = kernelwork.KernelWorkload(PROBE_SEED, variants=1)

    if trace:
        probed = probe.traced(0.5)
        own = main.traced(seconds)
        metrics = {**probed["metrics"], **own["metrics"]}
        metrics["cli.startup_s"] = metric(startup_s(workload), "s")
        spans = {"own": own["spans"], "probe": probed["spans"]}
        notes = {}
    else:
        own = main.untraced(seconds)
        metrics = own["metrics"]
        spans = None
        notes = own["notes"]

    attempted = main.attempted + (probe.attempted if trace else 0)
    failures = main.failures + (probe.failures if trace else [])
    known = main.known_defects() if workload == "geometry-kernel" else []
    return {
        "provenance": provenance(seed),
        "workload": workload,
        "trace": trace,
        "notes": notes,
        "known_defects": [{"call": call, "error": err} for call, err in known],
        "attempted": attempted,
        "failures": failures,
        "metrics": metrics,
        "raw": None if trace else own.get("raw"),
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)

    try:
        import_library()
        wanted = declared()[args.trace]
    except (CheckoutError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    out_dir = WORK / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    record = run(args.workload, args.seed, args.seconds, args.trace, args.tiny)

    failures = list(record["failures"])
    metrics = {}
    for name, unit in wanted.items():
        got = record["metrics"].get(name)
        if got is None or got["unit"] != unit:
            failures.append(f"metric {name} [{unit}] not measured (got {got})")
        else:
            metrics[name] = got
    failed = len(failures)
    attempted = max(record["attempted"], failed, 1)

    spans = record.pop("spans")
    if spans is not None:
        write_json(out_dir / "spans.json", spans, compact=True)
    write_json(out_dir / f"result-trace{args.trace}.json", {**record, "failures": failures})

    print(json.dumps({"provenance": record["provenance"]}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    for key, value in record["notes"].items():
        print(f"{args.workload}  ({key}: {value})")
    print(f"{args.workload}  failed_frac = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for d in record["known_defects"]:
        line = (f"known program defect, kept out of the timed mix: {d['call']}: "
                + (f"still wrong: {d['error']}" if d["error"] else
                   "now correct; take it off kernelwork.KNOWN_DEFECTS"))
        print(f"{args.workload}  {line}")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
