"""Run every workload once, each in a fresh process, and print all metrics.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Prints the README-stage metrics (setup_s, train_epoch_ms.p50/p95, train_s,
pipeline_s, metric_s, mds_s, isomap_s, peak_rss_mb, failed_share) on the
workloads that run each stage, then the benchmark's end-to-end metrics per
workload, and with --trace the per-layer metrics of a traced run of each
workload. Exits 1 if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("FAILED "):
            print(f"[{workload}] {line}")
    detail = next(json.loads(line)["detail"] for line in lines if line.startswith('{"detail"'))
    return detail, json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    p.add_argument("--trace", action="store_true", help="also run each workload traced")
    args = p.parse_args(argv)

    results = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    print(json.dumps({"provenance": results[WORKLOADS[0]][0]["provenance"]}))
    print(f"{'metric':<28} {'workload':<9} {'value':>12}  unit")
    for w, (detail, result) in results.items():
        rows = [("setup_s", result["metrics"]["setup_s"])]
        rows += [(name, m) for name, m in detail["stages"].items() if name != "failed_share"]
        rows.append(("peak_rss_mb", result["metrics"]["peak_rss_mb"]))
        rows.append(("failed_share", detail["stages"]["failed_share"]))
        for name, m in rows:
            print(f"{name:<28} {w:<9} {m['value']:>12.6g}  {m['unit']}")
        print(f"{'':<28} {w:<9} {result['failed']:>5} failed of {result['attempted']} attempted")
        if "readme_isomap_k40" in detail:
            print(f"{'':<28} {w:<9} README step 6 (isomap --k 40): {detail['readme_isomap_k40']}")
    print()
    print("benchmark end-to-end metrics (BENCHMARK.json)")
    for w, (_, result) in results.items():
        for name, m in result["metrics"].items():
            print(f"{name:<28} {w:<9} {m['value']:>12.6g}  {m['unit']}")

    ok = all(result["correct"] for _, result in results.values())
    if args.trace:
        print()
        print("per-layer metrics (traced run)")
        for w in WORKLOADS:
            detail, result = run(w, args.seed, args.seconds, 1)
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                print(f"{name:<40} {w:<9} {m['value']:>12.6g}  {m['unit']}")
            for layer in detail["absent_layers"]:
                print(f"absent layer: {layer} ({w})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
