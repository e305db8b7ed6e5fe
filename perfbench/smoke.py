"""Smoke run of the benchmark at tiny input sizes; finishes in seconds.

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json:
  * --trace 0 prints exactly the end-to-end metrics and --trace 1 exactly
    the per-layer metrics, with the declared units and finite values;
  * every output passes its checks (failed == 0, exit code 0);
  * two runs with the same seed give identical deterministic metrics.
Then checks that a corrupted certificate makes the run fail (nonzero error
rate, nonzero exit code), and that a directory holding only BENCHMARK.json
and the benchmark's own files makes the run fail without a result line.
Exit code 0 when all of this holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_ARGS = ["--seed", "1", "--seconds", "1", "--scale", "smoke"]
TIMEOUT_S = 120
# Metrics that depend only on the inputs, so they repeat exactly for a seed.
DETERMINISTIC = {"cert_bytes_per_vertex", "sequence_rounds_total", "construct.levels",
                 "engine.simulations_per_level", "exact.nodes", "certs.bytes", "certs.json_depth"}


def deterministic(metrics: dict) -> dict:
    return {k: m["value"] for k, m in metrics.items() if k in DETERMINISTIC or k.endswith(".calls")}


def run(args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    detail = next((json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail ")), {})
    return proc, result, detail


def check_result(label, proc, result, declared) -> list[str]:
    problems = []
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if result is None:
        return problems + [f"{label}: no JSON result line"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    missing = set(declared) - set(metrics)
    extra = set(metrics) - set(declared)
    if missing or extra:
        problems.append(f"{label}: missing {sorted(missing)} extra {sorted(extra)}")
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{label}: {name} unit {m.get('unit')} != {declared[name]}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems: list[str] = []
    table: dict[str, dict] = {}

    for w in (x["name"] for x in spec["workloads"]):
        for trace, declared in ((0, e2e), (1, layer)):
            label = f"{w} --trace {trace}"
            repeats = []
            for _ in range(2):
                proc, result, _ = run(["--workload", w, "--trace", str(trace), *SMOKE_ARGS])
                problems += check_result(label, proc, result, declared)
                repeats.append(deterministic(result["metrics"]) if result else None)
            if repeats[0] != repeats[1]:
                problems.append(f"{label}: deterministic metrics differ between two runs")
            if trace == 0 and result:
                table[w] = result["metrics"]
            print(f"{label}: exit {proc.returncode}, {len(repeats[0] or {})} deterministic "
                  f"metrics {'repeat' if repeats[0] == repeats[1] else 'DIFFER'}", flush=True)

    proc, result, detail = run(["--workload", "corpus_small", "--trace", "0", "--corrupt-cert", *SMOKE_ARGS])
    if proc.returncode == 0 or not result or result.get("correct") or not detail.get("error_rate", 0) > 0:
        problems.append(
            f"corrupted certificate not caught: exit {proc.returncode}, "
            f"error_rate {detail.get('error_rate')}"
        )
    print(f"corrupted certificate: exit {proc.returncode}, error_rate {detail.get('error_rate')}")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc, result, _ = run(
            ["--workload", "corpus_small", "--trace", "0", *SMOKE_ARGS],
            cwd=bare, script=bare / "perfbench" / "run.py",
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or result is not None:
        problems.append(f"run without the program: exit {proc.returncode}, result {result!r}")
    print(f"without the program: exit {proc.returncode}")

    names = list(e2e)
    print(f"\n{'metric':28s}" + "".join(f"{w:>16s}" for w in table))
    for name in names:
        print(f"{name:28s}" + "".join(f"{table[w][name]['value']:>16.6g}" for w in table))
    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
