#!/usr/bin/env python3
"""Quick self-check of the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one second, untraced and traced,
and checks that the last line is a correct result carrying exactly the
declared metrics, each with its declared unit. Then checks that the
benchmark fails cleanly in a directory that holds only BENCHMARK.json and
the benchmark's own files. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLAGS = ["--seed", "1", "--seconds", "1"]


def run(spec: dict, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        spec["command"] + list(args), cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(spec, ROOT, "--workload", workload, *FLAGS, "--trace", str(trace))
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"not correct: {lines[-2][:500]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(declared):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    for name, unit in declared.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{name}: {got!r}, want a number in {unit}")
    if not trace:
        detail = json.loads(lines[-2])["detail"]
        errors += [f"detail lacks {k}" for k in ("truth_miss_frac", "failed_frac") if k not in detail]
    return errors


def check_bare(spec: dict) -> list[str]:
    """Without the deltafuzz sources the benchmark must exit non-zero and
    print no result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
            )
        done = run(spec, bare, "--workload", spec["workloads"][0]["name"], *FLAGS, "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [(f"{w['name']} trace={t}", check_result, (spec, w["name"], t))
              for w in spec["workloads"] for t in (0, 1)]
    checks.append(("bare directory", check_bare, (spec,)))
    for label, fn, args in checks:
        errors = fn(*args)
        failures += bool(errors)
        print(f"[{'FAIL' if errors else 'PASS'}] {label}", flush=True)
        for error in errors:
            print(f"    {error}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
