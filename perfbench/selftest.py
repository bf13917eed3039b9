"""Benchmark self-test.

    python3 perfbench/selftest.py

Runs each workload once at its smallest size with a fixed seed, untraced and
twice traced, and checks that:

- the result line has exactly the keys correct/attempted/failed/metrics;
- every end-to-end and per-layer metric of BENCHMARK.json is there with its unit;
- no item fails (error_rate 0);
- the two traced runs report identical counters (every metric not in s or us);
- every per-layer metric is non-zero on some workload;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import RUNS, WORKLOADS  # noqa: E402

SEED = 7
TIMED_UNITS = ("s", "us")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                         capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return out.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    nonzero: set[str] = set()

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)
            print(f"  FAIL {message}")

    for w in WORKLOADS:
        print(f"{w}: untraced, traced, traced again", flush=True)
        runs = []
        for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"]),
                              ("1", spec["per_layer"])):
            rc, res = bench("--workload", w, "--seed", str(SEED), "--seconds", "1",
                            "--trace", trace, "--small")
            expect(rc == 0 and res is not None, f"{w} trace {trace}: exit {rc}, no result")
            if res is None:
                break
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{w}: result keys {sorted(res)}")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{w} trace {trace}: correct {res['correct']}, "
                   f"{res['failed']} of {res['attempted']} items failed")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted},
                   f"{w} trace {trace}: metric names or units differ from BENCHMARK.json")
            runs.append(res["metrics"])
        if len(runs) == 3:
            nonzero |= {k for k, v in runs[1].items() if v["value"] != 0}
            for m in spec["per_layer"]:
                if m["unit"] in TIMED_UNITS:
                    continue
                a, b = runs[1][m["name"]]["value"], runs[2][m["name"]]["value"]
                expect(a == b, f"{w}: counter {m['name']} {a!r} then {b!r}")
    for m in spec["per_layer"]:
        expect(m["name"] in nonzero, f"per-layer metric {m['name']} is zero on every workload")

    print("bare directory: BENCHMARK.json and perfbench/ only", flush=True)
    bare = RUNS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=bare)
        expect(rc != 0 and res is None, f"bare directory: exit {rc}, result {res}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("self-test " + ("passed" if not problems else f"FAILED ({len(problems)})"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
