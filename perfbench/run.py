"""inflatonlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload, both modes

Run from the root of a checkout.  Each run starts a fresh single-threaded
interpreter (the worker) with the checkout's `src` on its path, and a fresh
scratch directory that is removed afterwards.  With --trace 0 the last line
of output is a JSON object carrying every end-to-end metric of
BENCHMARK.json; with --trace 1 it carries every per-layer metric and the
spans are written to .perfbench_runs/.  Without --workload, every workload
runs untraced and traced, and a table with the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import HostProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("cli_session", "kband_modes", "param_scan", "toy_postulate")
IMPORT_ONLY_RUNS = 3          # import-only interpreters, besides the worker itself
DEADLINE_S = 170.0        # a run ends well inside 180 s or fails
IMPORT_ONLY = "import inflatonlab, time; print(time.monotonic())"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion (killed at the deadline); return its stdout."""
    try:
        out = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{argv[1]} passed the {DEADLINE_S:g} s deadline") from e
    if out.returncode != 0 or not out.stdout.strip():
        raise BenchError(f"{argv[1]} exited {out.returncode}: {out.stderr.strip()[-2000:]}")
    return out.stdout.strip().splitlines()[-1]


def run_one(workload: str, seed: int, seconds: float, trace: int, small: bool,
            spec: dict) -> dict:
    """One measured run; returns the object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    RUNS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=RUNS, prefix=f"{workload}-"))
    probe = HostProbe()
    setup, setup_ref = [], []

    def add_setup(seconds: float, probe_s: float) -> None:
        setup.append(seconds)
        setup_ref.append(seconds * HostProbe.REF_S / probe_s)

    try:
        if not trace:
            for _ in range(IMPORT_ONLY_RUNS):
                probe_s, t0 = probe.sample(), time.monotonic()
                add_setup(float(_child([sys.executable, "-c", IMPORT_ONLY], env, deadline)) - t0,
                          probe_s)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--scratch", str(scratch)]
        if small:
            argv.append("--small")
        trace_file = RUNS / f"trace-{workload}-seed{seed}.jsonl"
        if trace:
            argv += ["--trace-file", str(trace_file)]
        probe_s, t0 = probe.sample(), time.monotonic()
        res = json.loads(_child(argv, env, deadline))
        add_setup(res["import_done"] - t0, probe_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    walls = res["walls"]
    failed = len(res["failures"])
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {trace}, "
          f"closed loop with one client")
    print(f"{res['versions']}, nproc {os.cpu_count()}, BLAS/OpenMP threads 1")
    print(f"passes {len(walls)}: " + " ".join(f"{w:.3f}" for w in res["raw_walls"])
          + " s measured, " + " ".join(f"{w:.3f}" for w in walls) + " reference s; "
          f"host probe median {res['probe_median_s'] * 1e3:.3f} ms")
    print(f"items attempted {res['attempted']}, failed {failed}, "
          f"error_rate {failed / res['attempted']:.4g} (fraction)")
    for msg in res["failures"] + res["problems"]:
        print(f"FAILED {msg}")

    if trace:
        values = res["layers"]
        values = {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
        print(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        measured = {"setup_s": statistics.median(setup_ref),
                    "wall_s": statistics.median(walls),
                    "peak_rss_mb": res["peak_rss_mb"]}
        values = {m["name"]: (measured[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        print(f"setup_s is the median of {len(setup)} fresh interpreters "
              f"({statistics.median(setup):.4f} s measured); wall_s the median of "
              f"{len(walls)} passes ({statistics.median(res['raw_walls']):.4f} s measured); "
              f"both in reference seconds")
    for name, (v, unit) in values.items():
        print(f"  {name:44s} {v:.6g} {unit}")
    return {
        "correct": failed == 0 and not res["problems"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()},
    }


def run_all(seed: int, seconds: float, spec: dict) -> bool:
    rows = []
    for w in WORKLOADS:
        plain = run_one(w, seed, seconds, 0, False, spec)
        traced = run_one(w, seed, seconds, 1, False, spec)
        rows.append((w, plain, traced))
    print()
    print(f"{'workload':15s} {'setup_s':>8s} {'wall_s':>8s} {'peak_rss_mb':>11s} "
          f"{'error_rate':>10s} {'traced wall_s':>13s} {'overhead_s':>10s}")
    ok = True
    for w, plain, traced in rows:
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        tw = traced["metrics"]["trace.wall_s"]["value"]
        err = plain["failed"] / plain["attempted"]
        print(f"{w:15s} {m['setup_s']:8.3f} {m['wall_s']:8.3f} {m['peak_rss_mb']:11.1f} "
              f"{err:10.4g} {tw:13.3f} {tw - m['wall_s']:10.3f}")
        ok = ok and plain["correct"] and traced["correct"]
    print("units: s, s, MB, fraction, s, s; overhead_s = traced wall_s - untraced wall_s")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="smallest inputs, for the self-test")
    args = ap.parse_args()
    if not (ROOT / "src" / "inflatonlab" / "__init__.py").is_file():
        print(f"no inflatonlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        if args.workload is None:
            return 0 if run_all(args.seed, seconds, spec) else 1
        result = run_one(args.workload, args.seed, seconds, args.trace, args.small, spec)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
