"""Benchmark worker: one workload in a fresh interpreter.

Started by run.py with the thread-count variables set to 1 and the
checkout's `src` on PYTHONPATH.  Prints one JSON line: the monotonic time at
which `import inflatonlab` finished (run.py turns it into a set-up sample),
the pass timings, the host probe's median, failures, peak RSS and, when
tracing, the per-layer numbers.
"""

import time

import inflatonlab  # noqa: F401  (set-up ends when this import does)

IMPORT_DONE = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from probe import HostProbe  # noqa: E402
from spans import NullTracer, Pass, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-pass counters reported as they are; everything else is derived below
COUNTERS = (
    "cli.bytes_written", "cache.bytes", "background.storage_nodes",
    "horizon.nodes_scanned", "horizon.exit_residual_max",
    "perturbations.constraint_residual_max", "perturbations.wronskian_drift_max",
    "perturbations.ns_fit_err", "perturbations.nt_fit_err",
    "toymodel.kpoints_1obs", "toymodel.kpoints_2obs", "toymodel.expm_calls",
    "toymodel.reduce_kpoints", "toymodel.imag_residual_max", "toy_battery.passed",
)
MIN_PASSES = 2      # wall_s is a median of at least two passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, counters: dict, passes: int) -> dict:
    """Per-pass self time and calls for every span, plus counters and ratios.

    A layer the workload does not reach reports zero time, zero calls and
    zero for its counters.
    """
    m: dict[str, float] = {name: float(counters.get(name, 0)) for name in COUNTERS}
    calls: dict[str, int] = {}
    for name, (self_s, n) in tracer.self_times().items():
        layer = name.split(".")[0]
        m[name + "_s"] = self_s / passes
        calls[layer] = calls.get(layer, 0) + n
    for layer, n in calls.items():
        if layer != "bench":
            m[layer + ".calls"] = n / passes
    c = counters
    m["horizon.useful_frac"] = _ratio(c.get("horizon.nodes_useful", 0),
                                      c.get("horizon.nodes_scanned", 0))
    m["perturbations.window_nodes_frac"] = _ratio(c.get("perturbations.nodes_in_window", 0),
                                                  c.get("perturbations.nodes_before_end", 0))
    m["toymodel.kpoint_useful_frac"] = _ratio(c.get("toymodel.kpoints_useful", 0),
                                              c.get("toymodel.kpoints_all", 0))
    for tag in ("1obs", "2obs"):
        m[f"toymodel.us_per_kpoint_{tag}"] = 1e6 * _ratio(
            m.get(f"toymodel.cf_{tag}_s", 0.0), c.get(f"toymodel.kpoints_{tag}", 0))
    m["trace.spans"] = len(tracer.spans) / passes
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()

    tracer = Tracer() if args.trace else NullTracer()
    workload = WORKLOADS[args.workload](args.seed, args.small, Path(args.scratch))

    probe = HostProbe()
    walls: list[float] = []
    raw_walls: list[float] = []
    attempted = 0
    failures: list[str] = []
    counters: list[dict] = []
    t_start = time.perf_counter()
    while True:
        p = Pass(tracer, after_call=probe.mark)
        probe.start()
        workload.run_pass(p)
        probe.mark()
        walls.append(probe.ref)
        raw_walls.append(probe.raw)
        attempted += p.attempted
        failures += p.failures
        counters.append(p.counters)
        # closed loop: start another pass only if it can finish in time
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - t_start + max(raw_walls) > args.seconds):
            break
    # identical inputs must give identical counters in every pass
    problems = []
    if any(c != counters[0] for c in counters[1:]):
        problems.append("counters differ between passes of the same inputs")

    result = {
        "import_done": IMPORT_DONE,
        "walls": walls,
        "raw_walls": raw_walls,
        "probe_median_s": statistics.median(probe.speeds),
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": f"python {platform.python_version()}, numpy {numpy.__version__}, "
                    f"scipy {scipy.__version__}",
    }
    if args.trace:
        result["layers"] = layer_metrics(tracer, counters[-1], len(walls))
        result["layers"]["trace.wall_s"] = statistics.median(walls)
        if args.trace_file:
            tracer.write(Path(args.trace_file), {"workload": args.workload,
                                                 "seed": args.seed, "passes": len(walls)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
