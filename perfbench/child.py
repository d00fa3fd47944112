"""One benchmark child: a fresh interpreter that runs one pass of a workload.

    python3 perfbench/child.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (import and generate inputs, then exit), `run` (one
untraced pass) or `trace` (one pass with spans around the calls into each
layer; the spans are written to SPANS_PATH at the end).  The child
prints `ready` as soon as set-up is done, so the parent can time set-up
from the spawn, and prints one JSON result line at the end.  It starts
no threads or processes.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import crown  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def install_tracer():
    tracer = spans.Tracer()
    missing = spans.install(tracer, layers.TARGETS, spans.crown_modules())
    # per-check wall times: `run_suite` dispatches through this private table
    checks = getattr(crown.harness, "_CHECKS", {})
    for name, fn in list(checks.items()):
        checks[name] = tracer.wrap(f"harness.check.{name}", fn)
    if missing:
        print(f"perfbench: not found, reported as zero: {', '.join(missing)}", file=sys.stderr)
    return tracer


def trace_metrics(tracer, verify_ns):
    stats, bookkeeping_ns = spans.summarize(tracer.spans)
    out = {}
    for target in layers.TARGETS:
        calls, incl, self_ns = stats.get(target, (0, 0, 0))
        out[f"{target}.calls"] = calls
        out[f"{target}.s"] = incl / 1e9
        out[f"{target}.self_s"] = self_ns / 1e9
    for check in layers.CHECKS:
        out[f"harness.check.{check}.s"] = stats.get(f"harness.check.{check}", (0, 0, 0))[1] / 1e9
    for count in layers.COUNTS:
        out[count] = tracer.counts.get(count, 0)
    out["trace.verify_s"] = verify_ns / 1e9
    out["trace.self_sum_s"] = sum(s[2] for s in stats.values()) / 1e9
    out["trace.bookkeeping_s"] = bookkeeping_ns / 1e9
    return out


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    inputs = workloads.setup(workload, seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = install_tracer() if mode == "trace" else None
    start = time.perf_counter_ns()
    units = workloads.run(workload, inputs)
    verify_ns = time.perf_counter_ns() - start
    result = {"verify_s": verify_ns / 1e9, "units": units}
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, verify_ns)
        with open(argv[3], "w") as fh:
            json.dump({"workload": workload, "seed": seed, "fields": ["name", "parent", "t0", "t1", "t2", "t3"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
