"""Benchmark for `crown`: time the checks a user waits for, and check their results.

    python3 perfbench/run.py --workload tensor-q --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each workload runs in fresh interpreters,
one child at a time (`child.py`); a child is a single-threaded closed-loop
client that runs one pass of the workload's units back to back.

With `--trace 0` the benchmark runs timed children until the next one
would end after `--seconds` (at least one), with set-up-only children
before and after them, and reports medians over children:

  verify_s      wall time of the pass, measured inside the child
  cpu_s         user + sys CPU time of the child (from os.wait4)
  setup_s       spawn until `crown` is imported and inputs are generated
  peak_rss_mb   peak RSS of the child alone (from os.wait4)
  correct_frac  units whose result passes the output gate / units attempted

With `--trace 1` it runs one untraced and one traced child and reports
per-layer call counts, inclusive and self times, per-check times, work
counts, and the tracing overhead (traced minus untraced `verify_s`).
The spans themselves are written to `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_BATCH = 5  # set-up-only children before, and again after, the timed ones


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, mode, spans_path=None):
    """Run one child to completion; add its set-up time and rusage to its result."""
    cmd = [sys.executable, CHILD, workload, str(seed), mode] + ([spans_path] if spans_path else [])
    env = dict(os.environ, PYTHONHASHSEED="0")  # the same set iteration order in every child
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != "ready":
        raise ChildFailed(f"{mode} child for {workload} exited with {proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def failed_units(children):
    units = [u for child in children for u in child["units"]]
    failed = [(name, problems) for name, problems in units if problems]
    for name, problems in failed:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    return len(units), len(failed)


def end_to_end(workload, seed, seconds):
    spawn(workload, seed, "setup")  # warm-up: byte-compiles the sources, not counted
    # half the set-up samples before the timed children and half after, so
    # their median does not rest on one short stretch of machine load
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_BATCH)]
    children = []
    start = time.perf_counter()
    while True:
        children.append(spawn(workload, seed, "run"))
        elapsed = time.perf_counter() - start
        if elapsed * (len(children) + 1) / len(children) > seconds:
            break
    setups += [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_BATCH)]
    attempted, failed = failed_units(children)

    def median(key):
        return statistics.median(c[key] for c in children)

    metrics = {
        "verify_s": (median("verify_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (statistics.median(setups + [c["setup_s"] for c in children]), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "correct_frac": ((attempted - failed) / attempted, "fraction"),
    }
    return attempted, failed, metrics


def per_layer(workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    plain = spawn(workload, seed, "run")
    traced = spawn(workload, seed, "trace", spans_path)
    attempted, failed = failed_units([plain, traced])
    values = dict(traced["trace"], **{"trace.overhead_s": traced["verify_s"] - plain["verify_s"]})
    metrics = {name: (values[name], unit) for name, unit in layers.metric_names()}
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crown", "__init__.py")):
        # never fall back to an installed copy of the package
        print(f"perfbench: no crown sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, args.seed)
        else:
            attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
