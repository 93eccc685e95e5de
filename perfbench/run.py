#!/usr/bin/env python3
"""Build and run the CUP simulator benchmark.

One run, from the root of the repository:

    python3 perfbench/run.py --workload zipf-catalog --seed 1 --seconds 10 --trace 0

builds perfbench/perfbench.exe in the release profile (into .bench_build,
with dune's shared cache off, so nothing is written outside the checkout),
runs it, and passes its standard output through: the last line is one JSON
object with the keys correct, attempted, failed and metrics.  --trace 1
prints the per-layer metrics instead of the end-to-end ones and writes the
spans under perfbench/_out.

Repeat mode runs one workload (or all) N times in fresh processes with
the same seed, and prints the median and quartiles of every metric, and
of the raw figures an untraced run prints on the line before its result:

    python3 perfbench/run.py --repeat 10 --workload all --seed 1 --seconds 10

With --vary-seed the runs take seeds seed, seed+1, ..., so the spread
covers the inputs as well as the host.

The exit code is 0 only when every run exited 0.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT = os.path.join(HERE, "_out")
WORKLOADS = ["paper-table1", "zipf-catalog", "faults-chord", "scale-ring"]
RUN_TIMEOUT_S = 170


def build():
    if shutil.which("dune") is None:
        print("run.py: dune not found", file=sys.stderr)
        return False
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/perfbench.exe"]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    return done.returncode == 0 and os.path.exists(EXE)


def clean_out():
    """Remove what a run leaves in the output directory except spans."""
    if not os.path.isdir(OUT):
        return
    for name in os.listdir(OUT):
        if name.endswith(".ctrace"):
            os.remove(os.path.join(OUT, name))


def run_once(workload, seed, seconds, trace):
    """Run one benchmark process; return (exit code, stdout text)."""
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out", OUT]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, ""
    finally:
        clean_out()
    if proc.returncode < 0:
        print(f"run.py: {workload} seed {seed} killed by signal "
              f"{-proc.returncode}", file=sys.stderr)
        return 1, out
    return proc.returncode, out


def json_line(out, back):
    """The JSON object on the back-th last non-empty line, or None."""
    lines = [line for line in out.splitlines() if line.strip()]
    if len(lines) < back:
        return None
    try:
        result = json.loads(lines[-back])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def figures(out, result):
    """Every metric of a run, with the raw figures of its detail line."""
    values = {name: (m["value"], m["unit"])
              for name, m in result["metrics"].items()}
    detail = json_line(out, 2)
    if detail is not None and isinstance(detail.get("detail"), dict):
        for name, value in detail["detail"].items():
            values["(" + name + ")"] = (value, "")
    return values


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def repeat(args):
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        results, runs = [], []
        last = args.seed + args.repeat - 1 if args.vary_seed else args.seed
        for i in range(args.repeat):
            seed = args.seed + i if args.vary_seed else args.seed
            code, out = run_once(workload, seed, args.seconds, args.trace)
            result = json_line(out, 1)
            if code != 0 or result is None:
                print(f"{workload} seed {seed}: exit {code}")
                ok = False
                continue
            results.append(result)
            runs.append(figures(out, result))
        if not results:
            continue
        print(f"{workload}: {len(results)} runs, seeds {args.seed}.."
              f"{last}, {args.seconds} s each")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        attempted = [r["attempted"] for r in results]
        print(f"  attempted {min(attempted)}..{max(attempted)}, "
              f"failed share {shares}")
        for name, (_, unit) in runs[0].items():
            values = [run[name][0] for run in runs if name in run]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:34s} median {med:14.6g} {unit:12s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}")
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N fresh processes and summarize")
    parser.add_argument("--vary-seed", action="store_true",
                        help="in repeat mode, give each run the next seed")
    args = parser.parse_args()
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.repeat > 0:
        return repeat(args)
    if args.workload == "all":
        parser.error("--workload all needs --repeat")
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and json_line(out, 1) is None:
        print("run.py: no result line", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
