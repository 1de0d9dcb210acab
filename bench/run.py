"""Benchmark of ncperiod: four oracle-checked workloads of exact computations.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cyclic, hochschild, lie_dagger, deform_period (see README.md).
Each is a closed loop with one client: one operation at a time, in one
process and one thread.  Every pass over a workload's operations runs in a
fresh process (`child.py`), so `setup_s` includes `import ncperiod` and no
cache built on an algebra instance survives into the next pass.

With --trace 0 the run makes SETUP_PROBES set-up-only processes, then
timed passes until the next pass would end after S seconds (at least one),
and reports the end-to-end metrics:

    wall_s        median time of one pass over the operations
    setup_s       median time from process spawn until the inputs are built
    peak_rss_mib  largest peak resident memory of a pass process

Times are in seconds at the reference speed of calib.py: each is rescaled
by a fixed unit of stdlib work timed next to it, so that the swings of a
shared machine's CPU speed cancel.  The raw wall seconds are printed too.

With --trace 1 it makes the same untraced passes plus one traced pass and
reports the per-layer metrics (spans.py), including bench.trace_overhead_s,
the traced pass's time minus the untraced median.

Every answer is checked against its closed-form oracle (workloads.py).  The
failed fraction ops_failed_frac is printed per run; `failed` in the final
line counts every failed operation, the known defects included.  `correct`
is true when no operation outside workloads.KNOWN_DEFECTS failed.  The last
line of stdout is the JSON result; a pass that cannot run ends the run with
a non-zero exit code and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from calib import UNIT_REF_S, speed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 20
RUN_LIMIT_S = 170   # every child is stopped by then, so a run ends within 180 s
# the keys of workloads.WORKLOADS; this process does not import the package
WORKLOADS = ("cyclic", "hochschild", "lie_dagger", "deform_period")


def spawn(args, extra, deadline):
    """Run one child process to completion; (setup_s, parsed result).

    setup_s is the time from spawn until the child's inputs were built, at
    the reference speed of the speed probes taken just before the spawn and
    just after the child ended.  The child is killed at the monotonic time
    `deadline`, which fails the run.
    """
    env = {k: v for k, v in os.environ.items() if k != "NCPERIOD_THREADS"}
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    before = speed_probe()
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - t_spawn, 1))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench: child {' '.join(extra) or 'pass'} exited "
                         f"with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    scale = UNIT_REF_S / ((before + speed_probe()) / 2)
    return (res["ready"] - t_spawn) * scale, res


def run_passes(args, deadline):
    """Untraced passes until the next one would end after --seconds."""
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        setup, _ = spawn(args, ["--setup-only"], deadline)
        setups.append(setup)
    start = time.monotonic()
    while True:
        t_spawn = time.monotonic()
        setup, res = spawn(args, [], deadline)
        setups.append(setup)
        passes.append(res)
        now = time.monotonic()
        last = now - t_spawn
        if now + last > start + args.seconds:
            return setups, passes


def print_ops(passes):
    failed = [op for res in passes for op in res["ops"] if not op["ok"]]
    for op in {op["name"]: op for op in failed}.values():
        tag = "known defect" if op["known_defect"] else "REGRESSION"
        print(f"  FAIL {op['name']} [{tag}]: oracle {op['expected']}, "
              f"computed {op['got']}")
    attempted = sum(len(res["ops"]) for res in passes)
    return attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ncperiod", "__init__.py")):
        raise SystemExit(f"bench: no ncperiod sources under {ROOT}/src")

    deadline = time.monotonic() + RUN_LIMIT_S
    setups, passes = run_passes(args, deadline)
    walls = [res["wall_s"] for res in passes]
    wall = statistics.median(walls)
    setup = statistics.median(setups)
    rss = max(res["peak_rss_mib"] for res in passes)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"serial")
    print(f"  wall_s          {wall:.4f} s    median of {len(walls)} passes: "
          + " ".join(f"{w:.3f}" for w in walls))
    print("                  wall seconds of the same passes: "
          + " ".join(f"{res['raw_wall_s']:.3f}" for res in passes))
    print(f"  setup_s         {setup:.4f} s    median of {len(setups)} set-ups")
    print(f"  peak_rss_mib    {rss:.1f} MiB  max over {len(passes)} passes")
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }
    if args.trace:
        _, traced = spawn(args, ["--trace"], deadline)
        passes.append(traced)
        layer = dict(traced["trace"])
        layer.setdefault("calculus.pair_loop_workers2_s", {"value": 0.0, "unit": "s"})
        layer["bench.trace_overhead_s"] = {"value": traced["wall_s"] - wall, "unit": "s"}
        print(f"  traced pass     {traced['wall_s']:.4f} s")
        for name, m in sorted(layer.items()):
            print(f"    {name:40s} {m['value']:.6g} {m['unit']}")
        metrics = layer

    attempted, failed = print_ops(passes)
    print(f"  ops_failed_frac {len(failed) / attempted:.4f} "
          f"({len(failed)} of {attempted} operations)")
    correct = all(op["known_defect"] for op in failed)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
