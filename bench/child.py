"""One benchmark pass in a fresh process; `run.py` starts it.

    python3 bench/child.py --workload NAME --seed N [--setup-only] [--trace]

The process imports ncperiod from the checkout's `src/`, builds the
workload's inputs, then runs every operation once and checks each answer
against its oracle.  It prints one JSON object on stdout:

    ready       time.monotonic() when the inputs were built (the parent
                subtracts its own spawn time to get setup_s)
    wall_s      seconds for the pass over all operations, at the reference
                speed of calib.py
    raw_wall_s  the same pass in wall seconds, calibration units left out
    peak_rss_mib  peak resident memory of this process
    ops         [{name, ok, expected, got, known_defect}] per operation
    trace       per-layer metrics, with --trace only; their seconds are at
                the reference speed too, spans timed by the same clock
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_package():
    sys.path[:0] = [SRC, HERE]
    import ncperiod

    if not os.path.abspath(ncperiod.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ncperiod imported from {ncperiod.__file__}, not {SRC}")


def run_op(op, known_defects):
    try:
        got = op.run()
        ok = got == op.expected
    except Exception as exc:  # a raising operation is a failed operation
        got, ok = f"{type(exc).__name__}: {exc}", False
    return {"name": op.name, "ok": ok, "expected": repr(op.expected), "got": repr(got),
            "known_defect": op.name in known_defects}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    import workloads
    from calib import RefClock

    build, make_ops = workloads.WORKLOADS[args.workload]
    ops = make_ops(build(args.seed))
    out = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return

    clock, tracer = RefClock(), None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(clock)
        tracer.install()
    with clock:
        t0, raw0 = clock(), clock.raw()
        results = [run_op(op, workloads.KNOWN_DEFECTS) for op in ops]
        out["wall_s"], out["raw_wall_s"] = clock() - t0, clock.raw() - raw0
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = {k: {"value": v, "unit": u}
                        for k, (v, u) in tracer.metrics(out["wall_s"]).items()}
        if args.workload == "lie_dagger":
            # the process-pool pair loop, timed alone, outside every span and
            # with no units competing with its two workers; scaled by the
            # pass's own ratio of reference to wall seconds
            m2 = workloads.build_matrix_algebra(2)
            t1 = time.perf_counter()
            results.append(run_op(workloads.Op(
                "lie_dagger.M2.workers2",
                lambda: workloads.lie_dagger_statuses(m2, workers=2),
                (workloads.HOLDS,) * 4, "as lie_dagger.M2, on two worker processes"),
                workloads.KNOWN_DEFECTS))
            scale = out["wall_s"] / out["raw_wall_s"]
            out["trace"]["calculus.pair_loop_workers2_s"] = {
                "value": (time.perf_counter() - t1) * scale, "unit": "s"}
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["ops"] = results
    print(json.dumps(out))


if __name__ == "__main__":
    main()
