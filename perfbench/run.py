#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Builds perfbench/perfbench.exe with dune, runs the workload in a fresh
process, and prints one JSON object as the last line of standard output:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. A traced run first repeats the workload untraced
(also in a fresh process) and reports the tracing overhead: the traced
end-to-end medians against the untraced ones.

--selftest runs every workload twice on one seed and checks that the
exact counts repeat exactly and that no operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("synth-store", "tenant-fleet", "engine-image")
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
# The latency whose traced/untraced ratio is reported as the overhead.
PRIMARY = {"synth-store": "epoch_ms_p50", "tenant-fleet": "epoch_ms_p50",
           "engine-image": "run_ms_p50"}
# Counts that must repeat exactly on one seed.
EXACT = ("synth.dirty_objs", "jspec.record_bytes", "store.chunks_total",
         "store.chunks_new", "vfs.sync_count", "vfs.write_amp",
         "service.batch_epochs", "engine.ckpt_bytes", "engine.segments",
         "space_amp")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spec():
    try:
        with open("BENCHMARK.json") as f:
            b = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return ([m["name"] for m in b["end_to_end"]],
            [m["name"] for m in b["per_layer"]])


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a source checkout: dune-project and lib/ "
             "not found")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(dune + ["build", "--root", ".",
                               "./perfbench/perfbench.exe"],
                       env=env, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=850)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed", 3)


def run_exe(workload, seed, seconds, trace):
    r = subprocess.run([EXE, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                       timeout=170)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, r.returncode), 4)
    return json.loads(lines[-1])


def select(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("metrics not reported: " + ", ".join(missing), 5)
    return {n: result["metrics"][n] for n in names}


def measure(args):
    end_to_end, per_layer = spec()
    build()
    if args.trace == 0:
        res = run_exe(args.workload, args.seed, args.seconds, 0)
        out = dict(res, metrics=select(res, end_to_end))
    else:
        base = run_exe(args.workload, args.seed, args.seconds, 0)
        traced = run_exe(args.workload, args.seed, args.seconds, 1)
        bm, tm = base["metrics"], traced["metrics"]
        print("perfbench %s: end-to-end untraced vs traced" % args.workload,
              file=sys.stderr)
        for n in end_to_end:
            print("  %-16s %14.4f %14.4f %s" % (n, bm[n]["value"],
                                                tm[n]["value"], bm[n]["unit"]),
                  file=sys.stderr)
        key = PRIMARY[args.workload]
        tm = dict(tm)
        tm["trace.overhead_p50"] = {
            "value": tm[key]["value"] / bm[key]["value"] - 1, "unit": "ratio"}
        tm["trace.overhead_ops"] = {
            "value": bm["ops_per_s"]["value"] / tm["ops_per_s"]["value"] - 1,
            "unit": "ratio"}
        out = {"correct": base["correct"] and traced["correct"],
               "attempted": base["attempted"] + traced["attempted"],
               "failed": base["failed"] + traced["failed"],
               "metrics": select(dict(traced, metrics=tm), per_layer)}
    print(json.dumps(out))


def selftest(args):
    build()
    ok = True
    for w in WORKLOADS:
        a, b = (run_exe(w, args.seed, 1, 1) for _ in range(2))
        for res in (a, b):
            if not res["correct"] or res["failed"]:
                print("FAIL %s: %d of %d operations failed" %
                      (w, res["failed"], res["attempted"]))
                ok = False
        for n in EXACT:
            x, y = a["metrics"][n]["value"], b["metrics"][n]["value"]
            same = x == y
            ok = ok and same
            print("%s %-14s %-22s %r%s" % ("ok  " if same else "FAIL", w, n, x,
                                           "" if same else " vs %r" % y))
    print("selftest: " + ("exact counts repeat" if ok else "FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        selftest(args)
    elif args.workload is None:
        p.error("--workload is required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
