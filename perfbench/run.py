"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The workload runs in
this single process, with every BLAS and OpenMP pool pinned to one thread
before numpy loads.  The run times set-up in fresh child processes, warms
up, then repeats whole rounds of the workload's operations for about S
seconds and checks every result document apart from the program.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round once
untraced and once with spans around the calls into exactsdp's modules,
prints the per-layer metrics, and writes the spans under perfbench/out/.
"""
import os

THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


class MissingProgram(Exception):
    pass


def import_program():
    """Import exactsdp from this checkout's src/, never from elsewhere."""
    if "exactsdp" in sys.modules:
        return sys.modules["exactsdp"]
    if not os.path.isfile(os.path.join(SRC, "exactsdp", "__init__.py")):
        raise MissingProgram("no src/exactsdp under %s" % ROOT)
    sys.path.insert(0, SRC)
    import exactsdp
    if not os.path.abspath(exactsdp.__file__).startswith(SRC + os.sep):
        raise MissingProgram("exactsdp was imported from %s" % exactsdp.__file__)
    return exactsdp


def setup(name: str, seed: int):
    """Imports plus building the problem documents."""
    import_program()
    return workloads.build(name, seed)


def setup_seconds(name: str, seed: int) -> float:
    """Median over fresh processes of process start until inputs are ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


class Run:
    """Timings, counts and failures of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wall = []
        self.cpu = []

    def op(self, op):
        """One timed, checked operation."""
        self.attempted += 1
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            outs = workloads.run_op(self.workload, op)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.wall.append(wall)
        self.cpu.append(cpu)
        problems = []
        for item, out in zip(op, outs):
            problems += ["%s: %s" % (item.kind, p) for p in checks.check(item.kind, item.doc, out)]
        if problems:
            self.failed += 1
            print("operation %d failed its checks:\n  %s"
                  % (self.attempted, "\n  ".join(problems[:10])), file=sys.stderr)


def timed_rounds(seconds: float, round_fn):
    """Whole rounds until the next one would, on average, end past `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        round_fn(rounds)
        rounds += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2.0 >= seconds:
            return rounds


def end_to_end(args) -> dict:
    setup_s = setup_seconds(args.workload, args.seed)
    workload = setup(args.workload, args.seed)
    run = Run(workload)
    for op in workload.warmup:
        Run(workload).op(op)

    def one_round(_):
        for op in workload.ops:
            run.op(op)

    timed_rounds(args.seconds, one_round)
    metrics = {
        "op_s": {"value": statistics.median(run.wall) if run.wall else float("nan"),
                 "unit": "s"},
        "op_cpu_s": {"value": statistics.median(run.cpu) if run.cpu else float("nan"),
                     "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
    }
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def traced(args) -> dict:
    """Alternate untraced and traced passes over each round; per-layer metrics
    come from the traced passes, the overhead from comparing the two."""
    workload = setup(args.workload, args.seed)
    for op in workload.warmup:
        Run(workload).op(op)
    plain, spanned = Run(workload), Run(workload)
    tr = tracer.Tracer()
    round_counts = []
    totals = {}

    def traced_pass():
        tr.install()
        try:
            counts = {}
            for op in workload.ops:
                spanned.op(op)
                tr.end_op(spanned.attempted - 1)
                for key, v in tracer.op_totals(tr.finished[-1][1]).items():
                    counts[key] = counts.get(key, 0) + v
        finally:
            tr.uninstall()
        for key, v in counts.items():
            totals[key] = totals.get(key, 0) + v
        round_counts.append(tracer.exact_counts(counts))

    def one_round(k):
        # alternate which pass goes first so drift affects both alike
        if k % 2:
            traced_pass()
        for op in workload.ops:
            plain.op(op)
        if not k % 2:
            traced_pass()

    rounds = timed_rounds(args.seconds, one_round)
    repeat = all(c == round_counts[0] for c in round_counts)
    if not repeat:
        print("exact counts differ between rounds", file=sys.stderr)
    metrics = tracer.layer_metrics(totals, spanned.attempted)
    traced_op = statistics.median(spanned.wall)
    plain_op = statistics.median(plain.wall)
    op_wall = sum(spanned.wall)
    metrics.update({
        "trace.op_s": {"value": traced_op, "unit": "s"},
        "trace.untraced_op_s": {"value": plain_op, "unit": "s"},
        "trace.overhead_share": {"value": traced_op / plain_op - 1.0, "unit": "ratio"},
        "trace.uncovered_share": {"value": 1.0 - totals.get("self_s", 0.0) / op_wall,
                                  "unit": "ratio"},
        "trace.counts_repeat": {"value": int(repeat), "unit": "count"},
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    base = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    tr.write(base + ".spans.jsonl")
    with open(base + ".trace.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                   "counts_per_round": round_counts[0], "metrics": metrics}, fh,
                  indent=1, sort_keys=True)
    failed = plain.failed + spanned.failed
    return {"correct": failed == 0, "attempted": plain.attempted + spanned.attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload not in workloads.NAMES:
        print("unknown workload %r; one of %s" % (args.workload, ", ".join(workloads.NAMES)),
              file=sys.stderr)
        return 2
    try:
        if args.setup_probe:
            setup(args.workload, args.seed)
            print(repr(time.time()))
            return 0
        import_program()
        result = traced(args) if args.trace else end_to_end(args)
    except MissingProgram as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
