"""carnotcurv benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload exact-oracle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh
single-threaded worker process (BLAS pinned to one thread in the worker's
environment only) as a closed loop with one caller.  With ``--trace 0`` the
command prints every end-to-end metric; set-up is timed in that worker and
in two more fresh processes, and the median is reported.  End-to-end times
are divided by the host slowdown that a fixed calibration kernel measures
between items (see worker.SpeedProbe); the raw times and the slowdown are
in the ``record`` line.  With ``--trace 1`` it runs the workload untraced,
then traced, each for a fixed number of rounds that take about half of
``--seconds`` on the tuning host, and prints the per-layer metrics (raw
times), including the tracing overhead.  The last stdout line is always
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("exact-oracle", "numeric-oracle", "geodesic-classify")
SETUP_SAMPLES = 3
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

# printed with the metrics of BENCHMARK.json's end_to_end list; they carry
# no relative bound there: failed_ratio is 0 and tol_use_max is an extreme
# of a seeded sample
UNBOUNDED_UNITS = {"failed_ratio": "ratio", "tol_use_max": "ratio"}
# nominal seconds per round.  A traced run measures round(seconds / 2 /
# ROUND_S) whole rounds in each half (5, 2 and 1 at --seconds 20), a fixed
# amount of work for a given --seconds, so its counts and self times do not
# depend on how many rounds the host's speed lets finish.  One untraced
# round took 2.2, 7 and 12.5 s on the tuning host (2-core Intel Xeon).
ROUND_S = {"exact-oracle": 2.0, "numeric-oracle": 5.0,
           "geodesic-classify": 10.0}


def end_to_end_units():
    """{name: unit} of the end-to-end metrics, BENCHMARK.json's first."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    units.update(UNBOUNDED_UNITS)
    return units


class BenchError(Exception):
    pass


def run_worker(args, timeout):
    cmd = [sys.executable, WORKER] + args
    env = dict(os.environ, **CHILD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {timeout} s: {args}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {args}")
    return json.loads(lines[-1])


def machine():
    """nproc and CPU model, from /proc/cpuinfo only."""
    nproc, model = 0, None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, val = line.partition(":")
                key = key.strip()
                if key == "processor":
                    nproc += 1
                elif key == "model name" and model is None:
                    model = val.strip()
    except OSError:
        pass
    return nproc, model


def git_commit():
    """HEAD commit when the checkout is a git work tree, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(args, res, extra):
    nproc, model = machine()
    rec = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "nproc": nproc, "cpu_model": model,
           "python": res["python"], "numpy": res["numpy"],
           "git_commit": git_commit(),
           "warmup_policy": res["warmup_policy"],
           "blas_env": res["blas_env"],
           "closed_loop_callers": 1,
           "rounds": res["rounds"], "attempted": res["attempted"],
           "failed": res["failed"], "wrong": res["wrong"],
           "failed_by_class": res["errors"],
           "failed_checks": res["failed_checks"],
           "warmup": res["warmup"],
           "item_tail_pct": res["tail_pct"],
           "items_beyond_tail": res["tail_beyond"],
           "raw": res["raw"], "host_slowdown": res["slowdown"],
           "speed_samples": res["speed_samples"],
           "calibration_kernel": res["kernel"],
           "kernel_ref_s": res["kernel_ref_s"]}
    rec.update(extra)
    return rec


def end_to_end(args):
    res = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds)] + args.tiny, 120)
    setups = [{k: res[k] for k in ("setup_s", "setup_raw_s", "setup_slowdown")}]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_worker(["--workload", args.workload, "--seed",
                                  str(args.seed), "--seconds", "0",
                                  "--mode", "setup"], 25))
    units = end_to_end_units()
    values = {k: res[k] for k in units}
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    for name, unit in units.items():
        note = ""
        if name == "item_tail_ms":
            note = (f"  (p{res['tail_pct']:g}, {res['tail_beyond']} of "
                    f"{res['attempted']} items beyond)")
        print(f"{args.workload} {name} = {values[name]!r} {unit}{note}")
    print("record " + json.dumps(record(args, res, {"setup_samples": setups}),
                                 sort_keys=True))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()
               if k not in UNBOUNDED_UNITS}
    ok = res["wrong"] == 0 and res["warmup"]["wrong"] == 0
    return ok, res["attempted"], res["failed"], metrics


def per_layer(args):
    rounds = max(1, round(args.seconds / 2 / ROUND_S[args.workload]))
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds / 2)] + args.tiny
    if not args.tiny:
        base += ["--rounds", str(rounds)]
    plain = run_worker(base, 80)
    traced = run_worker(base + ["--trace", "1"], 90)
    metrics = dict(traced["trace"])
    metrics["trace.overhead_ratio"] = {
        "value": traced["items_per_s"] / plain["items_per_s"], "unit": "ratio"}
    for phase in ("setup", "loop"):
        for name, row in sorted(traced["layer_table"][phase].items()):
            if row["calls"]:
                print(f"{args.workload} {phase} {name}: calls={row['calls']} "
                      f"self_s={row['self_s']!r}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print("record " + json.dumps(record(args, traced, {
        "untraced_items_per_s": plain["items_per_s"],
        "traced_items_per_s": traced["items_per_s"],
        "spans_file": traced["spans_file"],
        "dropped_spans": traced["dropped_spans"],
        "trace_hook_s": traced["trace_hook_s"]}), sort_keys=True))
    ok = all(r["wrong"] == 0 and r["warmup"]["wrong"] == 0
             for r in (plain, traced))
    return ok, traced["attempted"], traced["failed"], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one reduced round (benchmark self-test only)")
    args = ap.parse_args(argv)
    if args.seconds < 0:
        ap.error("--seconds must be >= 0")
    args.tiny = ["--tiny"] if args.tiny else []
    if not os.path.isfile(os.path.join(ROOT, "src", "carnotcurv", "__init__.py")):
        print("error: carnotcurv sources not found under src/; run from the "
              "root of a carnotcurv checkout", file=sys.stderr)
        return 2
    try:
        ok, attempted, failed, metrics = (per_layer if args.trace
                                          else end_to_end)(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
