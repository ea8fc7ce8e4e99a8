"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --first-seed 2001 --trace-seed 2001 \
        --out perfbench/baseline.json

is the command that wrote ``baseline.json``.  Runs ``run.py`` once per seed
and per workload of BENCHMARK.json with ``--trace 0`` (and, with
``--trace-seed``, once per workload with ``--trace 1``), one run at a time.
For every end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json.  The predictions that later changes are judged against
are stored with the numbers.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PREDICTIONS = [
    "An exact-kernel change (symfields.Poly.exact_div, Poly.__mul__) moves "
    "items_per_s and item_tail_ms on exact-oracle and setup_s on every "
    "workload; it leaves items_per_s on numeric-oracle and "
    "geodesic-classify unchanged.",
    "A batched flow (hamiltonian.integrate_flow over a batch of covectors) "
    "moves items_per_s on numeric-oracle (and peak_rss_mb there); it leaves "
    "geodesic-classify unchanged, where every call is a batch of one.",
    "Dropping the per-call identity check in groups.fiber_transform moves "
    "item_p50_ms on exact-oracle and setup_s everywhere.",
]


def run_once(workload, seed, seconds, trace):
    """(result line, run record) of one run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           check=True).stdout.strip().splitlines()
    rec = next(ln for ln in lines if ln.startswith("record "))
    return json.loads(lines[-1]), json.loads(rec[len("record "):])


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound,
            "within_third_of_bound": spread < bound / 3, "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-seed", type=int,
                    help="also make one traced run per workload on this seed")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"],
               "first_seed": args.first_seed, "trace_seed": args.trace_seed,
               "seeds": list(range(args.first_seed,
                                   args.first_seed + args.seeds)),
               "predictions": PREDICTIONS, "workloads": {}}
    for w in names:
        runs = [run_once(w, s, bench["run_seconds"], 0)
                for s in summary["seeds"]]
        entry = {"correct": all(r["correct"] for r, _ in runs),
                 "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs],
                 "host_slowdown": [rec["host_slowdown"] for _, rec in runs],
                 "metrics": {}, "raw": {}}
        for name, bound in bounds.items():
            entry["metrics"][name] = summarise(
                [r["metrics"][name]["value"] for r, _ in runs], bound)
            s = entry["metrics"][name]
            print(f"{w:18s} {name:13s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} bound {bound}", flush=True)
        # the same timings before dividing by the host slowdown
        for name in runs[0][1]["raw"]:
            entry["raw"][name] = summarise(
                [rec["raw"][name] for _, rec in runs], bounds[name])
        entry["raw"]["setup_s"] = summarise(
            [statistics.median(x["setup_raw_s"] for x in rec["setup_samples"])
             for _, rec in runs], bounds["setup_s"])
        if args.trace_seed is not None:
            tr, _ = run_once(w, args.trace_seed, bench["run_seconds"], 1)
            entry["trace"] = {k: v["value"] for k, v in tr["metrics"].items()}
        summary["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
