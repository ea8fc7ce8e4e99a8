"""One benchmark process: set-up, warm-up and the timed closed loop.

Started by ``run.py`` as a fresh single-threaded process; prints one JSON
object on its last stdout line.  ``--mode setup`` stops after set-up, so the
parent can time set-up in several fresh processes.
"""
import time

_T0 = time.perf_counter()       # set-up is timed from before any import

import argparse                 # noqa: E402
import json                     # noqa: E402
import os                       # noqa: E402
import resource                 # noqa: E402
import shutil                   # noqa: E402
import sys                      # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# tail percentile per workload: the highest percentile that leaves at least
# ten items beyond it in every run of the planned length (20 s), counted on a
# 2-core Xeon whose speed drifted by up to 1.9x: 312-510 items per run for
# exact-oracle (p96 falls inside the goursat:5 canonical-chain items, one
# per round), 58-87 for geodesic-classify (p80 falls where the random-fill
# goursat:6 items meet the cartan ones) and only 21-35 for numeric-oracle,
# where that is the median.  Fixed rather than chosen per run, so a run one
# round longer or shorter reports the same statistic.
TAIL_PCT = {"exact-oracle": 96.0, "numeric-oracle": 50.0,
            "geodesic-classify": 80.0}
LAYERS = ("symfields", "frames", "groups", "hamiltonian", "elliptic",
          "regularity", "curvature", "oracle", "cli")
WARMUP_POLICY = ("after set-up, one reduced round (one item of each main "
                 "kind) runs untimed; its checks still count towards correct")

# Host speed calibration.  The host shares its cores with other tenants and
# flips, every few tenths of a second to tens of seconds, between a fast and
# a slow state: a small pure-Python kernel then runs 1.6-1.7x slower, and so
# do the items (exact-oracle items timed between two slow-state kernel
# samples were 1.54-1.72x slower than between two fast-state ones, 1.67x
# time-weighted, against 1.71x for the exact kernel).  Over ten runs, raw
# spreads (quartile distance over median) reached 0.39 for exact-oracle and
# 0.31 for geodesic-classify, and the medians of two sets of runs half an
# hour apart differed by 1.37x on numeric-oracle, beyond the largest bound
# a benchmark may carry.  So a fixed kernel that runs no carnotcurv code is
# timed between items, and the end-to-end times are divided by the host
# slowdown it measures: throughput and set-up by the mean over the phase,
# item quantiles item by item (see SpeedProbe), so they read as times on
# the reference host.  Each workload is calibrated by the kernel of its
# kind.  A change to carnotcurv cannot move a kernel, so it moves the
# calibrated metrics by exactly its own factor; the raw times and the
# slowdown are in the run record.
# fast-state kernel times on the tuning host (2-core Intel Xeon)
KERNEL_REF_S = {"exact": 0.00113, "float": 0.0016}
KERNEL_OF = {"exact-oracle": "exact", "numeric-oracle": "float",
             "geodesic-classify": "float", "setup": "exact"}
# a kernel sample this many times the median is a pause (collection,
# preemption), not a host state: the slow state is under 2x the fast one
PAUSE_FACTOR = 3.0
SAMPLE_EVERY_S = 0.1


def exact_kernel():
    """Sparse integer polynomial product and Fraction sums (symfields-like)."""
    from fractions import Fraction
    poly = {(i, j): 7 * i + j + 1 for i in range(10) for j in range(10 - i)}
    prod = {}
    for ea, ca in poly.items():
        for eb, cb in poly.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            prod[e] = prod.get(e, 0) + ca * cb
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i % 13 + 1, i % 11 + 2)
    return acc


def float_kernel():
    """Fixed-step float updates through small numpy arrays (flow-like)."""
    import numpy as np
    y = np.linspace(0.1, 1.0, 10)
    step = np.eye(10) + 1e-3 * np.diag(np.ones(9), 1)
    m = np.eye(10)
    rows = []
    for _ in range(120):
        v = [y[i] * y[(i + 1) % 10] - y[(i + 2) % 10] for i in range(10)]
        y = y + 1e-3 * np.array(v)
        m = m @ step
        rows.append(",".join(f"{x:.17g}" for x in y[:4]))
    return rows


KERNELS = {"exact": exact_kernel, "float": float_kernel}


class SpeedProbe:
    """Kernel samples taken at most every SAMPLE_EVERY_S between items."""

    def __init__(self, kind):
        self.kind = kind
        self.samples = []
        self._last = float("-inf")
        # the first call in a process pays one-off costs: run it untimed
        t = time.perf_counter()
        KERNELS[kind]()
        self.spent = time.perf_counter() - t

    def sample(self, force=False):
        if not force and time.perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        t = time.perf_counter()
        KERNELS[self.kind]()
        self._last = time.perf_counter()
        self.samples.append(self._last - t)
        self.spent += self._last - t

    def levels(self):
        """Kernel samples over the reference time; a pause repeats the
        previous sample (or the next one, at the start)."""
        cut = PAUSE_FACTOR * percentile(sorted(self.samples), 50.0)
        out, last = [], None
        for t in self.samples:
            if t <= cut:
                last = t
            out.append(last)
        first = next(t for t in out if t is not None)
        ref = KERNEL_REF_S[self.kind]
        return [(first if t is None else t) / ref for t in out]

    def slowdown(self):
        """Host slowdown over the whole phase: the mean of the levels.

        The mean, not the median: with two host states the median jumps
        from one state to the other when the share of slow samples crosses
        one half, while the mean follows the share of time spent in each,
        which is what stretches the phase's total time.
        """
        lv = self.levels()
        return sum(lv) / len(lv)

    def calibrate(self, times, marks):
        """Each item time over the mean level of the samples around it.

        A quantile of the raw times does not scale with the mean slowdown:
        items shorter than a host state are either all fast or all slow, so
        the slow ones reorder the mix (over 10 s windows of exact-oracle the
        median divided by the mean slowdown varied 2.6 times as much as the
        median of the items calibrated one by one).  marks[i] is the index
        of the last sample taken before item i.
        """
        lv = self.levels()
        last = len(lv) - 1
        return [dt * 2.0 / (lv[b] + lv[min(b + 1, last)])
                for dt, b in zip(times, marks)]


def percentile(sorted_vals, pct):
    """Linear interpolation between closest ranks (numpy's default rule)."""
    pos = pct / 100.0 * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail(times, pct):
    """(value, number of items beyond) at the given percentile."""
    vals = sorted(times)
    value = percentile(vals, pct)
    return value, sum(1 for v in vals if v > value)


class Outcome:
    """Per-item results of one phase."""

    def __init__(self):
        self.times = []
        self.marks = []               # last speed sample before each item
        self.check_s = 0.0            # time spent checking, outside the items
        self.failed = 0
        self.wrong = 0
        self.errors = {}
        self.failed_checks = []
        self.tol_use_max = 0.0

    def add(self, item, dt, mark, checks, error):
        self.times.append(dt)
        self.marks.append(mark)
        if error is not None:
            self.failed += 1
            self.errors[error] = self.errors.get(error, 0) + 1
            return
        bad = [c.name for c in checks if not c.ok]
        for c in checks:
            if c.use is not None:
                self.tol_use_max = max(self.tol_use_max, c.use)
        if bad or not checks:
            self.failed += 1
            self.wrong += 1
            if len(self.failed_checks) < 20:
                self.failed_checks.append(f"{item.kind}: {', '.join(bad)}")


def run_items(items, outcome, tracer, item_errors, probe, deadline=None):
    """Time each item's program calls, then check its outputs untimed.

    With a tracer the checks run in its "check" phase, so the layer
    figures of the phase being timed hold the program's work only.
    """
    perf = time.perf_counter
    phase = tracer.phase if tracer is not None else None
    for item in items:
        probe.sample()
        if tracer is not None:
            tracer.item_id += 1
        t = perf()
        checks = error = None
        try:
            if tracer is None:
                check = item.run()
            else:
                check = tracer.call("bench.item", item.run)
        except item_errors as exc:
            error = type(exc).__name__
        dt = perf() - t
        if error is None:
            c0 = perf()
            try:
                if tracer is None:
                    checks = check()
                else:
                    tracer.set_phase("check")
                    checks = tracer.call("bench.check", check)
            except item_errors as exc:
                error = type(exc).__name__
            finally:
                if tracer is not None:
                    tracer.set_phase(phase)
            outcome.check_s += perf() - c0
        outcome.add(item, dt, len(probe.samples) - 1, checks, error)
        if deadline is not None and perf() > deadline:
            return False
    return True


def trace_metrics(tracer, loop_wall, outcome):
    """Per-layer metrics of a traced run.

    Every figure is taken over the timed loop alone, which in a traced run
    is a fixed number of rounds, so counts do not depend on host speed.
    Set-up is reported apart: ``setup.<layer>.self_s``, and the two layer
    figures whose work is set-up by nature (building the group models and
    compiling the flow; both are cached afterwards).
    """
    loop = tracer.table(("loop",))
    setup = tracer.table(("setup",))

    def calls(name):
        return loop.get(name, {"calls": 0})["calls"]

    def self_s(name, tab=loop):
        return tab.get(name, {"self_s": 0.0})["self_s"]

    def counter(key, agg=sum):
        return tracer.counter(key, ("loop",), agg)

    rk4 = counter("hamiltonian.rk4_steps")
    flow_s = self_s("hamiltonian.integrate_flow")
    used = counter("oracle.fit_points_used")
    tried = counter("oracle.fit_points_attempted")
    errors = tracer.error_counts(("loop",))
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in ("symfields.exact_div", "symfields.poly_mul",
                 "symfields.rat_eval"):
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("symfields.exact_div.quotient_terms",
        counter("symfields.exact_div.quotient_terms"), "count")
    put("frames.bracket.calls", calls("frames.bracket"), "count")
    for name in ("frames.bracket", "frames.sigma", "frames.to_canonical"):
        put(f"{name}.self_s", self_s(name), "s")
    put("groups.fiber_transform.calls", calls("groups.fiber_transform"), "count")
    put("groups.fiber_transform.self_s", self_s("groups.fiber_transform"), "s")
    put("groups.build_group.self_s", self_s("groups.build_group", setup), "s")
    put("hamiltonian.integrate_flow.calls", calls("hamiltonian.integrate_flow"),
        "count")
    put("hamiltonian.integrate_flow.self_s", flow_s, "s")
    put("hamiltonian.rk4_steps", rk4, "count")
    put("hamiltonian.var_steps", counter("hamiltonian.var_steps"), "count")
    put("hamiltonian.steps_per_s", rk4 / flow_s if flow_s > 0 else 0.0, "1/s")
    put("hamiltonian.h_drift_max",
        float(counter("hamiltonian.h_drift_max", max)), "abs")
    put("hamiltonian.compile.self_s", self_s("hamiltonian.compile", setup), "s")
    put("hamiltonian.export_csv.self_s", self_s("hamiltonian.export_csv"), "s")
    put("oracle.r11_exact.self_s", self_s("oracle.r11_exact"), "s")
    put("oracle.frame_checks.self_s", self_s("oracle.frame_checks"), "s")
    for name in ("oracle.higher_diagonal", "oracle.sflat_fit",
                 "oracle.cost_probe"):
        put(f"{name}.self_s", self_s(name), "s")
    put("oracle.fit_points_used_ratio", used / tried if tried else 0.0, "ratio")
    put("regularity.rank_oracle.calls", calls("regularity.rank_oracle"), "count")
    put("regularity.rank_oracle.self_s", self_s("regularity.rank_oracle"), "s")
    put("regularity.rank_unstable",
        errors.get(("regularity.rank_oracle", "RankUnstable"), 0), "count")
    put("regularity.loss_times.self_s", self_s("regularity.loss_times"), "s")
    put("elliptic.chart.self_s", self_s("elliptic.chart"), "s")
    put("elliptic.closed_form.calls", calls("elliptic.closed_form"), "count")
    put("elliptic.closed_form.self_s", self_s("elliptic.closed_form"), "s")
    put("curvature.r11.calls", calls("curvature.r11"), "count")
    put("curvature.r11.self_s", self_s("curvature.r11"), "s")
    put("cli.main.calls", calls("cli.main"), "count")
    put("cli.main.self_s", self_s("cli.main"), "s")

    def layer_s(tab, layer):
        return sum(v["self_s"] for k, v in tab.items()
                   if k.split(".", 1)[0] == layer)

    # the post-call hooks' time (counters, drift) is charged to no span
    traced_wall = loop_wall - tracer.hook_s["loop"]
    accounted = 0.0
    for layer in LAYERS + ("bench",):
        share = layer_s(loop, layer) / traced_wall
        accounted += share
        put(f"loop.{layer}.share", share, "ratio")
    for layer in LAYERS:
        put(f"setup.{layer}.self_s", layer_s(setup, layer), "s")
    put("trace.accounted_ratio", accounted, "ratio")
    put("checks.failed_ratio", outcome.failed / len(outcome.times), "ratio")
    put("checks.tol_use_max", outcome.tol_use_max, "ratio")
    return m


def measure(workload, seed, seconds, trace=False, mode="run", tiny=False,
            expect=None, rounds=None):
    """Set up, warm up and run the timed loop; return the result record.

    The loop runs whole rounds until ``seconds`` have passed, or exactly
    ``rounds`` rounds when that is given.  expect replaces the closed-form
    expectations the checks compare against (the self-test passes a wrong
    one); tiny runs one reduced round.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import numpy as np
    import workloads as wl
    if workload not in wl.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        setup_probe = SpeedProbe(KERNEL_OF["setup"])
        wl.setup(tmp, between=lambda: setup_probe.sample(force=True))
        setup_probe.sample(force=True)
        setup_raw = time.perf_counter() - _T0 - setup_probe.spent
        setup = {"setup_s": setup_raw / setup_probe.slowdown(),
                 "setup_raw_s": setup_raw,
                 "setup_slowdown": setup_probe.slowdown()}
        if mode == "setup":
            return setup

        if expect is None:
            expect = wl.Expect()
        rng = np.random.default_rng(seed)

        warm = Outcome()
        if tracer is not None:
            tracer.set_phase("warmup")
        run_items(wl.make_round(workload, rng, expect, tmp, tiny=True),
                  warm, tracer, wl.ITEM_ERRORS, SpeedProbe(KERNEL_OF[workload]))

        timed = Outcome()
        if tracer is not None:
            tracer.set_phase("loop")
        perf = time.perf_counter
        start = perf()
        probe = SpeedProbe(KERNEL_OF[workload])
        # a round is never cut short, so every run measures the same mix;
        # the hard deadline only guards against a pathological slowdown
        hard = start + 3.0 * seconds + 10.0
        done = 0
        while True:
            items = wl.make_round(workload, rng, expect, tmp, tiny)
            whole = run_items(items, timed, tracer, wl.ITEM_ERRORS, probe,
                              hard)
            done += 1
            if not whole:
                break
            if rounds is None and perf() - start >= seconds:
                break
            if rounds is not None and done >= rounds:
                break
        probe.sample(force=True)      # the level after the last item
        # neither the kernel's time nor the checks are part of the loop's work
        wall = perf() - start - probe.spent - timed.check_s
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    times = timed.times
    pct = TAIL_PCT[workload]
    raw_tail, _ = tail(times, pct)
    raw = {"items_per_s": len(times) / wall,
           "item_p50_ms": percentile(sorted(times), 50.0) * 1e3,
           "item_tail_ms": raw_tail * 1e3}
    slow = probe.slowdown()
    scaled = probe.calibrate(times, timed.marks)
    tail_v, beyond = tail(scaled, pct)
    result = dict(setup)
    result.update({
        "raw": raw,
        "slowdown": slow,
        "kernel": probe.kind,
        "kernel_ref_s": KERNEL_REF_S[probe.kind],
        "speed_samples": len(probe.samples),
        "wall_s": wall,
        "check_s": timed.check_s,
        "rounds": done,
        "attempted": len(times),
        "failed": timed.failed,
        "wrong": timed.wrong,
        "errors": timed.errors,
        "failed_checks": timed.failed_checks,
        "warmup": {"attempted": len(warm.times), "failed": warm.failed,
                   "wrong": warm.wrong, "errors": warm.errors,
                   "failed_checks": warm.failed_checks},
        "items_per_s": raw["items_per_s"] * slow,
        "item_p50_ms": percentile(sorted(scaled), 50.0) * 1e3,
        "item_tail_ms": tail_v * 1e3,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": timed.failed / len(times),
        "tol_use_max": timed.tol_use_max,
        "warmup_policy": WARMUP_POLICY,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS")},
    })
    if tracer is not None:
        result["trace"] = trace_metrics(tracer, wall, timed)
        result["layer_table"] = {p: tracer.table((p,)) for p in ("setup", "loop")}
        result["dropped_spans"] = tracer.dropped_spans
        result["trace_hook_s"] = tracer.hook_s["loop"]
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.csv")
        tracer.write_spans(spans)
        result["spans_file"] = os.path.relpath(spans, ROOT)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int,
                    help="run exactly this many rounds instead of --seconds")
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--tiny", action="store_true",
                    help="one reduced round per phase (benchmark self-test)")
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds,
                     trace=bool(args.trace), mode=args.mode, tiny=args.tiny,
                     rounds=args.rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
