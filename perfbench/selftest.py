"""Self-test of the benchmark at a tiny size (about a minute).

    python3 perfbench/selftest.py

Shows that (1) every end-to-end and per-layer metric in BENCHMARK.json is
emitted with its unit on every workload, and the seven end-to-end metrics
are printed by name; (2) a deliberately wrong expected value, injected here
and nowhere else, raises failed_ratio while the right one leaves it at 0;
(3) in a directory holding only BENCHMARK.json and the benchmark's files,
the command exits non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import worker  # noqa: E402
import workloads  # noqa: E402
from run import end_to_end_units  # noqa: E402


class SelfTestFailure(Exception):
    pass


def check(cond, msg):
    if not cond:
        raise SelfTestFailure(msg)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=170)


def test_metrics_emitted(bench):
    for w in (x["name"] for x in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(ROOT, w, trace)
            check(proc.returncode == 0, f"{w} trace={trace}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{w}: result keys {sorted(out)}")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] >= 1,
                  f"{w} trace={trace}: {out['attempted']} attempted, "
                  f"{out['failed']} failed, correct={out['correct']}")
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want, f"{w} trace={trace}: metrics differ: "
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}, or units differ")
            for k, v in out["metrics"].items():
                check(isinstance(v["value"], (int, float)), f"{w}: {k} not a number")
            if trace == 0:
                for name, unit in end_to_end_units().items():
                    check(any(ln.startswith(f"{w} {name} = ") and
                              ln.split(" = ", 1)[1].split()[1] == unit
                              for ln in lines[:-1]),
                          f"{w}: end-to-end metric {name} [{unit}] not printed")
            print(f"ok  {w} trace={trace}: {len(got)} metrics with units")


def test_wrong_expectation_counts_as_failure():
    class WrongR11(workloads.Expect):
        def r11(self, model, cov):
            return super().r11(model, cov) + 1

    right = worker.measure("exact-oracle", 1, 0, tiny=True)
    wrong = worker.measure("exact-oracle", 1, 0, tiny=True, expect=WrongR11())
    check(right["failed_ratio"] == 0.0 and right["wrong"] == 0,
          f"right expectation: failed_ratio {right['failed_ratio']}")
    check(wrong["failed_ratio"] > 0.0 and wrong["wrong"] > 0,
          f"wrong expectation: failed_ratio {wrong['failed_ratio']}")
    check(wrong["attempted"] == right["attempted"],
          "the wrong expectation changed the number of items")
    print(f"ok  wrong R11 expectation: failed_ratio 0 -> "
          f"{wrong['failed_ratio']:.3f} ({wrong['wrong']} wrong answers)")


def test_refuses_without_sources():
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "exact-oracle", 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0, "benchmark succeeded without the sources")
        check(not last[0].startswith("{"), "a result was printed without sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    try:
        test_metrics_emitted(bench)
        test_wrong_expectation_counts_as_failure()
        test_refuses_without_sources()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
