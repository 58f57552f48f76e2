#!/usr/bin/env python3
"""Self-test of the serving benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size (1 s window,
short warm-up), once with --trace 0 and once with --trace 1, and checks
that each run is correct and prints every declared metric with its
declared unit.  Then runs one workload expecting a wrong final digest
and checks that the run fails: correct is false and every request
counts as failed.  Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(label, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(label)

    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} --trace {trace}"
            try:
                res = run(wl["name"], trace)
            except AssertionError as e:
                check(label, False, str(e))
                continue
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(f"{label}: correct", res["correct"] and res["failed"] == 0)
            check(f"{label}: attempted >= 1", res["attempted"] >= 1)
            check(f"{label}: metric names and units", got == want,
                  f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                  f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            check(f"{label}: numeric values",
                  all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()))

    try:
        res = run("ms-seq", 0, "--wrong-digest")
        check("wrong expected digest fails the run",
              not res["correct"] and res["failed"] == res["attempted"])
    except AssertionError as e:
        check("wrong expected digest fails the run", False, str(e))

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
