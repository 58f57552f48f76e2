#!/usr/bin/env python3
"""Build and run the serving benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds bin/wdmnet.exe and perfbench/serving.exe from source with dune
(release profile, build directory .bench_build, no shared dune cache),
then runs serving.exe, which prints the metrics; its last stdout line
is the JSON result.  serving.exe, and with it the servers it starts,
runs pinned to one vCPU, the first this process may use: a closed loop
with one request in flight then neither pays cross-vCPU wake-ups nor
stalls when the hypervisor steals another vCPU.  A follower is moved to
the second vCPU, if there is one.  Any further arguments (--tiny,
--wrong-digest) go to serving.exe unchanged.  A failed build or run
exits non-zero without printing a result.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_LIMIT_S = 170  # the run itself; the build has its own budget
# temporary files stay inside the checkout too
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))


def build():
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD, "--cache", "disabled",
           "./bin/wdmnet.exe", "./perfbench/serving.exe"]
    # dune's own output must not reach stdout, whose last line is the result
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    done = subprocess.run(cmd, cwd=ROOT, env=ENV, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()
    try:
        built = build()
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    if not built:
        print("run.py: build failed", file=sys.stderr)
        return 1
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[0]
    exe = os.path.join(BUILD, "default", "perfbench", "serving.exe")
    wdmnet = os.path.join(BUILD, "default", "bin", "wdmnet.exe")
    cmd = [exe, "--wdmnet", wdmnet, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cpu", str(cpu)]
    if len(cpus) > 1:
        cmd += ["--follower-cpu", str(cpus[1])]
    cmd += extra
    # a process group of its own, so that a timeout takes the servers down with it
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    stop = lambda *_: os.killpg(proc.pid, signal.SIGKILL)
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_LIMIT_S}s", file=sys.stderr)
        return 1
    finally:
        # take down anything left in the run's process group, then wait for it
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


if __name__ == "__main__":
    code = main()
    sys.exit(code if code == 0 else max(1, code))
