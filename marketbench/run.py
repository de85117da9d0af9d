#!/usr/bin/env python3
"""FreqyWM marketplace benchmark: build from source, run one workload.

    python3 marketbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--toy]

Run it from the repository root. It configures and builds the benchmark
(marketbench/CMakeLists.txt, which compiles the library from the
repository's own build definition) in .bench_build/marketbench, runs the
workload and relays its output. The last line of standard output is the
result JSON. Each run leaves its output, and a traced run its spans, in
.bench_build/runs/<workload>-seed<n>-trace<0|1>/.

Exit status: the benchmark's own (0 when the run's outputs were correct),
2 when the source tree or the build is missing, 1 on a build failure or a
run that overran its time limit.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "marketbench")
WORKLOADS = ("sell_rows", "sell_hist", "trace")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def source_id():
    """The code identity: the git commit when there is one, otherwise a
    digest of every source file the benchmark builds."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "marketbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def run_bounded(command, timeout, **kwargs):
    """Runs `command` in its own process group; on timeout the whole group
    (compilers under make included) is killed and reaped. Returns the exit
    code, or None on timeout."""
    child = subprocess.Popen(command, start_new_session=True, **kwargs)
    try:
        child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return None
    return child.returncode


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "marketbench",
                  "-j", jobs])
    for step in steps:
        try:
            code = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr,
                               stderr=sys.stderr)
        except OSError as error:
            log("build step failed: %s" % error)
            return False
        if code != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes for the smoke test")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            log("the FreqyWM source tree is missing (%s); nothing to build"
                % needed)
            return 2
    # Compilers and the benchmark keep their temporary files in the tree.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    if not build():
        return 1

    run_dir = os.path.join(ROOT, ".bench_build", "runs", "%s-seed%d-trace%d%s"
                           % (args.workload, args.seed, args.trace,
                              "-toy" if args.toy else ""))
    os.makedirs(run_dir, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "marketbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", run_dir, "--commit", source_id()]
    if args.toy:
        command.append("--toy")
    output_path = os.path.join(run_dir, "stdout.txt")
    with open(output_path, "w") as output:
        code = run_bounded(command, RUN_TIMEOUT_S, stdout=output)
    if code is None:
        log("%s overran %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    with open(output_path) as output:
        sys.stdout.write(output.read())
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
