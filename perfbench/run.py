#!/usr/bin/env python3
"""Builds the elitenet benchmark program from source and runs one workload.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <n>
                                --trace <0|1> [--users <n>]
                                [--corrupt-response]

Run it from anywhere; it works on the checkout that contains it. The
program (perfbench/elitebench.cc) is built with CMake into .bench_build/
on first use, then reused. Each run works in a fresh directory under
.bench_work/ that is removed afterwards. Build output goes to stderr;
stdout carries the run's report, and its last line is the JSON result.

Exit codes: 0 = run passed its checks, 1 = build, run or check failed,
2 = bad command line (including --help).
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("study", "serve_zipf", "serve_sharded", "serve_live")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run is killed after RUN_TIMEOUT_S. The measured window is at most
# MAX_SECONDS; set-up, checks and the traced passes add under a minute at
# the default scales, so the longest window still ends well within it.
RUN_TIMEOUT_S = 170
MAX_SECONDS = 60

USAGE = """usage: python3 perfbench/run.py --workload <name> --seed <n> \
--seconds <n> --trace <0|1> [--users <n>] [--corrupt-response]
  --workload  one of: {}
  --seed      non-negative integer; the same seed replays the same inputs
  --seconds   measured window per run, 1..{max_seconds}
  --trace     0 = end-to-end metrics, 1 = per-layer metrics
  --users     graph size override (smoke tests), 500..1000000
  --corrupt-response  flip one byte of a checked response (self-check)
""".format(", ".join(WORKLOADS), max_seconds=MAX_SECONDS)


def usage_exit(message=None):
    if message:
        sys.stderr.write("run.py: {}\n".format(message))
    sys.stderr.write(USAGE)
    sys.exit(2)


def parse_args(argv):
    """Strict parser: --name value or --name=value; nothing else."""
    valued = {"--workload", "--seed", "--seconds", "--trace", "--users"}
    args = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--corrupt-response":
            args[arg] = True
            i += 1
            continue
        name, eq, value = arg.partition("=")
        if name not in valued:
            usage_exit("unknown argument: {}".format(arg))
        if not eq:
            if i + 1 >= len(argv):
                usage_exit("missing value for {}".format(name))
            value = argv[i + 1]
            i += 1
        if name in args:
            usage_exit("duplicate argument: {}".format(name))
        args[name] = value
        i += 1
    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if required not in args:
            usage_exit("missing {}".format(required))
    if args["--workload"] not in WORKLOADS:
        usage_exit("unknown workload: {}".format(args["--workload"]))
    for name, lo, hi in (("--seed", 0, 10**18 - 1),
                         ("--seconds", 1, MAX_SECONDS),
                         ("--trace", 0, 1), ("--users", 500, 1000000)):
        if name in args:
            value = args[name]
            if not value.isdigit() or not lo <= int(value) <= hi:
                usage_exit("bad value for {}: {}".format(name, value))
    return args


def source_rev(root):
    """Git revision when the checkout is a repository, plus a hash of the
    sources the program builds from, so a result names the code it
    measured."""
    digest = hashlib.sha1()
    files = []
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    files.extend(os.path.join(root, "bench", f)
                 for f in ("bench_common.cc", "bench_common.h"))
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    rev = "src-" + digest.hexdigest()[:12]
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(
                ["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True)
            rev = git.stdout.strip() + "+" + rev
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def build(root, env):
    """Configures once, then builds incrementally; returns the binary."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True, env=env)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=log, stderr=log, check=True, env=env)
    return os.path.join(build_dir, "elitebench")


def main(argv):
    if any(a in ("-h", "--help") for a in argv):
        usage_exit()
    # A terminated run still stops and reaps its child: SystemExit unwinds
    # through the cleanup below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        sys.stderr.write("run.py: no elitenet sources under {}\n".format(root))
        return 1
    # Compiler and program temporaries stay inside the checkout too.
    tmp = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(root, env)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.stderr.write("run.py: build failed: {}\n".format(e))
        return 1

    work_root = os.path.join(root, ".bench_work")
    workdir = os.path.join(work_root, "{}-{}".format(args["--workload"],
                                                     os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary,
           "--workload=" + args["--workload"],
           "--seed=" + args["--seed"],
           "--seconds=" + args["--seconds"],
           "--trace=" + args["--trace"],
           "--workdir=" + workdir,
           "--rev=" + source_rev(root)]
    if "--users" in args:
        cmd.append("--users=" + args["--users"])
    if "--corrupt-response" in args:
        cmd.append("--corrupt-response")

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("run.py: run exceeded {} s\n".format(RUN_TIMEOUT_S))
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        valid = False
    if not valid:
        sys.stderr.write(out)
        sys.stderr.write("run.py: elitebench printed no result line\n")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
