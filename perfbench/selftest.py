#!/usr/bin/env python3
"""Smoke-scale self-check of the benchmark.

usage: python3 perfbench/selftest.py

Runs every workload at a few thousand users for one second and checks:
  * every metric BENCHMARK.json names is in the result line, with its unit,
    for --trace 0 (end-to-end) and --trace 1 (per-layer);
  * every end-to-end metric is nonzero and the human report names it;
  * unknown flags, missing flags and --help exit 2 and print no result;
  * the checksum gates trip on a deliberately altered response
    (--corrupt-response): exit 1 and "correct": false on every workload;
  * serve_sharded replays the same bytes as serve_zipf (equal checksums).
Exits 0 when all hold, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE = ["--seconds", "1", "--users", "2000"]

failures = []


def check(ok, what):
    print("{}  {}".format("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(args):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().split("\n") if p.stdout.strip() else []
    result = summary = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    for line in lines:
        if line.startswith('{"summary"'):
            summary = json.loads(line)
    return p, result, summary, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    checksums = {}

    for bad in (["--help"], ["--workload", "study"],
                ["--workload", "study", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--bogus", "1"],
                ["--workload", "nope", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                ["--workload", "study", "--seed", "x", "--seconds", "1",
                 "--trace", "0"]):
        p, result, _, _ = run(bad)
        check(p.returncode == 2 and result is None,
              "rejects {} with exit 2 and no result".format(" ".join(bad)))

    for w in workloads:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            p, result, summary, lines = run(
                ["--workload", w, "--seed", "3", "--trace", trace] + SMOKE)
            check(p.returncode == 0 and result is not None
                  and result["correct"] and result["failed"] == 0,
                  "{} --trace {} passes its checks".format(w, trace))
            if result is None:
                continue
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      "{} --trace {} prints {} [{}]".format(
                          w, trace, m["name"], m["unit"]))
                if trace == "0" and got is not None:
                    named = any(l.split()[:2] == ["e2e", m["name"]]
                                for l in lines)
                    check(got["value"] != 0 and named,
                          "{} reports {} nonzero, by name".format(
                              w, m["name"]))
            check(set(metrics) == {m["name"] for m in spec[key]},
                  "{} --trace {} prints no other metric".format(w, trace))
            check(summary is not None and "claim" in summary
                  and summary["claim"] is None,
                  "{} summary says \"claim\": null".format(w))
            if summary is not None and trace == "0":
                if "checksum" in summary["summary"]:
                    checksums[w] = summary["summary"]["checksum"]

        p, result, _, _ = run(["--workload", w, "--seed", "3", "--trace",
                               "0", "--corrupt-response"] + SMOKE)
        check(p.returncode == 1 and result is not None
              and result["correct"] is False,
              "{} fails on an altered response".format(w))

    if "serve_zipf" in checksums and "serve_sharded" in checksums:
        check(checksums["serve_zipf"] == checksums["serve_sharded"],
              "serve_sharded checksum equals serve_zipf checksum")

    print("{} failure(s)".format(len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
