#!/usr/bin/env python3
"""Build and run the gpulat benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds the simulator library and the
driver from source into .bench_build/ (CMake, Release); later calls
only rebuild what changed. Build output goes to stderr, so the last
stdout line is the driver's JSON result. --self-test runs the pure
rule checks and a quick run of every workload, traced and untraced,
against the metrics BENCHMARK.json lists.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "experiment.hh")):
        sys.stderr.write("run.py: gpulat sources (src/) not found next to "
                         "perfbench/; run from a full checkout\n")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=ROOT)


def driver(args):
    """Run the driver; returns (exit code, stdout)."""
    proc = subprocess.run([os.path.join(BUILD, "gpulat_bench")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def self_test():
    failures = []
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode:
        failures.append("perfbench_selftest")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    # mem_stream is not a listed workload (README.md says why), but it
    # must still run and report the same metrics.
    workloads = [w["name"] for w in spec["workloads"]] + ["mem_stream"]
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in expected:
            if not name_re.match(name):
                failures.append("metric name %r" % name)
        for w in workloads:
            code, out = driver(["--workload", w, "--seed", "1",
                                "--seconds", "1", "--trace", trace,
                                "--quick"])
            res = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = "%s trace=%s" % (w, trace)
            if code != 0 or not res["correct"] or res["failed"]:
                failures.append(where + ": failed cells")
            if got != expected:
                failures.append(where + ": metrics differ from "
                                "BENCHMARK.json: %s" %
                                sorted(set(got.items()) ^
                                       set(expected.items())))
            if trace == "1":
                with open(os.path.join(ROOT, ".bench_build", "traces",
                                       w + ".seed1.quick.json")) as f:
                    events = json.load(f)["traceEvents"]
                if not events or any(
                        set(e["args"]) != {"id", "parent", "cell"}
                        for e in events):
                    failures.append(where + ": malformed trace spans")
    for f in failures:
        sys.stderr.write("FAIL: %s\n" % f)
    print("self-test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    sys.stdout.flush()
    binary = os.path.join(BUILD, "gpulat_bench")
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
