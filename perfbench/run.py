#!/usr/bin/env python3
"""Build the BotMeter benchmark harness from source, then run one workload.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload border-binary --seed 1 --seconds 20 --trace 0

The harness package (perfbench/CMakeLists.txt) builds the libraries under
src/ into .bench_build/ at the checkout root; later runs rebuild only what
changed. Every argument is passed to botmeter_bench, which prints one
"name value unit" line per metric and, last, one JSON result line. This
script adds --out (the run's botmeter.bench.v2 record) and, for --trace 1,
--trace-out (a Chrome trace of the harness spans), both under .bench_build/.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "botmeter_bench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no BotMeter sources under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD, "--target", "botmeter_bench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (" + " ".join(step) + ")")


def main():
    args = sys.argv[1:]
    build()
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else "run"
    args += ["--out", os.path.join(BUILD, f"record-{workload}.json")]
    if "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1":
        args += ["--trace-out", os.path.join(BUILD, f"trace-{workload}.json")]
    sys.stdout.flush()
    # exec, not a child: the harness is the only process left running.
    os.execv(HARNESS, [HARNESS, *args])


if __name__ == "__main__":
    main()
