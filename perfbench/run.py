#!/usr/bin/env python3
"""FTPMfTS pipeline benchmark: build the harness, run one workload, relay its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload energy-approx --seed 101 --seconds 3 --trace 0

It builds with build.py, runs the harness in one JVM with a fixed heap and
prints the harness's JSON result as its last line of output. Everything else
(the JVM's and Spark's output) goes to standard error.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from build import HERE, build, exit_on_sigterm, fail, out_dir, run_child, spark_jars  # noqa: E402

HEAP = "3g"
RUN_TIMEOUT_S = 170

# Spark's launcher opens these packages on JDK 17; the harness starts Spark
# in-process, so it passes them itself.
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
    "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
    "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def main():
    exit_on_sigterm()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=3.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    jars = spark_jars()
    classes = build(out_dir(), jars)
    work = os.path.join(out_dir(), "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)

    cmd = ["java", "-XX:-UsePerfData", "-XX:ParallelGCThreads=2", f"-Xms{HEAP}", f"-Xmx{HEAP}",
           f"-Djava.io.tmpdir={tmp}",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in ADD_OPENS]
    cmd += ["-cp", os.pathsep.join([classes] + jars), "perfbench.Main",
            "--workload", args.workload, "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]

    result_file = os.path.join(work, f"result-{os.getpid()}.json")
    if os.path.exists(result_file):
        os.remove(result_file)
    code = run_child(cmd + ["--result", result_file], RUN_TIMEOUT_S, stdout=sys.stderr)
    if code == -1:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if not os.path.exists(result_file):
        fail(f"harness exited with {code} and wrote no result")
    with open(result_file) as fh:
        result = json.load(fh)
    os.remove(result_file)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
