#!/usr/bin/env python3
"""Build file of the FTPMfTS pipeline benchmark.

Compiles the repository's main sources (src/main/scala) together with the
harness (perfbench/src) using the Scala compiler in Spark's jar directory.
Run it from the root of a checkout; `run.py` calls it before every run:

    python3 perfbench/build.py

The classes go to `$CARGO_TARGET_DIR/perfbench/classes` (default
`.bench_build`); a build is reused while the sources and jars are unchanged.
"""

import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 780


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = sorted(glob.glob(os.path.join(home or "", "jars", "*.jar")))
    if not any("scala-compiler" in os.path.basename(j) for j in jars):
        fail("no Spark distribution with a Scala compiler found (set SPARK_HOME)")
    return jars


def sources():
    main = os.path.join(ROOT, "src", "main", "scala")
    if not os.path.isdir(main):
        fail(f"{main} not found: run from the root of a checkout of the repository")
    files = []
    for top in (main, os.path.join(HERE, "src")):
        files += glob.glob(os.path.join(top, "**", "*.scala"), recursive=True)
    return sorted(files)


def build(target, jars):
    """Compile into target/classes unless the stamp matches the sources."""
    srcs = sources()
    digest = hashlib.sha256()
    for f in srcs + jars:
        digest.update(f.encode())
        if f.endswith(".scala"):
            with open(f, "rb") as fh:
                digest.update(fh.read())
    stamp = digest.hexdigest()
    classes = os.path.join(target, "classes")
    stamp_file = os.path.join(target, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    cp = os.pathsep.join(jars)
    cmd = ["java", "-XX:-UsePerfData", "-Xss8m", "-Xmx1536m", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-deprecation:false", "-d", classes, "-classpath", cp] + srcs
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    code = run_child(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        fail(f"compilation failed (exit {code})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classes


def run_child(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def out_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def exit_on_sigterm():
    """Turn SIGTERM into SystemExit so run_child kills its child first."""
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))


if __name__ == "__main__":
    exit_on_sigterm()
    build(out_dir(), spark_jars())
