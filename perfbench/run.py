#!/usr/bin/env python3
"""Build the PANE benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME "all" runs every workload in perfbench/workloads.json in turn.

The program (src/main/scala) and the benchmark (perfbench/src) are compiled
together with the Scala compiler that ships in Spark's jars, into
.bench_build/perfbench; a rebuild happens only when a source changes. The
benchmark then runs in one JVM with Spark's jars on the class path. Its last
line of stdout is the JSON summary, and its exit code is this script's.
"""
import argparse
import hashlib
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_TIMEOUT_S = 600
# A run's JVM gets this allowance for set-up and for the last timed run,
# which may start just before the deadline, on top of twice --seconds.
RUN_ALLOWANCE_S = 100
HEAP = ["-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = pathlib.Path(shutil.which("spark-submit")).resolve().parent.parent
    jars = pathlib.Path(home or "") / "jars"
    if not home or not any(jars.glob("scala-compiler-*.jar")):
        fail("needs a Spark 4 distribution with its Scala compiler: set SPARK_HOME")
    return jars


def sources():
    if not PROGRAM_SOURCES.is_dir():
        fail(f"no program sources at {PROGRAM_SOURCES.relative_to(ROOT)}: run from a full checkout")
    return sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted((HERE / "src").rglob("*.scala"))


def build(jars):
    """Compile into BUILD/classes unless the sources are unchanged."""
    srcs = sources()
    digest = hashlib.sha256()
    for path in srcs:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    stamp = BUILD / "classes.sha256"
    classes = BUILD / "classes"
    if stamp.exists() and classes.is_dir() and stamp.read_text() == digest.hexdigest():
        return classes
    fresh = BUILD / "classes.new"
    shutil.rmtree(fresh, ignore_errors=True)
    fresh.mkdir(parents=True)
    argfile = BUILD / "sources.txt"
    argfile.write_text("\n".join(f'"{p}"' for p in srcs) + "\n")
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", f"{jars}/*",
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", str(fresh), f"@{argfile}"]
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    try:
        subprocess.run(cmd, check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    shutil.rmtree(classes, ignore_errors=True)
    fresh.rename(classes)
    stamp.write_text(digest.hexdigest())
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through run(), which stops the JVM

    jars = spark_jars()
    classes = build(jars)
    names = [args.workload]
    if args.workload == "all":
        names = [w["name"] for w in json.loads((HERE / "workloads.json").read_text())["workloads"]]
    sys.exit(max(run(jars, classes, name, args) for name in names))


def run(jars, classes, workload, args):
    """Runs one workload in its own JVM and returns its exit code."""
    tmp = BUILD / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", f"{classes}{os.pathsep}{jars}/*", "repro.perfbench.Main",
           "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--root", str(ROOT)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    timeout = RUN_ALLOWANCE_S + 2 * args.seconds
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout:g} s and was stopped", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
