#!/usr/bin/env python3
"""Step benchmark for the OVERLORD data path.

Builds the benchmark (an sbt project in this directory that depends on the
repository's root project) when its sources changed, then runs one workload
in a fresh JVM:

    python3 stepbench/run.py --workload step_coyo --seed 1 --seconds 20 --trace 0
    python3 stepbench/run.py --selftest

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md here.
"""
import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
LAUNCH = os.path.join(HERE, "target", "launch.txt")
STAMP = os.path.join(WORK, "build.stamp")

# What the build reads: the root project and this benchmark.
BUILD_INPUTS = [
    os.path.join(ROOT, "build.sbt"),
    os.path.join(ROOT, "project", "build.properties"),
    os.path.join(ROOT, "src", "main"),
    os.path.join(ROOT, "jobs"),
    os.path.join(HERE, "build.sbt"),
    os.path.join(HERE, "project", "build.properties"),
    os.path.join(HERE, "src"),
]


def fail(msg, code=2):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for top in BUILD_INPUTS:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the group on timeout or on
    interruption, and always waits for it to end."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build(deadline):
    """Builds when the sources changed since the last build; returns
    whether it built."""
    for p in (os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "src", "main", "scala")):
        if not os.path.exists(p):
            fail(f"{os.path.relpath(p, ROOT)} is missing; run from a checkout of the repository")
    stamp = source_stamp()
    if os.path.exists(LAUNCH) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return False
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = f"{opts} -Djava.io.tmpdir={tmp}".strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "launchFile"]
    try:
        code = run_group(cmd, timeout=deadline - time.time(), cwd=HERE, env=env, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if code != 0:
        fail(f"build failed with exit code {code}")
    with open(STAMP, "w") as f:
        f.write(stamp)
    return True


def heap():
    """The Spark driver heap the repository's test command derives: half
    the machine's memory, clamped to 2..8 GiB."""
    try:
        with open("/proc/meminfo") as f:
            kb = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
        return f"{min(8, max(2, kb // 2097152))}g"
    except (OSError, StopIteration):
        return "2g"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    # A terminated run still stops the build or the JVM it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    start = time.time()
    built_now = build(start + 850)
    with open(LAUNCH) as f:
        classpath, *jvm_opts = f.read().splitlines()
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xmx{heap()}", *jvm_opts, f"-Djava.io.tmpdir={tmp}",
           "-cp", classpath, "stepbench.Main", "--work", WORK]
    if args.selftest:
        cmd += ["--selftest", "1"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(WORK, "spark-local"))
    limit = (895 if built_now else 175) - (time.time() - start)
    try:
        code = run_group(cmd, timeout=limit, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        fail("run timed out", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
