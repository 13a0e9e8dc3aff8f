#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload build|grid|walk \
        --seed N --seconds S --trace 0|1

The first run in a checkout compiles `src/main/scala` together with the
benchmark driver (`perfbench/src`) with sbt; later runs reuse the classes
while the sources' digest is unchanged. Each run is one JVM on Spark
`local[nproc]`. The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A structured run record goes to `perfbench/out/`. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
CLASSES = os.path.join(TARGET, "scala-2.13", "classes")
STAMP = os.path.join(TARGET, "build-digest")
WORKLOADS = ("build", "grid", "walk")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# Java 17 module opens that Spark needs (as spark-submit passes them).
OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "sun.nio.ch",
    "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(HERE, "src"), os.path.join(ROOT, "src", "main")):
        for d, _, names in sorted(os.walk(top)):
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def build(digest):
    if os.path.isdir(CLASSES) and os.path.exists(STAMP) and open(STAMP).read() == digest:
        return
    os.makedirs(TARGET, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    # sbt's global, ivy and JNA scratch state stays inside the checkout
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
           f"-Dsbt.ivy.home={os.path.join(TARGET, 'ivy')}",
           f"-Djna.tmpdir={os.path.join(TARGET, 'jna')}",
           "clean", "compile"]
    log = os.path.join(TARGET, "build.log")
    with open(log, "w") as fh:
        try:
            rc = subprocess.run(cmd, cwd=HERE, env=env, stdout=fh, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            rc = "timeout"
    if rc != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail(f"build failed ({rc}); see {log}")
    with open(STAMP, "w") as fh:
        fh.write(digest)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"bad result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and isinstance(res["failed"], int)):
        fail("bad attempted/failed counts")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
    for k, v in res["metrics"].items():
        x = v["value"]
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            fail(f"metric {k} has no finite value: {x}")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"no program sources under {os.path.join(ROOT, 'src', 'main', 'scala')}")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")

    digest = source_digest()
    build(digest)

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    tmp = os.path.join(OUT, "tmp", tag)
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xms3g", "-Xmx3g", "-XX:-UsePerfData", *OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           f"-Dperfbench.gitSha={git_sha()}",
           f"-Dperfbench.sourceDigest={digest}",
           "-cp", os.pathsep.join([CLASSES, os.path.join(os.environ["SPARK_HOME"], "jars", "*")]),
           "perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--record", os.path.join(OUT, f"record-{tag}.json")]
    err_log = os.path.join(OUT, f"stderr-{tag}.log")
    with open(err_log, "w") as err:
        try:
            env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL,
                               text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s; see {err_log}")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        sys.stderr.write(open(err_log).read()[-4000:])
        fail(f"benchmark JVM exited with {r.returncode}")
    for l in lines[:-1]:
        print(l)
    res = validate(lines[-1], a.trace == 1)
    print(json.dumps(res))


if __name__ == "__main__":
    main()
