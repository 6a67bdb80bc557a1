#!/usr/bin/env python3
"""Build the program with the benchmark harness and run one workload.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run compiles the program's sources
(src/main/scala) together with perfbench/src through the sbt package in this
directory and caches the resulting classpath; later runs reuse it while the
sources are unchanged. The harness then runs in one JVM. Its result, a JSON
object, is the last line of standard output; the full record (tags, medians,
upper percentiles, sample counts) and, with --trace 1, the spans are written
to perfbench/out/.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src" / "main" / "scala"
CLASSPATH_CACHE = HERE / "target" / "bench-classpath.txt"
TMP = HERE / "out" / "tmp"  # JVM and Spark scratch space, kept inside the checkout
RUN_TIMEOUT_S = 170

JVM_OPTS = [
    "-Xmx4g",
    "-XX:-UsePerfData",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Dio.netty.tryReflectionSetAccessible=true",
    "-Dspark.driver.host=127.0.0.1",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over every file the build compiles."""
    h = hashlib.sha256()
    files = sorted(PROGRAM_SRC.rglob("*.scala")) + sorted((HERE / "src" / "main").rglob("*.scala"))
    files += [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build(digest):
    """Compile with sbt and return the runtime classpath (cached per digest)."""
    if CLASSPATH_CACHE.exists():
        cached_digest, _, cp = CLASSPATH_CACHE.read_text().partition("\n")
        if cached_digest == digest and cp.strip():
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    proc = subprocess.run(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"sbt build failed with exit code {proc.returncode}")
    cp = proc.stdout.strip().splitlines()[-1].strip()
    if "classes" not in cp:
        fail("could not read the classpath from sbt")
    CLASSPATH_CACHE.parent.mkdir(parents=True, exist_ok=True)
    CLASSPATH_CACHE.write_text(f"{digest}\n{cp}\n")
    return cp


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["build", "query", "insert", "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (PROGRAM_SRC / "repro").is_dir():
        fail(f"program sources not found under {PROGRAM_SRC.relative_to(ROOT)}; run from a full checkout")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME is not set")

    digest = source_digest()
    cp = build(digest)
    TMP.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={TMP}", f"-Dspark.local.dir={TMP}",
           f"-Dperfbench.git={git_sha()}", f"-Dperfbench.source={digest}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if not lines:
        fail("benchmark JVM printed no result")
    print("\n".join(lines), flush=True)  # one per workload; the last one last


if __name__ == "__main__":
    main()
