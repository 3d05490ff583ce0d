#!/usr/bin/env python3
"""UniNet benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run in a checkout compiles the program's sources together with the
benchmark (sbt, see perfbench/build.sbt) into .bench_build/; later runs reuse
that build while the sources are unchanged. Each run starts one JVM that sets
up the workload's graph, times Pipeline.run, checks the walk corpus and
prints a report. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exit code 0 means the
correctness gate passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
WORKLOADS = ("deepwalk-embed", "node2vec-steady", "node2vec-cold")
HEAP = "4g"
BUILD_TIMEOUT_S = 780
RUN_TIMEOUT_S = 170
FIRST_RUN_TIMEOUT_S = 890

JDK_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["-XX:+IgnoreUnrecognizedVMOptions"]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [PROGRAM_SOURCES, HERE / "src" / "main"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for r in roots:
        files += sorted(p for p in r.rglob("*") if p.is_file())
    return files


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    # Resolve only from local caches unless the caller configured sbt.
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    return env


def build(cp_file):
    """Compiles program + benchmark; writes and returns the classpath."""
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=sbt_env(), capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 1)
    (BUILD / "build.log").write_text(res.stdout + res.stderr)
    lines = [l.strip() for l in res.stdout.splitlines()]
    cps = [l for l in lines if l and not l.startswith("[") and os.pathsep in l]
    if res.returncode != 0 or not cps:
        sys.stderr.write(res.stdout[-4000:] + res.stderr[-4000:])
        fail(f"build failed (log in {BUILD / 'build.log'})", 1)
    cp_file.write_text(cps[-1])
    return cps[-1]


def commit_id(digest):
    head = "no-git"
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10).stdout.strip() or head
        except (OSError, subprocess.SubprocessError):
            pass
    return f"{head} src-sha256:{digest[:16]}"


def main():
    ap = argparse.ArgumentParser(description="UniNet benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (PROGRAM_SOURCES / "repro").is_dir():
        fail(f"program sources not found under {PROGRAM_SOURCES}; run from a full checkout")
    java = shutil.which("java")
    if java is None:
        fail("java is not on PATH")

    t0 = time.monotonic()
    digest = source_digest()
    cp_file = BUILD / f"classpath-{digest[:16]}.txt"
    if cp_file.exists():
        classpath = cp_file.read_text().strip()
        timeout = RUN_TIMEOUT_S
    else:
        classpath = build(cp_file)
        timeout = FIRST_RUN_TIMEOUT_S - (time.monotonic() - t0)
    work = BUILD / "work"
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", *JDK_OPENS,
           "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--commit", commit_id(digest)]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail("benchmark run timed out", 1)
    lines = res.stdout.rstrip("\n").splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    body = lines[:-1] if result is not None else lines
    sys.stdout.write("".join(l + "\n" for l in body))
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"benchmark produced no result (exit code {res.returncode})", 1)
    print(json.dumps(result))
    sys.exit(0 if res.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
