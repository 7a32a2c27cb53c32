#!/usr/bin/env python3
"""Build and run the xsfq benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates from source
into $CARGO_TARGET_DIR (default .bench_build); the first run builds it.

The last line of standard output is the result object with the keys
correct, attempted, failed and metrics. The line before it records the
run's provenance: seed, nproc, source revision, rustc version and the
per-metric sample counts. --smoke runs every workload of BENCHMARK.json
once untraced and once traced at minimal length and fails if a named
metric is missing, a check fails, or the run is not correct.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run(cmd, timeout, capture):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE if capture else sys.stderr, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} timed out after {timeout} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: {' '.join(map(str, cmd))} exited with {proc.returncode}")
    return out


def build():
    env_dir = target_dir()
    os.environ["CARGO_TARGET_DIR"] = str(env_dir)
    run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        BUILD_TIMEOUT_S,
        capture=False,
    )
    return env_dir / "release" / "xsfq-perfbench"


def revision():
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if rev.returncode == 0:
            return rev.stdout.strip()
    except OSError:
        pass
    # Not a git checkout: name the sources by their content.
    digest = hashlib.sha1()
    for path in sorted(ROOT.glob("crates/**/*")) + sorted(HERE.rglob("*")):
        if path.is_file() and "target" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha1:" + digest.hexdigest()


def rustc_version():
    out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip()


def bench(binary, workload, seed, seconds, trace):
    out = run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(target_dir() / "perfbench-out")],
        RUN_TIMEOUT_S,
        capture=True,
    )
    lines = out.strip().splitlines()
    if len(lines) < 2:
        sys.exit("run.py: the benchmark printed no result")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spec():
    with open(HERE.parent / "BENCHMARK.json") as f:
        return json.load(f)


def smoke(binary):
    problems = []
    bm = spec()
    for w in bm["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            detail, result = bench(binary, w["name"], 1, 1, trace)
            wanted = {m["name"] for m in bm[key]}
            got = set(result["metrics"])
            if got != wanted:
                problems.append(f"{w['name']} trace={trace}: missing {sorted(wanted - got)}, "
                                f"unexpected {sorted(got - wanted)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{w['name']} trace={trace}: not correct: {detail['failures']}")
            print(f"smoke {w['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for p in problems:
        print("smoke FAILED:", p)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not (args.smoke or args.workload):
        ap.error("--workload or --smoke is required")

    binary = build()
    if args.smoke:
        sys.exit(smoke(binary))
    detail, result = bench(binary, args.workload, args.seed, args.seconds, args.trace)
    detail["rev"] = revision()
    detail["rustc"] = rustc_version()
    print(json.dumps({"provenance": detail}, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
