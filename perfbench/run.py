#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload, checks that
the deterministic counts match earlier runs of the same seed and source,
writes the full report to `perfbench/out/`, prints every metric by name
and unit, and prints as its last line the result: `correct`, `attempted`,
`failed`, and the metrics BENCHMARK.json gates (end-to-end with --trace 0,
per-layer with --trace 1). Exits non-zero, without a result, if the build
or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

OUT = os.path.join("perfbench", "out")
# Inputs that determine the program and the deterministic counts.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src"]


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES:
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    os.makedirs(OUT, exist_ok=True)
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the run timed out")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the run failed (exit {run.returncode})")
    report = json.loads(lines[-1])

    git = os.path.isdir(".git") and command_output(["git", "rev-parse", "HEAD"])
    report["host"].update({
        "rustc": command_output(["rustc", "--version"]),
        "commit": git or None,
        "source_hash": source_hash(),
    })

    # Deterministic counts must repeat exactly for the same seed and source.
    det_path = os.path.join(OUT, f"det-{args.workload}-{args.seed}.json")
    mine = {"source_hash": report["host"]["source_hash"], "det": report["det"]}
    try:
        with open(det_path) as f:
            earlier = json.load(f)
    except (OSError, ValueError):
        earlier = None
    if earlier and earlier["source_hash"] == mine["source_hash"]:
        if earlier["det"] != mine["det"]:
            report["correct"] = False
            report["failed"] += 1
            report["errors"].append(
                f"deterministic counts {mine['det']} differ from {earlier['det']}")
    else:
        with open(det_path, "w") as f:
            json.dump(mine, f)

    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(report, f, indent=1)

    print(f"{args.workload} seed {args.seed}: host {report['host']}")
    for section in ("e2e", "layer"):
        for key, m in report[section].items():
            n = f" ({m['samples']} samples)" if "samples" in m else ""
            print(f"  {key:36} {m['value']:>16.6g} {m['unit']}{n}")
    print(f"  {'failed_frac':36} {report['failed'] / max(report['attempted'], 1):>16.6g} ratio")
    for e in report["errors"]:
        print(f"  check failed: {e}")

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["layer"] if args.trace else report["e2e"]
    missing = [m["name"] for m in gated
               if m["name"] not in source or source[m["name"]]["unit"] != m["unit"]]
    if missing:
        fail(f"the run did not measure {missing} in the units BENCHMARK.json names")
    metrics = {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
               for m in gated}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
