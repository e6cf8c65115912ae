#!/usr/bin/env python3
"""End-to-end benchmark of the ResuFormer parser (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload serve_open --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --selftest

Each run builds the library, resuformer_cli and the benchmark program from
source into .bench_build/ (incremental after the first time), trains the demo
model once per build of resuformer_cli (`resuformer_cli train --seed 7`,
cached under .bench_build/model/), then runs one workload in
perfbench_main. It prints a self-describing header, the human-readable
report, and as its last line one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (layers a workload does not exercise read 0).
A failed build, a failed output check or a crash exits non-zero.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
MODEL_ROOT = BUILD / "model"
SPANS_DIR = BUILD / "spans"
TRAIN_SEED = 7
WORKLOADS = ("serve_open", "batch_archive")
RUN_TIMEOUT_S = 170
SETUP_PROCESSES = 3  # setup_s is the median over this many fresh processes


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, what):
    """Runs cmd with its output on stderr; exits 1 if it fails."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        log(f"error: {what} failed (exit {result.returncode})")
        sys.exit(1)


def build(targets):
    if not (CMAKE_DIR / "build.ninja").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                   "-DCMAKE_BUILD_TYPE=Release", *generator], "configure")
    run_quiet(["cmake", "--build", str(CMAKE_DIR), "--parallel",
               str(os.cpu_count() or 1), "--target", *targets], "build")


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest():
    """sha256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "examples", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def trained_model(cli):
    """The demo checkpoint for this build of resuformer_cli, training it once."""
    key = sha256_file(cli)[:16]
    model = MODEL_ROOT / key
    if not (model / "train_report.json").exists():
        staging = MODEL_ROOT / (key + ".tmp")
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir(parents=True)
        log(f"training the demo model (resuformer_cli train --seed {TRAIN_SEED})...")
        result = subprocess.run([str(cli), "train", "--out", str(staging),
                                 "--seed", str(TRAIN_SEED)],
                                cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(result.stdout + result.stderr)
        found = re.search(r"block val acc ([0-9.]+), NER val F1 ([0-9.]+)",
                          result.stdout)
        if result.returncode != 0 or not found:
            log("error: training failed")
            sys.exit(1)
        files = sorted(p.name for p in staging.iterdir())
        fingerprint = hashlib.sha256()
        for name in files:
            fingerprint.update(name.encode())
            fingerprint.update((staging / name).read_bytes())
        report = {"seed": TRAIN_SEED, "block_val_acc": float(found.group(1)),
                  "ner_val_f1": float(found.group(2)),
                  "fingerprint": fingerprint.hexdigest(), "files": files}
        (staging / "train_report.json").write_text(json.dumps(report))
        shutil.rmtree(model, ignore_errors=True)
        staging.rename(model)
    return model, json.loads((model / "train_report.json").read_text())


def run_main(cmd, env):
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"error: perfbench_main did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)


def setup_seconds(cmd, env):
    """Set-up time of one fresh perfbench_main process that only sets up."""
    result = run_main(cmd + ["--setup-only", "1"], env)
    sys.stderr.write(result.stderr)
    last = result.stdout.splitlines()[-1:] or [""]
    found = re.fullmatch(r"setup_s ([0-9.e+-]+)", last[0])
    if result.returncode != 0 or not found:
        log(f"error: set-up failed (exit {result.returncode})")
        sys.exit(1)
    return float(found.group(1))


def final_metrics(spec, trace, produced):
    """Checks the reported metrics against BENCHMARK.json; returns them in
    its order. Per-layer metrics a workload does not measure read 0."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(produced) - names)
    if extra:
        log(f"error: perfbench_main reported metrics BENCHMARK.json does not list: {extra}")
        sys.exit(1)
    out, missing = {}, []
    for m in wanted:
        got = produced.get(m["name"])
        if got is None:
            if not trace:
                log(f"error: end-to-end metric {m['name']} missing")
                sys.exit(1)
            missing.append(m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            log(f"error: {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
            sys.exit(1)
        if not trace and not got["value"] > 0:
            log(f"error: end-to-end metric {m['name']} is {got['value']}")
            sys.exit(1)
        out[m["name"]] = got
    if missing:
        print(f"not exercised by this workload (reported as 0): {', '.join(missing)}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_test"])
        sys.exit(subprocess.run([str(CMAKE_DIR / "perfbench_test")],
                                cwd=ROOT).returncode)
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build(["perfbench_main", "resuformer_cli"])
    cli = CMAKE_DIR / "resuformer" / "examples" / "resuformer_cli"
    program = CMAKE_DIR / "perfbench_main"
    model, train = trained_model(cli)

    print(f"# source: git {git_revision()}, tree sha256 {tree_digest()}")
    print(f"# model: resuformer_cli train --seed {train['seed']} -> "
          f"{model.relative_to(ROOT)}, fingerprint sha256 {train['fingerprint']}, "
          f"block val acc {train['block_val_acc']}, NER val F1 {train['ner_val_f1']}")
    print(f"# workload seed: {args.seed}", flush=True)

    env = dict(os.environ)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--model", str(model)]
    if args.trace:
        env["RESUFORMER_METRICS"] = "1"  # the daemon's timed metrics
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(SPANS_DIR / f"{args.workload}-{args.seed}.json")]
    else:
        # Set-up is timed in fresh processes, as a real start pays it; the
        # measuring process adds its own and reports the median.
        samples = [setup_seconds(cmd, env) for _ in range(SETUP_PROCESSES - 1)]
        cmd += ["--setup-samples", ",".join(repr(s) for s in samples)]
    result = run_main(cmd, env)
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if not lines:
        log(f"error: perfbench_main printed nothing (exit {result.returncode})")
        sys.exit(1)
    print("\n".join(lines[:-1]))
    try:
        outcome = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"error: perfbench_main's last line is not a result (exit {result.returncode})")
        sys.exit(1)
    if not outcome["correct"] or result.returncode != 0:
        print(json.dumps({"correct": False, "attempted": outcome["attempted"],
                          "failed": outcome["failed"], "metrics": {}}))
        sys.exit(1)
    outcome["metrics"] = final_metrics(spec, args.trace, outcome["metrics"])
    print(json.dumps(outcome), flush=True)


if __name__ == "__main__":
    main()
