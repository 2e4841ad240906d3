#!/usr/bin/env python3
"""End-to-end MegaDc benchmark: build from source, run one workload, check it.

    python3 e2ebench/run.py --workload paper --seed 1 --seconds 27 --trace 0
    python3 e2ebench/run.py --selftest

Builds the simulator and mdc_e2e (e2ebench/CMakeLists.txt) under
$CARGO_TARGET_DIR (default .bench_build) in the checkout, runs
mdc_e2e with MDC_THREADS and MDC_ALLOW_OVERSUBSCRIBE removed from its
environment, and checks its record against BENCHMARK.json: with --trace 0
it must print exactly the end-to-end metrics, with --trace 1 exactly the
per-layer metrics, each with the declared unit and a name of letters,
digits, '_', '.' and '-'.  Prints the full record, then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  Exits non-zero without a
result when the build, the run or a check of the record fails.
"""
import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
STRIPPED_ENV = ("MDC_THREADS", "MDC_ALLOW_OVERSUBSCRIBE")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "e2ebench"


def build():
    """Configures (once) and builds the package; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", str(HERE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(out), "-j", jobs])
    return out


def step(cmd):
    # Build output goes to stderr: stdout carries only the result.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {done.returncode}")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {}
    for group in ("end_to_end", "per_layer"):
        units[group] = {m["name"]: m["unit"] for m in spec[group]}
    return spec, units


def source_id():
    """git SHA when the checkout is a repository, else a content hash."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True,
                                 timeout=10).stdout.strip()
            return {"git_sha": sha}
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", HERE.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"git_sha": "none (not a git checkout)",
            "source_sha256": digest.hexdigest()}


def check_record(record, expected):
    """Raises BenchError unless the record prints exactly `expected`."""
    metrics = record.get("metrics", {})
    problems = []
    for name in sorted(set(expected) | set(metrics)):
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        elif name not in metrics:
            problems.append(f"missing metric {name}")
        elif name not in expected:
            problems.append(f"metric {name} is not declared in BENCHMARK.json")
        else:
            value, unit = metrics[name]["value"], metrics[name]["unit"]
            if unit != expected[name]:
                problems.append(f"{name}: unit {unit!r}, declared "
                                f"{expected[name]!r}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name}: value {value!r} is not a number")
    for key in ("attempted", "failed"):
        if not isinstance(record.get(key), int) or record[key] < 0:
            problems.append(f"{key} is not a count")
    if record.get("attempted", 0) < 1:
        problems.append("no operation attempted")
    if problems:
        raise BenchError("; ".join(problems))


def run(args):
    spec, units = declared_metrics()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"expected one of {workloads}")
    binary = build() / "mdc_e2e"
    env = dict(os.environ)
    removed = {k: env.pop(k) for k in STRIPPED_ENV if k in env}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"mdc_e2e ran past {RUN_TIMEOUT_S} s") from e
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"mdc_e2e exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("mdc_e2e printed no record")
    record = json.loads(lines[-1])
    check_record(record, units["end_to_end" if args.trace == 0 else
                              "per_layer"])
    record["fingerprint"].update(source_id())
    record["fingerprint"]["environment_removed"] = removed
    print(json.dumps(record))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def selftest():
    out = build()
    step(["ctest", "--test-dir", str(out), "--output-on-failure",
          "--no-tests=error"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
