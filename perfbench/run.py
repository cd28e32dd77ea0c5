#!/usr/bin/env python3
"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload batched|per_image --seed N \
        --seconds S --trace 0|1

Builds the fademl library and the benchmark binary from this checkout into
.bench_build/ (first run only), runs the benchmark's own tests, and prepares
the model every run loads: the default experiment of core::make_experiment,
trained from its fixed seed by the code under test into a cache directory
.bench_build/model/<binary hash>/, so a cache never outlives the code that
trained it. Nothing is read from or written to artifacts/.

Then runs one measurement and prints, as the last stdout line, one JSON
object {correct, attempted, failed, metrics}: with --trace 0 every
end_to_end metric of BENCHMARK.json, with --trace 1 every per_layer metric.
The line before it stamps provenance (seed, dispatch tier, threads,
hardware_concurrency, plan flag, model parameter CRC) and the operations
attempted and failed per phase. Exits non-zero on any failed build, test,
output check, or metric set that differs from BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN_DIR = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(BIN_DIR, "perfbench")
TESTS = os.path.join(BIN_DIR, "perfbench_test")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def check_call(cmd, **kw):
    """Run a build step with its output on stderr; exit on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw)
    if result.returncode != 0:
        log(f"failed ({result.returncode}): {' '.join(cmd)}")
        sys.exit(1)


def file_hash(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def build():
    """Configure once, then build; the library rebuilds if sources moved."""
    if not os.path.exists(os.path.join(BIN_DIR, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BIN_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", BIN_DIR])
    stamp = os.path.join(BUILD, "tests-passed-" + file_hash(TESTS))
    if not os.path.exists(stamp):
        check_call([TESTS, "--gtest_brief=1"])
        open(stamp, "w").close()


def prepare_model():
    """The model cache every run loads, trained once per binary."""
    cache = os.path.join(BUILD, "model", file_hash(BINARY))
    stamp = os.path.join(cache, "prepared")
    if not os.path.exists(stamp):
        log(f"training the benchmark model into {cache}")
        check_call([BINARY, "--prepare-model", cache])
        open(stamp, "w").close()
    return cache


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for need in ("CMakeLists.txt", "src", "include", "bench", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"no {need} at {ROOT}: run from the root of a fademl checkout")
            return 2
    end_to_end, per_layer = declared_metrics()

    build()
    model_dir = prepare_model()
    work = os.path.join(BUILD, "work", str(os.getpid()))
    cmd = [BINARY, "--model-dir", model_dir, "--work", work,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        if os.path.isdir(work):
            for name in os.listdir(work):
                os.remove(os.path.join(work, name))
            os.rmdir(work)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log(f"benchmark failed with exit code {result.returncode}")
        return result.returncode or 1

    report = json.loads(lines[-1])
    want = per_layer if args.trace else end_to_end
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}, unit mismatches "
            f"{sorted(k for k in set(got) & set(want) if got[k] != want[k])}")
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
