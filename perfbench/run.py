#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root.  The benchmark is built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
The last stdout line of a single-workload run is the JSON result.  --smoke
runs every workload of BENCHMARK.json briefly, traced and untraced, and
checks that each emits exactly the metrics BENCHMARK.json names, with their
units, and that the traced run's spans nest.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return out / "perfbench"


def run_one(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir() / "out")]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT).returncode, None
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def smoke(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_one(binary, workload["name"], 1, 4, trace, True)
            where = f'{workload["name"]} trace {trace}'
            if code != 0:
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                problems.append(f"{where}: outputs not correct")
            if trace == 1 and not re.search(r"^# spans: \d+ checked, nested$",
                                            out, re.M):
                problems.append(f"{where}: spans do not nest")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(want.keys() | got.keys()):
                if want.get(name) != got.get(name):
                    problems.append(f"{where}: {name} wanted unit "
                                    f"{want.get(name)}, emitted {got.get(name)}")
    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    if args.workload != "all":
        return run_one(binary, args.workload, args.seed, args.seconds,
                       args.trace)[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = 0
    for workload in spec["workloads"]:
        code |= run_one(binary, workload["name"], args.seed, args.seconds,
                        args.trace)[0]
    return code


if __name__ == "__main__":
    sys.exit(main())
