"""Run every workload once and print every metric by name, with its unit.

    python3 perfbench/report.py [--trace]

Each workload runs in its own fresh process through run.py, with seed 0
and the run length of BENCHMARK.json.  The table
lists the end-to-end metrics of BENCHMARK.json and failed_frac (failed
ops / attempted ops).  With --trace it also runs the traced pass and
prints the per-layer metrics and the layer with the largest self-time
share.  The exit code is 1 if any op failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--trace", action="store_true", help="also print the per-layer metrics")
    args = p.parse_args(argv)

    any_failed = False
    for wl in spec["workloads"]:
        name = wl["name"]
        _, result = run_one(name, spec["run_seconds"], 0)
        any_failed |= result["failed"] > 0
        print(f"{name}  ({wl['why']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'failed_frac':<34} {frac:>16.6g} ({result['failed']} of {result['attempted']} ops)")
        if args.trace:
            lines, traced = run_one(name, spec["run_seconds"], 1)
            for metric, m in traced["metrics"].items():
                print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}")
            print("\n".join(f"  {line}" for line in lines if line.startswith(("self", "largest"))))
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
