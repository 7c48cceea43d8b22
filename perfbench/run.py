"""lrplab benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload phi-d1 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; lrplab is imported from ./src.
Ops run one after another for ``--seconds`` (at least MIN_OPS of them),
each under the speed probe of probe.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it give provenance, the net time and probe time of every
op, each metric with its unit, and every failed check.  ``--tiny`` shrinks every input
for self-tests.  README.md in this directory explains the workloads and
the metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("phi-d1", "ladder-d1", "queries-d2", "cli-d2")
SETUP_RUNS = 3  # the run's own set-up plus SETUP_RUNS - 1 fresh probe processes
PROBE_TIMEOUT_S = 60
MIN_OPS = 3  # ops of a run, however long they take
MAX_OPS = 64  # inputs made at set-up; a run never gets near this many ops
TINY_OPS = 2

E2E_UNITS = {"op_cost.p50": "passes", "peak_rss_mib": "MiB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark cannot run here (no lrplab source, or a set-up probe failed)."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every input (self-tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 2**32  # any integer is accepted; lrplab seeds must be non-negative
    return args


def import_workloads():
    """Import the workloads, with lrplab taken from this checkout's src/ and nowhere else."""
    if not (SRC / "lrplab" / "__init__.py").is_file():
        raise BenchError(f"no lrplab source at {SRC}")
    sys.path.insert(0, str(SRC))
    import lrplab

    if Path(lrplab.__file__).resolve().parent != SRC / "lrplab":
        raise BenchError(f"lrplab imported from {lrplab.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(args):
    """Import lrplab (with numpy and scipy) and make the run's inputs: the part timed as set-up."""
    workloads = import_workloads()
    wl = workloads.WORKLOADS[args.workload](args.tiny)
    return workloads, wl, wl.inputs(args.seed, TINY_OPS if args.tiny else MAX_OPS)


def measure_setup(args) -> list:
    """Set-up time of SETUP_RUNS - 1 fresh processes, each doing what ``set_up`` does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_RUNS - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(wl, api, inputs, tracer=None, check=True, seconds=None, min_ops=MIN_OPS):
    """Run ops in input order; returns per-op net times, per-op probe times
    and per-op problems.

    With ``seconds`` the pass stops once its ops (not their checks) have
    taken that many seconds and ``min_ops`` ops have run; without it, every
    input is run.  Only the op itself is timed, under the speed
    probe (probe.py) unless traced: its net time is its wall time less the
    probe's samples.  Its checks run after it, and its outcome is dropped
    before the next op so that ops never hold memory together.
    """
    from probe import SpeedProbe  # here, so that numpy's import stays in the timed set-up

    times, probes, problems = [], [], []
    spent = 0.0
    for i, inp in enumerate(inputs):
        if seconds is not None and i >= min_ops and spent >= seconds:
            break
        outdir = Path(tempfile.mkdtemp(prefix="op-", dir=OUT))
        found = []
        try:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    with SpeedProbe() as probe:
                        outcome = wl.op(api, inp, outdir)
                else:
                    with tracer.op(i):
                        outcome = wl.op(api, inp, outdir)
            finally:
                wall = time.perf_counter() - t0
                spent += wall
                if tracer is None:
                    times.append(wall - probe.in_block_s)
                    probes.append(probe.probe_s())
                else:
                    times.append(wall)
            if check:
                found = wl.check(inp, outcome, outdir)
            if tracer is not None:
                tracer.counts["cli.bytes_written"] += sum(
                    p.stat().st_size for p in outdir.rglob("*") if p.is_file())
        except Exception as exc:  # an op or check that raises is a failed op, not a crash
            found = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            outcome = None
            shutil.rmtree(outdir, ignore_errors=True)
        problems.append(found)
    return times, probes, problems


def determinism_problems(workloads, api, name: str, seed: int) -> list:
    """The same seed twice in one process: identical op outputs and edge arrays (tiny inputs)."""
    wl = workloads.WORKLOADS[name](True)
    inp = wl.inputs(seed, 1)[0]
    prints = []
    for _ in range(2):
        outdir = Path(tempfile.mkdtemp(prefix="det-", dir=OUT))
        try:
            prints.append(wl.fingerprint(wl.op(api, inp, outdir), outdir))
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
    problems = [] if prints[0] == prints[1] else [f"{name}: same seed gave different outputs"]
    first, second = wl.edges(seed), wl.edges(seed)
    if len(first) != len(second) or not all(a.shape == b.shape and (a == b).all()
                                            for a, b in zip(first, second)):
        problems.append(f"{name}: same seed gave different edge arrays")
    return problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _l3_size() -> str:
    if os.sysconf_names.get("SC_LEVEL3_CACHE_SIZE") is not None:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
        if size > 0:
            return f"{size // 1024}K"
    try:
        return Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else "unknown"


def provenance(workloads) -> dict:
    import numpy
    import scipy
    import lrplab

    outdir = Path(tempfile.mkdtemp(prefix="prov-", dir=OUT))
    try:
        code = lrplab.cli.main(["sample", "--L", "2", "--outdir", str(outdir)])
        tag = workloads.checks.generator_tag(outdir / "edges.csv") if code == 0 else "unknown"
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(), "l3_size": _l3_size(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "lrplab": lrplab.__version__,
        "git_commit": _git_commit(), "generator": tag,
    }


def layer_report(tracer, wl, traced_wall: float) -> list:
    """Lines giving each layer's share of self time and the op accounting."""
    self_by_layer = {}
    for index, own in tracer.self_times().items():
        layer = tracer.spans[index]["name"].split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
    total = sum(self_by_layer.values())
    ranked = sorted(self_by_layer.items(), key=lambda kv: -kv[1])
    lines = ["self-time share by layer: " + ", ".join(f"{k} {v / total:.1%}" for k, v in ranked)]
    lines.append(f"largest layer: {ranked[0][0]} (stressed layer: {wl.stress}, "
                 f"{'as designed' if ranked[0][0] == wl.stress else 'NOT as designed'})")
    lines.append(f"self times account for {total:.6f} s of {traced_wall:.6f} s traced op wall")
    return lines


def run(args) -> dict:
    t0 = time.perf_counter()
    workloads, wl, inputs = set_up(args)
    own_setup = time.perf_counter() - t0
    import tracing

    OUT.mkdir(exist_ok=True)
    setup_times = [] if args.trace else [own_setup] + measure_setup(args)
    prov = provenance(workloads)
    api = workloads.plain_api()

    # The determinism check runs first, on tiny inputs, and so also warms the code paths.
    try:
        determinism = determinism_problems(workloads, api, args.workload, args.seed)
    except Exception as exc:  # counted against op 0 like any other failed check
        determinism = [f"determinism check raised {type(exc).__name__}: {exc}"]
    seconds = None if args.tiny else args.seconds
    if args.trace:
        # The traced pass takes half the run (at least one op) and goes first,
        # so trace.overhead_s (traced wall minus untraced net wall of the same
        # ops) also holds the process's warm-up (heap growth, first file writes).
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_times, _, traced_problems = run_pass(
                wl, workloads.traced_api(tracer), inputs, tracer, check=False,
                seconds=None if seconds is None else seconds / 2, min_ops=1)
        finally:
            tracer.uninstall()
        inputs, seconds = inputs[:len(traced_times)], None
    times, probes, problems = run_pass(wl, api, inputs, seconds=seconds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems[0] += determinism

    lines = [f"provenance: {json.dumps(prov, sort_keys=True)}",
             f"workload {args.workload}, seed {args.seed}, {len(times)} ops (op_cost.p50 sample count)",
             f"net op times (s): {times}", f"probe times (s): {probes}",
             f"net wall of the ops {sum(times)!r} s, median op {statistics.median(times)!r} s"]
    if args.trace:
        problems = [a + b for a, b in zip(problems, traced_problems)]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        traced_wall = tracer.durations("bench.op")
        values = tracer.layer_metrics(traced_wall, sum(times))
        units = tracing.LAYER_UNITS
        lines += layer_report(tracer, wl, traced_wall)
    else:
        values = {"op_cost.p50": statistics.median(t / p for t, p in zip(times, probes)),
                  "peak_rss_mib": peak_rss_mib, "setup_s": statistics.median(setup_times)}
        units = E2E_UNITS
        lines.append(f"set-up times (s): {setup_times}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    failed = sum(1 for p in problems if p)
    lines += [f"{name} = {m['value']!r} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"attempted {len(times)}, failed {failed}, failed_frac {failed / len(times)!r}")
    lines += [f"FAILED op {i}: {msg}" for i, found in enumerate(problems) for msg in found]
    return {"lines": lines, "result": {"correct": failed == 0, "attempted": len(times),
                                       "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            t0 = time.perf_counter()
            set_up(args)
            print(repr(time.perf_counter() - t0))
            return 0
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["lines"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
