"""Self-tests of the benchmark: output contract and failure counting.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in done.stdout
    assert "provenance: " in done.stdout and "generator" in done.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "phi-d1", "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _corrupted_pass(monkeypatch, tmp_path, workload, corrupt):
    """Run a tiny plain pass whose op outcome is corrupted; returns per-op problems."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.WORKLOADS[workload](True)
    op = wl.op
    monkeypatch.setattr(wl, "op", lambda api, inp, outdir: corrupt(op(api, inp, outdir)))
    _, _, problems = run.run_pass(wl, workloads.plain_api(), wl.inputs(3, 2))
    return problems


def test_distance_field_off_by_two_is_a_failed_op(monkeypatch, tmp_path):
    def corrupt(outcome):
        sample, answers = outcome
        dist = answers[0][0].dist
        far = int(np.argmax(dist))
        dist[far] += 2
        return sample, answers

    problems = _corrupted_pass(monkeypatch, tmp_path, "queries-d2", corrupt)
    assert all(problems), problems
    assert any("jumps by" in msg for msg in problems[0])


def test_ladder_rising_with_beta_is_a_failed_op(monkeypatch, tmp_path):
    def corrupt(ests):
        top = ests[-1]
        risen = dataclasses.replace(top.records[0], phi_hat=2.0 * ests[0].records[0].phi_hat)
        return list(ests[:-1]) + [dataclasses.replace(top, records=(risen,))]

    problems = _corrupted_pass(monkeypatch, tmp_path, "ladder-d1", corrupt)
    assert all(problems), problems
    assert any("rises" in msg for msg in problems[0])


def test_traced_ladder_counts_the_words_the_coupled_sampler_draws(monkeypatch, tmp_path):
    import tracing

    monkeypatch.setattr(run, "OUT", tmp_path)
    wl = workloads.WORKLOADS["ladder-d1"](True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_pass(wl, workloads.traced_api(tracer), wl.inputs(3, 1), tracer, check=False)
    finally:
        tracer.uninstall()
    side = 2 * wl.radius + 1
    pairs_at_ell1_2_or_more = side * (side - 1) // 2 - (side - 1)
    assert tracer.counts["sampler.pairs_drawn"] == pairs_at_ell1_2_or_more
    assert tracer.counts["sampler.classes"] == len(wl.params) * (side - 2)
    assert np.random.Philox.__name__ == "Philox"


def test_clean_pass_has_no_problems(monkeypatch, tmp_path):
    problems = _corrupted_pass(monkeypatch, tmp_path, "phi-d1", lambda est: est)
    assert problems == [[], []]



def test_probe_samples_inside_a_block_and_once_after_it():
    import time

    from probe import INTERVAL_S, SpeedProbe

    with SpeedProbe() as probe:
        time.sleep(4 * INTERVAL_S)
    inside = len(probe.samples) - 1
    assert inside >= 2
    assert probe.in_block_s == pytest.approx(sum(probe.samples[:inside]))
    assert min(probe.samples) <= probe.probe_s() <= max(probe.samples)
    with SpeedProbe() as quick:
        pass
    assert len(quick.samples) == 1 and quick.in_block_s == 0
