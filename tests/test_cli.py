import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrplab import (
    GENERATOR_TAG,
    Box,
    ModelParams,
    RestrictedDistanceResult,
    derived_constants,
    distances_from,
    estimate_phi,
    lambda_of_t,
    lower_curve,
    psi_limit,
    sample_graph,
    theta_fast,
    theta_recursive,
)
import lrplab.cli
from lrplab.cli import (_BLOCK_ROWS, _COMMANDS, ConfigError, _float_slots, _float_width, _resolve, _scaled,
                        _write_csv, main)
from lrplab.sampler import DEFAULT_MEMORY_CAP

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src"


def read_csv(path):
    header = None
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        raw = fh.read()
    assert "\r" not in raw
    for line in raw.splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def comments(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.startswith("#")]


def run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


class TestExponentsCommand:
    def test_row_values_and_layout(self, tmp_path):
        assert run(tmp_path, "exponents", "--d", "1", "--s", "1.5",
                   "--n-max", "15") == 0
        header, rows = read_csv(tmp_path / "exponents.csv")
        assert header == ["n", "theta", "theta_closed_form", "vartheta", "block_index"]
        assert len(rows) == 16
        n3 = float(rows[3][1])
        assert n3 == pytest.approx(14.0 / 9.0, rel=1e-12)
        ratios = json.loads((tmp_path / "ratios.json").read_text())
        assert ratios["vartheta_halving_sup"] == pytest.approx(6.0 / 7.0, abs=1e-10)
        assert ratios["theta_halving_sup"] == pytest.approx(0.75, abs=1e-10)

    def test_config_hash_present(self, tmp_path):
        run(tmp_path, "exponents", "--d", "1", "--s", "1.5")
        assert "config_hash=" in (tmp_path / "exponents.csv").read_text()
        assert "config_hash" in json.loads((tmp_path / "ratios.json").read_text())

    def test_full_decimal_round_trip(self, tmp_path):
        run(tmp_path, "exponents", "--d", "1", "--s", "1.5", "--n-max", "64")
        _, rows = read_csv(tmp_path / "exponents.csv")
        pm = ModelParams(d=1, s=1.5, beta=1.0)
        th = theta_fast(pm, 64)  # the command's route
        ref = theta_recursive(pm, 64)
        for row in rows:
            assert float(row[1]) == th[int(row[0])]  # exact repr round trip
            assert float(row[1]) == pytest.approx(ref[int(row[0])], rel=1e-12)


class TestLimitCurveCommand:
    def test_endpoint_rows(self, tmp_path):
        assert run(tmp_path, "limit-curve", "--d", "1", "--s", "1.5",
                   "--n-points", "101") == 0
        header, rows = read_csv(tmp_path / "limit_curve.csv")
        assert header == ["t", "psi", "lambda_t", "lower"]
        assert len(rows) == 101
        _, delta = derived_constants(ModelParams(d=1, s=1.5, beta=1.0))
        end = 0.5**delta
        assert float(rows[0][1]) == pytest.approx(end, rel=1e-12)
        assert float(rows[-1][1]) == pytest.approx(end, rel=1e-12)
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0

    def test_holds_one_block_of_slots(self, tmp_path):
        # limit_curve.csv is written a block at a time: the command's peak is the
        # table's own plus one block's row matrix (4 slots of 25 bytes here) and
        # the float kernel's arrays for one of its columns, 47 bytes a cell in all
        # at this writing.  A writer that held the whole table's text would add
        # about 100 bytes a row, 10 MB here.
        argv = ["limit-curve", "--n-points", "100001"]
        params = _resolve(argv)[1]["params"]
        assert run(tmp_path, *argv) == 0  # first-call allocations stay out of the peaks
        tracemalloc.start()
        try:
            t = np.linspace(0.0, 1.0, 100001)
            table = [t, psi_limit(params, t), lambda_of_t(params, t), lower_curve(params, t)]
            table_peak = tracemalloc.get_traced_memory()[1]
            del t, table
            tracemalloc.reset_peak()
            assert run(tmp_path, *argv) == 0
            command_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert command_peak <= table_peak + _BLOCK_ROWS * 4 * 56


class TestSampleCommand:
    def test_edges_match_library(self, tmp_path):
        assert run(tmp_path, "sample", "--d", "1", "--s", "1.5", "--beta", "1.0",
                   "--L", "60", "--seed", "4") == 0
        header, rows = read_csv(tmp_path / "edges.csv")
        assert header == ["x_1", "y_1"]
        g = sample_graph(ModelParams(d=1, s=1.5, beta=1.0), Box(d=1, radius=60), seed=4)
        coords = g.box.coords_of(g.long_edges)
        assert len(rows) == len(coords)
        got = [(int(r[0]), int(r[1])) for r in rows]
        expected = [(int(e[0][0]), int(e[1][0])) for e in coords]
        assert got == expected

    def test_header_records_provenance(self, tmp_path):
        run(tmp_path, "sample", "--d", "2", "--s", "3.0", "--beta", "2.0",
            "--L", "8", "--seed", "1")
        lines = comments(tmp_path / "edges.csv")
        joined = "\n".join(lines)
        assert "d=2" in joined and "s=3.0" in joined and "beta=2.0" in joined
        assert "seed=1" in joined and f"generator={GENERATOR_TAG}" in joined
        header, rows = read_csv(tmp_path / "edges.csv")
        assert header == ["x_1", "x_2", "y_1", "y_2"]

    def test_z_draws_option(self, tmp_path):
        run(tmp_path, "sample", "--d", "1", "--s", "1.5", "--beta", "1.0",
            "--L", "20", "--seed", "0", "--z-draws", "50")
        header, rows = read_csv(tmp_path / "z_samples.csv")
        assert header == ["draw", "z_1", "radius"]
        assert len(rows) == 50
        for row in rows:
            assert float(row[2]) == pytest.approx(abs(float(row[1])), rel=1e-12)

    def test_holds_no_coordinate_arrays(self, tmp_path):
        # edges.csv is written block by block from the index columns, so the
        # command's peak is the sampler's own plus one block's cells (32 bytes
        # each, 2d cells per row); (m, d) coordinate copies would add 32 bytes
        # per edge, about 20 MiB here.
        params, seed = ModelParams(d=2, s=3.0, beta=2.0), 1
        argv = ["sample", "--d", "2", "--s", "3", "--beta", "2", "--L", "200", "--seed", str(seed)]
        assert run(tmp_path, *argv) == 0  # first-call allocations stay out of the peaks
        tracemalloc.start()
        try:
            sample_graph(params, Box(2, 200), seed)
            sampler_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            assert run(tmp_path, *argv) == 0
            command_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert command_peak <= sampler_peak + _BLOCK_ROWS * 4 * 32

    def test_coordinate_columns_match_coords_of(self):
        box = Box(2, 3)
        index = np.array([0, 48, 17, 24, 5])
        for axis in range(2):
            column = lrplab.cli._VertexCoords(box, axis, index)
            assert len(column) == 5
            np.testing.assert_array_equal(column[1:4], box.coords_of(index[1:4])[:, axis])
            np.testing.assert_array_equal(lrplab.cli._VertexCoords(box, axis)[10:20],
                                          box.coords_of(np.arange(10, 20))[:, axis])
        for bad in ([0, 49], [-1, 3]):
            with pytest.raises(ValueError, match="out of range"):
                lrplab.cli._VertexCoords(box, 0, np.array(bad))

    def test_uint32_indices_give_negative_coordinates(self):
        # long_edges columns are uint32, where digit - radius would wrap to about 2**32.
        box = Box(2, 3)
        index = np.array([0, 8, 24, 40, 48], dtype=np.uint32)
        expected = box.coords_of(index)
        assert expected.min() == -3
        for axis in range(2):
            column = lrplab.cli._VertexCoords(box, axis, index)[1:]
            assert column.dtype == np.int64
            np.testing.assert_array_equal(column, expected[1:, axis])


class TestDistancesCommand:
    def test_distance_column_matches_library(self, tmp_path):
        assert run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--beta", "2.0",
                   "--L", "80", "--seed", "3") == 0
        header, rows = read_csv(tmp_path / "distances.csv")
        assert header[:3] == ["index", "x_1", "dist"]
        g = sample_graph(ModelParams(d=1, s=1.5, beta=2.0), Box(d=1, radius=80), seed=3)
        field = distances_from(g, np.array([0]))
        assert len(rows) == g.box.n_vertices
        for row in rows[:50]:
            assert int(row[2]) == field.dist[int(row[0])]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_vertices"] == g.box.n_vertices
        assert summary["max_distance"] == int(field.dist.max())

    @pytest.mark.parametrize("source, points, truncated", [("30,-50", 4111, True),
                                                           ("0,0", 7321, False)])
    def test_summary_reports_ball_truncation(self, tmp_path, source, points, truncated):
        assert run(tmp_path, "distances", "--d", "2", "--s", "3.0", "--beta", "2.0", "--L", "60",
                   "--seed", "0", "--source", source, "--norm", "ell1") == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ball_points"] == points
        assert summary["ball_truncated_by_box"] is truncated

    def test_coupled_second_beta_column(self, tmp_path):
        assert run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--beta", "1.0",
                   "--beta2", "5.0", "--L", "60", "--seed", "2") == 0
        header, rows = read_csv(tmp_path / "distances.csv")
        assert header == ["index", "x_1", "dist", "dist_beta2"]
        d1 = np.array([int(r[2]) for r in rows])
        d2 = np.array([int(r[3]) for r in rows])
        assert np.all(d2 <= d1)

    def test_beta2_must_exceed_beta(self, tmp_path, capsys):
        code = run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--beta", "5.0",
                   "--beta2", "1.0", "--L", "30", "--seed", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert err.count("\n") == 1

    def test_memory_cap_checked_before_the_ball_field(self, tmp_path, monkeypatch, capsys):
        # The summary's ball: its float64 norm field and mask, 9 bytes per vertex.
        def refuse(*args):
            raise AssertionError("norm field built before the memory check")

        monkeypatch.setattr(lrplab.estimator, "DEFAULT_MEMORY_CAP", 9 * 161 - 1)
        monkeypatch.setattr(Box, "norm_field", refuse)
        assert run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--L", "80") == 2
        assert "ball field and mask needs" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_chain_file_consistent(self, tmp_path):
        run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--beta", "2.0",
            "--L", "40", "--seed", "1", "--target", "25")
        header, rows = read_csv(tmp_path / "chain.csv")
        assert header == ["name", "value"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["D"] <= values["D_restricted_k0"] + 1e-12
        assert values["D"] <= values["D_restricted_forward"]
        assert values["D_restricted_forward"] <= values["ell1"]

    def test_chain_runs_past_the_float_range(self, tmp_path):
        # From k = 18 on, the confinement radius passes 2**63.
        assert run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--L", "200",
                   "--target=50", "--k-max", "20") == 0
        _, rows = read_csv(tmp_path / "chain.csv")
        values = dict(rows)
        assert values["D_restricted_k18"] == values["D_restricted_k20"] == values["D"]


class TestFigure1Command:
    def test_outputs(self, tmp_path):
        assert run(tmp_path, "figure1", "--seed", "0") == 0
        header, rows = read_csv(tmp_path / "figure1.csv")
        assert header == ["x", "dist_beta1", "dist_beta5"]
        assert len(rows) == 4001
        d1 = np.array([int(r[1]) for r in rows])
        d5 = np.array([int(r[2]) for r in rows])
        assert np.all(d5 <= d1)
        eheader, erows = read_csv(tmp_path / "long_edges.csv")
        assert eheader == ["beta", "u", "v"]
        betas = {row[0] for row in erows}
        assert betas == {"1.0", "5.0"}


class TestEstimatePhiCommand:
    def test_records_and_summary(self, tmp_path):
        assert run(tmp_path, "estimate-phi", "--d", "1", "--s", "1.5", "--beta", "1.0",
                   "--r", "300", "--n-replicas", "3", "--seed", "5") == 0
        header, rows = read_csv(tmp_path / "phi_records.csv")
        assert header == ["beta", "r", "replica", "seed", "phi_hat", "n_points",
                          "annulus_fraction"]
        assert len(rows) == 3
        est = estimate_phi(ModelParams(d=1, s=1.5, beta=1.0), 300.0,
                           n_replicas=3, seed0=5)
        for i, row in enumerate(rows):
            assert int(row[3]) == 5 + i
            assert float(row[4]) == est.records[i].phi_hat
        sheader, srows = read_csv(tmp_path / "phi_summary.csv")
        assert sheader == ["beta", "r", "n_replicas", "seed0", "phi_hat",
                          "ci_low", "ci_high"]
        assert float(srows[0][4]) == est.phi_hat

    def test_byte_identity_across_runs_and_jobs(self, tmp_path):
        args = ["estimate-phi", "--d", "1", "--s", "1.5", "--beta", "1.0",
                "--r", "300", "--n-replicas", "4", "--seed", "0"]
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main([*args, "--outdir", str(a)]) == 0
        assert main([*args, "--outdir", str(b)]) == 0
        assert main([*args, "--jobs", "2", "--outdir", str(c)]) == 0
        for name in ("phi_records.csv", "phi_summary.csv"):
            bytes_a = (a / name).read_bytes()
            assert bytes_a == (b / name).read_bytes()
            assert bytes_a == (c / name).read_bytes()

    @pytest.mark.parametrize("jobs, replicas, cpus, workers", [
        (5000, 2, 4, 2), (5000, 5, 3, 3), (2, 5, 4, 2), (4, 1, 4, None), (4, 4, 1, None), (1, 4, 4, None),
    ])
    def test_pool_never_outgrows_the_replicas_or_cpus(self, tmp_path, monkeypatch, jobs, replicas, cpus,
                                                      workers):
        # A real pool starts all its workers at the first submit; this stand-in starts none.
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(lrplab.cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        assert run(tmp_path, "estimate-phi", "--d", "1", "--s", "1.5", "--beta", "1.0", "--r", "300",
                   "--n-replicas", str(replicas), "--seed", "0", "--jobs", str(jobs)) == 0
        assert pools == ([] if workers is None else [workers])

    def test_annulus_error_is_a_config_error(self, tmp_path, capsys):
        code = run(tmp_path, "estimate-phi", "--d", "1", "--s", "1.5",
                   "--beta", "1.0", "--r", "20", "--n-replicas", "1", "--seed", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: r: annulus") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestCollapseCommand:
    def test_byte_identity_across_jobs_through_memory_refusals(self, tmp_path, monkeypatch):
        # Both cells are refused, the r = 1.72e8 one by the memory cap inside each replica, so a
        # pool of two must carry that refusal back from its workers.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["collapse", "--d", "1", "--s", "1.5", "--log-betas", "3", "--t-points", "2",
                "--n-replicas", "2", "--m-offset", "7", "--box-radius-cap", "100000000000", "--seed", "0"]
        a, c = tmp_path / "a", tmp_path / "c"
        assert main([*args, "--outdir", str(a)]) == 0
        assert main([*args, "--jobs", "2", "--outdir", str(c)]) == 0
        for name in ("collapse_records.csv", "collapse_cells.csv", "collapse_summary.csv"):
            assert (a / name).read_bytes() == (c / name).read_bytes()
        _, rows = read_csv(c / "collapse_cells.csv")
        assert [row[8] for row in rows] == ["1", "1"]
        assert "displacement class enumeration needs an estimated 13.78 GiB" in rows[0][9]

    def test_small_run(self, tmp_path):
        assert run(tmp_path, "collapse", "--d", "1", "--s", "1.5",
                   "--log-betas", "3,4", "--t-points", "3", "--n-replicas", "2",
                   "--seed", "0", "--m-offset", "2") == 0
        header, rows = read_csv(tmp_path / "collapse_cells.csv")
        assert header == ["beta", "t", "r", "phi_hat", "ci_low", "ci_high",
                          "value", "limit", "missing", "reason"]
        assert len(rows) == 6
        assert all(row[8] == "0" for row in rows)
        sheader, srows = read_csv(tmp_path / "collapse_summary.csv")
        assert sheader[0] == "beta" and len(srows) == 2
        rheader, rrows = read_csv(tmp_path / "collapse_records.csv")
        assert rheader == ["beta", "t", "replica", "seed", "phi_hat"]
        assert len(rrows) == 12

    def test_missing_cells_reported(self, tmp_path):
        assert run(tmp_path, "collapse", "--d", "1", "--s", "1.5",
                   "--log-betas", "3", "--t-points", "2", "--n-replicas", "2",
                   "--seed", "0", "--m-offset", "2", "--box-radius-cap", "100") == 0
        _, rows = read_csv(tmp_path / "collapse_cells.csv")
        missing = [row for row in rows if row[8] == "1"]
        assert missing
        assert all("cap" in row[9] for row in missing)

    def test_radius_past_the_float_range_missing(self, tmp_path):
        # At m_offset 19 the t >= 0.6 radii pass the float range; the rest are over the box cap.
        assert run(tmp_path, "collapse", "--d", "1", "--s", "1.5", "--m-offset", "19") == 0
        _, rows = read_csv(tmp_path / "collapse_cells.csv")
        assert "inf" in {row[2] for row in rows}
        assert all(row[8] == "1" and "over cap" in row[9] for row in rows)

    def test_scale_past_the_float_range_missing(self, tmp_path):
        # Delta = 1 / log2(4 / 3.9999) is about 27725, so (log beta)**Delta
        # overflows a float; every probe radius is past the float range too.
        assert run(tmp_path, "collapse", "--d", "2", "--s", "3.9999", "--t-points", "2",
                   "--m-offset", "2", "--box-radius-cap", "40") == 0
        _, rows = read_csv(tmp_path / "collapse_cells.csv")
        assert len(rows) == 4 and all(row[8] == "1" and row[9] for row in rows)
        _, srows = read_csv(tmp_path / "collapse_summary.csv")
        assert [row[2] for row in srows] == ["2", "2"]


class TestReplicaSeeds:
    """Every replica seed seed + i (i < n_replicas) must fit in 64 bits, checked before any work."""

    @pytest.mark.parametrize("command, n_replicas", [("estimate-phi", 3), ("collapse", 4)])
    def test_boundary(self, command, n_replicas):
        argv = [command, "--n-replicas", str(n_replicas)]
        _resolve([*argv, "--seed", str(2**64 - n_replicas)])
        with pytest.raises(ConfigError, match="replica seeds"):
            _resolve([*argv, "--seed", str(2**64 - n_replicas + 1)])

    @pytest.mark.parametrize("argv", [
        ["estimate-phi", "--d", "1", "--s", "1.5", "--beta", "1", "--r", "300",
         "--n-replicas", "3", "--seed", str(2**64 - 2)],
        ["collapse", "--seed", str(2**64 - 1)],
    ])
    def test_overflow_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: seed:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestConfigDecidedRefusals:
    """A refusal that the options alone decide is a config error: exit 2, one stderr line naming
    the option, and nothing written, before any sampling.  The sampler's memory pre-flight (key
    None) names no option; it refuses before the class tables exist."""

    @pytest.mark.parametrize("key, argv, match", [
        ("L", ["sample", "--d", "3", "--s", "4.5", "--L", "3000"], "n <= 2**32"),
        ("r", ["estimate-phi", "--r", "2", "--n-replicas", "1"], "holds only 2 vertices"),
        ("r", ["estimate-phi", "--r", "50", "--delta", "0.999"], "holds only 0 vertices"),
        ("r", ["estimate-phi", "--r", "1e300"], "over 2**997 vertices, and pair keys hi << 32 | lo need n <= 2**32"),
        ("r", ["estimate-phi", "--s", "1.9999", "--r", "300"], "(log r)**Delta"),
        (None, ["sample", "--d", "4", "--s", "5"], "displacement class enumeration needs an estimated 50.26 GiB"),
        (None, ["distances", "--d", "4", "--s", "7.99"],
         "displacement class enumeration needs an estimated 796.20 GiB"),
        (None, ["estimate-phi", "--d", "4", "--s", "5", "--r", "50", "--n-replicas", "1"],
         "displacement class enumeration needs an estimated 50.26 GiB"),
    ], ids=["sample-edge-keys", "phi-small-annulus", "phi-thin-annulus", "phi-huge-box", "phi-log-scale",
            "sample-class-memory", "distances-class-memory", "phi-replica-memory"])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, key, argv, match):
        def sampled(*args, **kwargs):
            raise AssertionError("sampling reached")

        if key is not None:
            monkeypatch.setattr(lrplab.cli, "sample_graph", sampled)
            monkeypatch.setattr(lrplab.cli, "sample_graph_coupled", sampled)
            monkeypatch.setattr(lrplab.estimator, "sample_graph_coupled", sampled)
        tracemalloc.start()
        try:
            code = run(tmp_path, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        prefix = f"error: config: {match}" if key is None else f"error: config: {key}: "
        assert err.startswith(prefix) and match in err and err.count("\n") == 1
        assert len(err) < 200
        assert list(tmp_path.iterdir()) == []
        assert peak <= 8 * 2**20

    @pytest.mark.parametrize("argv", [
        ["sample", "--L", "7500"],
        ["distances", "--L", "7500"],
        ["estimate-phi", "--r", "7500"],
        ["estimate-phi", "--r", "7500", "--n-replicas", "2", "--jobs", "2"],
    ], ids=["sample", "distances", "phi", "phi-jobs-2"])
    def test_memory_cap_refusal_exits_2_once_sampling_began(self, tmp_path, capsys, argv):
        # The graph-sampling estimate needs the class tables, so it is no pre-flight; it reads
        # the options alone, so the same refusal comes back at every seed.
        for seed in ("0", "1"):
            outdir = tmp_path / seed
            assert main([*argv, "--d", "1", "--s", "1.5", "--beta", "1e9", "--seed", seed,
                         "--outdir", str(outdir)]) == 2
            assert capsys.readouterr().err == ("error: config: graph sampling needs an estimated 2.10 GiB, "
                                               "over the configured cap of 2.00 GiB\n")
            assert not outdir.exists()


class TestSelfcheck:
    def test_passes(self, tmp_path, capsys):
        assert run(tmp_path, "selfcheck") == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "FAIL" not in out
        report = json.loads((tmp_path / "selfcheck.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) >= 6


class TestConfigHandling:
    def test_config_file_and_override_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\ns=1.5\nn_max=10\n")
        out1 = tmp_path / "o1"
        assert main(["exponents", "--config", str(cfg), "--outdir", str(out1)]) == 0
        _, rows = read_csv(out1 / "exponents.csv")
        assert len(rows) == 11
        out2 = tmp_path / "o2"
        assert main(["exponents", "--config", str(cfg), "--n-max", "12",
                     "--outdir", str(out2)]) == 0
        _, rows = read_csv(out2 / "exponents.csv")
        assert len(rows) == 13  # flag wins over config file

    def test_comments_and_blanks_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# exponent table\n\nd=1\ns=1.5\n")
        assert main(["exponents", "--config", str(cfg),
                     "--outdir", str(tmp_path / "out")]) == 0

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\ns=1.5\nn_mx=10\n")
        code = main(["exponents", "--config", str(cfg),
                     "--outdir", str(tmp_path / "out")])
        assert code == 2
        assert "n_mx" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=1\njust a line\n")
        assert main(["exponents", "--config", str(cfg),
                     "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_undecodable_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"d=1\n\xff\xfe=2\n")
        out = tmp_path / "out"
        assert main(["exponents", "--config", str(cfg), "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config: cannot read config file") and err.count("\n") == 1
        assert not out.exists()

    def test_invalid_s_rejected(self, tmp_path, capsys):
        code = run(tmp_path, "exponents", "--d", "1", "--s", "2.5")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_unknown_command(self, tmp_path, capsys):
        assert main(["frobnicate", "--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: config:")

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("LRPLAB_OUTDIR", str(target))
        assert main(["exponents", "--d", "1", "--s", "1.5", "--n-max", "4"]) == 0
        assert (target / "exponents.csv").exists()


class TestConfigRules:
    """Every post-parse rule of a command is a config error: exit 2, one stderr line naming
    the option, and nothing written."""

    @pytest.mark.parametrize("key, argv", [
        ("n_max", ["exponents", "--n-max", "1"]),
        ("n_points", ["limit-curve", "--n-points", "1"]),
        ("t_points", ["collapse", "--t-points", "1"]),
        ("L", ["sample", "--L", "0"]),
        ("k_max", ["distances", "--k-max", "-1"]),
        ("m_offset", ["collapse", "--m-offset", "-1"]),
        ("log_betas", ["collapse", "--log-betas", "1"]),
        ("log_betas", ["collapse", "--log-betas", "4,3"]),
        ("log_betas", ["collapse", "--log-betas", "nan"]),
        ("log_betas", ["collapse", "--log-betas", "inf"]),
        ("log_betas", ["collapse", "--log-betas", "3,nan"]),
        ("log_betas", ["collapse", "--log-betas", "710"]),  # exp overflows a float
        ("r", ["estimate-phi", "--r", "1"]),
        ("gamma_bar", ["distances", "--gamma-bar", "1"]),
        ("gamma_bar", ["distances", "--gamma-bar", "0.75"]),  # gamma itself at d=1, s=1.5
        ("source", ["distances", "--source", "0,0"]),
        ("target", ["distances", "--L", "10", "--target", "11"]),
        ("delta", ["estimate-phi", "--delta", "1", "--r", "50", "--n-replicas", "1"]),
        ("delta", ["estimate-phi", "--delta", "2"]),
        ("delta", ["estimate-phi", "--delta", "nan"]),
        ("delta", ["collapse", "--delta", "1"]),
    ])
    def test_rule_exits_2(self, tmp_path, capsys, key, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {key}:") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


# Boundary values of each option, as (values its parser takes, values it
# refuses).  Sizes stay small enough for tier-1: L <= 8, r <= 20 and
# box_radius_cap <= 40 (both <= 8 at d = 4), at most 2 replicas and 17 rows.
_REFUSED_EVERYWHERE = ["x", "1e", "0x10", "1,,2", "nan", "inf", "-inf"]


def _counts(k: int, *more: str) -> tuple:
    """_at_least(k)."""
    return [str(k), str(k + 1), *more], [*_REFUSED_EVERYWHERE, "", str(k - 1), "-1", "1.5"]


def _reals(*taken: str, optional: bool = False) -> tuple:
    """_pfloat, or _optional(_pfloat), which takes "" as unset."""
    refused = [*_REFUSED_EVERYWHERE, "0", "-1"]
    return (["", *taken], refused) if optional else (list(taken), [*refused, ""])


_CLI_VALUES = {
    "d": _counts(1, "3", "4"),
    "beta": _reals("1e-300", "0.5", "1", "5"),
    "norm": (["ell1", "ell2", "ellinf"], ["", "x", "ELL2", "l2"]),
    "seed": (["0", "1", str(2**64 - 2), str(2**64 - 1)],
             [*_REFUSED_EVERYWHERE, "", "-1", "1.5", str(2**64)]),
    "n_max": _counts(2, "17"),
    "n_points": _counts(2, "17"),
    "L": _counts(1, "8"),
    "z_draws": _counts(0, "5"),
    "eta": _reals("1e-300", "0.5", "1", "1e300"),
    "beta2": _reals("1e-300", "1", "5", optional=True),
    "gamma_bar": _reals("0.5", "0.75", "0.9", "0.99", "1", optional=True),
    "k_max": _counts(0, "3", "17"),
    "epsilon": _reals("1e-300", "0.1", "1", optional=True),
    "scale": _reals("1e-300", "1", "1e300", optional=True),
    "r": _reals("1e-300", "1", "1.5", "2", "3.5", "8", "12.5", "20"),
    "n_replicas": _counts(1),
    "delta": (["1e-300", "0.1", "0.5", "0.999"], [*_REFUSED_EVERYWHERE, "", "0", "1", "2", "-1"]),
    "jobs": (["1"], _counts(1)[1]),
    "log_betas": (["1", "1.5", "3", "3,4", "4,3", "3,3", "1.5,2,6", "40", "710", "710,3", "-800"],
                  [*_REFUSED_EVERYWHERE, "", "3,nan", "3,,4"]),
    "t_points": _counts(2),
    "m_offset": _counts(0, "4", "19"),
    "box_radius_cap": _counts(1, "8", "40"),
}


def _values_at(d: int) -> dict:
    """``_CLI_VALUES`` with the options whose boundaries move with d: s from d to 2d, and
    points on and off the box of radius 8 (one of them with d + 1 coordinates)."""
    points = ["", *(",".join([c] + ["0"] * (d - 1)) for c in ("0", "-3", "8", "9")), "0," * d + "0"]
    return {**_CLI_VALUES, "s": _reals(*(repr(f * d) for f in (1, 1.0001, 1.25, 1.5, 1.75, 1.9999, 2))),
            "source": (points, _REFUSED_EVERYWHERE), "target": (points, _REFUSED_EVERYWHERE)}


def cli_argv(pick) -> list:
    """One command line over ``_COMMANDS`` (selfcheck aside), every option drawn by ``pick``
    (a choice of one item from a sequence) from ``_values_at(d)``, at most two of them from
    the refused values."""
    command = pick(sorted(set(_COMMANDS) - {"selfcheck"}))
    options = [opt.name for opt in _COMMANDS[command].options]
    refused = {pick(options) for _ in range(pick([0, 1, 2]))}
    argv, d = [command], 1
    for name in options:
        taken, bad = _values_at(d)[name]
        if d == 4 and name in ("r", "box_radius_cap"):
            taken = [v for v in taken if not float(v) > 8]
        value = pick(bad if name in refused else taken)
        if name == "d" and value in taken:
            d = int(value)
        argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


class TestCommandTable:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.data())
    def test_every_config_exits_0_or_2(self, tmp_path_factory, data):
        argv = cli_argv(lambda seq: data.draw(st.sampled_from(seq)))
        outdir = tmp_path_factory.mktemp("cli") / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--outdir", str(outdir)])
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: config:") and err.getvalue().count("\n") == 1
            assert not outdir.exists()
        else:
            assert (outdir / "manifest.json").exists()


class TestManifest:
    def test_fields_and_outputs_list(self, tmp_path):
        run(tmp_path, "exponents", "--d", "1", "--s", "1.5", "--n-max", "8")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "exponents"
        assert manifest["config"]["n_max"] == "8"
        assert set(manifest["outputs"]) == {"exponents.csv", "ratios.json"}
        assert "numpy" in manifest["versions"] and "lrplab" in manifest["versions"]
        assert manifest["wall_time_s"] >= 0
        assert "timestamp_utc" in manifest
        # Hash in manifest matches the one stamped into each output.
        text = (tmp_path / "exponents.csv").read_text()
        assert manifest["config_hash"] in text

    def test_hash_excludes_outdir(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["exponents", "--d", "1", "--s", "1.5", "--outdir", str(a)])
        main(["exponents", "--d", "1", "--s", "1.5", "--outdir", str(b)])
        ha = json.loads((a / "manifest.json").read_text())["config_hash"]
        hb = json.loads((b / "manifest.json").read_text())["config_hash"]
        assert ha == hb

    def test_hash_sensitive_to_params(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["exponents", "--d", "1", "--s", "1.5", "--outdir", str(a)])
        main(["exponents", "--d", "1", "--s", "1.6", "--outdir", str(b)])
        ha = json.loads((a / "manifest.json").read_text())["config_hash"]
        hb = json.loads((b / "manifest.json").read_text())["config_hash"]
        assert ha != hb


def readme_commands():
    """argv (after ``lrplab``) of every lrplab line in README's sh blocks,
    with backslash continuations joined and comments dropped."""
    commands, in_sh, pending = [], False, ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        if not in_sh:
            continue
        pending += line
        if pending.endswith("\\"):
            pending = pending[:-1]
            continue
        argv = shlex.split(pending, comments=True)
        pending = ""
        if argv and argv[0] == "lrplab":
            commands.append(argv[1:])
    return commands


class TestReadme:
    def test_every_command_line_resolves(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == set(_COMMANDS)
        for argv in commands:
            try:
                _resolve(argv)
            except ConfigError as exc:
                pytest.fail(f"README line `lrplab {' '.join(argv)}`: {exc}")

    def test_outdir_default_documented(self, monkeypatch):
        monkeypatch.delenv("LRPLAB_OUTDIR", raising=False)
        outdir = _resolve(["selfcheck"])[3]
        assert f"(default `./{outdir}`" in README.read_text(encoding="utf-8")


def data_file_digests(outdir):
    """sha256 of every file a run wrote, except manifest.json (it holds a timestamp)."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if p.name != "manifest.json"}


# The cli-d2 benchmark's commands at tiny sizes, plus the cases the README
# lines miss: Z draws in d=2 and d=3, a coupled d=3 ellinf distance field
# off-centre, a collapse run with a missing cell (nan cells, a reason), and
# replica seeds on both sides of 2**63.
_CLI_D2_BOX = ["--d", "2", "--s", "3", "--beta", "2", "--L", "12", "--seed", "123"]
_EXTRA_PIN_ARGV = [
    ["sample", *_CLI_D2_BOX],
    ["distances", *_CLI_D2_BOX, "--target=5,-4", "--epsilon", "0.5", "--k-max", "3"],
    ["exponents", "--n-max", "63"],
    ["limit-curve", "--n-points", "101"],
    ["sample", "--z-draws", "20", "--d", "2", "--s", "3", "--L", "4", "--seed", "7"],
    ["sample", "--z-draws", "20", "--d", "3", "--s", "4.2", "--L", "2", "--norm", "ellinf",
     "--seed", "8"],
    ["distances", "--d", "3", "--s", "4.2", "--beta", "2", "--beta2", "6", "--L", "6",
     "--norm", "ellinf", "--seed", "5", "--source", "1,-2,0", "--target", "3,1,-2"],
    ["collapse", "--d", "1", "--s", "1.5", "--log-betas", "3", "--t-points", "2",
     "--n-replicas", "2", "--seed", "0", "--m-offset", "2", "--box-radius-cap", "100"],
    ["estimate-phi", "--r", "300", "--n-replicas", "3", "--seed", str(2**63 - 2)],
]

# sha256 of each data file, keyed by the command line; written by the CLI
# before its CSV writer became column-typed, so they pin the output bytes.
# The README collapse line was re-pinned when collapse_report began to read
# every radius from one coupled sample per replica.
_OUTPUT_PINS = {
    'exponents --d 1 --s 1.5 --n-max 64': {
        'exponents.csv': '60db6cbb28550ac7241e50c3bfd95fccd59323d2d5aed84e2169b3c7ebea68d3',
        'ratios.json': '4a27d7731434c18df067dcc6a44666a3e279bab832bfba1a60f7748444457e75',
    },
    'limit-curve --d 1 --s 1.5 --n-points 101': {
        'limit_curve.csv': '84c7a6447e6363cb6ef18a130e5b96437e9dd257e3f7c02d6b16a781ea6a6c7f',
    },
    'sample --d 1 --s 1.5 --beta 5 --L 1000 --seed 0': {
        'edges.csv': '3bfeb4946a2675046a238d794c4494e20122aced94f9a51cf381a8a907daed37',
    },
    'sample --z-draws 50 --d 1 --s 1.5 --eta 1.0 --seed 0': {
        'edges.csv': 'e998c6521e4b793845ee9b8f18c3b19e84636788112ef6f033d794f18538fa45',
        'z_samples.csv': '3a4c9db5f93ecd5985d450644e6d6d9beeeb7e358ca78b5344a507cbc78058c5',
    },
    'distances --d 1 --s 1.5 --beta 1 --L 1000 --seed 0 --beta2 5.0': {
        'distances.csv': '6d4180149185c5d5746c092f73d18d60cd21a83f6057d635ddc047ed09c11e8f',
        'summary.json': 'c3ad450cf5b6ecf9a50dfd8222c56e61f895e57610f69f1f330d9d9aa15d9e4c',
    },
    'figure1 --seed 0': {
        'figure1.csv': '407359883f1fb6c074c96c147b9a7d09cccbbbfa70bcc457de750148897917a6',
        'long_edges.csv': '6883a600ec24724f2e45a72cdf2ffd8703a3ae218945b28ea5583741e8a840ea',
    },
    'estimate-phi --d 1 --s 1.5 --beta 1 --r 2000 --n-replicas 32 --seed 0 --jobs 2': {
        'phi_records.csv': '83b329a1805741d090f12a6ca12df85558c95fb7c3fe4eb93996bca08a1fa0c9',
        'phi_summary.csv': '06a3deed4f6f007646bf605631e97e298a8f5d4803a04f0e654a94e3529744da',
    },
    'collapse --log-betas 3,4 --t-points 21 --n-replicas 4 --seed 0': {
        'collapse_cells.csv': 'e847bb137a5152eab13b1b8d4c7555fa8fbbf4a62404c75a37e09f8b8bfac5b0',
        'collapse_records.csv': '9e1cc09855fe8aee11a5f6ea5a981927e9696c16134aa56301625efc6da4a96f',
        'collapse_summary.csv': '40a49ea39554eb6981fe03b40511eaf9729ef72073dab7fa905c2a887da845c7',
    },
    'selfcheck': {
        'selfcheck.json': 'c24cbc4861bc2919081a520efb7d229c15bbb6f70d23c2c693b4810f41ae161d',
    },
    'sample --d 2 --s 3 --beta 2 --L 12 --seed 123': {
        'edges.csv': 'e0e55b721d6e87c01f069227609cee109674d285096427b8930df936e1c23de3',
    },
    'distances --d 2 --s 3 --beta 2 --L 12 --seed 123 --target=5,-4 --epsilon 0.5 --k-max 3': {
        'chain.csv': 'bd602e06938482a5dcd0d6b025cb955e78437db1d85ab9b5b7579ba2cc097fcf',
        'distances.csv': 'd3c8f3a94532e9ea0d105bd6fe4db3ef90afd55ae23d83a073e513cb47d1fe98',
        'summary.json': '81fc8101c832a20fae02b281ad67b99cabfa846536d641753ea84a78a2123af8',
    },
    'exponents --n-max 63': {
        'exponents.csv': 'cbe8ae3b295835912728cddf699e51858b9877ce006c8d5bb9ff26e3d7ccf11d',
        'ratios.json': 'bf598e368e0c6368b9bff7a637ac4acfad6e5c1c27273cdfbf6e63e18023923b',
    },
    'limit-curve --n-points 101': {
        'limit_curve.csv': '84c7a6447e6363cb6ef18a130e5b96437e9dd257e3f7c02d6b16a781ea6a6c7f',
    },
    'sample --z-draws 20 --d 2 --s 3 --L 4 --seed 7': {
        'edges.csv': '1b06d53efca3c16ceead57289161d13080b5236f4556f13897109d37d74c28a5',
        'z_samples.csv': 'db6ae732437b3c6617347ee480760a346125bc06e6c8a08df7652cdcd9d9ff1f',
    },
    'sample --z-draws 20 --d 3 --s 4.2 --L 2 --norm ellinf --seed 8': {
        'edges.csv': '547318db128049cb4c6587c3add7b3ace3bad5a4b6235f1995bb0d8d2a825a61',
        'z_samples.csv': '02532457d3473633f8fe215b2e8aa9e72265dbd3b78e744621e90c5de57df5c9',
    },
    'distances --d 3 --s 4.2 --beta 2 --beta2 6 --L 6 --norm ellinf --seed 5 --source 1,-2,0 --target 3,1,-2': {
        'chain.csv': '65cef7175a803e1bdad239ebb864a8cc18d5a31c5f3e7f14c748e8b91c82c674',
        'distances.csv': '9188f93e4e3851eb1a6f05955423693eea49f02d7a124fe6dbc5b0eba6395d8d',
        'summary.json': '355251c9c0328055eb7a1110637fee23224975e2be6df1bedaca0da25396b0e8',
    },
    'collapse --d 1 --s 1.5 --log-betas 3 --t-points 2 --n-replicas 2 --seed 0 --m-offset 2 --box-radius-cap 100': {
        'collapse_cells.csv': 'e8a548abacc28c09ac8ef4f66104b8f0d6e6be2b3874d6ac6f571ac3c356086f',
        'collapse_records.csv': 'c1c40f19b67e9b573be528f50e4a6c21483323ca744bc66fd70cdff798cafe8b',
        'collapse_summary.csv': '61ea17ecaca86fa751e99d96149b3534ccea2ec75599b603def05089b2f60c99',
    },
    'estimate-phi --r 300 --n-replicas 3 --seed 9223372036854775806': {
        'phi_records.csv': '753bc1b5b0fe33ddd0558b42875093fa77b97875005775fbd9634879db41fff7',
        'phi_summary.csv': '5c4ad1db90aabbaefe3c6278f78d5e33ef85f55c5670b7457035132fb4531869',
    },
}

# chain.csv of the second extra command line with every D_restricted_k* unreachable
_CHAIN_INF_PIN = "85f500b2d8eb6f7e227a73bbbc0ee33ec4532c91debb4d193483a797192cd468"


class TestOutputPins:
    @pytest.mark.parametrize("argv", readme_commands() + _EXTRA_PIN_ARGV, ids=" ".join)
    def test_data_files_pinned(self, tmp_path, argv):
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
        assert data_file_digests(tmp_path) == _OUTPUT_PINS[" ".join(argv)]

    def test_every_readme_command_pinned(self):
        assert {" ".join(argv) for argv in readme_commands()} <= set(_OUTPUT_PINS)

    def test_chain_with_unreachable_members(self, tmp_path, monkeypatch):
        # No box path leaves the confinement balls the CLI builds, so an
        # inf chain value is forced by stubbing the k-family out.
        monkeypatch.setattr(lrplab.cli, "restricted_k_distance",
                            lambda *args: RestrictedDistanceResult(math.inf, 0.0, False))
        assert main([*_EXTRA_PIN_ARGV[1], "--outdir", str(tmp_path)]) == 0
        text = (tmp_path / "chain.csv").read_text()
        assert "D_restricted_k0,inf\n" in text
        assert data_file_digests(tmp_path)["chain.csv"] == _CHAIN_INF_PIN

    def test_chain_stops_searching_once_at_D(self, tmp_path, monkeypatch):
        # every member of the pinned chain is D = 3, so only k0 is searched
        calls, search = [], lrplab.cli.restricted_k_distance

        def member(sample, source, target, k, gamma_bar):
            calls.append(k)
            return search(sample, source, target, k, gamma_bar)

        monkeypatch.setattr(lrplab.cli, "restricted_k_distance", member)
        assert main([*_EXTRA_PIN_ARGV[1], "--outdir", str(tmp_path)]) == 0
        assert calls == [0]
        assert data_file_digests(tmp_path)["chain.csv"] == _OUTPUT_PINS[" ".join(_EXTRA_PIN_ARGV[1])]["chain.csv"]

    def test_chain_searches_past_members_above_D(self, tmp_path, monkeypatch):
        calls = []

        def member(sample, source, target, k, gamma_bar):
            calls.append(k)
            return RestrictedDistanceResult(5 if k == 0 else 3, 0.0, False)

        monkeypatch.setattr(lrplab.cli, "restricted_k_distance", member)
        assert main([*_EXTRA_PIN_ARGV[1], "--outdir", str(tmp_path)]) == 0
        assert calls == [0, 1]
        _, rows = read_csv(tmp_path / "chain.csv")
        assert rows[1] == ["D", "3"] and [row[1] for row in rows[4:]] == ["5", "3", "3", "3"]


def reference_table(header, columns) -> str:
    """The CSV cell contract, one cell at a time: str(int) for ints, 0/1 for
    bools, repr(float) for floats (nan, inf, -inf), csv quoting for strings."""
    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return repr(float(v))
        return v

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell(v) for v in row] for row in zip(*columns))
    return buf.getvalue()


def written_table(directory, header, columns) -> str:
    path = directory / "table.csv"
    _write_csv(path, "doc", "0123456789abcdef", header, columns, [])
    text = path.read_bytes().decode("utf-8")
    prefix = "# columns: doc\n# config_hash=0123456789abcdef\n"
    assert text.startswith(prefix)
    return text[len(prefix):]


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
                   1.7976931348623157e308, 0.1, 1e16, 1e-5, math.inf, -math.inf, math.nan]
_TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r\'x;-.'), max_size=6)
_COLUMN_KINDS = {
    "bool": st.booleans().map(np.bool_),
    "int32": st.integers(-2**31, 2**31 - 1).map(np.int32),
    "uint32": st.integers(0, 2**32 - 1).map(np.uint32),
    "int64": st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(2**62 - 3, 2**62 + 3),
                       st.integers(-2**62 - 3, -2**62 + 3)).map(np.int64),
    "uint64": st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63 - 3, 2**63 + 3)).map(np.uint64),
    "float64": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()).map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "text": _TEXT,
    # lists hold Python values: ints of any size, floats, or a mix with bools and strings
    "int list": st.integers(),
    "bool list": st.booleans(),
    "float list": st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats()),
    "mixed list": st.one_of(st.integers(), st.booleans(), st.sampled_from(_SPECIAL_FLOATS), _TEXT),
}


def make_column(kind, values):
    return list(values) if kind == "text" or kind.endswith("list") else np.array(values, dtype=kind)


class TestWriteCsv:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_cell_reference(self, tmp_path_factory, data):
        kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5))
        n_rows = data.draw(st.integers(0, 12))
        columns = [make_column(kind, data.draw(st.lists(_COLUMN_KINDS[kind], min_size=n_rows,
                                                        max_size=n_rows)))
                   for kind in kinds]
        header = [f"c{i}" for i in range(len(columns))]
        got = written_table(tmp_path_factory.mktemp("w"), header, columns)
        assert got == reference_table(header, columns)

    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("with_text", [False, True])
    def test_block_boundaries(self, tmp_path, n_rows, with_text):
        rng = np.random.default_rng(n_rows)
        floats = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-320, 300, n_rows)
        floats[rng.integers(0, n_rows, min(n_rows, 15))] = _SPECIAL_FLOATS[:min(n_rows, 15)]
        columns = [rng.random(n_rows) < 0.5,
                   rng.integers(-2**31, 2**31, n_rows).astype(np.int32),
                   rng.integers(0, 2**32, n_rows).astype(np.uint32),
                   rng.integers(-2**63, 2**63 - 1, n_rows, endpoint=True),
                   floats]
        if with_text:
            columns.append(rng.choice(["", "a,b", 'say "x"', "two\nlines", "plain"], n_rows).tolist())
        header = [f"c{i}" for i in range(len(columns))]
        got = written_table(tmp_path, header, columns)
        assert got == reference_table(header, columns)

    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_integer_block_boundaries(self, tmp_path, n_rows):
        """All-integer tables, whose blocks take the byte-matrix path, across the int64 and uint64 ranges."""
        rng = np.random.default_rng(n_rows)

        def spread(low, high, dtype, bits):  # every cell width from one digit to the dtype's widest
            values = rng.integers(low, high, n_rows, dtype=dtype, endpoint=True)
            return values >> rng.integers(0, bits, n_rows).astype(dtype)

        int64, uint64 = spread(-2**63, 2**63 - 1, np.int64, 64), spread(0, 2**64 - 1, np.uint64, 64)
        int64[:2], uint64[:2] = [-2**63, 2**63 - 1][:n_rows], [2**63, 2**64 - 1][:n_rows]
        columns = [rng.random(n_rows) < 0.5, spread(-2**31, 2**31 - 1, np.int32, 32),
                   spread(0, 2**32 - 1, np.uint32, 32), int64, uint64, rng.integers(0, 10, n_rows),
                   rng.integers(2**32 - 3, 2**32 + 3, n_rows)]  # about the limit of 32-bit division
        header = [f"c{i}" for i in range(len(columns))]
        assert written_table(tmp_path, header, columns) == reference_table(header, columns)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_narrow_floats_widen(self, tmp_path, dtype):
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2**16 if dtype is np.float16 else 2**32, 3000)
        column = bits.astype(np.uint16 if dtype is np.float16 else np.uint32).view(dtype)
        column[np.isnan(column)] = np.nan  # quiet, so that widening raises no warning
        header = ["narrow", "wide"]
        columns = [column, column.astype(np.float64)]
        assert written_table(tmp_path, header, columns) == reference_table(header, columns)

    def test_float_kernel_decision_edges(self, tmp_path):
        """The float kernel's decision edges, one cell a row, against repr."""
        rng = np.random.default_rng(30)
        anchors = np.array([float(f"1e{k}") for k in range(-4, 17)] + [2.0**k for k in range(-14, 54)])
        neighbours = (anchors.view(np.int64)[:, None] + np.arange(-24, 25)).ravel().view(np.float64)
        decimals = [float(f"{rng.integers(10**(n - 1), 10**n)}e{rng.integers(-4 - n, 18 - n)}")
                    for n in range(1, 18) for _ in range(1500)]
        ties = [float(f"{rng.integers(10**16, 10**17)}5e{rng.integers(-22, -1)}") for _ in range(4000)]
        in_range = rng.integers(np.float64(1e-4).view(np.int64), np.float64(1e16).view(np.int64), 8000)
        values = np.concatenate([neighbours, decimals, ties, in_range.view(np.float64)])
        values[rng.random(len(values)) < 0.5] *= -1
        assert written_table(tmp_path, ["x"], [values]) == reference_table(["x"], [values])

    def test_scaling_is_exact_about_powers_of_ten(self):
        # e is the exact decimal exponent, fixed from hi + lo where log10 rounds to
        # an integer, and n + f is |x| * 10**(16 - e) to within f's last rounding
        anchors = np.array([float(f"1e{k}") for k in range(-4, 17)])
        rng = np.random.default_rng(31)
        x = np.concatenate([(anchors.view(np.int64)[:, None] + np.arange(-24, 25)).ravel().view(np.float64),
                            10.0 ** rng.uniform(-4, 16, 2000)])
        x = x[(x >= 1e-4) & (x < 1e16)]
        e, n, f = _scaled(x.copy())
        for v, e_v, n_v, f_v in zip(x.tolist(), e.tolist(), n.tolist(), f.tolist()):
            y = Fraction(v) * Fraction(10) ** (16 - e_v)
            assert 10**16 <= y < 10**17 and 10**16 <= n_v < 10**17
            assert abs(n_v + Fraction(f_v) - y) <= Fraction(1, 2**50)

    def test_limit_curve_columns_rarely_take_repr(self):
        # a decision margin set too wide would send the kernel's cells to repr
        t = np.linspace(0.0, 1.0, 100001)
        params = _resolve(["limit-curve"])[1]["params"]
        for column in (t, psi_limit(params, t), lambda_of_t(params, t), lower_curve(params, t)):
            slow = 0
            for lo in range(0, len(column), _BLOCK_ROWS):
                block = column[lo:lo + _BLOCK_ROWS]
                out = np.zeros((len(block), _float_width(block) + 1), dtype=np.uint8)
                slow += _float_slots(block, out[:, :-1])
                out[:, -1] = ord("\n")
                assert out.tobytes().translate(None, b"\0").decode().split() == list(map(repr, block.tolist()))
            assert slow < 0.001 * len(column)

    @pytest.mark.parametrize("header, columns, expected", [
        (["name", "value"], [["ell1", "D", "D_k0"], [9, 3, math.inf]], "name,value\nell1,9\nD,3\nD_k0,inf\n"),
        (["a", "b"], [[True, "x"], [1, 2]], "a,b\n1,1\nx,2\n"),
        # an empty cell alone in its row is quoted, so that the row is not blank
        (["x"], [["", "a"]], 'x\n""\na\n'),
        ([""], [[1]], '""\n1\n'),
        (["x", "y"], [["", "a"], ["", ""]], "x,y\n,\na,\n"),
        # a lone CR is written bare, as csv.writer with an LF terminator writes it
        (["x"], [["a\rb", "\r"]], "x\na\rb\n\r\n"),
        (["x"], [['a,b', 'say "hi"', "two\nlines", "é"]], 'x\n"a,b"\n"say ""hi"""\n"two\nlines"\né\n'),
    ], ids=["mixed-int-and-inf", "mixed-bool", "empty-alone", "empty-header-alone", "empty-beside-others",
            "lone-cr", "quoted"])
    def test_literal_tables(self, tmp_path, header, columns, expected):
        assert written_table(tmp_path, header, columns) == expected
        assert reference_table(header, columns) == expected

    def test_nul_in_a_text_cell_rejected(self, tmp_path):
        # the writer drops its NUL padding, so a NUL in a cell would be lost silently;
        # the partial file is listed for main to remove
        created = []
        with pytest.raises(ValueError, match="NUL"):
            _write_csv(tmp_path / "t.csv", "doc", "h", ["a", "b"], [["x\0y"], [1]], created)
        assert created == [tmp_path / "t.csv"]

    def test_int_list_across_the_int64_range_stays_exact(self, tmp_path):
        seeds = [2**63 - 2, 2**63 - 1, 2**63, 2**64 + 5]
        assert written_table(tmp_path, ["seed"], [seeds]) == "seed\n" + "".join(f"{v}\n" for v in seeds)

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ in length"):
            _write_csv(tmp_path / "t.csv", "doc", "h", ["a", "b"], [np.arange(3), np.arange(2)], [])


class TestTableMemoryCap:
    @pytest.mark.parametrize("command, flag, per_row, offset", [("exponents", "--n-max", 128, 1),
                                                                 ("limit-curve", "--n-points", 64, 0),
                                                                 ("sample", "--z-draws", 144, 0),
                                                                 ("sample --d 3 --s 4.2", "--z-draws", 288, 0)])
    def test_cap_boundary(self, command, flag, per_row, offset):
        largest = DEFAULT_MEMORY_CAP // per_row - offset  # 8 bytes x arrays x rows
        _resolve([*command.split(), flag, str(largest)])
        with pytest.raises(ConfigError, match="memory cap"):
            _resolve([*command.split(), flag, str(largest + 1)])

    @pytest.mark.parametrize("argv", [["exponents", "--n-max", str(10**12)],
                                      ["limit-curve", "--n-points", str(10**12)],
                                      ["sample", "--L", "2", "--z-draws", str(10**12)]])
    def test_over_cap_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "memory cap" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


# Runs in a fresh interpreter with scipy and csv blocked, so that any import
# of them raises ImportError: numpy is lrplab's only runtime dependency, and
# every CSV byte, text cells included (chain.csv, collapse_cells.csv), comes
# from lrplab's own writer. The collapse has three live cells per beta, so
# its rank correlation is computed.
_IMPORT_PROBE = """
import sys
sys.modules["scipy"] = None
sys.modules["csv"] = None
import lrplab, lrplab.cli
outdir = sys.argv[1]
for argv in (["exponents", "--n-max", "63"],
             ["limit-curve", "--n-points", "101"],
             ["sample", "--L", "2", "--z-draws", "5"],
             ["distances", "--d", "2", "--s", "3", "--beta", "2", "--L", "6", "--seed", "1",
              "--target", "2,-1", "--epsilon", "0.5"],
             ["estimate-phi", "--r", "300", "--n-replicas", "2", "--seed", "1"],
             ["collapse", "--d", "1", "--s", "1.5", "--log-betas", "3,4", "--t-points", "3",
              "--n-replicas", "2", "--seed", "0", "--m-offset", "2"],
             ["selfcheck"]):
    assert lrplab.cli.main([*argv, "--outdir", f"{outdir}/{argv[0]}"]) == 0, argv
"""


class TestImportPath:
    def test_every_command_runs_with_scipy_and_csv_blocked(self, tmp_path):
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        _, rows = read_csv(tmp_path / "collapse" / "collapse_summary.csv")
        assert [row[2] for row in rows] == ["0", "0"]
        assert all(math.isfinite(float(row[7])) for row in rows)
