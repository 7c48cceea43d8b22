import json
import math
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from lrplab import (
    GENERATOR_TAG,
    Box,
    ModelParams,
    derived_constants,
    distances_from,
    estimate_phi,
    sample_graph,
    theta_fast,
    theta_recursive,
)
from lrplab.cli import _OPTIONS, ConfigError, _resolve, main

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_chain_file_consistent(self, tmp_path):
        run(tmp_path, "distances", "--d", "1", "--s", "1.5", "--beta", "2.0",
            "--L", "40", "--seed", "1", "--target", "25")
        header, rows = read_csv(tmp_path / "chain.csv")
        assert header == ["name", "value"]
        values = {row[0]: float(row[1]) for row in rows}
        assert values["D"] <= values["D_restricted_k0"] + 1e-12
        assert values["D"] <= values["D_restricted_forward"]
        assert values["D_restricted_forward"] <= values["ell1"]


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

    def test_annulus_error_is_runtime(self, tmp_path, capsys):
        code = run(tmp_path, "estimate-phi", "--d", "1", "--s", "1.5",
                   "--beta", "1.0", "--r", "20", "--n-replicas", "1", "--seed", "0")
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: runtime:")
        # Partial outputs are removed on failure.
        leftovers = [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".json")]
        assert leftovers == []


class TestCollapseCommand:
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
        assert {argv[0] for argv in commands} == set(_OPTIONS)
        for argv in commands:
            try:
                _resolve(argv)
            except ConfigError as exc:
                pytest.fail(f"README line `lrplab {' '.join(argv)}`: {exc}")

    def test_outdir_default_documented(self, monkeypatch):
        monkeypatch.delenv("LRPLAB_OUTDIR", raising=False)
        outdir = _resolve(["selfcheck"])[3]
        assert f"(default `./{outdir}`" in README.read_text(encoding="utf-8")
