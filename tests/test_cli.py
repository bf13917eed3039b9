import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from inflatonlab.cli import REFERENCE_TABLE, _fmt, _scan_row, main
from inflatonlab.config import load_config

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_key": 1}))
    assert run(["table1", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert run(["table1", "--config", str(tmp_path / "missing.json"),
                "--out", str(tmp_path)]) == 2
    # the output format is not a choice: the flag is an unknown argument
    with pytest.raises(SystemExit) as e:
        run(["table1", "--out", str(tmp_path), "--format", "json"])
    assert e.value.code == 2


def test_contract_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # a kappa too small for the fixed span to hold enough inflation for the pivot's exit
    cfg.write_text(json.dumps({"kappa_gev": 1e12}))
    capsys.readouterr()
    assert run(["observables", "--config", str(cfg), "--out", str(tmp_path),
                "--no-cache"]) == 1
    assert "error: NoHorizonExit:" in capsys.readouterr().err
    # a pivot so small that the WKB normalization leaves the float range is a
    # named mode error
    cfg.write_text(json.dumps({"q_R_mpc_inv": 1e-200}))
    capsys.readouterr()
    assert run(["modes", "--config", str(cfg), "--out", str(tmp_path), "--no-cache"]) == 1
    assert "error: ModeError:" in capsys.readouterr().err


BLIND_SOLVE = "IntegrationError: dense-output residual 9.96e-01 exceeds 1e-06"


def test_blind_background_solve_is_a_contract_violation(tmp_path, capsys):
    # lambda = 1e-10 starts the field far below the solver's atol: the
    # midpoint-residual check rejects the solve, and table1 names it
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"lambda": 1e-10}))
    capsys.readouterr()
    assert run(["table1", "--config", str(cfg), "--out", str(tmp_path), "--no-cache"]) == 1
    assert f"error: {BLIND_SOLVE}" in capsys.readouterr().err


def test_table1_layout_and_footer(outdir):
    assert run(["table1", "--out", str(outdir)]) == 0
    lines = (outdir / "table1.csv").read_text().splitlines()
    header, rows = lines[0], [l for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines[1:] if l.startswith("#")]
    assert header.split(",") == ["t_1e-12_gev_inv", "phi_1e19_gev", "H_1e14_gev",
                                 "efolds_to_end", "ln_H_aI_over_qR"]
    assert len(rows) == len(REFERENCE_TABLE) == 22
    assert rows[0].startswith("-25,")
    # the fixed span holds every reference time: each row is filled and compared
    assert all(len(r.split(",")) == 5 and all(r.split(",")) for r in rows)
    assert len([l for l in footer if l.startswith("# t=")]) == 22
    assert any("horizon exit" in l for l in footer)
    assert any("t=-1.48" in l for l in footer)


def test_figs_outputs(outdir):
    assert run(["figs", "--out", str(outdir)]) == 0
    for name in ("fig1_phi.csv", "fig2_hubble.csv", "fig3_exit.csv",
                 "fig1_phi.svg", "fig2_hubble.svg", "fig3_exit.svg"):
        assert (outdir / name).exists(), name
    svg = (outdir / "fig3_exit.svg").read_text()
    assert "exit" in svg and "<svg" in svg
    # the two curves of the exit construction cross where the marker sits
    rows = [l.split(",") for l in
            (outdir / "fig3_exit.csv").read_text().splitlines()[1:]]
    diffs = [float(a) - float(b) for _, a, b in (r for r in rows)]
    assert min(diffs) < 0 < max(diffs)


def test_observables_report(outdir):
    assert run(["observables", "--out", str(outdir)]) == 0
    data = json.loads((outdir / "observables.json").read_text())
    rep = data["report"]
    assert rep["gravity"] == "quantum"
    assert rep["r"] == pytest.approx(16 * rep["epsilon"], rel=1e-5)
    assert data["targets"]["r_bound_violated"] is True
    assert (outdir / "observables.csv").exists()


def test_observables_classical_flag(outdir):
    out = outdir / "classical"
    assert run(["observables", "--out", str(out), "--gravity", "classical"]) == 0
    data = json.loads((out / "observables.json").read_text())
    assert data["report"]["r"] == 0.0
    assert data["targets"]["r_bound_violated"] is False


def test_modes_summary(outdir):
    assert run(["modes", "--out", str(outdir)]) == 0
    data = json.loads((outdir / "modes_summary.json").read_text())
    assert data["tensor_wronskian_drift"] < 1e-6
    assert data["scalar_constraint_residual_max"] < 1e-3
    assert data["R2_over_slow_roll"] == pytest.approx(1.0, abs=0.25)
    assert data["ratio_4D2_over_R2"] == pytest.approx(data["sixteen_epsilon"],
                                                      rel=0.25)
    assert not data["r_bound_satisfied"]
    scalar = (outdir / "mode_scalar.csv").read_text().splitlines()
    assert scalar[0].split(",")[:3] == ["t_1e-12_gev_inv", "re_chi", "im_chi"]
    assert len(scalar) > 100


def test_modes_classical(outdir):
    out = outdir / "modes_classical"
    assert run(["modes", "--out", str(out), "--gravity", "classical"]) == 0
    data = json.loads((out / "modes_summary.json").read_text())
    assert data["r"] == 0.0
    assert data["r_bound_satisfied"] is True
    assert data["D_plateau_sq"] == 0.0


def test_mubound_report(outdir):
    assert run(["mubound", "--out", str(outdir)]) == 0
    data = json.loads((outdir / "mubound.json").read_text())
    lo, hi = data["mu_bound_gev"]["bracket"]
    assert lo < 1e-11 < hi
    assert data["sigma2_per_mu4"]["composed"] == pytest.approx(2.15e38, rel=0.01)
    assert data["sigma2_per_mu4"]["literal"] == pytest.approx(5.14e38, rel=0.01)


TOY_PROPERTIES = [
    ("normalization", 1e-6), ("hermitian-symmetry", 1e-10), ("positivity", -1e-8),
    ("composition", 1e-10), ("two-level-oracle", 1e-8), ("moment-identities", 1e-6),
    ("mu-to-zero-variance", 1e-6), ("marginalization", 1e-5), ("reduction", 1e-10),
]


def test_toy_battery_command(tmp_path):
    # two runs write byte-identical files carrying the nine properties in order
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({"toy": {"seeds": 6}}))
    files = []
    for name in ("a", "b"):
        assert run(["toy", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        files.append([(tmp_path / name / f).read_bytes()
                      for f in ("toy_properties.json", "toy_density.csv")])
    assert files[0] == files[1]
    data = json.loads(files[0][0])
    assert [(p["name"], p["tolerance"]) for p in data["properties"]] == TOY_PROPERTIES
    assert all(p["passed"] for p in data["properties"])


def test_scan_rows_and_consistency(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"scan": {
        "kappa_min": 8.38e12, "kappa_max": 8.38e12, "kappa_points": 1,
        "lambda_min": 1.05e-15, "lambda_max": 1.26e-15, "lambda_points": 2,
    }}))
    out = tmp_path / "scan"
    assert run(["scan", "--config", str(cfg), "--out", str(out), "--no-cache"]) == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert len(lines) == 1 + 2           # header + one row per grid point
    first = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert first["status"] == "ok"
    # the default-coupling row reproduces the observables pipeline
    assert run(["observables", "--out", str(out), "--no-cache"]) == 0
    obs = json.loads((out / "observables.json").read_text())["report"]
    assert float(first["n_s"]) == pytest.approx(obs["n_s"], rel=1e-5)
    assert float(first["r"]) == pytest.approx(obs["r"], rel=1e-4)
    # the process pool's rows are the in-process rows of the same jobs, in job order
    base = load_config(cfg, {"cache": False})
    sc = base.scan
    jobs = [replace(base, kappa_gev=float(k), lam=float(l))
            for k in np.geomspace(sc.kappa_min, sc.kappa_max, sc.kappa_points)
            for l in np.geomspace(sc.lambda_min, sc.lambda_max, sc.lambda_points)]
    rows = list(csv.reader(lines[1:]))
    assert rows == [[_fmt(x) for x in _scan_row(j)] for j in jobs]
    # a failing point records its exception type and message in one cell
    cfg.write_text(json.dumps({"scan": {"kappa_min": 1e12, "kappa_max": 1e12, "kappa_points": 1,
                                        "lambda_points": 1}}))
    assert run(["scan", "--config", str(cfg), "--out", str(tmp_path), "--no-cache"]) == 0
    rows = list(csv.reader((tmp_path / "scan.csv").read_text().splitlines()))
    assert [len(r) for r in rows] == [7, 7]
    assert rows[1][-1].startswith("NoHorizonExit: q/a_I = 3.485e-37 GeV")


def test_failed_scan_point_keeps_the_others(tmp_path):
    # one point's IntegrationError fills its row with empty cells and its
    # status; the default point beside it is still solved, and scan exits 0
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"scan": {
        "kappa_min": 8.38e12, "kappa_max": 8.38e12, "kappa_points": 1,
        "lambda_min": 1.05e-15, "lambda_max": 1e-10, "lambda_points": 2,
    }}))
    blind = replace(load_config(cfg), lam=1e-10)
    assert _scan_row(blind) == [8.38e12, 1e-10, None, None, None, None, BLIND_SOLVE]
    assert run(["scan", "--config", str(cfg), "--out", str(tmp_path), "--no-cache"]) == 0
    rows = list(csv.reader((tmp_path / "scan.csv").read_text().splitlines()))
    assert [r[-1] for r in rows[1:]] == ["ok", BLIND_SOLVE]
    assert rows[2][2:6] == ["", "", "", ""]


DATA_FILES = sorted(["table1.csv", "fig1_phi.csv", "fig1_phi.svg", "fig2_hubble.csv",
                     "fig2_hubble.svg", "fig3_exit.csv", "fig3_exit.svg", "observables.json",
                     "observables.csv", "modes_summary.json", "mode_scalar.csv",
                     "mode_tensor.csv", "mubound.json"])


def test_deterministic_output(tmp_path):
    # two fresh runs of the paper-output commands write byte-identical data files
    written = []
    for run_dir in (tmp_path / "a", tmp_path / "b"):
        for command in ("table1", "figs", "observables", "modes", "mubound"):
            assert run([command, "--out", str(run_dir), "--no-cache"]) == 0
        written.append({p.name: p.read_bytes() for p in sorted(run_dir.iterdir())
                        if p.suffix in (".csv", ".json", ".svg")})
    assert sorted(written[0]) == DATA_FILES
    assert written[0] == written[1]


def test_cache_correctness_end_to_end(tmp_path):
    fresh, cached = tmp_path / "fresh", tmp_path / "cached"
    assert run(["observables", "--out", str(fresh), "--no-cache"]) == 0
    assert run(["observables", "--out", str(cached)]) == 0   # populates cache
    assert run(["observables", "--out", str(cached)]) == 0   # reuses cache
    assert (fresh / "observables.json").read_bytes() == \
        (cached / "observables.json").read_bytes()


def test_import_does_not_load_the_process_pool():
    # only scan runs a process pool, so importing the CLI leaves it unloaded
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = "import json, sys, inflatonlab.cli; print(json.dumps(sorted(sys.modules)))"
    modules = json.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                        capture_output=True, text=True, check=True).stdout)
    assert "inflatonlab.cli" in modules
    assert "concurrent.futures.process" not in modules
