"""Command-line front end.

Subcommands: table1, figs, observables, modes, mubound, toy, scan.
Global flags: --config PATH, --out DIR, --gravity quantum|classical,
--no-cache.
Exit codes: 0 success, 1 contract violation, 2 invalid configuration.
`scan` runs its points in parallel on the machine's CPUs and writes the
same bytes as a serial run.

All floating-point output is pinned to 6 significant digits so identical
configurations produce byte-identical files; every output file goes
through a single writer (the background cache writes its own files).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .background import (DEFAULT_ATOL, DEFAULT_RTOL, DEFAULT_T_END, DEFAULT_T_START,
                         BackgroundSolution, integrate)
from .cache import load_background, save_background
from .config import ConfigError, RunConfig, load_config
from .horizon import CosmoConstants, HorizonExit, solve_exit_reference
from .observables import compare_targets, spectra_report
from .perturbations import GravityMode, integrate_scalar, integrate_tensor
from .svg import line_chart
from .toy_battery import run_battery
from .toymodel import characteristic_fn, auto_k_grid, invert_to_density
from .variance import mu_bound, preset_air_mip, sigma2_per_mu4

# Published reference rows (t/1e-12, phi/1e19, H/1e14, efolds-to-end, ln(H a_I/q_R));
# None marks blanks in the source layout.  Used only for the appended
# comparison report; the computed table always carries our own solution.
REFERENCE_TABLE = [
    (-25.0, 2.66, 2.53, 5083.0, None),
    (-23.0, 3.13, 2.52, 4473.0, None),
    (-21.0, 3.76, 2.50, 3970.0, None),
    (-19.0, 4.51, 2.48, 3173.0, None),
    (-17.0, 5.41, 2.44, 2980.0, None),
    (-15.0, 6.50, 2.39, 2394.0, None),
    (-13.0, 7.79, 2.32, 2323.0, None),
    (-11.0, 9.34, 2.22, 1570.0, None),
    (-9.0, 11.19, 2.07, 1140.0, 116.9),
    (-7.0, 13.39, 1.87, 751.0, 116.8),
    (-5.0, 15.97, 1.57, 406.0, 116.7),
    (-3.0, 18.96, 1.17, 260.0, 116.2),
    (-2.0, 20.59, 0.920, 156.0, 116.1),
    (-1.48, 21.46, 0.775, 115.4, 115.9),
    (-1.0, 22.27, 0.642, 78.0, 115.8),
    (0.0, 23.91, 0.349, 28.0, 114.6),
    (1.0, 25.26, 0.093, 6.0, 113.8),
    (3.0, 25.74, 0.002, 1.0, 110.1),
    (6.0, 25.73, 0.001, 1.0, 99.1),
    (9.0, 25.74, 0.001, 0.0, None),
    (12.0, 25.73, 0.000, 0.0, None),
    (15.0, 25.74, 0.000, None, None),
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.6g}"


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _round_floats(float(obj))
    return obj


class Writer:
    """Single funnel for every file the CLI produces."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)

    def text(self, name: str, content: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.out_dir / name
        p.write_text(content)
        print(f"wrote {p}")
        return p

    def csv(self, name: str, header: list[str], rows: list[list],
            footer_lines: list[str] | None = None) -> Path:
        # csv quotes a cell only where it must, e.g. a failure message with a comma
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [header] + [[_fmt(x) for x in row] for row in rows])
        buf.writelines(f"# {line}\n" for line in footer_lines or ())
        return self.text(name, buf.getvalue())

    def json(self, name: str, obj) -> Path:
        return self.text(name, json.dumps(_round_floats(obj), indent=2,
                                          sort_keys=True) + "\n")


# --- shared pipeline pieces -----------------------------------------------------

def _solve(cfg: RunConfig) -> tuple[BackgroundSolution, CosmoConstants, HorizonExit]:
    """The background (through the cache when it is on), the cosmology
    constants and the pivot's horizon exit: the solve every cosmology
    subcommand starts from."""
    cache_dir = cfg.cache_dir or str(Path(cfg.out_dir) / "cache")
    sol = None
    if cfg.cache:
        sol = load_background(cfg.params(), DEFAULT_T_START, DEFAULT_T_END,
                              DEFAULT_RTOL, DEFAULT_ATOL, cache_dir)
    if sol is None:
        sol = integrate(cfg.params())
        if cfg.cache:
            save_background(sol, cache_dir)
    consts = cfg.cosmo_constants()
    return sol, consts, solve_exit_reference(sol, consts)


def _table_rows(sol: BackgroundSolution, consts: CosmoConstants) -> list[list]:
    rows = []
    for t12, *_ in REFERENCE_TABLE:
        t = t12 * 1e-12
        rows.append([t12, sol.phi(t) / 1e19, sol.hubble(t) / 1e14, sol.efolds_to_end(t),
                     float(np.log(sol.hubble(t) / consts.q_R_over_aI))])
    return rows


# --- subcommands -----------------------------------------------------------------

def cmd_table1(cfg: RunConfig, w: Writer) -> int:
    sol, consts, exit_ = _solve(cfg)
    rows = _table_rows(sol, consts)
    footer = ["comparison against the published reference rows (dev% = computed/reference - 1)"]
    for (t12, rphi, rH, refold, rln), row in zip(REFERENCE_TABLE, rows):
        devs = []
        for label, ref, val in (("phi", rphi, row[1]), ("H", rH, row[2]),
                                ("efolds", refold, row[3]), ("ln", rln, row[4])):
            if ref in (None, 0.0):
                continue
            devs.append(f"{label} {100 * (val / ref - 1):+.2f}%")
        footer.append(f"t={t12:g}: " + ", ".join(devs))
    footer.append(f"computed horizon exit: t_exit = {_fmt(exit_.t_exit / 1e-12)}e-12 "
                  f"GeV^-1, phi = {_fmt(exit_.phi_exit / 1e19)}e19 GeV, "
                  f"H = {_fmt(exit_.H_exit / 1e14)}e14 GeV, "
                  f"efolds-to-end = {_fmt(exit_.efolds_to_end)}")
    w.csv("table1.csv", ["t_1e-12_gev_inv", "phi_1e19_gev", "H_1e14_gev",
                         "efolds_to_end", "ln_H_aI_over_qR"], rows, footer_lines=footer)
    return 0


def cmd_figs(cfg: RunConfig, w: Writer) -> int:
    sol, consts, exit_ = _solve(cfg)
    der = sol.derived
    t_I = sol.end_of_inflation()

    ts = np.linspace(sol.t_start, sol.t_end, 800)
    t12 = ts / 1e-12
    # exit construction: e-folds to the end vs the log of the horizon condition
    ts3 = np.linspace(-10e-12, t_I - 0.02e-12, 600)
    t312 = ts3 / 1e-12
    # (file stem, times, [(CSV column, legend, values)], chart labels)
    figures = (
        ("fig1_phi", t12, [("phi_1e19_gev", "phi(t)/1e19 GeV", sol.phi(ts) / 1e19)],
         dict(title="inflaton background", ylabel="phi / 1e19 GeV",
              markers=[(t12[-1], der.v / 1e19, f"limit {der.v / 1e19:.3g}")])),
        ("fig2_hubble", t12, [("H_1e14_gev", "H(t)/1e14 GeV", sol.hubble(ts) / 1e14)],
         dict(title="expansion rate", ylabel="H / 1e14 GeV",
              markers=[(t12[0], der.hbar_inf / 1e14, f"limit {der.hbar_inf / 1e14:.3g}")])),
        ("fig3_exit", t312,
         [("efolds_to_end", "efolds to end", sol.efolds_to_end(ts3)),
          ("ln_H_aI_over_qR", "ln(H a_I/q_R)", np.log(sol.hubble(ts3) / consts.q_R_over_aI))],
         dict(title="horizon-exit construction", ylabel="e-folds",
              markers=[(exit_.t_exit / 1e-12, exit_.efolds_to_end,
                        f"exit {exit_.t_exit / 1e-12:.3g}")])),
    )
    for stem, x, columns, labels in figures:
        w.csv(f"{stem}.csv", ["t_1e-12_gev_inv"] + [c for c, _, _ in columns],
              np.column_stack([x] + [y for _, _, y in columns]).tolist())
        series = [(legend, x.tolist(), y.tolist()) for _, legend, y in columns]
        w.text(f"{stem}.svg", line_chart(series, xlabel="t / 1e-12 GeV^-1", **labels))
    return 0


def cmd_observables(cfg: RunConfig, w: Writer) -> int:
    _, _, exit_ = _solve(cfg)
    report = spectra_report(cfg.params(), exit_, gravity=GravityMode(cfg.gravity))
    payload = {
        "report": report.to_dict(),
        "targets": compare_targets(report),
        "exit": {
            "t_exit_gev_inv": exit_.t_exit,
            "efolds_to_end": exit_.efolds_to_end,
            "residual": exit_.residual,
        },
    }
    w.json("observables.json", payload)
    d = report.to_dict()
    keys = sorted(d)
    w.csv("observables.csv", keys, [[d[k] for k in keys]])
    return 0


def cmd_modes(cfg: RunConfig, w: Writer) -> int:
    sol, consts, exit_ = _solve(cfg)
    gravity = GravityMode(cfg.gravity)
    report = spectra_report(cfg.params(), exit_, gravity=gravity)
    q = consts.q_R
    sc = integrate_scalar(sol, q, consts, gravity)
    tn = integrate_tensor(sol, q, consts, gravity)

    rows = [[t / 1e-12, c.real, c.imag, p.real, p.imag, x, r.real, r.imag]
            for t, c, p, x, r in zip(sc.t, sc.chi, sc.psi, sc.q_over_aH, sc.R)]
    w.csv("mode_scalar.csv",
          ["t_1e-12_gev_inv", "re_chi", "im_chi", "re_psi", "im_psi",
           "q_over_aH", "re_R", "im_R"], rows)
    rows = [[t / 1e-12, d.real, d.imag, x]
            for t, d, x in zip(tn.t, tn.D, tn.q_over_aH)]
    w.csv("mode_tensor.csv", ["t_1e-12_gev_inv", "re_D", "im_D", "q_over_aH"], rows)

    R2 = abs(sc.R_plateau) ** 2
    D2 = abs(tn.D_plateau) ** 2
    slow_roll_R2 = report.NS2 * q**-3
    targets = compare_targets(report)
    summary = {
        "gravity": gravity.value,
        "q_gev": q,
        "R_plateau_sq": R2,
        "D_plateau_sq": D2,
        "ratio_4D2_over_R2": (4 * D2 / R2) if R2 else None,
        "sixteen_epsilon": 16 * report.epsilon,
        "slow_roll_R2": slow_roll_R2,
        "R2_over_slow_roll": R2 / slow_roll_R2,
        "tensor_wronskian_drift": tn.wronskian_drift,
        "scalar_constraint_residual_max": sc.constraint_residual_max,
        "r": report.r,
        "r_bound": targets["r_bound"],
        "r_bound_satisfied": not targets["r_bound_violated"],
    }
    w.json("modes_summary.json", summary)
    return 0


def cmd_mubound(cfg: RunConfig, w: Writer) -> int:
    exp = replace(preset_air_mip(), dEdx=cfg.experiment.dEdx_gev2)
    per_mu4_composed, per_mu4_literal = sigma2_per_mu4(exp)
    composed, literal = mu_bound(exp, cfg.experiment.sigma2_max)
    composed_alt, literal_alt = mu_bound(exp, cfg.experiment.sigma2_max_alt)
    bounds = (composed, literal, composed_alt, literal_alt)
    payload = {
        "experiment": {
            "gamma_q_gev": exp.gamma_q, "t_bar_gev_inv": exp.t_bar,
            "rho_0_gev4": exp.rho_0, "dEdx_gev2": exp.dEdx, "b_gev_inv": exp.b,
        },
        "sigma2_per_mu4": {
            "composed": per_mu4_composed,
            "literal": per_mu4_literal,
        },
        "mu_bound_gev": {
            "sigma2_max": cfg.experiment.sigma2_max,
            "composed": composed,
            "literal": literal,
            "sigma2_max_alt": cfg.experiment.sigma2_max_alt,
            "composed_alt": composed_alt,
            "literal_alt": literal_alt,
            "bracket": [min(bounds), max(bounds)],
        },
    }
    w.json("mubound.json", payload)
    return 0


def cmd_toy(cfg: RunConfig, w: Writer) -> int:
    model = cfg.toy_model()
    template = cfg.toy_template()
    results = run_battery(n_seeds=cfg.toy.seeds)
    for r in results:
        print(r.line())
    cf = characteristic_fn(model, template, auto_k_grid(model, template))
    ds = invert_to_density(cf)
    w.csv("toy_density.csv", ["theta", "p"],
          [[t, p] for t, p in zip(ds.theta_grids[0], ds.p)])
    w.json("toy_properties.json", {
        "properties": [{"name": r.name, "passed": r.passed, "worst": r.worst,
                        "tolerance": r.tolerance} for r in results],
        "density_normalization": ds.normalization(),
        "density_min": ds.min_value(),
    })
    return 0 if all(r.passed for r in results) else 1


def _scan_row(cfg: RunConfig) -> list:
    """One scan point, solved from its own config without the cache."""
    try:
        sol = integrate(cfg.params())
        exit_ = solve_exit_reference(sol, cfg.cosmo_constants())
        report = spectra_report(cfg.params(), exit_, gravity=GravityMode(cfg.gravity))
        return [cfg.kappa_gev, cfg.lam, report.n_s, report.NS2, report.r, exit_.t_exit, "ok"]
    except Exception as e:   # failures are recorded per row, never fatal
        return [cfg.kappa_gev, cfg.lam, None, None, None, None, f"{type(e).__name__}: {e}"]


def cmd_scan(cfg: RunConfig, w: Writer) -> int:
    # imported here: the process pool costs every other subcommand its start-up
    from concurrent.futures import ProcessPoolExecutor

    sc = cfg.scan
    kappas = np.geomspace(sc.kappa_min, sc.kappa_max, sc.kappa_points)
    lams = np.geomspace(sc.lambda_min, sc.lambda_max, sc.lambda_points)
    # each point is the validated config with its couplings replaced; it
    # pickles, so the process pool takes it as it is, and map keeps job order
    jobs = [replace(cfg, kappa_gev=float(k), lam=float(l)) for k in kappas for l in lams]
    with ProcessPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        rows = list(pool.map(_scan_row, jobs))
    w.csv("scan.csv", ["kappa_gev", "lambda", "n_s", "NS2", "r",
                       "t_exit_gev_inv", "status"], rows)
    return 0


COMMANDS = {
    "table1": cmd_table1,
    "figs": cmd_figs,
    "observables": cmd_observables,
    "modes": cmd_modes,
    "mubound": cmd_mubound,
    "toy": cmd_toy,
    "scan": cmd_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None)
    common.add_argument("--out", metavar="DIR", default=None)
    common.add_argument("--gravity", choices=[m.value for m in GravityMode], default=None)
    common.add_argument("--no-cache", action="store_true")
    parser = argparse.ArgumentParser(
        prog="inflatonlab",
        description="inflaton background, CMB observables, variance bound and "
                    "probability-postulate toy model")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides: dict = {}
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.gravity is not None:
        overrides["gravity"] = args.gravity
    if args.no_cache:
        overrides["cache"] = False
    try:
        cfg = load_config(args.config, overrides)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    writer = Writer(cfg.out_dir)
    try:
        return COMMANDS[args.command](cfg, writer)
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
