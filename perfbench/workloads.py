"""The four benchmark workloads.

Each workload turns its seed into inputs once, then runs passes over them:
one client, items in sequence, in one process (a closed loop).  A pass
repeats the same inputs, so every pass does the same work.  Inputs are drawn
by stratified sampling, mirrored where the cost follows the input, which
keeps the cost of a pass nearly the same from seed to seed while the seed
still decides every input.

Every tolerance checked here is an existing contract of the code or its
tests; see README.md for where each one comes from.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np

from inflatonlab import cli, toy_battery
from inflatonlab import toymodel as tm
from inflatonlab.background import (DEFAULT_ATOL, DEFAULT_RTOL, DEFAULT_T_END,
                                    DEFAULT_T_START, integrate)
from inflatonlab.cache import load_background, save_background
from inflatonlab.config import ScanConfig
from inflatonlab.horizon import (DEFAULT_CONSTANTS, solve_exit_general,
                                 solve_exit_reference)
from inflatonlab.observables import spectra_report
from inflatonlab.perturbations import GravityMode, integrate_scalar, integrate_tensor
from inflatonlab.potential import PotentialParams

HERE = Path(__file__).resolve().parent
QUANTUM = GravityMode.QUANTUM
CONSTS = DEFAULT_CONSTANTS

# tolerances, each from an existing contract
EXIT_RESIDUAL_TOL = 1e-6        # horizon.HorizonExit docstring
WRONSKIAN_TOL = 1e-6            # tests/test_perturbations.py
CONSTRAINT_TOL = 1e-3           # tests/test_perturbations.py, at the pivot q_R
TILT_TOL = 1e-3                 # mode plateaus against slow roll
NORM_TOL = 1e-6                 # toy_battery.check_normalization
TRACE_TOL = 1e-8                # toy_battery.check_reduction
K_TAIL = 1e-10                  # toymodel.invert_to_density default tail


def _antithetic_strata(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws in [lo, hi] (n even): one per stratum of the lower half, each
    mirrored about the centre.  A cost that grows smoothly across the range
    then sums to nearly the same value for every seed.
    """
    width = (hi - lo) / n
    half = lo + width * (np.arange(n // 2) + rng.uniform(size=n // 2))
    return np.concatenate([half, lo + hi - half])


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _horizon_counters(p, sol, exit_) -> None:
    """Grid nodes the exit solver scans, and how many lie before the crossing."""
    grid = sol.grid_times
    scanned = grid[(grid >= sol.t_start) & (grid < sol.t_I)]
    p.add("horizon.nodes_scanned", scanned.size)
    p.add("horizon.nodes_useful", int(np.count_nonzero(scanned <= exit_.t_exit)))
    p.peak("horizon.exit_residual_max", abs(exit_.residual))
    p.check(abs(exit_.residual) < EXIT_RESIDUAL_TOL,
            f"exit residual {exit_.residual:.2e} >= {EXIT_RESIDUAL_TOL:g}")


class CliSession:
    """table1, figs, observables, modes, mubound at the default config.

    Each pass starts in a fresh, empty output directory with the cache on:
    table1 solves and writes the npz cache, the other commands read it.
    The seed is not used: the CLI runs the paper's default configuration.
    """

    COMMANDS = ("table1", "figs", "observables", "modes", "mubound")

    def __init__(self, seed: int, small: bool, scratch: Path):
        self.scratch = scratch
        self.ref = json.loads((HERE / "reference.json").read_text())

    def run_pass(self, p) -> None:
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            for cmd in self.COMMANDS:
                with p.item("cli_" + cmd) as it:
                    err = io.StringIO()
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(err), p.span("cli." + cmd, it):
                        rc = cli.main([cmd, "--out", str(out)])
                    p.check(rc == 0, f"exit code {rc}: {err.getvalue().strip()}")
                    if rc == 0:
                        getattr(self, "_check_" + cmd)(p, out)
            p.add("cli.bytes_written", _tree_bytes(out))
            p.add("cache.bytes", _tree_bytes(out / "cache"))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _same(self, p, what: str, got, want) -> None:
        p.check(got == want, f"{what} = {got!r}, reference {want!r}")

    def _check_table1(self, p, out: Path) -> None:
        lines = (out / "table1.csv").read_text().splitlines()
        rows = [ln for ln in lines[1:] if not ln.startswith("#")]
        self._same(p, "table1 rows", rows, self.ref["table1_rows"])

    def _check_figs(self, p, out: Path) -> None:
        for name in ("fig1_phi", "fig2_hubble", "fig3_exit"):
            for ext in (".csv", ".svg"):
                p.check((out / (name + ext)).is_file(), f"{name}{ext} missing")

    def _check_observables(self, p, out: Path) -> None:
        d = json.loads((out / "observables.json").read_text())
        got = {"n_s": d["report"]["n_s"], "NS2": d["report"]["NS2"],
               "r": d["report"]["r"], "t_exit_gev_inv": d["exit"]["t_exit_gev_inv"]}
        self._same(p, "observables", got, self.ref["observables"])

    def _check_modes(self, p, out: Path) -> None:
        d = json.loads((out / "modes_summary.json").read_text())
        self._same(p, "R2_over_slow_roll", d["R2_over_slow_roll"],
                   self.ref["R2_over_slow_roll"])
        p.check(d["tensor_wronskian_drift"] < WRONSKIAN_TOL, "tensor Wronskian drift")
        p.check(d["scalar_constraint_residual_max"] < CONSTRAINT_TOL,
                "scalar constraint residual at q_R")

    def _check_mubound(self, p, out: Path) -> None:
        d = json.loads((out / "mubound.json").read_text())
        self._same(p, "mu bracket", d["mu_bound_gev"]["bracket"], self.ref["mu_bracket"])


class KbandModes:
    """One background serves scalar and tensor modes across a wavenumber band.

    Two wavenumbers q_R 10^(-x) and q_R 10^(+x), with x drawn in [0.2, 1]:
    both lie in [q_R/10, 10 q_R], and the fitted tilts belong to q_R, where
    slow roll is evaluated.  The 0.4-decade minimum lever arm keeps the fit
    well conditioned: the plateaus agree with slow roll to about 5e-5, which
    then costs at most ~1e-4 of the 1e-3 tilt tolerance.  Mode cost does not
    depend on q (the solver takes the same steps across the band).
    """

    def __init__(self, seed: int, small: bool, scratch: Path):
        rng = np.random.default_rng(seed)
        self.scratch = scratch
        self.params = PotentialParams()
        x = rng.uniform(0.2, 1.0)
        self.qs = CONSTS.q_R * 10.0 ** np.array([-x, x])

    def run_pass(self, p) -> None:
        cache_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        sol = report = None
        try:
            with p.item("background") as it:
                with p.span("background.integrate", it):
                    built = integrate(self.params)
                p.add("background.storage_nodes", built.tau.size)
                with p.span("cache.save", it):
                    path = save_background(built, cache_dir)
                p.add("cache.bytes", path.stat().st_size)
                with p.span("cache.load", it):
                    loaded = load_background(self.params, built.t_start, built.t_end,
                                             built.rtol, built.atol, cache_dir)
                if loaded is None:
                    raise RuntimeError("cache miss right after save")
                # the exit is a function of the stored arrays and t_I alone
                same = loaded.t_I == built.t_I and all(
                    np.array_equal(a, b) for a, b in
                    zip(loaded.to_arrays().values(), built.to_arrays().values()))
                p.check(same, "loaded background differs from the integrated one")
                with p.span("horizon.solve_exit", it):
                    exit_ = solve_exit_reference(loaded, CONSTS)
                _horizon_counters(p, loaded, exit_)
                with p.span("observables.report", it):
                    report = spectra_report(self.params, exit_, gravity=QUANTUM)
                sol = loaded
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

        plateaus = []
        for q in self.qs:
            with p.item("mode_pair") as it:
                if sol is None:
                    raise RuntimeError("no background")
                with p.span("perturbations.scalar", it):
                    sc = integrate_scalar(sol, q, CONSTS, gravity=QUANTUM)
                with p.span("perturbations.tensor", it):
                    tn = integrate_tensor(sol, q, CONSTS, gravity=QUANTUM)
                grid = sol.grid_times
                p.add("perturbations.nodes_before_end",
                      np.count_nonzero((grid > sol.t_start) & (grid < sol.t_I)))
                p.add("perturbations.nodes_in_window",
                      np.count_nonzero((grid >= sc.t_start) & (grid <= sc.t_end)))
                p.peak("perturbations.constraint_residual_max", sc.constraint_residual_max)
                p.peak("perturbations.wronskian_drift_max", tn.wronskian_drift)
                p.check(tn.wronskian_drift < WRONSKIAN_TOL,
                        f"Wronskian drift {tn.wronskian_drift:.2e} at q/q_R = {q / CONSTS.q_R:.3g}")
                plateaus.append((math.log(q), math.log(abs(sc.R_plateau) ** 2),
                                 math.log(abs(tn.D_plateau) ** 2)))

        with p.item("tilt_fit"):
            if len(plateaus) < 2 or report is None:
                raise RuntimeError("too few mode plateaus to fit")
            lq, lr, ld = np.array(plateaus).T
            # |R|^2 ~ q^(n_s - 4) and |D|^2 ~ q^(n_T - 3)
            n_s = np.polyfit(lq, lr, 1)[0] + 4
            n_T = np.polyfit(lq, ld, 1)[0] + 3
            ds, dt = abs(n_s - report.n_s), abs(n_T - report.n_T)
            p.peak("perturbations.ns_fit_err", ds)
            p.peak("perturbations.nt_fit_err", dt)
            p.check(ds <= TILT_TOL, f"|n_s fit - slow roll| = {ds:.2e}")
            p.check(dt <= TILT_TOL, f"|n_T fit - slow roll| = {dt:.2e}")


class ParamScan:
    """New background per (kappa, lambda) point: integrate, exit, report.

    These are the calls `cli._scan_row` makes.  Points form an antithetic
    Latin hypercube in log kappa and log lambda over the CLI's default scan
    box: the storage grid, and with it the cost of a point, grows as about
    kappa^1.7, so mirrored pairs keep the cost of a pass within about 1% from
    seed to seed.
    """

    def __init__(self, seed: int, small: bool, scratch: Path):
        rng = np.random.default_rng(seed)
        box = ScanConfig()
        n = 2 if small else 4
        lk = _antithetic_strata(rng, math.log(box.kappa_min), math.log(box.kappa_max), n)
        ll = _antithetic_strata(rng, math.log(box.lambda_min), math.log(box.lambda_max), n)
        order = rng.permutation(n // 2)      # pair kappa and lambda strata at random
        ll = np.concatenate([ll[: n // 2][order], ll[n // 2:][order]])
        self.points = [(math.exp(a), math.exp(b)) for a, b in zip(lk, ll)]

    def run_pass(self, p) -> None:
        for kappa, lam in self.points:
            with p.item("scan_point") as it:
                params = PotentialParams(kappa=kappa, lam=lam)
                with p.span("background.integrate", it):
                    sol = integrate(params, DEFAULT_T_START, DEFAULT_T_END,
                                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL)
                p.add("background.storage_nodes", sol.tau.size)
                with p.span("horizon.solve_exit", it):
                    exit_ = solve_exit_general(sol, CONSTS.q_R_over_aI)
                _horizon_counters(p, sol, exit_)
                with p.span("observables.report", it):
                    report = spectra_report(params, exit_, gravity=QUANTUM)
                p.check(all(math.isfinite(x) for x in (report.n_s, report.NS2, report.r)),
                        "non-finite report")


class ToyPostulate:
    """The nine battery properties, then seeded models through the toy pipeline.

    1-observable models (dims 2-4) go through auto_k_grid, characteristic_fn
    and invert_to_density.  2-observable dim-2 models (max_points=256) also
    go through marginalize; one is drawn per grid class, 64x64 and 128x128,
    so every pass has 20,480 2-observable k-points whatever the seed.
    Pointer-sector models go through reduce_state.
    """

    GRID_CLASSES = (4096, 16384)

    def __init__(self, seed: int, small: bool, scratch: Path):
        rng = np.random.default_rng(seed)
        n1, n_ptr = (3, 1) if small else (6, 4)
        draw = lambda: int(rng.integers(0, 2**31 - 1))
        self.ones = [tm.random_model(seed=draw(), dim=2 + i % 3) for i in range(n1)]
        self.twos = []
        classes = self.GRID_CLASSES[:1] if small else self.GRID_CLASSES
        for size in classes:
            while True:
                model = tm.random_model(seed=draw(), dim=2, n_obs=2)
                grids = tm.auto_k_grid(model, max_points=256)
                if len(grids[0]) * len(grids[1]) == size:
                    self.twos.append(model)
                    break
        self.pointers = [(tm.pointer_random_model(seed=draw()), float(rng.uniform(-1, 1)))
                         for _ in range(n_ptr)]

    def run_pass(self, p) -> None:
        toy_battery._sweep_stats.cache_clear()   # each pass pays the shared sweep
        for fn in toy_battery.BATTERY:
            with p.item("property") as it:
                with p.span("toy_battery." + fn.__name__.removeprefix("check_"), it):
                    r = fn(50) if fn in toy_battery._SEEDED else fn()
                p.add("toy_battery.passed", int(r.passed))
                p.check(r.passed, r.line())

        for model in self.ones:
            with p.item("density_1obs") as it:
                with p.span("toymodel.auto_k_grid", it):
                    grids = tm.auto_k_grid(model)
                with p.span("toymodel.cf_1obs", it):
                    cf = tm.characteristic_fn(model, None, grids)
                self._cf_counters(p, cf, "toymodel.kpoints_1obs")
                self._density(p, cf, it)

        for model in self.twos:
            with p.item("density_2obs") as it:
                with p.span("toymodel.auto_k_grid", it):
                    grids = tm.auto_k_grid(model, max_points=256)
                with p.span("toymodel.cf_2obs", it):
                    cf = tm.characteristic_fn(model, None, grids)
                self._cf_counters(p, cf, "toymodel.kpoints_2obs")
                ds = self._density(p, cf, it)
                with p.span("toymodel.marginalize", it):
                    marg = tm.marginalize(ds, keep=[0])
                err = abs(marg.normalization() - 1.0)
                p.check(err < NORM_TOL, f"marginal normalization off by {err:.2e}")

        for model, theta in self.pointers:
            with p.item("reduce_state") as it:
                with p.span("toymodel.auto_k_grid", it):
                    grids = tm.auto_k_grid(model)
                with p.span("toymodel.reduce_state", it):
                    red = tm.reduce_state(model, None, [theta], k_grids=grids)
                kpoints = math.prod(len(g) for g in grids)
                p.add("toymodel.reduce_kpoints", kpoints)
                p.add("toymodel.expm_calls", 2 * kpoints)   # one slice per k-point
                p.check(red.trace_defect < TRACE_TOL,
                        f"reduced-state trace defect {red.trace_defect:.2e}")

    @staticmethod
    def _cf_counters(p, cf, name: str) -> None:
        size = cf.samples.size
        p.add(name, size)
        # _slice_factors makes two expm calls per slice per k-point
        p.add("toymodel.expm_calls", 2 * len(cf.template) * size)
        p.add("toymodel.kpoints_all", size)
        p.add("toymodel.kpoints_useful", int(np.count_nonzero(np.abs(cf.samples) > K_TAIL)))

    @staticmethod
    def _density(p, cf, it):
        with p.span("toymodel.invert", it):
            ds = tm.invert_to_density(cf)
        p.peak("toymodel.imag_residual_max", ds.imag_residual)
        err = abs(ds.normalization() - 1.0)
        p.check(err < NORM_TOL, f"density normalization off by {err:.2e}")
        return ds


WORKLOADS = {
    "cli_session": CliSession,
    "kband_modes": KbandModes,
    "param_scan": ParamScan,
    "toy_postulate": ToyPostulate,
}
