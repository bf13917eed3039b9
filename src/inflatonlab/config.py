"""Run configuration: JSON key-value files with strict unknown-key rejection."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .background import DEFAULT_T_START, initial_state
from .constants import KAPPA_DEFAULT, LAMBDA_DEFAULT
from .horizon import DEFAULT_QR_MPC_INV, DEFAULT_Z_L, CosmoConstants
from .perturbations import GravityMode
from .potential import PotentialParams
from .toymodel import InsufficientDecay, ToyModel, auto_k_grid, two_level_model
from .variance import DecayExperiment, mu_bound, preset_air_mip


class ConfigError(ValueError):
    """Malformed configuration; the message carries the offending key path."""


@dataclass
class ScanConfig:
    kappa_min: float = 0.8 * KAPPA_DEFAULT
    kappa_max: float = 1.2 * KAPPA_DEFAULT
    kappa_points: int = 3
    lambda_min: float = 0.8 * LAMBDA_DEFAULT
    lambda_max: float = 1.2 * LAMBDA_DEFAULT
    lambda_points: int = 3


@dataclass
class ToyConfig:
    mu: float = 0.8
    seeds: int = 50
    # row-major real symmetric matrices, dimension from their length; None
    # selects the built-in benchmark
    hamiltonian: list[float] | None = None
    observable: list[float] | None = None
    weight_op: list[float] | None = None
    schedule: list[tuple[float, float]] | None = None    # [[duration, weight], ...]


@dataclass
class ExperimentConfig:
    dEdx_gev2: float = 5e-20
    sigma2_max: float = 1e-3
    # second threshold reading (the quoted consistency level applied to sigma
    # rather than sigma^2); both enter the reported bracket
    sigma2_max_alt: float = 1e-6


@dataclass
class RunConfig:
    kappa_gev: float = KAPPA_DEFAULT
    lam: float = LAMBDA_DEFAULT
    q_R_mpc_inv: float = DEFAULT_QR_MPC_INV
    z_L: float = DEFAULT_Z_L
    gravity: str = "quantum"
    out_dir: str = "out"
    cache: bool = True
    cache_dir: str | None = None
    scan: ScanConfig = field(default_factory=ScanConfig)
    toy: ToyConfig = field(default_factory=ToyConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    # config-file key for the reserved word "lambda"
    _ALIASES = {"lambda": "lam"}

    def params(self) -> PotentialParams:
        return PotentialParams(kappa=self.kappa_gev, lam=self.lam)

    def cosmo_constants(self) -> CosmoConstants:
        return CosmoConstants.from_physical(q_R_mpc_inv=self.q_R_mpc_inv, z_L=self.z_L)

    def decay_experiment(self) -> DecayExperiment:
        return replace(preset_air_mip(), dEdx=self.experiment.dEdx_gev2)

    def validate(self) -> "RunConfig":
        _built("gravity", lambda: GravityMode(self.gravity))
        params = _built("kappa_gev, lambda", self.params)
        _built("q_R_mpc_inv, z_L: cosmology", self.cosmo_constants)
        # the asymptotic start phi = v e^{alpha t_start} must lie deep in the past
        _built("kappa_gev, lambda: background start", lambda: initial_state(params, DEFAULT_T_START))
        sc = self.scan
        if min(sc.kappa_min, sc.kappa_max, sc.lambda_min, sc.lambda_max) <= 0:
            raise ConfigError("scan bounds must be positive")
        if min(sc.kappa_points, sc.lambda_points) < 1:
            raise ConfigError("scan needs at least one point per axis")
        if self.toy.seeds < 1:
            raise ConfigError("toy.seeds must be >= 1")
        decay = _built("experiment.dEdx_gev2", self.decay_experiment)
        _built("experiment.sigma2_max", lambda: mu_bound(decay, self.experiment.sigma2_max))
        _built("experiment.sigma2_max_alt", lambda: mu_bound(decay, self.experiment.sigma2_max_alt))
        # the model's own contract (self-adjoint, PSD, mu in range), then the
        # k-grid the toy command inverts on: a mu or schedule too weak to damp
        # Phi within its point budget fails here, before any battery work, and
        # so does a weight or duration whose grid design overflows
        _built("toy", lambda: auto_k_grid(self.toy_model(), self.toy_template()))
        return self

    def toy_model(self):
        t = self.toy
        if t.hamiltonian is None and t.observable is None and t.weight_op is None:
            return two_level_model(mu=t.mu)

        def mat(rowmajor, name):
            if rowmajor is None:
                raise ConfigError(f"toy.{name} required when any toy matrix is given")
            dim = math.isqrt(len(rowmajor))
            if dim == 0 or dim * dim != len(rowmajor):
                raise ConfigError(f"toy.{name}: {len(rowmajor)} entries do not form a square matrix")
            return np.reshape(rowmajor, (dim, dim))

        H = mat(t.hamiltonian, "hamiltonian")
        return ToyModel(
            hamiltonian=H,
            observables=(mat(t.observable, "observable"),),
            weight_ops=(mat(t.weight_op, "weight_op"),),
            mu=t.mu,
            initial_state=np.eye(len(H)) / len(H),
        )

    def toy_template(self):
        if self.toy.schedule is None:
            return None
        return tuple((dt, (w,)) for dt, w in self.toy.schedule)


_GROUPS = {"scan": ScanConfig, "toy": ToyConfig, "experiment": ExperimentConfig}


def _built(keys: str, build):
    """build() of an object that checks its own inputs, with its ValueError,
    ArithmeticError or InsufficientDecay raised as a ConfigError led by `keys`."""
    try:
        return build()
    except ConfigError:
        raise
    except (ValueError, ArithmeticError, InsufficientDecay) as e:
        raise ConfigError(f"{keys}: {e}") from e


def _typed(value, ftype: str, where: str):
    """value checked against a field annotation such as "float" or
    "list[tuple[float, float]] | None"; ints widen to float.

    The annotations arrive as strings because of the module's
    `from __future__ import annotations`.
    """
    base, _, rest = ftype.partition(" | ")
    if value is None and rest == "None":
        return None
    if base == "float":
        # turns away NaN, inf and ints beyond the float range
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max):
            return float(value)
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    if base == "int":
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if base.startswith("list[") and isinstance(value, list):
        return [_typed(v, base[5:-1], f"{where}[{i}]") for i, v in enumerate(value)]
    if base.startswith("tuple["):
        parts = base[6:-1].split(", ")
        if isinstance(value, list) and len(value) == len(parts):
            return tuple(_typed(v, t, f"{where}[{i}]") for i, (v, t) in enumerate(zip(value, parts)))
        raise ConfigError(f"{where}: expected a list of {len(parts)} entries, got {value!r}")
    if isinstance(value, {"bool": bool, "str": str}.get(base, ())):
        return value
    raise ConfigError(f"{where}: expected {ftype}, got {value!r}")


def _apply(obj, data: dict, path: str = ""):
    types = {f.name: f.type for f in fields(obj)}
    aliases = getattr(obj, "_ALIASES", {})
    # an aliased field is set through its alias alone
    names = {name: name for name in types if name not in aliases.values()} | aliases
    for key, value in data.items():
        name = names.get(key)
        where = f"{path}{key}"
        if name in _GROUPS and isinstance(obj, RunConfig):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            _apply(getattr(obj, name), value, path=f"{where}.")
        elif name is not None:
            setattr(obj, name, _typed(value, types[name], where))
        else:
            raise ConfigError(f"unknown config key {where!r}")
    return obj


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Read a JSON config file; later `overrides` win.  Unknown keys raise."""
    cfg = RunConfig()
    if path is not None:
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON ({e})") from e
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        _apply(cfg, data)
    if overrides:
        _apply(cfg, overrides)
    return cfg.validate()
