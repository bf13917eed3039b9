import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inflatonlab as il
from inflatonlab import cache
from inflatonlab.cache import cache_key, load_background, save_background
from inflatonlab.cli import main
from inflatonlab.config import _GROUPS, ConfigError, RunConfig, load_config


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.params().kappa == 8.38e12
    assert cfg.gravity == "quantum"


def test_load_from_file(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"kappa_gev": 9e12, "lambda": 1.1e-15,
                             "scan": {"kappa_points": 2}}))
    cfg = load_config(p)
    assert cfg.params().kappa == 9e12
    assert cfg.params().lam == 1.1e-15
    assert cfg.scan.kappa_points == 2


def test_unknown_key_rejected_with_location(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"kapa_gev": 9e12}))
    with pytest.raises(ConfigError, match="kapa_gev"):
        load_config(p)
    p.write_text(json.dumps({"scan": {"kappa_pts": 2}}))
    with pytest.raises(ConfigError, match="scan.kappa_pts"):
        load_config(p)


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(p)


def test_invalid_values_rejected(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"gravity": "semiclassical"}))
    with pytest.raises(ConfigError, match="gravity"):
        load_config(p)
    p.write_text(json.dumps({"format": "xml"}))
    with pytest.raises(ConfigError, match="format"):
        load_config(p)
    # empty integration span, inverted mode window, values of the wrong
    # type, tolerances the solver would silently replace, a non-positive
    # window end, slice duration, scan bound, coupling or experiment value,
    # an empty scan axis, a toy model that breaks its own contract, a toy
    # sweep over no seeds, a toy mu or schedule whose k-grid cannot damp Phi
    # within its point budget or overflows the float range: rejected at load,
    # before any solve
    for bad, where in (({"t_start": 0.0, "t_end": -1e-12}, "t_start"),
                       ({"x_start": 0.001}, "x_start"),
                       ({"x_end": "0.01"}, "x_end"),
                       ({"kappa_gev": "8e12"}, "kappa_gev"),
                       ({"workers": "2"}, "workers"),
                       ({"toy": {"mu": "x"}}, "toy.mu"),
                       ({"toy": {"schedule": [[1.0]]}}, r"toy.schedule\[0\]"),
                       ({"toy": {"seeds": 1.5}}, "toy.seeds"),
                       ({"toy": {"seeds": 0}}, "toy.seeds"),
                       ({"toy": {"mu": 0}}, "no k-space damping"),
                       ({"toy": {"schedule": [[1e-6, 1.0]]}}, r"would need 2\^13 k-points"),
                       ({"toy": {"schedule": [[1.0, 1e200]]}}, "observable 0: the weight sum"),
                       ({"toy": {"schedule": [[1e-308, 1.0]]}}, "observable 0: k_max"),
                       ({"cache": "no"}, "cache"),
                       ({"rtol": 0}, "rtol"),
                       ({"rtol": 1e-16}, "rtol"),
                       ({"atol": -1e-12}, "atol"),
                       ({"mode_rtol": -1e-10}, "mode_rtol"),
                       ({"mode_atol": 0}, "mode_atol"),
                       ({"x_end": -0.01}, "x_end"),
                       ({"toy": {"schedule": [[0.0, 1.0]]}}, "toy.schedule"),
                       ({"toy": {"schedule": [[1.0, 0.0]]}}, "toy.schedule"),
                       ({"scan": {"kappa_min": -1.0}}, "scan bounds"),
                       ({"scan": {"lambda_points": 0}}, "scan needs"),
                       ({"kappa_gev": -1}, "kappa_gev"),
                       ({"lambda": 0}, "lam"),
                       ({"G_gev_m2": 0}, "G_gev_m2"),
                       ({"experiment": {"dEdx_gev2": 0}}, "experiment"),
                       ({"experiment": {"sigma2_max": -1e-3}}, "experiment"),
                       ({"experiment": {"dEdx_gev2": 1e200}}, "dEdx_gev2"),
                       ({"toy": {"mu": -0.5}}, "mu must be nonnegative"),
                       ({"toy": {"hamiltonian": [0, 1, 0, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, 1]}}, "hamiltonian is not self-adjoint"),
                       ({"toy": {"hamiltonian": [0, 0, 0, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, -1]}}, "not positive semidefinite"),
                       ({"toy": {"hamiltonian": [0, None, None, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, 1]}}, "toy.hamiltonian"),
                       ({"toy": {"weight_op": [1, 0, 0, 1]}}, "toy.hamiltonian required")):
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=where):
            load_config(p)
        assert main(["modes", "--config", str(p), "--out", str(tmp_path)]) == 2
    # a mu so small that the grid would need 2^469 k-points: the count is
    # printed as a power of two, not as a 142-digit integer
    p.write_text(json.dumps({"toy": {"mu": 1e-70}}))
    capsys.readouterr()
    assert main(["mubound", "--config", str(p), "--out", str(tmp_path)]) == 2
    message = capsys.readouterr().err.strip()
    assert "observable 0 would need 2^469 k-points" in message
    assert len(message) < 200


def test_toy_model_from_config(tmp_path):
    p = tmp_path / "toy.json"
    p.write_text(json.dumps({"toy": {
        "mu": 0.7,
        "hamiltonian": [0, 0, 0, 0],
        "observable": [1, 0, 0, -1],
        "weight_op": [1, 0, 0, 1],
        "schedule": [[1.0, 1.0]],
    }}))
    cfg = load_config(p)
    model = cfg.toy_model()
    assert model.dim == 2
    assert model.mu == 0.7
    assert cfg.toy_template() == ((1.0, (1.0,)),)


def test_toy_matrix_not_square(tmp_path):
    # the toy dimension comes from the matrices, so their length must be a square
    p = tmp_path / "toy.json"
    p.write_text(json.dumps({"toy": {
        "hamiltonian": [0, 0, 0],
        "observable": [1, 0, 0, -1],
        "weight_op": [1, 0, 0, 1],
    }}))
    with pytest.raises(ConfigError, match="square"):
        load_config(p).toy_model()
    assert main(["toy", "--config", str(p), "--out", str(tmp_path)]) == 2
    p.write_text(json.dumps({"toy": {
        "hamiltonian": [0] * 9,
        "observable": [1, 0, 0, -1],
        "weight_op": [1, 0, 0, 1],
    }}))
    with pytest.raises(ConfigError, match="differ"):
        load_config(p).toy_model()
    # a non-numeric entry is a config error, not a conversion traceback
    p.write_text(json.dumps({"toy": {
        "hamiltonian": ["x", 0, 0, 0],
        "observable": [1, 0, 0, -1],
        "weight_op": [1, 0, 0, 1],
    }}))
    with pytest.raises(ConfigError, match="toy.hamiltonian"):
        load_config(p).toy_model()
    assert main(["toy", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_cache_key_sensitivity(params, monkeypatch):
    k1 = cache_key(params, -25e-12, 15e-12, 1e-10, 1e-12)
    k2 = cache_key(params, -25e-12, 15e-12, 1e-10, 1e-13)
    p2 = il.PotentialParams(kappa=params.kappa * (1 + 1e-12))
    k3 = cache_key(p2, -25e-12, 15e-12, 1e-10, 1e-12)
    # another package version never reads this version's files
    monkeypatch.setattr(cache, "__version__", il.__version__ + ".post1")
    k4 = cache_key(params, -25e-12, 15e-12, 1e-10, 1e-12)
    assert len({k1, k2, k3, k4}) == 4


def test_cache_round_trip(tmp_path, background, params):
    path = save_background(background, tmp_path)
    # the npz is renamed into place: no temp file is left behind
    assert list(tmp_path.iterdir()) == [path]
    loaded = load_background(params, background.t_start, background.t_end,
                             background.rtol, background.atol, tmp_path)
    assert loaded is not None
    ts = np.linspace(-20e-12, 10e-12, 25)
    assert np.array_equal(loaded.phi(ts), background.phi(ts))
    assert np.array_equal(loaded.hubble(ts), background.hubble(ts))
    # a different key misses
    assert load_background(params, -26e-12, 15e-12, background.rtol,
                           background.atol, tmp_path) is None


def test_cached_and_fresh_downstream_identical(tmp_path, background, params, consts):
    save_background(background, tmp_path)
    loaded = load_background(params, background.t_start, background.t_end,
                             background.rtol, background.atol, tmp_path)
    e1 = il.solve_exit_reference(background, consts)
    e2 = il.solve_exit_reference(loaded, consts)
    r1 = il.spectra_report(params, e1)
    r2 = il.spectra_report(params, e2)
    assert r1.to_dict() == r2.to_dict()


def test_failed_cache_write_leaves_nothing(tmp_path, background, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", fail)
    with pytest.raises(OSError, match="disk full"):
        save_background(background, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_corrupt_cache_falls_back(tmp_path, background, params):
    path = save_background(background, tmp_path)
    path.write_bytes(b"garbage")
    assert load_background(params, background.t_start, background.t_end,
                           background.rtol, background.atol, tmp_path) is None


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)

# values of each field annotation's own type; toy matrices have 1, 4 or 9 entries
_OF_TYPE = {
    "float": st.floats(), "int": st.integers(), "bool": st.booleans(),
    "str": st.sampled_from(["csv", "json", "quantum", "classical"]) | st.text(max_size=8),
    "list": st.lists(st.floats(), max_size=9),
    "list[tuple[float, float]]": st.lists(st.lists(st.floats(), min_size=2, max_size=2),
                                          max_size=3),
}


def _config_object(cls):
    """JSON objects for a config class: mostly its own keys with values of
    their own type, mixed with arbitrary JSON values and unknown keys."""
    types = {f.name: f.type for f in fields(cls)}
    types.update({alias: types[name] for alias, name in getattr(cls, "_ALIASES", {}).items()})

    def entry(key):
        if key in _GROUPS:
            value = _config_object(_GROUPS[key])
        else:
            value = _OF_TYPE[types[key].partition(" | ")[0]]
        return st.tuples(st.just(key), value | _JSON)

    known = st.sampled_from(sorted(types)).flatmap(entry)
    return st.lists(known | st.tuples(st.text(max_size=8), _JSON), max_size=4).map(dict)


@settings(max_examples=150)
@given(data=_config_object(RunConfig))
def test_any_json_config_loads_or_exits_2(data):
    # every check runs at load: a config is either valid for the run or a
    # config error with exit 2, never a contract violation or a traceback
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "fuzz.json"
        path.write_text(json.dumps(data))
        assert main(["mubound", "--config", str(path), "--out", d]) in (0, 2)
