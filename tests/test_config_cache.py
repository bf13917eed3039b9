import hashlib
import json
import struct
import tempfile
import zipfile
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inflatonlab as il
from inflatonlab import cache
from inflatonlab.cache import cache_key, cache_path, load_background, save_background
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


def _keys(data: dict, path: str = ""):
    """The keys of a config object, each nested one also as group.key."""
    for key, value in data.items():
        yield path + key
        if isinstance(value, dict):
            yield from _keys(value, f"{path}{key}.")


def test_invalid_values_rejected(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"gravity": "semiclassical"}))
    with pytest.raises(ConfigError, match="gravity"):
        load_config(p)
    # couplings that put phi near v at the fixed start, a kappa whose vacuum
    # energy overflows, the removed output-format, worker, span, tolerance,
    # mode-window, mode-tolerance and Newton-constant keys, the field name
    # behind the "lambda" key, values of the wrong type (a toy matrix as
    # nested rows among them), a non-positive slice duration, scan bound,
    # coupling or experiment value, an empty scan axis, a toy model that
    # breaks its own contract, a toy sweep over no seeds, a toy mu or
    # schedule whose k-grid cannot damp Phi within its point budget or
    # overflows the float range, a cosmology whose constants are not positive
    # and finite: rejected at load, before any solve, with a message that
    # names the key or group of the bad input
    for bad, where in (({"lambda": 1e-30}, "background start: .* start earlier"),
                       ({"kappa_gev": 1e200}, r"background start: kappa\^4/\(4 lambda\)"),
                       ({"format": "xml"}, "unknown config key 'format'"),
                       ({"workers": "2"}, "unknown config key 'workers'"),
                       ({"t_start": -25e-12}, "unknown config key 't_start'"),
                       ({"t_end": 15e-12}, "unknown config key 't_end'"),
                       ({"rtol": 1e-10}, "unknown config key 'rtol'"),
                       ({"atol": 1e-12}, "unknown config key 'atol'"),
                       ({"G_gev_m2": 6.7e-39}, "unknown config key 'G_gev_m2'"),
                       ({"lam": 1.1e-15}, "unknown config key 'lam'"),
                       ({"lambda": 1.05e-15, "lam": 1.1e-15}, "unknown config key 'lam'"),
                       ({"x_start": 200.0}, "unknown config key 'x_start'"),
                       ({"x_end": 0.01}, "unknown config key 'x_end'"),
                       ({"mode_rtol": 1e-10}, "unknown config key 'mode_rtol'"),
                       ({"mode_atol": 1e-12}, "unknown config key 'mode_atol'"),
                       ({"kappa_gev": "8e12"}, "kappa_gev"),
                       ({"toy": {"mu": "x"}}, "toy.mu"),
                       ({"toy": {"schedule": [[1.0]]}}, r"toy.schedule\[0\]"),
                       ({"toy": {"seeds": 1.5}}, "toy.seeds"),
                       ({"toy": {"seeds": 0}}, "toy.seeds"),
                       ({"toy": {"mu": 0}}, "no k-space damping"),
                       ({"toy": {"schedule": [[1e-6, 1.0]]}}, r"would need 2\^13 k-points"),
                       ({"toy": {"schedule": [[1.0, 1e200]]}}, "observable 0: the weight sum"),
                       ({"toy": {"schedule": [[1e-308, 1.0]]}}, "observable 0: k_max"),
                       ({"cache": "no"}, "cache"),
                       ({"d_A_mpc": 12.99}, "unknown config key 'd_A_mpc'"),
                       ({"z_L": -3}, "z_L"),
                       ({"z_L": -1}, "z_L"),
                       ({"q_R_mpc_inv": -0.05}, "q_R_mpc_inv"),
                       ({"q_R_mpc_inv": 0}, "q_R_mpc_inv"),
                       ({"q_R_mpc_inv": 1e-300}, "cosmology"),
                       ({"toy": {"schedule": [[0.0, 1.0]]}},
                        r"toy: slice 0 is \(0\.0, \(1\.0,\)\): it needs a positive duration"),
                       ({"toy": {"schedule": [[1.0, 0.0]]}},
                        "toy: observable 0 has no k-space damping"),
                       ({"scan": {"kappa_min": -1.0}}, "scan bounds"),
                       ({"scan": {"lambda_points": 0}}, "scan needs"),
                       ({"kappa_gev": -1}, "kappa_gev"),
                       ({"lambda": 0}, "lam"),
                       ({"experiment": {"dEdx_gev2": 0}}, "experiment"),
                       ({"experiment": {"sigma2_max": -1e-3}}, "experiment"),
                       ({"experiment": {"dEdx_gev2": 1e200}},
                        r"experiment.dEdx_gev2: dEdx\^2 must be a normal float"),
                       ({"experiment": {"sigma2_max_alt": 0}}, "experiment.sigma2_max_alt"),
                       ({"toy": {"mu": -0.5}}, "mu must be nonnegative"),
                       ({"toy": {"hamiltonian": [0, 1, 0, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, 1]}}, "hamiltonian is not self-adjoint"),
                       ({"toy": {"hamiltonian": [0, 0, 0, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, -1]}}, "not positive semidefinite"),
                       ({"toy": {"hamiltonian": [0, None, None, 0], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, 1]}}, "toy.hamiltonian"),
                       ({"toy": {"hamiltonian": [[0, 0], [0, 0]], "observable": [1, 0, 0, -1],
                                 "weight_op": [1, 0, 0, 1]}}, r"toy.hamiltonian\[0\]"),
                       ({"toy": {"weight_op": [1, 0, 0, 1]}}, "toy.hamiltonian required")):
        p.write_text(json.dumps(bad))
        with pytest.raises(ConfigError, match=where) as info:
            load_config(p)
        assert any(key in str(info.value) for key in _keys(bad)), info.value
        assert main(["modes", "--config", str(p), "--out", str(tmp_path)]) == 2
    # a mu so small that the grid would need 2^469 k-points: the count is
    # printed as a power of two, not as a 142-digit integer
    p.write_text(json.dumps({"toy": {"mu": 1e-70}}))
    capsys.readouterr()
    assert main(["mubound", "--config", str(p), "--out", str(tmp_path)]) == 2
    message = capsys.readouterr().err.strip()
    assert "observable 0 would need 2^469 k-points" in message
    assert len(message) < 200


def test_null_cache_dir_puts_the_cache_under_the_output(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"cache_dir": None}))
    assert load_config(p).cache_dir is None
    out = tmp_path / "out"
    assert main(["table1", "--config", str(p), "--out", str(out)]) == 0
    assert [f.suffix for f in (out / "cache").iterdir()] == [".npz"]


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


def test_numpy_scalar_inputs_hit_a_cache_written_with_floats(tmp_path, background, params):
    # the key reads every input as a float: float inputs keep the key of
    # their reprs, a numpy scalar shares the key of the equal float, and
    # numpy-scalar inputs load the file that float inputs wrote
    runs = (background.t_start, background.t_end, background.rtol, background.atol)
    key = cache_key(params, *runs)
    blob = "|".join([f"v{cache.CACHE_VERSION}", il.__version__,
                     *(repr(x) for x in (*astuple(params), *runs))])
    assert key == hashlib.sha256(blob.encode()).hexdigest()[:24]
    params64 = il.PotentialParams(*map(np.float64, astuple(params)))
    assert cache_key(params64, *runs) == key
    for i in range(len(runs)):
        one = list(runs)
        one[i] = np.float64(one[i])
        assert cache_key(params, *one) == key
    save_background(background, tmp_path)
    assert load_background(params64, *map(np.float64, runs), tmp_path) is not None


def test_cache_round_trip(tmp_path, background, params):
    path = save_background(background, tmp_path)
    # the npz is renamed into place: no temp file is left behind
    assert list(tmp_path.iterdir()) == [path]
    # and stored, not deflated: compression saves 13% at twenty times the write time
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
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

    monkeypatch.setattr(np, "savez", fail)
    with pytest.raises(OSError, match="disk full"):
        save_background(background, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_corrupt_cache_falls_back(tmp_path, background, params):
    def load():
        return load_background(params, background.t_start, background.t_end,
                               background.rtol, background.atol, tmp_path)

    # one flipped byte inside a stored member: there is no deflate stream to
    # fail on, so the ZIP CRC-32 is what turns it into a miss
    path = save_background(background, tmp_path)
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo("coef.npy")
    raw = bytearray(path.read_bytes())
    # the member's data follow its 30-byte local header, name and extra field
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert load() is None
    path.write_bytes(b"garbage")
    assert load() is None


def test_compressed_cache_still_loads(tmp_path, background, params):
    # files written with np.savez_compressed load bit-identically
    path = cache_path(tmp_path, cache_key(params, background.t_start, background.t_end,
                                          background.rtol, background.atol))
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **background.to_arrays())
    loaded = load_background(params, background.t_start, background.t_end,
                             background.rtol, background.atol, tmp_path)
    assert loaded is not None
    assert loaded.t_I == background.t_I
    expected, got = background.to_arrays(), loaded.to_arrays()
    assert got.keys() == expected.keys()
    assert all(np.array_equal(got[name], expected[name]) for name in expected)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)

_SCALARS = {
    "float": st.floats(), "int": st.integers(), "bool": st.booleans(),
    "str": st.sampled_from(["csv", "json", "quantum", "classical"]) | st.text(max_size=8),
}


def _of_type(ftype: str):
    """JSON values of a field annotation's own type, read in the grammar
    config._typed reads: a scalar of _SCALARS, list[...], tuple[...] and
    "| None"; a toy matrix has up to 9 entries, a schedule up to 3 slices."""
    base, _, rest = ftype.partition(" | ")
    if rest == "None":
        return st.none() | _of_type(base)
    if base.startswith("list["):
        return st.lists(_of_type(base[5:-1]), max_size=9 if base == "list[float]" else 3)
    if base.startswith("tuple["):
        return st.tuples(*map(_of_type, base[6:-1].split(", "))).map(list)
    return _SCALARS[base]


def _config_object(cls):
    """JSON objects for a config class: mostly its own keys with values of
    their own type, mixed with arbitrary JSON values and unknown keys."""
    types = {f.name: f.type for f in fields(cls)}
    types.update({alias: types[name] for alias, name in getattr(cls, "_ALIASES", {}).items()})

    def entry(key):
        if key in _GROUPS:
            value = _config_object(_GROUPS[key])
        else:
            value = _of_type(types[key])
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
