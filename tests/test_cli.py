import contextlib
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wgqed.cli import main, parse_theta
from wgqed.io import read_columns
from wgqed.solver import SolverError


@pytest.fixture(autouse=True)
def frozen_clock(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def test_parse_theta_forms():
    assert parse_theta("pi") == math.pi
    assert parse_theta("0.95pi") == 0.95 * math.pi
    assert parse_theta("pi/2") == math.pi / 2
    assert parse_theta("2pi/3") == 2 * math.pi / 3
    assert parse_theta("2*pi") == 2 * math.pi
    assert parse_theta(" 1.5 ") == 1.5
    assert parse_theta(1.5) == 1.5
    import argparse
    for bad in ("about pi", "2pi/0", "nan", "inf", "-inf"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_theta(bad)


def test_spectrum_smoke(tmp_path):
    out = tmp_path / "spec.dat"
    code = main(["spectrum", "--n-sites", "10", "--filling", "0.5",
                 "--samples", "3", "--seed", "7", "--delta-min", "-2",
                 "--delta-max", "2", "--delta-steps", "5",
                 "--out", str(out)])
    assert code == 0
    data, meta = read_columns(out)
    assert data["delta"].size == 5
    assert set(data) == {"delta", "T_mean", "T_se", "R_mean", "R_se",
                         "sum_mean"}
    assert meta["master_seed"] == 7
    assert meta["samples_ok"] == 3
    assert meta["config"]["n_sites"] == 10


SMALL_ARGS = {
    "spectrum": ["--n-sites", "10", "--filling", "0.5", "--samples", "2",
                 "--delta-steps", "3"],
    "kd-scan": ["--n-sites", "10", "--filling", "0.5", "--samples", "2",
                "--theta-steps", "3"],
    "filling-scan": ["--n-sites", "10", "--samples", "2", "--p-steps", "2"],
    "rabi": ["--mirror-sites", "4", "--samples", "2", "--t-steps", "5"],
    "g2": ["--n-sites", "8", "--filling", "0.5", "--theta", "0.8",
           "--gamma-prime", "0.1", "--samples", "2", "--tau-steps", "3"],
    "tm-compare": ["--n-sites", "10", "--filling", "0.5", "--delta-steps", "3"],
}
ENSEMBLE_META = ["config", "master_seed", "samples_ok"]
LAYOUT = {
    "spectrum": ("delta(gamma0) T_mean(1) T_se(1) R_mean(1) R_se(1) "
                 "sum_mean(1)", {"delta": "gamma0"}, ENSEMBLE_META),
    "kd-scan": ("theta(rad) depth(1) T_mean(1) T_se(1) R_mean(1) R_se(1)",
                {"theta": "rad", "delta": "gamma0"}, ENSEMBLE_META),
    "filling-scan": ("filling(1) depth(1) T_mean(1) T_se(1) R_mean(1) "
                     "R_se(1)", {"delta": "gamma0"}, ENSEMBLE_META),
    "rabi": ("t(1/gamma0) pe_mean(1) pe_se(1)", {"t": "1/gamma0"},
             ENSEMBLE_META),
    "g2": ("tau(1/gamma0) g2_mean(1) g2_se(1)", {"tau": "1/gamma0"},
           ENSEMBLE_META),
    "tm-compare": ("delta(gamma0) T_markov(1) R_markov(1) T_cascade(1) "
                   "R_cascade(1) dT(1) dR(1)", {"delta": "gamma0"},
                   ["config", "master_seed", "max_dR", "max_dT", "mean_dR",
                    "mean_dT"]),
}


@pytest.mark.parametrize("command", list(LAYOUT))
def test_result_file_layout(tmp_path, command):
    """Column names and order, units and meta keys of every result file."""
    columns_line, units, meta_keys = LAYOUT[command]
    text, structured = tmp_path / "a.dat", tmp_path / "a.json"
    assert main([command, *SMALL_ARGS[command], "--out", str(text)]) == 0
    assert main([command, *SMALL_ARGS[command], "--format", "structured",
                 "--out", str(structured)]) == 0
    lines = text.read_text().splitlines()
    assert [ln for ln in lines if ln.startswith("# columns:")] == [
        "# columns: " + columns_line]
    _, meta = read_columns(text)
    assert sorted(meta) == sorted(meta_keys + ["generated"])
    payload = json.loads(structured.read_text())
    assert payload["units"] == units
    assert sorted(payload["meta"]) == meta_keys
    assert sorted(payload["columns"]) == sorted(
        tok.split("(")[0] for tok in columns_line.split())


def test_empty_lattice_is_transparent(tmp_path):
    out = tmp_path / "spec.dat"
    code = main(["spectrum", "--n-sites", "20", "--filling", "0",
                 "--samples", "2", "--delta-steps", "3", "--out", str(out)])
    assert code == 0
    data, _ = read_columns(out)
    assert np.array_equal(data["T_mean"], np.ones(3))
    assert np.array_equal(data["R_mean"], np.zeros(3))


def test_rabi_without_mirrors_matches_bare_decay(tmp_path):
    out = tmp_path / "rabi.dat"
    code = main(["rabi", "--filling", "0", "--samples", "1",
                 "--gamma-prime", "0.1", "--t-max", "5", "--t-steps", "50",
                 "--out", str(out)])
    assert code == 0
    data, _ = read_columns(out)
    assert np.allclose(data["pe_mean"], np.exp(-1.1 * data["t"]), atol=1e-8)


def test_tm_compare_reports_metrics(tmp_path):
    out = tmp_path / "cmp.dat"
    code = main(["tm-compare", "--n-sites", "20", "--filling", "0.5",
                 "--gamma-prime", "0.1", "--delta-steps", "11",
                 "--out", str(out)])
    assert code == 0
    data, meta = read_columns(out)
    assert "max_dT" in meta and meta["max_dT"] >= 0.0
    assert data["delta"].size == 11


def test_structured_output(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--n-sites", "5", "--samples", "2",
                 "--delta-steps", "3", "--format", "structured",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["columns"]["T_mean"]) == 3


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--flux-capacitor", "1"])
    assert err.value.code == 2


def test_invalid_filling_exits_2(tmp_path):
    code = main(["spectrum", "--filling", "1.5", "--samples", "1",
                 "--out", str(tmp_path / "x.dat")])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["filling-scan", "--n-sites", "5", "--samples", "1", "--p-max", "1.5",
     "--p-steps", "2"],
    ["rabi", "--mirror-sites", "3", "--filling", "1.5", "--samples", "1",
     "--t-steps", "3"],
    ["g2", "--theta", "2pi/0", "--samples", "1"],
    ["spectrum", "--samples", "0"],
    ["spectrum", "--gamma-prime", "-1", "--samples", "1"],
    ["rabi", "--mirror-sites", "0", "--samples", "1"],
    ["spectrum", "--theta", "nan", "--samples", "1"],
    ["g2", "--tau-max", "-1", "--samples", "1"],
    ["g2", "--n-sites", "6", "--filling", "0.5", "--gamma-prime", "0.1",
     "--samples", "1", "--tau-steps", "3", "--tau-max", "nan"],
    ["rabi", "--mirror-sites", "3", "--samples", "1", "--t-steps", "3",
     "--t-max", "-1"],
    ["rabi", "--mirror-sites", "3", "--samples", "1", "--t-steps", "3",
     "--t-max", "nan"],
    ["rabi", "--mirror-sites", "3", "--samples", "1", "--t-steps", "3",
     "--t-max", "inf"],
    ["spectrum", "--n-sites", "6", "--gamma-prime", "0.1", "--samples", "1",
     "--delta-steps", "3", "--delta-min", "nan"],
    ["tm-compare", "--n-sites", "6", "--delta-steps", "3",
     "--delta-max", "inf"],
    ["spectrum", "--n-sites", "6", "--gamma-prime", "nan", "--samples", "1",
     "--delta-steps", "3"],
    ["spectrum", "--n-sites", "6", "--sigma-ih", "nan", "--samples", "1",
     "--delta-steps", "3"],
    ["spectrum", "--n-sites", "6", "--drive-amp", "nan", "--samples", "1",
     "--delta-steps", "3"],
    ["g2", "--n-sites", "6", "--filling", "0.5", "--gamma-prime", "0.1",
     "--samples", "1", "--tau-steps", "3", "--delta", "nan"],
    ["rabi", "--mirror-sites", "3", "--samples", "1", "--t-steps", "3",
     "--gamma-prime", "inf"],
    ["tm-compare", "--n-sites", "6", "--eta", "nan", "--delta-steps", "3"],
    ["tm-compare", "--n-sites", "6", "--eta", "1e308", "--delta-steps", "3"],
    ["spectrum", "--n-sites", "6", "--samples", "1", "--delta-steps", "3",
     "--workers", "0"],
    ["kd-scan", "--n-sites", "6", "--samples", "1", "--theta-steps", "3",
     "--workers", "-5"],
    ["spectrum", "--n-sites", "6", "--samples", "1", "--delta-steps", "0"],
    ["kd-scan", "--n-sites", "6", "--samples", "1", "--theta-steps", "0"],
    ["filling-scan", "--n-sites", "6", "--samples", "1", "--p-steps", "0"],
    ["rabi", "--mirror-sites", "3", "--samples", "1", "--t-steps", "0"],
    ["g2", "--n-sites", "6", "--filling", "0.5", "--gamma-prime", "0.1",
     "--samples", "1", "--tau-steps", "0"],
    ["tm-compare", "--n-sites", "6", "--delta-steps", "0"],
    ["spectrum", "--n-sites", "6", "--samples", "1", "--delta-steps", "3",
     "--seed", "-1"],
    ["tm-compare", "--n-sites", "6", "--delta-steps", "3", "--seed", "-1"],
], ids=["filling-scan-p-max", "rabi-filling", "theta-div-zero", "samples-0",
        "negative-gamma-prime", "mirror-sites-0", "theta-nan",
        "g2-tau-max-negative", "g2-tau-max-nan", "rabi-t-max-negative",
        "rabi-t-max-nan", "rabi-t-max-inf", "spectrum-delta-min-nan",
        "tm-compare-delta-max-inf", "spectrum-gamma-prime-nan",
        "spectrum-sigma-ih-nan", "spectrum-drive-amp-nan", "g2-delta-nan",
        "rabi-gamma-prime-inf", "tm-compare-eta-nan",
        "tm-compare-eta-overflow", "workers-0",
        "workers-negative", "spectrum-delta-steps-0", "kd-scan-theta-steps-0",
        "filling-scan-p-steps-0", "rabi-t-steps-0", "g2-tau-steps-0",
        "tm-compare-delta-steps-0", "spectrum-seed-negative",
        "tm-compare-seed-negative"])
def test_config_errors_exit_2(tmp_path, capsys, args):
    """Bad settings exit 2 before any work: no traceback, no output file."""
    out = tmp_path / "x.dat"
    try:
        code = main([*args, "--out", str(out)])
    except SystemExit as exc:     # rejected by the argument parser
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "two", ""])
def test_bad_workers_variable_exits_2(tmp_path, capsys, monkeypatch, value):
    """WGQED_WORKERS is checked like --workers, not silently replaced."""
    monkeypatch.setenv("WGQED_WORKERS", value)
    out = tmp_path / "x.dat"
    code = main(["spectrum", "--n-sites", "6", "--samples", "1",
                 "--delta-steps", "3", "--out", str(out)])
    assert code == 2
    assert "WGQED_WORKERS" in capsys.readouterr().err
    assert not out.exists()


# Tiny runs of each command, with the flags that take any float: grid
# ends, rates, the detuning, the drive and the retardation.
FLOAT_FLAGS = {
    "g2": (["--n-sites", "6", "--filling", "0.5", "--gamma-prime", "0.1",
            "--samples", "1", "--tau-steps", "3"], ["--tau-max", "--delta"]),
    "rabi": (["--mirror-sites", "3", "--samples", "1", "--t-steps", "3"],
             ["--t-max", "--gamma-prime"]),
    "spectrum": (["--n-sites", "6", "--gamma-prime", "0.1", "--samples", "1",
                  "--delta-steps", "3"],
                 ["--delta-min", "--delta-max", "--sigma-ih", "--drive-amp"]),
    "tm-compare": (["--n-sites", "6", "--delta-steps", "3"],
                   ["--eta", "--gamma-prime", "--delta-max"]),
}


@pytest.mark.filterwarnings("ignore:drive Rabi frequency:UserWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(FLOAT_FLAGS)),
       values=st.lists(st.floats(), min_size=4, max_size=4))
@example(command="rabi", values=[math.nan, 0.0, 0.0, 0.0])
@example(command="tm-compare", values=[math.nan, 0.0, 1.0, 0.0])
@example(command="tm-compare", values=[1e308, 0.0, 1.0, 0.0])
@example(command="spectrum", values=[-1.0, 1.0, 0.0, math.nan])
def test_grid_ends_keep_the_exit_contract(command, values):
    """Any grid end or other float flag, finite or not: exit 0, 2 or 3,
    no traceback, and only finite numbers in a file written with exit 0."""
    args, flags = FLOAT_FLAGS[command]
    _assert_exit_contract([command, *args, *("%s=%r" % pair for pair in
                                             zip(flags, values))])


def _assert_exit_contract(argv):
    """Exit 0, 2 or 3 with no traceback, and a file written with exit 0
    holds at least one data row, all of it finite."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(err):
        out = os.path.join(tmp, "x.dat")
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:     # rejected by the argument parser
            code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            data, _ = read_columns(out)
            assert all(col.size and np.isfinite(col).all()
                       for col in data.values())


# Tiny runs of each command with its integer flags: chain sizes, grid
# point counts, samples and the seed.  Lossy atoms keep every depth finite.
INT_FLAGS = {
    "g2": (["--filling", "0.5", "--gamma-prime", "0.1"],
           ["--n-sites", "--tau-steps", "--samples", "--seed"]),
    "rabi": (["--gamma-prime", "0.1"],
             ["--mirror-sites", "--t-steps", "--samples", "--seed"]),
    "spectrum": (["--gamma-prime", "0.1"],
                 ["--n-sites", "--delta-steps", "--samples", "--seed"]),
    "kd-scan": (["--gamma-prime", "0.1"],
                ["--n-sites", "--theta-steps", "--samples", "--seed"]),
    "filling-scan": (["--gamma-prime", "0.1"],
                     ["--n-sites", "--p-steps", "--samples", "--seed"]),
    "tm-compare": (["--gamma-prime", "0.1"],
                   ["--n-sites", "--delta-steps", "--seed"]),
}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(INT_FLAGS)),
       values=st.lists(st.integers(-2, 8), min_size=4, max_size=4))
@example(command="tm-compare", values=[6, 0, 0, 0])
@example(command="rabi", values=[0, 3, 1, 0])
@example(command="g2", values=[1, 1, 1, -1])
def test_integer_flags_keep_the_exit_contract(command, values):
    """Any small chain size, point count, sample count or seed, including
    zero and negative ones, keeps the exit contract."""
    args, flags = INT_FLAGS[command]
    _assert_exit_contract([command, *args, *("%s=%d" % pair for pair in
                                             zip(flags, values))])


ANGLES = st.one_of(st.floats(), st.sampled_from(
    ["pi", "2pi/3", "0.05pi", "1.95pi", "pi/0", "0pi", "-pi", "1e400pi"]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(bounds=st.lists(ANGLES, min_size=2, max_size=2))
@example(bounds=[math.nan, 1.0])
@example(bounds=["pi", "pi"])
def test_kd_scan_angle_bounds_keep_the_exit_contract(bounds):
    """Any --theta-min and --theta-max, numbers or 'pi' forms."""
    _assert_exit_contract(["kd-scan", "--n-sites", "4", "--gamma-prime", "0.1",
                           "--samples", "1", "--theta-steps", "3",
                           "--theta-min=%s" % (bounds[0],),
                           "--theta-max=%s" % (bounds[1],)])


def test_g2_defaults_beyond_dense_pair_ceiling(tmp_path):
    """The default chain (100 atoms, theta = pi, lossless) has 4950 pairs,
    beyond what a dense pair matrix allows; a lossless Bragg mirror
    reflects pairs as it reflects single photons."""
    out = tmp_path / "g2.dat"
    code = main(["g2", "--port", "reflected", "--samples", "2",
                 "--tau-steps", "20", "--out", str(out)])
    assert code == 0
    data, meta = read_columns(out)
    assert meta["samples_ok"] == 2
    assert np.all(np.isfinite(data["g2_mean"]))
    assert np.allclose(data["g2_mean"], 1.0, rtol=1e-9)


def test_numerical_failure_exits_3(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise SolverError("synthetic failure", condition=1e18)

    monkeypatch.setattr("wgqed.ensemble.spectrum_ensemble", boom)
    code = main(["spectrum", "--samples", "1", "--out",
                 str(tmp_path / "x.dat")])
    assert code == 3


def test_g2_underflow_exits_3_without_writing(tmp_path, capsys):
    out = tmp_path / "g2.dat"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["g2", "--n-sites", "60", "--filling", "1", "--theta",
                     "pi/2", "--gamma-prime", "0.1", "--samples", "2",
                     "--tau-steps", "5", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "g2 not finite" in err
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("wgqed ")


def batch_config(tmp_path):
    cfg = {
        "defaults": {"n_sites": 10, "samples": 2, "seed": 3,
                     "delta_steps": 4, "delta_min": -1, "delta_max": 1},
        "jobs": [
            {"command": "spectrum", "name": "halffill",
             "args": {"filling": 0.5}},
            {"command": "spectrum", "name": "full",
             "args": {"filling": 1.0}},
        ],
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(cfg))
    return path


def test_batch_run_writes_manifest(tmp_path):
    cfg = batch_config(tmp_path)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert [j["name"] for j in manifest["jobs"]] == ["halffill", "full"]
    from wgqed.io import sha256_file
    for job in manifest["jobs"]:
        assert job["sha256"] == sha256_file(job["out"])


def test_batch_run_creates_missing_out_dir(tmp_path):
    cfg = batch_config(tmp_path)
    out_dir = tmp_path / "nested" / "results"
    code = main(["run", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "manifest.json").exists()


def test_batch_run_is_deterministic(tmp_path):
    cfg = batch_config(tmp_path)
    outputs = []
    for name in ("run1", "run2"):
        d = tmp_path / name
        d.mkdir()
        assert main(["run", "--config", str(cfg), "--out-dir", str(d)]) == 0
        outputs.append(sorted(f.read_bytes() for f in d.glob("*.dat")))
    assert outputs[0] == outputs[1]


def test_empty_job_list_writes_manifest_only(tmp_path):
    cfg = tmp_path / "empty.json"
    cfg.write_text('{"jobs": []}')
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["run", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["jobs"] == []
    assert list(out_dir.iterdir()) == [out_dir / "manifest.json"]


def test_malformed_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"no_jobs_here": true}')
    code = main(["run", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert code == 2


def test_missing_config_file_exits_2(tmp_path):
    code = main(["run", "--config", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path)])
    assert code == 2
