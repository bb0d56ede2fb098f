import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import msrisk
from msrisk.benchmark import AssetInstanceConfig, build_asset_instance
from msrisk.cli import main
from msrisk.extensive import extensive_form_marsrm
from msrisk.scenario import preset_preference, projected_builder


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "horizon": 2,
        "assets": 2,
        "lognormal": {"mu": 0.6, "sigma": 0.3, "corr": 0.5},
        "transaction_cost": 0.0,
        "scenarios_per_stage": 4,
        "preference": {"kind": "dirac", "lambda": 0.5, "alpha": 0.5},
        "ambiguity": {"kind": "sampled", "size": 3},
        "spectrum_breakpoints": 10,
        "seed": 2,
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_writes_csv_with_contract_header(tmp_path, config_path, capsys):
    out = tmp_path / "runs"
    code = main(
        [
            "solve",
            "--mode",
            "marsrm",
            "--config",
            str(config_path),
            "--iters",
            "30",
            "--tol",
            "1e-6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    csv_lines = (out / "marsrm_bounds.csv").read_text().splitlines()
    assert csv_lines[0] == "cuts,lower,upper,gap,time_lower_s,time_upper_s"
    assert len(csv_lines) >= 2
    snapshot = json.loads((out / "marsrm_config.json").read_text())
    assert snapshot["seed"] == 2
    assert "lower=" in capsys.readouterr().out


def test_solve_dr_mode(tmp_path, config_path):
    out = tmp_path / "runs"
    code = main(
        [
            "solve",
            "--mode",
            "dr",
            "--config",
            str(config_path),
            "--iters",
            "25",
            "--tol",
            "1e-6",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "dr_bounds.csv").exists()


def test_oracle_prints_value_deterministically(config_path, capsys):
    assert main(["oracle", "--config", str(config_path)]) == 0
    first = capsys.readouterr().out
    assert main(["oracle", "--config", str(config_path)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "extensive-form value" in first


def test_oracle_dr(config_path, capsys):
    assert main(["oracle", "--mode", "dr", "--config", str(config_path)]) == 0
    assert "dr extensive-form value" in capsys.readouterr().out


def test_oracle_preset_mode_uses_the_preset(config_path, capsys):
    # the config's own preference is a dirac; the strong mode replaces it by
    # the strong_averse preset on the config's 10-cell spectrum grid
    assert main(["oracle", "--mode", "strong", "--config", str(config_path)]) == 0
    lattice = build_asset_instance(AssetInstanceConfig.from_json(config_path)).lattice
    pref = preset_preference("strong_averse", spectrum_builder=projected_builder(10))
    want = extensive_form_marsrm(lattice, prefs=pref)
    assert capsys.readouterr().out == f"strong extensive-form value: {want!r}\n"


def test_compare_outputs_table(tmp_path, config_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--config",
            str(config_path),
            "--modes",
            "risk-neutral,marsrm",
            "--iters",
            "25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0] == "mode,iterations,lower,upper,gap,converged"
    assert len(table) == 3


def test_bound_command(config_path, capsys):
    assert main(["bound", "--config", str(config_path), "--lipschitz", "2.0"]) == 0
    out = capsys.readouterr().out
    assert "stage 1: projection error bound" in out
    assert "stage 2: projection error bound" in out


def test_seed_override_changes_instance(tmp_path, config_path, capsys):
    main(["oracle", "--config", str(config_path)])
    base = capsys.readouterr().out
    main(["oracle", "--config", str(config_path), "--seed", "99"])
    other = capsys.readouterr().out
    assert base != other


def test_missing_config_is_usage_error(capsys):
    code = main(["solve", "--config", "/nonexistent/x.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"horizon": 2, "sedd": 3}, "unknown config keys: 'sedd'"),
        ([1, 2], "not list"),
        # a wrong type or a missing key is named, not left to a traceback
        ({"horizon": "2"}, "config key 'horizon' must be an integer, not '2'"),
        ({"horizon": 2, "lognormal": 5}, "config key 'lognormal' must be an object, not 5"),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "preference": 5},
            "config key 'preference' must be an object, not 5",
        ),
        ({"lognormal": {"mu": 0.6, "sigmaa": 9}}, "unknown config keys: 'lognormal.sigmaa'"),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "preference": {"kind": "preset"}},
            "config key 'preference.name' is missing",
        ),
        # a misspelt key inside a preference or ambiguity kind is not ignored
        (
            {
                "horizon": 2,
                "scenarios_per_stage": 3,
                "preference": {"kind": "preset", "name": "mild_averse", "centres": 4},
                "ambiguity": {"kind": "sampled", "size": 3, "sise": 9},
            },
            "unknown config keys: 'preference.centres'",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "ambiguity": {"sise": 9, "size": 3}},
            "unknown config keys: 'ambiguity.sise'",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "preference": {"kind": "voronoi", "k": 2}},
            "unknown config keys: 'preference.k'",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "ambiguity": {"kind": "grid"}},
            "unknown ambiguity kind 'grid'",
        ),
        # a count out of range or with a fraction is named, not truncated
        (
            {"horizon": 2, "scenarios_per_stage": 3, "ambiguity": {"size": 0}},
            "config key 'ambiguity.size' must be at least 1, not 0",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "ambiguity": {"size": -2}},
            "config key 'ambiguity.size' must be at least 1, not -2",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "ambiguity": {"size": 2.7}},
            "config key 'ambiguity.size' must be an integer or a list, not 2.7",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "preference": {"kind": "voronoi", "centers": 2.5}},
            "config key 'preference.centers' must be an integer, not 2.5",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "preference": {"kind": "voronoi", "samples": 999.5}},
            "config key 'preference.samples' must be an integer, not 999.5",
        ),
        # a per-stage or per-asset list of the wrong length is named, not
        # left to numpy's broadcast error
        (
            {"horizon": 3, "scenarios_per_stage": [3, 4, 5]},
            "config key 'scenarios_per_stage' must be one value or a list of 2, one per stage",
        ),
        (
            {"horizon": 3, "scenarios_per_stage": 3, "ambiguity": {"size": [3, 4, 5]}},
            "config key 'ambiguity.size' must be one value or a list of 2, one per stage",
        ),
        (
            {"horizon": 3, "scenarios_per_stage": 3, "transaction_cost": [0.01, 0.02, 0.03]},
            "config key 'transaction_cost' must be one value or a list of 2, one per stage",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "assets": 2,
             "lognormal": {"mu": [0.5, 0.6, 0.7]}},
            "config key 'mu' must be one value or a list of 2, one per asset",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3, "assets": 3, "sigma": [0.2, 0.3]},
            "config key 'sigma' must be one value or a list of 3, one per asset",
        ),
        # empirical weights are checked as preference weights are, not
        # left to numpy's matmul error or to the moment LP
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "ambiguity": {"kind": "empirical", "support": [[0.2, 0.5], [0.8, 0.3]],
                           "probs": [0.5, 0.5, 0.0]}},
            "support and probs must have equal length, not 2 and 3",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "ambiguity": {"kind": "empirical", "support": [[0.2, 0.5], [0.8, 0.3]],
                           "probs": [0.7, 0.7]}},
            "probs sum to 1.4, expected 1",
        ),
        # the Beta parameters of a Voronoi preference are two positive numbers
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "preference": {"kind": "voronoi", "beta": 2.0}},
            "config key 'preference.beta' must be two positive numbers, not 2.0",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "preference": {"kind": "voronoi", "beta": [2.0, 0.0]}},
            "config key 'preference.beta' must be two positive numbers, not [2.0, 0.0]",
        ),
        (
            {"horizon": 2, "scenarios_per_stage": 3,
             "preference": {"kind": "voronoi", "beta": ["a", "b"]}},
            "config key 'preference.beta' must be a number or a list, not ['a', 'b']",
        ),
    ],
)
def test_malformed_config_is_usage_error(tmp_path, doc, reason, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["oracle", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and reason in err


def test_compare_without_modes_is_usage_error(tmp_path, config_path, capsys):
    # the mode list is checked before anything is built or written
    out = tmp_path / "cmp"
    code = main(["compare", "--config", str(config_path), "--modes", ",", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--modes names no mode" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--iters", "--paths"])
def test_nonpositive_budget_is_usage_error(config_path, tmp_path, flag, capsys):
    code = main(
        ["solve", "--config", str(config_path), flag, "0", "--out", str(tmp_path / "runs")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be at least 1" in err


def test_unknown_mode_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--mode", "bogus", "--config", "x.json"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    # the child imports the package the suite imported, installed or not
    src = str(Path(msrisk.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "msrisk", "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "oracle" in proc.stdout
