import json

import pytest

import hsalpha.cli as cli
from hsalpha.errors import NumericError


def test_solve_writes_snapshot(tmp_path, capsys):
    rc = cli.main(
        [
            "solve",
            "--example",
            "appendixA",
            "--alpha",
            "0.5",
            "--T",
            "2",
            "--dx",
            "0.25",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "energy 0.25" in out
    files = list(tmp_path.glob("solution_appendixA_*.csv"))
    assert len(files) == 1
    assert files[0].read_text().startswith("x,u,F\n")


def test_project_smoke(capsys):
    rc = cli.main(["project", "--example", "cusp", "--alpha", "0", "--dx", "0.125"])
    assert rc == 0
    assert "projected example=cusp" in capsys.readouterr().out


def test_eoc_smoke(capsys):
    rc = cli.main(
        [
            "eoc",
            "--example",
            "appendixA",
            "--alpha",
            "0.5",
            "--T",
            "1.5",
            "--k-min",
            "1",
            "--k-max",
            "2",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# linf_u" in out and "eoc" in out


def test_measure_rates_smoke(capsys):
    rc = cli.main(
        [
            "measure-rates",
            "--example",
            "cosine",
            "--alpha",
            "0",
            "--T",
            "0.5",
            "--k-min",
            "2",
            "--k-max",
            "3",
        ]
    )
    assert rc == 0
    assert "# w1" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path, capsys):
    # dissipative measure-rate run is unsupported
    rc = cli.main(
        ["measure-rates", "--example", "cosine", "--alpha", "0.5", "--T", "1", "--k-min", "1"]
    )
    assert rc == 2
    # alpha out of range
    assert (
        cli.main(["solve", "--example", "appendixA", "--alpha", "1.5", "--T", "1", "--dx", "0.25"])
        == 2
    )
    # example missing entirely
    assert cli.main(["solve", "--alpha", "0.5", "--T", "1", "--dx", "0.25"]) == 2
    # malformed --points payload
    assert (
        cli.main(
            [
                "solve",
                "--example",
                "multipeakon",
                "--points",
                "[[0, 0.5",
                "--alpha",
                "0",
                "--T",
                "1",
                "--dx",
                "0.25",
            ]
        )
        == 2
    )
    # unknown key in the config file
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"example": "cosine", "alpha": 0.0, "T": 1.0, "grid": 9}))
    assert cli.main(["solve", "--config", str(cfg), "--dx", "0.25"]) == 2
    # settings no run reads are unknown keys, not silently accepted
    for key, val in (("metrics", ["w1"]), ("quad_tol", 1e-10), ("inv_tol", 1e-12)):
        cfg.write_text(json.dumps({"example": "cosine", "alpha": 0.0, "T": 1.0, key: val}))
        assert cli.main(["solve", "--config", str(cfg), "--dx", "0.25"]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    # settings the chosen example does not read
    solve = ["solve", "--alpha", "0", "--T", "1", "--dx", "0.25"]
    assert cli.main(solve + ["--example", "cosine", "--a", "5", "--b", "6"]) == 2
    assert cli.main(solve + ["--example", "appendixA", "--b", "2"]) == 2
    assert cli.main(solve + ["--example", "cusp", "--points", "[[0, 1], [1, 0]]"]) == 2
    cfg.write_text(json.dumps({"example": "cosine", "alpha": 0.0, "T": 1.0, "points": [[0, 1]]}))
    assert cli.main(["solve", "--config", str(cfg), "--dx", "0.25"]) == 2
    assert "reads none" in capsys.readouterr().err
    # inverted ladder bounds
    assert (
        cli.main(
            ["eoc", "--example", "appendixA", "--alpha", "0", "--T", "1", "--k-min", "3", "--k-max", "1"]
        )
        == 2
    )
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, payload",
    [
        ("--points", "[[0, NaN], [1, 0]]"),
        ("--points", "[[0]]"),
        ("--points", '[["a", 1]]'),
        ("--points", "5"),
        ("--points", "[[0, 1e308], [1e-300, 0]]"),  # infinite slope
        ("k_range", '["a"]'),
        ("k_range", "5"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, flag, payload):
    # malformed points or k_range are config errors, never a traceback
    if flag == "--points":
        argv = ["solve", "--example", "multipeakon", "--points", payload, "--dx", "0.25"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"example": "appendixA", "{flag}": {payload}}}')
        argv = ["eoc", "--config", str(cfg)]
    assert cli.main(argv + ["--alpha", "0", "--T", "1"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        # positions overflow at a huge but finite final time
        ["--example", "cosine", "--alpha", "0", "--T", "1e300"],
        # x + F(x) loses the mesh: the energy 4e300 swamps every x
        ["--example", "multipeakon", "--points", "[[0,1e150],[1,-1e150]]"]
        + ["--alpha", "0.5", "--T", "1"],
    ],
    ids=["huge-T", "huge-energy"],
)
def test_overflow_exits_3(capsys, argv):
    assert cli.main(["solve", *argv, "--dx", "0.25"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_numeric_errors_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise NumericError("tolerance blown")

    monkeypatch.setattr(cli, "run_eoc", boom)
    rc = cli.main(["eoc", "--example", "appendixA", "--alpha", "0", "--T", "1", "--k-min", "1"])
    assert rc == 3
    assert "numeric error" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"example": "appendixA", "alpha": 0.5, "T": 2.0}))
    rc = cli.main(["solve", "--config", str(cfg), "--alpha", "0.25", "--dx", "0.25"])
    assert rc == 0
    assert "alpha=0.25" in capsys.readouterr().out


def test_solve_refuses_a_huge_grid(capsys):
    # the cell-count guard fires before the grid is allocated
    rc = cli.main(["solve", "--example", "cosine", "--alpha", "0", "--T", "1", "--dx", "1e-12"])
    assert rc == 2
    assert "cells" in capsys.readouterr().err
