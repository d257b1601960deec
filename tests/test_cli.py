import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsalpha.cli as cli
from hsalpha.errors import NumericError
from hsalpha.harness import write_solution_csv
from hsalpha.projection import ProjectionConfig, project
from hsalpha.reference import cusp_datum


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
    rc = cli.main(["project", "--example", "cusp", "--dx", "0.125"])
    assert rc == 0
    assert "projected example=cusp" in capsys.readouterr().out


def test_project_writes_the_projection(tmp_path):
    # the CSV is the solution project() returns, not a lift and pushforward
    # of it: F at the even nodes is the datum's F_ac there, to the bit
    assert cli.main(["project", "--example", "cusp", "--dx", "0.125", "--out", str(tmp_path)]) == 0
    p = project(cusp_datum(), ProjectionConfig(dx=0.125))
    write_solution_csv(p, str(tmp_path / "want.csv"))
    got = (tmp_path / "projected_cusp_dx0.125.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    x, _, F = np.loadtxt(tmp_path / "want.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(F[::2], cusp_datum().F_ac(x[::2]))


def test_cusp_ends_in_exponent_notation(tmp_path):
    # argparse reads "-1e-3" after --a as a flag; --a=VALUE passes it
    argv = ["project", "--example", "cusp", "--dx", "0.25", "--a=-1e-3", "--b", "1"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert (tmp_path / "projected_cusp_dx0.25.csv").read_text().startswith("x,u,F\n")


def test_config_keys_a_command_does_not_read_are_ignored(tmp_path):
    # one file describes one experiment for all four commands
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"example": "cusp", "alpha": 1.0, "T": 7.0, "time_samples": 9}))
    for out, extra in (("a", ["--config", str(cfg)]), ("b", ["--example", "cusp"])):
        assert cli.main(["project", "--dx", "0.125", "--out", str(tmp_path / out)] + extra) == 0
    name = "projected_cusp_dx0.125.csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert cli.main(["solve", "--config", str(cfg), "--dx", "0.25"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["project", "--alpha", "0"],
        ["project", "--T", "1"],
        ["project", "--time-samples", "5"],
        ["solve", "--alpha", "0", "--T", "1", "--time-samples", "5"],
        ["measure-rates", "--alpha", "0", "--T", "1", "--time-samples", "5"],
    ],
    ids=["project-alpha", "project-T", "project-time-samples", "solve-time-samples", "rates-time-samples"],
)
def test_a_flag_the_command_does_not_read_exits_2(argv, capsys):
    dx = ["--dx", "0.25"] if argv[0] in ("solve", "project") else []
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--example", "cosine"] + dx)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # points given as strings are not numbers
    assert cli.main(solve + ["--example", "multipeakon", "--points", '[["0","0.5"],["2","0"]]']) == 2
    assert "pairs of numbers" in capsys.readouterr().err
    cfg.write_text(json.dumps({"example": "cosine", "alpha": 0.0, "T": 1.0, "points": [[0, 1]]}))
    assert cli.main(["solve", "--config", str(cfg), "--dx", "0.25"]) == 2
    assert "reads none" in capsys.readouterr().err
    # an interval the cusp would refuse, given for another example
    assert cli.main(solve + ["--example", "cosine", "--a=2", "--b=1"]) == 2
    assert "a and b set the cusp interval; example cosine reads none" in capsys.readouterr().err
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


@pytest.mark.parametrize("T", ["1.2e154"])
def test_reference_overflow_on_a_rung_exits_3(T, capsys):
    # the evolution stays finite, the reference tables' t^2 F_inf does not
    argv = ["eoc", "--example", "cusp", "--alpha", "0.5", "--T", T, "--k-min", "1"]
    assert cli.main(argv + ["--time-samples", "2"]) == 3
    assert "reference characteristics overflow" in capsys.readouterr().err


@pytest.mark.parametrize("T", ["1e103", "1e150"])
def test_rung_short_of_the_reference_overflow_exits_0(T, capsys):
    argv = ["eoc", "--example", "cusp", "--alpha", "0.5", "--T", T, "--k-min", "1"]
    assert cli.main(argv + ["--time-samples", "2"]) == 0
    assert "2.637239e-01" in capsys.readouterr().out


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


# --- fuzz: every input exits 0, 2 or 3 -----------------------------------

# 10**400 is a valid JSON number and a Python int that no float can hold
_EXTREMES = (0.0, -0.0, -1.0, 1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf, 10**400)


# JSON values of every type; the small integers and bounded floats keep a
# k_range or time_samples drawn from them cheap
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-2.0, 2.0)
    | st.sampled_from(_EXTREMES)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_FLAGS = {"time_samples": "time-samples", "out_dir": "out"}
# the settings a command takes no flag for, since it does not read them
_UNREAD = {
    "project": ("alpha", "T", "time_samples"),
    "solve": ("time_samples",),
    "measure-rates": ("time_samples",),
}


@st.composite
def _argv(draw, tmp):
    """A CLI call: valid settings, up to two of them replaced by an extreme
    or wrongly typed value, given in a config file or as flags (only those
    the command reads)."""
    command = draw(st.sampled_from(["solve", "project", "eoc", "measure-rates"]))
    example = draw(st.sampled_from(["appendixA", "cosine", "cusp", "multipeakon"]))
    alpha = 0.0 if command == "measure-rates" else draw(st.floats(0.0, 1.0))
    cfg = {"example": example, "alpha": alpha, "T": draw(st.floats(0.01, 4.0))}
    if example == "cusp":
        cfg["a"] = draw(st.floats(-2.0, 1.5))
        cfg["b"] = draw(st.floats(cfg["a"] + 0.5, 2.0))
    if example == "multipeakon":
        xs = sorted(draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5, unique=True)))
        cfg["points"] = [[x, draw(st.floats(-2.0, 2.0))] for x in xs]
    if draw(st.booleans()):
        cfg["time_samples"] = draw(st.integers(2, 70))
    if command in ("eoc", "measure-rates"):
        k = draw(st.integers(0, 3))
        cfg["k_range"] = list(range(k, draw(st.integers(k, 3)) + 1))
    if draw(st.booleans()):
        # a regular file where a directory is expected cannot be written to
        cfg["out_dir"] = str(draw(st.sampled_from([tmp / "out", tmp / "file" / "out"])))
    cfg["dx"] = draw(st.floats(2.0**-8, 1.0))
    keys = sorted(cfg) + ["a", "b", "points", "out_dir", "grid"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        value = draw(st.sampled_from(_EXTREMES) | _JSON)
        if draw(st.booleans()):
            value = [value]
        # any other string would be an output directory in the cwd
        cfg[key] = [value] if key == "out_dir" and isinstance(value, str) else value
    dx = cfg.pop("dx")
    argv = [command] + ([f"--dx={dx}"] if command in ("solve", "project") else [])

    if draw(st.booleans()):
        if not isinstance(cfg.get("out_dir", ""), str):
            del cfg["out_dir"]
        if "k_range" in cfg:
            ks = cfg.pop("k_range")
            lo, hi = (ks[0], ks[-1]) if isinstance(ks, list) and ks else (ks, ks)
            argv += [f"--k-min={lo}", f"--k-max={hi}"]
        if "points" in cfg:
            cfg["points"] = json.dumps(cfg["points"])
        flags = {key: val for key, val in cfg.items() if key not in _UNREAD.get(command, ())}
        return argv + [f"--{_FLAGS.get(key, key)}={val}" for key, val in flags.items()]
    text = json.dumps(cfg) if draw(st.integers(0, 9)) else draw(_JSON.map(json.dumps) | st.just("{"))
    (tmp / "config.json").write_text(text)
    return argv + [f"--config={tmp / 'config.json'}"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "file").write_text("")
    return tmp


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_input_exits_0_2_or_3(fuzz_dir, data):
    argv = data.draw(_argv(fuzz_dir))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a flag value
            rc = exc.code
    assert rc in (0, 2, 3)
