"""Command-line front end: formats, precedence, determinism, exit codes."""

import io
import json
import math
import re
import shutil
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprfw import epr
from eprfw.cli import (
    BELL_COLUMNS,
    EXIT_CHECK_FAILURE,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    OPTIONS,
    SWEEP_VARS,
    RunConfig,
    _CHUNK as CHUNK,
    _fmt,
    bell_rows,
    build_config,
    build_parser,
    cmd_bell,
    main,
    read_config_file,
    render_bell,
)

XI_REF = math.asinh(0.75)
NUMBERS = st.floats().map(repr)  # any float: nan, +-inf, huge and subnormal values


def run(argv):
    return main(argv)


# ------------------------------------------------------------------ bell


def test_bell_single_point_stdout(capsys):
    assert run(["bell", "--phi", "0"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(BELL_COLUMNS)
    assert len(lines) == 2
    row = dict(zip(BELL_COLUMNS, (float(x) for x in lines[1].split(","))))
    assert row["theta"] == 0.0
    assert row["chsh_direct"] == pytest.approx(2.828427, abs=1e-6)
    assert row["chsh_closed"] == pytest.approx(2.828427, abs=1e-6)


def test_bell_sweep_periodic_endpoints(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = [
        "bell", "--alpha", "1", "--xi", "0",
        "--sweep", f"phi:0:{2 * math.pi}:9", "--out", str(out),
    ]
    assert run(argv) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    first = float(lines[1].split(",")[5])
    last = float(lines[-1].split(",")[5])
    assert first == pytest.approx(2.828427, abs=1e-6)
    assert last == pytest.approx(2.828427, abs=1e-6)


def test_bell_sweep_single_count_one_row(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["bell", "--sweep", "alpha:0.5:0.5:1", "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().strip().splitlines()) == 2


def test_bell_csv_round_trips_full_precision(tmp_path):
    out = tmp_path / "bell.csv"
    argv = ["bell", "--alpha", "0.5", "--xi", str(XI_REF), "--sweep", "phi:0.3:2.9:7", "--out", str(out)]
    assert run(argv) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(BELL_COLUMNS)
    for line in lines[1:]:
        row = dict(zip(BELL_COLUMNS, (float(x) for x in line.split(","))))
        report = epr.bell_report(row["alpha"], row["xi"], row["Phi"])
        assert abs(row["theta"] - report.theta) <= 1e-12
        assert abs(row["norm"] - report.norm) <= 1e-12
        assert abs(row["chsh_direct"] - report.chsh_direct) <= 1e-12
        assert abs(row["chsh_closed"] - report.chsh_closed) <= 1e-12
        assert abs(row["chsh_restored"] - report.chsh_restored) <= 1e-12


def bell_config(argv):
    return build_config(build_parser().parse_args(["bell", *argv]))


def expected_inputs(cfg):
    """(alpha, xi, Phi) of each sweep point, expanded one point at a time."""
    point = {"alpha": cfg.alpha, "xi": cfg.xi, "phi": cfg.phi}
    if cfg.sweep is None:
        return [(point["alpha"], point["xi"], point["phi"])]
    var, start, stop, count = cfg.sweep
    points = [dict(point, **{var: float(value)}) for value in np.linspace(start, stop, count)]
    return [(p["alpha"], p["xi"], p["phi"]) for p in points]


@pytest.mark.parametrize(
    "argv",
    [
        # 1000-point sweeps with xi <= 3 and theta up to alpha Phi cosh(3) = 60.4
        ["--alpha", "1", "--xi", "3", "--phi", "6", "--sweep", "alpha:0.01:1:1000"],
        ["--alpha", "1", "--phi", "6", "--sweep", "xi:0:3:1000"],
        ["--alpha", "1", "--xi", "3", "--sweep", "phi:0:6:1000"],
        ["--sweep", "alpha:0.5:0.5:1"],
        ["--phi", "0.8"],
        ["--beta", "0.6", "--sweep", "phi:0:3:7"],
        ["--beta", "0.6", "--sweep", "xi:0.1:2:5"],
        ["--xi", "0.4", "--sweep", "phi:0:270:7", "--degrees"],
    ],
)
def test_bell_rows_match_per_point_reports(argv):
    cfg = bell_config(argv)
    rows = bell_rows(cfg)
    assert [(row["alpha"], row["xi"], row["Phi"]) for row in rows] == expected_inputs(cfg)
    for row in rows:
        assert list(row) == list(BELL_COLUMNS)
        report = epr.bell_report(row["alpha"], row["xi"], row["Phi"])
        for col in BELL_COLUMNS:
            expected = getattr(report, col)
            tol = 1e-12 * expected if col == "norm" else 1e-12
            assert abs(row[col] - expected) <= tol, (col, row)


def test_bell_json_rows_are_bell_rows(tmp_path):
    argv = ["--alpha", "0.7", "--xi", "1.2", "--sweep", "phi:0:5:9"]
    out = tmp_path / "bell.json"
    assert run(["bell", *argv, "--format", "json", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["rows"] == bell_rows(bell_config(argv))


def test_bell_csv_rows_format_each_value_as_fmt():
    values = (0.0, -0.0, 5e-324, 1e300, 0.1, 2.0 / 3.0, math.pi * 1e-17, 123456789.123, -2.5)
    rows = [dict(zip(BELL_COLUMNS, values[k:] + values[:k])) for k in range(len(values))]
    lines = render_bell(RunConfig(), rows).splitlines()
    assert lines[1:] == [",".join(_fmt(row[col]) for col in BELL_COLUMNS) for row in rows]


def test_bell_csv_keeps_the_sign_of_zero():
    signs = (0.0, -0.0, 0.0)
    rows = [
        dict(zip(BELL_COLUMNS, (mixed, -0.0, 0.0, k, 1.0, 2.0, 3.0, 4.0, 5.0)))
        for k, mixed in enumerate(signs)
    ]
    lines = render_bell(RunConfig(), rows).splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == [["0", "-0", "0"], ["-0", "-0", "0"], ["0", "-0", "0"]]


def per_row_csv(rows):
    """The CSV of ``rows`` formatted one row at a time, each value as "%.17g"."""
    line = ",".join(["%.17g"] * len(BELL_COLUMNS))
    return "\n".join([",".join(BELL_COLUMNS)] + [line % tuple(row[col] for col in BELL_COLUMNS) for row in rows]) + "\n"


SWEEP_RANGES = {"alpha": "0.1:1", "xi": "0:3", "phi": "0:6"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--xi", "0.7", "--sweep", f"{var}:{SWEEP_RANGES[var]}:{count}"]
        for var in SWEEP_VARS
        for count in (1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
    ]
    + [
        ["--xi", "0.4", "--sweep", f"phi:0:360:{CHUNK + 1}", "--degrees"],
        ["--beta", "0.6", "--sweep", f"alpha:0.2:0.9:{2 * CHUNK + 1}"],
        ["--beta", "0.6", "--phi", "100", "--degrees"],
    ],
)
def test_streamed_bell_csv_equals_the_per_row_render(argv, tmp_path):
    # the xi:0:3 sweep of 2 * CHUNK + 1 = 32769 points ends in a one-point chunk
    out = tmp_path / "bell.csv"
    assert run(["bell", *argv, "--out", str(out)]) == EXIT_OK
    assert out.read_text() == per_row_csv(bell_rows(bell_config(argv)))


@pytest.mark.parametrize("alpha, xi, phi", [(0.5, 0.7, 2.0), (0.3, 1.9, 5.1), (1.0, 0.05, 0.4)])
def test_single_point_prints_the_row_it_has_inside_a_sweep(alpha, xi, phi, capsys):
    point = ["bell", "--alpha", str(alpha), "--xi", str(xi)]
    assert run([*point, "--phi", str(phi)]) == EXIT_OK
    single = capsys.readouterr().out.splitlines()
    assert run([*point, "--sweep", f"phi:{phi}:{phi}:2"]) == EXIT_OK
    swept = capsys.readouterr().out.splitlines()
    assert len(single) == 2
    assert swept == [single[0], single[1], single[1]]


def test_bell_writes_nothing_when_a_later_chunk_fails(monkeypatch, tmp_path, capsys):
    bell_columns, calls = epr.bell_columns, []

    def failing_on_the_second_chunk(*points):
        calls.append(len(points[0]))
        if len(calls) == 2:
            raise ValueError("bell column norm is not finite at some point")
        return bell_columns(*points)

    monkeypatch.setattr(epr, "bell_columns", failing_on_the_second_chunk)
    out = tmp_path / "bell.csv"
    assert run(["bell", "--sweep", f"phi:0:6:{CHUNK + 1}", "--out", str(out)]) == EXIT_USAGE
    assert calls == [CHUNK, 1]
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("eprfw: error: bell column norm")


def test_bell_csv_memory_does_not_grow_with_the_sweep(tmp_path):
    def peak_bytes(count):
        cfg = bell_config(["--xi", "0.7", "--sweep", f"phi:0:6:{count}", "--out", str(tmp_path / "bell.csv")])
        tracemalloc.start()
        try:
            assert cmd_bell(cfg) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(2)  # imports and caches of a first run
    one, four = peak_bytes(CHUNK), peak_bytes(4 * CHUNK)
    assert four <= 1.5 * one, (one, four)


def test_bell_byte_identical_reruns(tmp_path):
    for fmt in ("csv", "json"):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.{fmt}"
            argv = [
                "bell", "--alpha", "0.7", "--xi", "0.4",
                "--sweep", "phi:0:3:11", "--format", fmt, "--out", str(out),
            ]
            assert run(argv) == EXIT_OK
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bell_json_schema(tmp_path):
    out = tmp_path / "bell.json"
    assert run(["bell", "--phi", "1.0", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"version", "config", "rows"}
    assert payload["config"]["alpha"] == 0.5
    assert len(payload["rows"]) == 1
    assert set(payload["rows"][0]) == set(BELL_COLUMNS)


def test_bell_beta_is_converted(capsys):
    assert run(["bell", "--beta", "0.6", "--phi", "1.0"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[1]) == pytest.approx(math.atanh(0.6), abs=1e-12)


# ------------------------------------------------------------- config file


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample config\n"
        "alpha = 0.9\n"
        "xi=0.25   # inline comment\n"
        "format=json\n"
        "degrees=false\n"
    )
    values = read_config_file(str(cfg))
    assert values == {"alpha": 0.9, "xi": 0.25, "format": "json", "degrees": False}


def test_config_precedence_flags_over_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha=0.9\nphi=1.0\n")
    assert run(["bell", "--config", str(cfg), "--alpha", "0.25"]) == EXIT_OK
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[0]) == 0.25  # flag wins
    assert float(row[2]) == 1.0  # file value survives where no flag is given


def test_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.9\n")
    assert run(["bell", "--config", str(cfg)]) == EXIT_USAGE


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("momentum=3\n")
    assert run(["bell", "--config", str(cfg)]) == EXIT_USAGE


def test_degrees_flag_converts_phi(tmp_path):
    out_deg = tmp_path / "deg.csv"
    out_rad = tmp_path / "rad.csv"
    assert run(["bell", "--phi", "180", "--degrees", "--out", str(out_deg)]) == EXIT_OK
    assert run(["bell", "--phi", str(math.pi), "--out", str(out_rad)]) == EXIT_OK
    assert out_deg.read_bytes() == out_rad.read_bytes()


def test_degrees_leaves_the_default_phi_in_radians(capsys):
    assert RunConfig(degrees=True).validate().phi == math.pi
    assert run(["bell", "--degrees"]) == EXIT_OK
    with_degrees = capsys.readouterr().out
    assert run(["bell"]) == EXIT_OK
    assert with_degrees == capsys.readouterr().out


def test_degrees_applies_to_phi_sweep_bounds(capsys):
    assert run(["bell", "--xi", "0", "--sweep", "phi:0:180:3", "--degrees"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    phis = [float(r.split(",")[2]) for r in rows]
    assert phis == pytest.approx([0.0, math.pi / 2, math.pi])


@pytest.mark.parametrize(
    "degrees, radians",
    [
        ({"phi": 180.0}, {"phi": math.pi}),
        ({"phi": 90.0, "sweep": ("phi", 0.0, 180.0, 5)}, {"phi": math.pi / 2, "sweep": ("phi", 0.0, math.pi, 5)}),
    ],
)
def test_validate_returns_radians(degrees, radians):
    assert RunConfig(**degrees, degrees=True).validate() == RunConfig(**radians).validate()


@pytest.mark.parametrize(
    "values",
    [
        {},
        {"beta": 0.6},
        {"phi": 90.0, "degrees": True},
        {"beta": 0.6, "sweep": ("phi", 0.0, 270.0, 7), "degrees": True, "format": "json", "steps": 8},
        {"xi": 0.4, "sweep": ("xi", 0.1, 2.0, 5), "degrees": True},
    ],
)
def test_validate_is_idempotent(values):
    run_ = RunConfig(**values).validate()
    assert run_.beta is None and run_.degrees is False and run_.xi is not None
    assert run_.validate() == run_


FILE_AND_FLAG_VALUES = {
    "alpha": "0.75", "xi": "0.3", "beta": "0.25", "rho": "3.5", "phi": "1.25", "c": "2",
    "steps": "16", "sweep": "Phi:0:90:4", "out": "run.csv", "format": "json", "degrees": "true",
}


@pytest.mark.parametrize("name", list(OPTIONS))
def test_config_file_and_flag_give_equal_runs(name, tmp_path):
    text = FILE_AND_FLAG_VALUES[name]
    path = tmp_path / "run.cfg"
    path.write_text(f"{name} = {text}\n")
    flag = ["--degrees"] if name == "degrees" else [f"--{name}", text]
    # degrees converts only a given phi: its runs and their reference give one
    base = ["--phi", FILE_AND_FLAG_VALUES["phi"]] if name == "degrees" else []
    from_file = bell_config(["--config", str(path), *base])
    assert from_file == bell_config([*flag, *base])
    assert from_file != bell_config(base)


# -------------------------------------------------------------- exit codes


@pytest.mark.parametrize(
    "argv",
    [
        ["bell", "--alpha", "1.5"],
        ["bell", "--alpha", "0"],
        ["bell", "--xi", "0.3", "--beta", "0.5"],
        ["bell", "--beta", "1.0"],
        ["bell", "--sweep", "mass:0:1:5"],
        ["bell", "--sweep", "alpha:0:1:0"],
        ["bell", "--sweep", "alpha:0:1"],
        ["bell", "--format", "csv", "--steps", "0"],
        ["transport", "--xi", "-1"],
        # input outside the domain: non-finite values, xi > XI_MAX,
        # eta1 +- eta2 overflow, theta with no accurate digit of cos and sin,
        # and overflow or underflow inside the geometry
        ["bell", "--c", "nan"],
        ["bell", "--rho", "nan"],
        ["bell", "--xi", "nan"],
        ["bell", "--phi", "nan"],
        ["bell", "--phi", "inf"],
        ["geometry", "--rho", "inf"],
        ["bell", "--xi", "800"],
        ["bell", "--xi", "400"],
        ["bell", "--xi", "350", "--phi", "1e6"],
        ["bell", "--alpha", "1", "--xi", "182.7", "--phi", "1e150"],
        ["transport", "--xi", "350"],
        ["geometry", "--rho", "1e200"],
        ["transport", "--rho", "1e300", "--xi", "1"],
        ["geometry", "--c", "1e300", "--xi", "1"],
        ["transport", "--xi", "4.946743251852692e-168", "--c", "4.946743251852692e-168"],
        ["transport", "--rho", "1e-300", "--alpha", "1e-10"],
        ["verify", "--alpha", "-1"],
        # sweeps whose end leaves the domain
        ["bell", "--sweep", "alpha:0:1:5"],
        ["bell", "--sweep", "alpha:0.5:1.5:3"],
        ["bell", "--sweep", "xi:0:400:3"],
        ["bell", "--sweep", "xi:0:20:3"],
        ["bell", "--sweep", "phi:-1:1:3"],
        ["bell", "--alpha", "1", "--xi", "182.7", "--sweep", "phi:0:1e150:3"],
        # bad flag values, and given values no command uses
        ["bell", "--format", "xml"],
        ["bell", "--alpha", "abc"],
        ["bell", "--steps", "1.5"],
        ["geometry", "--phi", "nan"],
        ["verify", "--phi", "-1"],
        ["geometry", "--xi", "20"],
        ["verify", "--xi", "20"],
    ],
)
def test_usage_errors(argv, capsys):
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("eprfw: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [[], ["nosuch"]])
def test_missing_or_unknown_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["geometry", "transport", "bell"]))
    argv = [command]
    for flag in ("--alpha", "--xi", "--beta", "--rho", "--phi", "--c"):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(NUMBERS)}")  # '=' keeps '-1e-300' a value
    if draw(st.booleans()):
        argv.append(f"--steps={draw(st.integers(-1, 64))}")
    if command == "bell" and draw(st.booleans()):
        var = draw(st.sampled_from(SWEEP_VARS))
        argv.append(f"--sweep={var}:{draw(NUMBERS)}:{draw(NUMBERS)}:{draw(st.integers(-1, 8))}")
    if draw(st.booleans()):
        argv.append("--degrees")
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cli_argv())
def test_any_numeric_input_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (EXIT_OK, EXIT_USAGE), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if argv[0] == "bell" and code == EXIT_OK:
        rows = out.getvalue().strip().splitlines()[1:]
        assert rows
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def test_on_axis_is_a_usage_error(capsys):
    assert run(["geometry", "--rho", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "on string axis" in err
    assert "rho" in err


def test_unwritable_output_is_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run(["bell", "--out", str(missing)]) == EXIT_IO


# ------------------------------------------------------------- subcommands


def test_geometry_dump_contains_connection_tables(capsys):
    assert run(["geometry", "--alpha", "0.5", "--rho", "2", "--xi", str(XI_REF)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "Omega_phi^1_3 = -0.78125" in out
    assert "omega_phi^1_3 = -0.5" in out
    assert "tau_t^0_1 = 0.28125" in out


def printed_numbers(text):
    numbers = []
    for token in re.split(r"[\s=|]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def test_geometry_near_axis_prints_finite_values(capsys):
    # within 2e-5 of the axis the finite-difference stencil shrinks to rho / 2
    assert run(["geometry", "--rho", "5e-6"]) == EXIT_OK
    out = capsys.readouterr().out
    numbers = printed_numbers(out)
    assert numbers and all(math.isfinite(x) for x in numbers)
    for line in out.splitlines():
        if " = " in line and "|" in line:  # closed form | finite-difference oracle
            closed, oracle = (float(part.split()[-1]) for part in line.split("|"))
            assert oracle == pytest.approx(closed, rel=1e-6)


def test_geometry_near_axis_lists_no_radial_connection(capsys):
    # the closed form has no rho component; round-off of 1/(alpha rho^2) must not show one
    assert run(["geometry", "--rho", "5e-6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "omega_phi^1_3" in out
    assert not re.search(r"(omega|Omega)_rho", out)


def test_geometry_rest_frame_has_zero_boost_terms(capsys):
    assert run(["geometry", "--alpha", "1", "--xi", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "tau[mu, a, b] nonzeros" in out
    assert "all components zero" in out


def test_transport_dump(capsys):
    assert run(["transport", "--alpha", "0.5", "--xi", str(XI_REF), "--steps", "32"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "eta1=-1.4726215563702154" in out
    assert "wigner angle theta = 1.9634954084936207" in out


def test_verify_detects_injected_sign_flip(capsys):
    code = run(["verify", "--inject-omega-sign-flip", "--steps", "1024"])
    assert code == EXIT_CHECK_FAILURE
    out = capsys.readouterr().out
    assert "[FAIL] pair_evolution_from_connection" in out


def test_verify_json_report(tmp_path):
    out = tmp_path / "verify.json"
    code = run(["verify", "--steps", "1024", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    names = {check["name"] for check in payload["checks"]}
    assert "pair_evolution_closed_form" in names
    for check in payload["checks"]:
        assert set(check) == {"name", "tolerance", "observed", "passed", "note"}


# ------------------------------------------------------- external entries


def test_module_execution_round_trip(tmp_path):
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "eprfw", "bell", "--phi", "0.5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert out.read_text().startswith(",".join(BELL_COLUMNS))


@pytest.mark.parametrize(
    "argv, name",
    [
        (["geometry", "--rho", "1e200"], "rho"),
        (["transport", "--rho", "1e300", "--xi", "1"], "rho"),
        (["geometry", "--c", "1e300", "--xi", "1"], "c"),
        (["transport", "--xi", "4.946743251852692e-168", "--c", "4.946743251852692e-168"], "c"),
        (["transport", "--c", "1e154", "--xi", "3"], "c"),
        (["geometry", "--c", "1e100", "--xi", "300"], "c"),
    ],
)
def test_overflow_names_its_input(argv, name):
    # a fresh process, so that a numpy warning would reach stderr as it does for a user
    proc = subprocess.run([sys.executable, "-m", "eprfw", *argv], capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert re.search(rf"\b{name}\b", lines[0]), lines[0]


def test_large_radius_inside_the_domain_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "eprfw", "geometry", "--rho", "1e150"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""


def test_large_acceleration_inside_the_domain_runs():
    # c^2 sinh^2(xi) / rho = 6.9e307: finite, though the boost components reach 6.9e153
    proc = subprocess.run(
        [sys.executable, "-m", "eprfw", "geometry", "--c", "1e154", "--xi", "1"], capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    numbers = printed_numbers(proc.stdout)
    assert numbers and all(math.isfinite(x) for x in numbers)


def test_rest_where_c2_over_rho_overflows_runs():
    # at xi = 0 the acceleration is zero without forming c^2 / rho = 1e313
    proc = subprocess.run(
        [sys.executable, "-m", "eprfw", "geometry", "--c", "1e154", "--rho", "1e-5", "--xi", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == ""
    numbers = printed_numbers(proc.stdout)
    assert numbers and all(math.isfinite(x) for x in numbers)


def test_import_leaves_scipy_unloaded():
    # scipy is only the expm oracle of one verify check, imported there
    code = "import sys, eprfw; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(shutil.which("eprfw") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["eprfw", "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "eprfw" in proc.stdout
