"""End-to-end command-line tests: job parsing, artifact writing,
exit codes, and the report-echo rerun invariant."""

import argparse
import configparser
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armscan import cli, kinematics, motion
from armscan.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_JOINT_LIMIT,
    EXIT_OK,
    EXIT_UNREACHABLE,
    load_job,
    main,
)
from armscan.kinematics import JOINT_LIMITS, ConfigError, RobotGeometry
from armscan.meshio import (
    PointCloud,
    TriangleMesh,
    load_stl,
    load_xyz,
    save_stl,
    save_xyz,
    write_stl_binary,
)
from armscan.metrics import MAX_SAMPLE_POINTS, MAX_TEST_B_REPEATS
from armscan.objects import make_plate
from armscan.scanner import UnreachableGridError
from armscan.scene import FLOOR_MODES, NoiseModel

from conftest import write_stl_ascii
from oracles import trace_csv_reference

JOB_TEMPLATE = """\
[scene]
mesh = plate.stl
table_z = 0
floor_mode = {floor_mode}

[grid]
x0 = {x0}
y0 = -30
rows = 6
cols = 7
row_spacing = 6
col_spacing = 6
safe_z = 60

[noise]
sigma_contact = {sigma}
seed = 11

[output]
stl = out/scan.stl
xyz = out/scan.xyz
trace = out/trace.csv
report = out/report.txt
flip_normals = false
"""


def write_job(tmp_path, x0=240, sigma=0.0, floor_mode="table", plate_z=25.0):
    save_stl(make_plate(180.0, -120.0, 220.0, 240.0, plate_z), tmp_path / "plate.stl")
    config = tmp_path / "job.ini"
    config.write_text(
        JOB_TEMPLATE.format(x0=x0, sigma=sigma, floor_mode=floor_mode)
    )
    return config


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main([str(a) for a in argv], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def parse_kv(text):
    pairs = [line.split(" = ") for line in text.strip().split("\n") if " = " in line]
    return {k: v for k, v in pairs}


# ------------------------------------------------------------ job loading


def test_load_job_resolves_paths_and_defaults(tmp_path):
    job = load_job(write_job(tmp_path))
    assert job.values["scene"]["mesh"] == (tmp_path / "plate.stl").resolve()
    assert job.values["output"]["stl"] == (tmp_path / "out" / "scan.stl").resolve()
    assert job.geom.d1 == 170.0 and job.geom.d6 == 70.0  # [robot] omitted
    assert job.grid.n_rows == 6 and job.grid.n_cols == 7
    assert job.noise.sigma_contact == 0.0 and job.noise.seed == 11
    assert job.noise.drift_per_contact == 0.0
    assert job.values["scene"]["floor_mode"] == "table"
    assert job.values["output"]["flip_normals"] is False


def test_load_job_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_job(tmp_path / "nope.ini")


def test_load_job_missing_section(tmp_path):
    config = write_job(tmp_path)
    text = config.read_text().replace("[grid]", "[grff]")
    config.write_text(text)
    with pytest.raises(ConfigError, match=r"\[grid\]"):
        load_job(config)


def test_load_job_missing_key(tmp_path):
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("rows = 6\n", ""))
    with pytest.raises(ConfigError, match="needs key 'rows'"):
        load_job(config)


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("x0 = 240", "x0 = wide", r"\[grid\] x0 = 'wide' is not a valid float"),
        # non-finite numbers parse as floats but would fail mid-scan,
        # after the precheck, or not at all
        ("safe_z = 60", "safe_z = nan", r"\[grid\] safe_z = 'nan' is not finite"),
        ("safe_z = 60", "safe_z = inf", r"\[grid\] safe_z = 'inf' is not finite"),
        (
            "rows = 6\ncols = 7\nrow_spacing = 6",
            "rows = 1\ncols = 7\nrow_spacing = inf",
            r"\[grid\] row_spacing = 'inf' is not finite",
        ),
        (
            "seed = 11",
            "drift_per_contact = nan\nseed = 11",
            r"\[noise\] drift_per_contact = 'nan' is not finite",
        ),
        (
            "sigma_contact = 0.0",
            "sigma_contact = NaN",
            r"\[noise\] sigma_contact = 'NaN' is not finite",
        ),
        ("table_z = 0", "table_z = -inf", r"\[scene\] table_z = '-inf' is not finite"),
        # numpy refuses it only at the first noise draw, mid-scan
        ("seed = 11", "seed = -1", "seed must be non-negative, got -1"),
    ],
    ids=[
        "not-a-float",
        "safe_z-nan",
        "safe_z-inf",
        "row_spacing-inf",
        "drift-nan",
        "sigma-nan",
        "table_z-minus-inf",
        "seed-negative",
    ],
)
def test_load_job_bad_number(tmp_path, old, new, match):
    config = write_job(tmp_path)
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=match):
        load_job(config)


def test_scan_path_with_a_nul_byte_is_config_error(tmp_path):
    # no file name holds a NUL byte; resolving one raised a plain ValueError
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("mesh = plate.stl", "mesh = pla\0te.stl"))
    code, out, err = run_cli("scan", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"error: {config}: [scene] mesh = 'pla\\x00te.stl' is not a valid path\n"


def test_load_job_bad_floor_mode(tmp_path):
    with pytest.raises(ConfigError, match="floor_mode"):
        load_job(write_job(tmp_path, floor_mode="lava"))


def test_load_job_missing_mesh(tmp_path):
    config = write_job(tmp_path)
    (tmp_path / "plate.stl").unlink()
    with pytest.raises(ConfigError, match="mesh file not found"):
        load_job(config)


def test_load_job_not_utf8_is_config_error(tmp_path):
    config = write_job(tmp_path)
    config.write_bytes(config.read_bytes().replace(b"table_z = 0", b"table_z = 0 # \xff"))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_job(config)
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert err.startswith(f"error: {config}: not UTF-8 text")


@pytest.mark.parametrize(
    "old, new, keys",
    [
        ("xyz = out/scan.xyz", "xyz = out/scan.stl", "[output] stl and [output] xyz"),
        (
            "report = out/report.txt",
            "report = out/../out/trace.csv",
            "[output] trace and [output] report",
        ),
        ("stl = out/scan.stl", "stl = plate.stl", "[scene] mesh and [output] stl"),
    ],
    ids=["stl-xyz", "trace-report", "mesh-stl"],
)
def test_scan_colliding_files_rejected_at_job_load(tmp_path, monkeypatch, old, new, keys):
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace(old, new))
    monkeypatch.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("the scan started"))
    plate = (tmp_path / "plate.stl").read_bytes()
    code, out, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert f"{keys} are both " in err
    assert out == ""
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "plate.stl").read_bytes() == plate


def test_load_job_invalid_geometry_value(tmp_path):
    config = write_job(tmp_path)
    config.write_text("[robot]\nl2 = -5\n" + config.read_text())
    with pytest.raises(ConfigError, match="l2"):
        load_job(config)


@pytest.mark.parametrize(
    "old, new, named",
    [
        ("[noise]", "[nosie]", "unknown section [nosie]"),
        ("sigma_contact = 0.0", "sigma_contct = 0.5", "[noise] has no key 'sigma_contct'"),
        ("row_spacing = 6", "row_spacing = 6\nrow_spacng = 1", "[grid] has no key 'row_spacng'"),
        # configparser copies [DEFAULT] keys into every section
        ("[scene]", "[DEFAULT]\nseed = 3\n\n[scene]", "[DEFAULT] has no key 'seed'"),
    ],
    ids=["section", "noise-key", "grid-key", "default-section"],
)
def test_scan_unknown_name_rejected_at_job_load(tmp_path, monkeypatch, old, new, named):
    # each of these used to run with the default the misspelt name shadows
    config = write_job(tmp_path)
    text = config.read_text()
    assert old in text
    config.write_text(text.replace(old, new, 1))
    monkeypatch.setattr(cli, "load_stl", lambda *a, **k: pytest.fail("the STL was loaded"))
    code, out, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert err == f"error: {config}: {named}\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "new, blocker",
    [
        ("stl = shelf", "[output] stl is a directory: {tmp}/shelf"),
        ("stl =", "[output] stl is a directory: {tmp}"),
        ("stl = plate.stl/x.stl", "[output] stl is under a file: {tmp}/plate.stl"),
    ],
    ids=["directory", "empty", "under-a-file"],
)
def test_scan_output_path_not_a_file_rejected_at_job_load(tmp_path, monkeypatch, new, blocker):
    # each of these used to run the whole scan and fail at the first write
    config = write_job(tmp_path)
    (tmp_path / "shelf").mkdir()
    config.write_text(config.read_text().replace("stl = out/scan.stl", new))
    monkeypatch.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("the scan started"))
    plate = (tmp_path / "plate.stl").read_bytes()
    code, out, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert blocker.format(tmp=tmp_path.resolve()) in err
    assert out == ""
    assert not (tmp_path / "out").exists()
    assert list((tmp_path / "shelf").iterdir()) == []
    assert (tmp_path / "plate.stl").read_bytes() == plate


def finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


# non-negative and unbounded values as their types validate them; arm
# lengths are at most 1e150 mm, so that their sum squares to a finite number
NON_NEGATIVE = finite(min_value=0.0) | st.just(-0.0)
ANY = finite() | st.just(-0.0)
LENGTH = finite(min_value=0.0, max_value=1e150, exclude_min=True)


@settings(max_examples=100, deadline=None)
@given(
    robot=st.none() | st.fixed_dictionaries(
        {
            "d1": LENGTH,
            "l1": finite(min_value=0.0, max_value=1e150) | st.just(-0.0),
            "l2": LENGTH,
            "d4": LENGTH,
            "d6": LENGTH,
        }
    ),
    scene=st.fixed_dictionaries(
        {"table_z": ANY, "floor_mode": st.sampled_from(FLOOR_MODES)}
    ),
    grid=st.fixed_dictionaries(
        {
            "x0": finite(min_value=-1e4, max_value=1e4) | st.just(-0.0),
            "y0": finite(min_value=-1e4, max_value=1e4) | st.just(-0.0),
            "rows": st.integers(1, 1000),
            "cols": st.integers(1, 1000),
            "row_spacing": finite(min_value=0.01, max_value=1e3),
            "col_spacing": finite(min_value=0.01, max_value=1e3),
            "safe_z": ANY,
        }
    ),
    noise=st.none() | st.fixed_dictionaries(
        {"sigma_contact": NON_NEGATIVE, "drift_per_contact": ANY, "seed": st.integers(0, 2**64)}
    ),
    flip=st.sampled_from(sorted(configparser.ConfigParser.BOOLEAN_STATES)),
)
def test_report_echo_round_trips(tmp_path_factory, robot, scene, grid, noise, flip):
    base = tmp_path_factory.mktemp("job")
    (base / "plate.stl").write_bytes(b"")  # the job load only checks it is a file
    drawn = {
        "robot": robot,
        "scene": {"mesh": "plate.stl", **scene},
        "grid": grid,
        "noise": noise,
        "output": {
            "stl": "out/scan.stl",
            "xyz": "out/scan.xyz",
            "trace": "out/trace.csv",
            "report": "out/report.txt",
            "flip_normals": flip,
        },
    }
    lines = []
    for section, keys in drawn.items():
        if keys is not None:
            lines.append(f"[{section}]")
            lines += [f"{key} = {v if isinstance(v, str) else repr(v)}" for key, v in keys.items()]
    config = base / "job.ini"
    config.write_text("\n".join(lines) + "\n")
    job = load_job(config)
    for section, keys in drawn.items():
        for key, value in (keys or {}).items():
            if isinstance(value, float):
                assert repr(job.values[section][key]) == repr(value)
            elif isinstance(value, int):
                assert job.values[section][key] == value
    assert job.values["output"]["flip_normals"] is configparser.ConfigParser.BOOLEAN_STATES[flip]
    assert job.values["output"]["report"] == (base / "out" / "report.txt").resolve()
    if robot is None:
        assert job.geom == RobotGeometry()
    if noise is None:
        assert job.noise == NoiseModel()

    echo = base / "echo.ini"
    echo.write_text(job.as_config())
    again = load_job(echo)
    assert repr(again.values) == repr(job.values)
    assert again.as_config() == job.as_config()


def test_docs_name_every_job_key():
    # the module docstring lists each section's keys in table order, and
    # marks the sections whose keys all have defaults
    documented = [
        (section, rest.split("(")[0].split(), "(optional)" in rest)
        for section, rest in re.findall(r"^    \[(\w+)\] +(.*)$", cli.__doc__, re.M)
    ]
    table = [
        (section, [key for key, *_ in keys], all(default is not None for *_, default in keys))
        for section, keys in cli.JOB_KEYS.items()
    ]
    assert documented == table
    # every key of the README's example job is in the table
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(re.search(r"```ini\n(.*?)```", readme, re.S).group(1))
    example = [(section, key) for section in parser.sections() for key in parser[section]]
    assert example
    grammar = {(section, key) for section, keys in cli.JOB_KEYS.items() for key, *_ in keys}
    assert set(example) <= grammar


def test_docs_name_every_exit_code():
    # the module docstring, the --help epilog and the README each list
    # exactly the codes main can return
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    expected = {EXIT_OK, *cli.EXIT_CODES.values()}
    for text in (cli.__doc__, cli.build_parser().epilog, readme):
        listing = re.search(r"[Ee]xit codes: (.*?)(?:\.|$)", text, re.S).group(1)
        assert {int(n) for n in re.findall(r"(?:^|,\s+)(\d+)\s", listing)} == expected


def utility_flags():
    """Every option string of fk, ik, test-a and test-b but --help."""
    parser = cli.build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        flag
        for command in ("fk", "ik", "test-a", "test-b")
        for action in subs.choices[command]._actions
        for flag in action.option_strings
        if flag not in ("-h", "--help")
    }


def test_docs_name_every_utility_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    flags = utility_flags()
    assert {flag for flag, _ in JOB_KEY_FLAGS.values()} <= flags
    missing = [f for f in sorted(flags) if not re.search(rf"(?<![\w-]){f}(?![\w-])", readme)]
    assert missing == []


# ------------------------------------------------------------------ scan


def test_scan_writes_all_artifacts(tmp_path):
    config = write_job(tmp_path)
    code, out, err = run_cli("scan", config)
    assert code == EXIT_OK and err == ""
    assert "points probed   42" in out
    assert "mesh contacts   42" in out

    mesh = load_stl(tmp_path / "out" / "scan.stl")
    assert len(mesh) == 2 * 5 * 6
    xyz_lines = (tmp_path / "out" / "scan.xyz").read_text().strip().split("\n")
    assert len(xyz_lines) == 42
    trace = (tmp_path / "out" / "trace.csv").read_text()
    assert trace.startswith("waypoint,theta1_deg")
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "# results" in report and "mesh contacts   42" in report


def test_scan_trace_file_is_the_reference_csv(tmp_path, monkeypatch):
    # the file is streamed in blocks; its bytes are the one-string CSV's
    monkeypatch.setattr(motion, "CSV_BLOCK", 100)
    result = cli.run_job(load_job(write_job(tmp_path, sigma=0.05)), out=io.StringIO())
    data = (tmp_path / "out" / "trace.csv").read_bytes()
    assert len(result.trace) > 3 * motion.CSV_BLOCK
    assert data == trace_csv_reference(result.trace.angles).encode()


def test_scan_is_byte_deterministic(tmp_path):
    config = write_job(tmp_path, sigma=0.05)
    names = ["out/scan.stl", "out/scan.xyz", "out/trace.csv", "out/report.txt"]
    assert run_cli("scan", config)[0] == EXIT_OK
    first = [(tmp_path / n).read_bytes() for n in names]
    assert run_cli("scan", config)[0] == EXIT_OK
    second = [(tmp_path / n).read_bytes() for n in names]
    assert first == second


def test_report_is_a_rerunnable_config(tmp_path):
    config = write_job(tmp_path, sigma=0.02)
    assert run_cli("scan", config)[0] == EXIT_OK
    report_path = tmp_path / "out" / "report.txt"
    names = ["out/scan.stl", "out/scan.xyz", "out/trace.csv", "out/report.txt"]
    first = [(tmp_path / n).read_bytes() for n in names]

    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(report_path.read_text())
    assert set(parser.sections()) == {"robot", "scene", "grid", "noise", "output"}

    echoed = tmp_path / "echoed.ini"
    echoed.write_text(report_path.read_text())
    assert run_cli("scan", echoed)[0] == EXIT_OK
    second = [(tmp_path / n).read_bytes() for n in names]
    assert first == second


def test_scan_percent_in_a_value_is_literal(tmp_path):
    # no interpolation: a lone % is a character, and the report echoes
    # it as written, so the report reruns too
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("out/scan.stl", "out/100%.stl"))
    assert run_cli("scan", config)[0] == EXIT_OK
    names = ["out/100%.stl", "out/scan.xyz", "out/trace.csv", "out/report.txt"]
    first = [(tmp_path / n).read_bytes() for n in names]
    echoed = tmp_path / "echoed.ini"
    echoed.write_bytes(first[-1])
    assert run_cli("scan", echoed)[0] == EXIT_OK
    assert [(tmp_path / n).read_bytes() for n in names] == first


def test_scan_unreachable_grid_aborts_clean(tmp_path):
    config = write_job(tmp_path, x0=560)
    code, out, err = run_cli("scan", config)
    assert code == EXIT_UNREACHABLE
    assert "unreachable" in err
    assert not (tmp_path / "out" / "scan.stl").exists()
    assert not (tmp_path / "out" / "scan.xyz").exists()
    assert not (tmp_path / "out" / "trace.csv").exists()
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "aborted before any motion" in report


def test_scan_corrupt_mesh_is_a_data_error(tmp_path):
    config = write_job(tmp_path)
    (tmp_path / "plate.stl").write_bytes(b"solid junk\nnot really\n")
    code, _, err = run_cli("scan", config)
    assert code == EXIT_DATA and "error:" in err


def nan_plate_stl(ascii=False) -> bytes:
    """A two-facet plate whose second facet has a NaN vertex."""
    mesh = make_plate(180.0, -120.0, 220.0, 240.0, 25.0)
    mesh.vertices[1, 2, 0] = np.nan
    return write_stl_ascii(mesh).encode() if ascii else write_stl_binary(mesh)


def test_scan_non_finite_mesh_is_a_data_error(tmp_path):
    config = write_job(tmp_path)
    (tmp_path / "plate.stl").write_bytes(nan_plate_stl())
    code, _, err = run_cli("scan", config)
    assert code == EXIT_DATA
    assert f"{tmp_path / 'plate.stl'}: byte 134: facet 2 has a non-finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "mesh, why",
    [
        (TriangleMesh(), "scene mesh is empty"),
        (make_plate(180.0, -120.0, 220.0, 240.0, -5.0),
         "mesh dips 5 mm below the table plane"),
    ],
    ids=["empty", "below-table"],
)
def test_scan_mesh_content_error_names_the_mesh(tmp_path, mesh, why):
    config = write_job(tmp_path)
    save_stl(mesh, tmp_path / "plate.stl")
    code, out, err = run_cli("scan", config)
    named = f"[scene] mesh {(tmp_path / 'plate.stl').resolve()}"
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {named}: {why}\n")
    assert not (tmp_path / "out").exists()


def test_scan_rejects_a_mesh_its_raycast_would_overflow(tmp_path):
    # ASCII coordinates are float64: a plate at z = 10 with corners at
    # +-1e200 mm overflowed every hit test, and the probes went through
    # it to the table ("table contacts 4", exit 0)
    plate = TriangleMesh(
        [[[-1e200, -1e200, 10.0], [1e200, -1e200, 10.0], [-1e200, 1e200, 10.0]],
         [[1e200, -1e200, 10.0], [1e200, 1e200, 10.0], [-1e200, 1e200, 10.0]]],
        [[0.0, 0.0, 1.0]] * 2,
    )
    config = write_job(tmp_path, x0=300)
    (tmp_path / "plate.stl").write_text(write_stl_ascii(plate))
    config.write_text(
        config.read_text().replace("y0 = -30", "y0 = -5")
        .replace("rows = 6", "rows = 2").replace("cols = 7", "cols = 2")
    )
    code, out, err = run_cli("scan", config)
    named = f"[scene] mesh {(tmp_path / 'plate.stl').resolve()}"
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith(f"error: {named}: scene mesh has non-finite coordinates or ones past")
    assert not (tmp_path / "out").exists()


def test_scan_bad_config_exit_code(tmp_path):
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("rows = 6", "rows = six"))
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG and "rows" in err


def test_scan_safe_height_below_scene_top_is_config_error(tmp_path):
    # plate top at z = 25: a descent from z = 10 would move upward
    config = write_job(tmp_path, plate_z=25.0)
    config.write_text(config.read_text().replace("safe_z = 60", "safe_z = 10"))
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert "safe height 10 mm" in err and "scene top at 25 mm" in err
    assert not (tmp_path / "out").exists()


def test_scan_table_below_the_lowest_tip_height_is_config_error(tmp_path):
    # a finite but deep table used to plan a descent of millions of
    # waypoints on a miss; every cell here hits the plate, and the job
    # still fails before any motion
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("table_z = 0", "table_z = -428"))
    code, out, err = run_cli("scan", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        "error: table plane at -428 mm is below the lowest tool-down tip height -427 mm\n"
    )
    assert not (tmp_path / "out").exists()


def test_scan_contact_past_the_reach_is_unreachable(tmp_path):
    # a huge drift lifts every contact after the first far past the arm's
    # reach; planning a descent toward one used to overflow the waypoint
    # count and end the run with a traceback
    config = write_job(tmp_path)
    config.write_text(
        config.read_text()
        .replace("rows = 6", "rows = 2")
        .replace("cols = 7", "cols = 2")
        .replace("seed = 11", "seed = 11\ndrift_per_contact = 1e308")
    )
    code, out, err = run_cli("scan", config)
    assert (code, err) == (EXIT_OK, "")
    assert "mesh contacts   1\n" in out and "unreachable     3\n" in out


def test_scan_grid_coordinates_that_overflow_are_config_error(tmp_path):
    # the far row lies at inf: the job used to exit 3 at the precheck
    config = write_job(tmp_path)
    config.write_text(
        config.read_text()
        .replace("x0 = 240", "x0 = 1e308")
        .replace("row_spacing = 6", "row_spacing = 1e308")
    )
    code, out, err = run_cli("scan", config)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        f"error: {config}: grid coordinates overflow: the far corner (6, 7) is at (inf, 6) mm\n"
    )
    assert not (tmp_path / "out").exists()


def test_scan_non_finite_number_is_config_error(tmp_path):
    # a NaN sigma would otherwise scan with no noise and exit 0
    config = write_job(tmp_path, sigma="nan")
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert "[noise] sigma_contact = 'nan' is not finite" in err
    assert not (tmp_path / "out").exists()


def test_scan_grid_over_point_bound_is_config_error(tmp_path, monkeypatch):
    # 10^10 points fail the job at load: no precheck, no motion
    config = write_job(tmp_path)
    text = config.read_text()
    config.write_text(text.replace("rows = 6\ncols = 7", "rows = 100000\ncols = 100000"))
    monkeypatch.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("the scan started"))
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG
    assert "100000 rows x 100000 cols" in err and "bound of 1000000" in err
    assert not (tmp_path / "out").exists()


def test_scan_degenerate_cell_rejected_at_job_load(tmp_path):
    config = write_job(tmp_path)
    text = config.read_text()
    config.write_text(
        text.replace("row_spacing = 6", "row_spacing = 1e-7")
        .replace("col_spacing = 6", "col_spacing = 1e-7")
    )
    with pytest.raises(ConfigError, match="degenerate"):
        load_job(config)
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG and "degenerate" in err
    assert not (tmp_path / "out").exists()

    # a thin cell is fine as long as its area clears the tolerance
    config.write_text(text.replace("row_spacing = 6", "row_spacing = 1e-7"))
    code, out, _ = run_cli("scan", config)
    assert code == EXIT_OK
    assert "triangles       60" in out


def test_scan_spacing_below_corner_resolution_rejected_at_job_load(tmp_path):
    # x0 = 240 absorbs a 1e-14 mm step: the nominal cell area, 1e-12 mm^2,
    # passes, but every row lands on the same x and the facets collapse
    config = write_job(tmp_path)
    config.write_text(
        config.read_text()
        .replace("rows = 6", "rows = 3")
        .replace("cols = 7", "cols = 3")
        .replace("row_spacing = 6", "row_spacing = 1e-14")
        .replace("col_spacing = 6", "col_spacing = 100")
    )
    with pytest.raises(ConfigError, match="degenerate"):
        load_job(config)
    code, _, err = run_cli("scan", config)
    assert code == EXIT_CONFIG and "degenerate" in err
    assert not (tmp_path / "out").exists()


# --------------------------------------------------------------- compare


def test_compare_xyz_with_itself_is_zero(tmp_path):
    rng = np.random.default_rng(3)
    cloud = PointCloud(rng.uniform(0, 100, size=(200, 3)))
    path = tmp_path / "cloud.xyz"
    save_xyz(cloud, path)
    code, out, _ = run_cli("compare", path, path)
    assert code == EXIT_OK
    assert float(parse_kv(out)["chamfer_mm"]) == 0.0


def test_compare_stl_sampling_is_seeded(tmp_path):
    plate = make_plate(0.0, 0.0, 50.0, 50.0, 10.0)
    save_stl(plate, tmp_path / "plate.stl")
    save_xyz(PointCloud(np.array([[25.0, 25.0, 10.0]])), tmp_path / "mid.xyz")
    runs = [
        run_cli("compare", tmp_path / "plate.stl", tmp_path / "mid.xyz",
                "--samples", "500")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK
    assert float(parse_kv(runs[0][1])["chamfer_mm"]) > 0.0


def test_compare_rejects_unknown_extension(tmp_path):
    bad = tmp_path / "cloud.csv"
    bad.write_text("1 2 3\n")
    code, _, err = run_cli("compare", bad, bad)
    assert code == EXIT_CONFIG and ".stl or .xyz" in err


def test_compare_names_an_empty_xyz_before_reading_the_other_file(tmp_path, monkeypatch):
    empty = tmp_path / "empty.xyz"
    empty.write_text("\n")
    plate = tmp_path / "plate.stl"
    save_stl(make_plate(0.0, 0.0, 50.0, 50.0, 10.0), plate)
    loaded = []
    monkeypatch.setattr(cli, "load_stl", lambda path: loaded.append(path) or load_stl(path))
    code, out, err = run_cli("compare", empty, plate)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {empty}: no points\n")
    assert loaded == []


@pytest.mark.parametrize(
    "mesh, why",
    [
        (TriangleMesh(), "cannot sample an empty mesh"),
        (TriangleMesh(np.zeros((1, 3, 3)), [[0.0, 0.0, 1.0]]), "mesh has zero surface area"),
    ],
    ids=["empty", "zero-area"],
)
def test_compare_names_an_stl_it_cannot_sample(tmp_path, mesh, why):
    bad, one = tmp_path / "bad.stl", tmp_path / "one.xyz"
    save_stl(mesh, bad)
    save_xyz(PointCloud([[1.0, 2.0, 3.0]]), one)
    code, out, err = run_cli("compare", bad, one)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {bad}: {why}\n")


def test_compare_names_an_stl_whose_area_overflows(tmp_path):
    # ASCII coordinates are float64, and their area can pass the float
    # range; the sampler's probabilities then held a NaN
    mesh = TriangleMesh([[[0.0, 0.0, 0.0], [1e300, 0.0, 0.0], [0.0, 1e300, 0.0]]], [[0.0, 0.0, 1.0]])
    bad, one = tmp_path / "bad.stl", tmp_path / "one.xyz"
    bad.write_text(write_stl_ascii(mesh))
    save_xyz(PointCloud([[1.0, 2.0, 3.0]]), one)
    code, out, err = run_cli("compare", bad, one)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {bad}: mesh surface area overflows\n")


def test_compare_missing_file_is_io_error(tmp_path):
    code, _, _ = run_cli("compare", tmp_path / "a.xyz", tmp_path / "b.xyz")
    assert code == EXIT_IO


def test_compare_corrupt_xyz_is_data_error(tmp_path):
    bad = tmp_path / "bad.xyz"
    bad.write_text("1 2\n")
    code, _, _ = run_cli("compare", bad, bad)
    assert code == EXIT_DATA


@pytest.mark.parametrize(
    "name, data, where",
    [
        ("nan.xyz", b"1 2 3\nnan 0 0\n", "line 2: non-finite coordinate"),
        # undecodable text is bad data too, not a bad job
        ("byte.xyz", b"1 2 3\n4 5 \xff\n", "line 2: byte 0xff is not ASCII"),
        ("nan.stl", nan_plate_stl(), "byte 134: facet 2 has a non-finite"),
        ("nan-ascii.stl", nan_plate_stl(ascii=True), "line 9: facet 2 has a non-finite"),
    ],
    ids=["xyz", "xyz-non-ascii", "binary-stl", "ascii-stl"],
)
def test_compare_non_finite_geometry_is_data_error(tmp_path, name, data, where):
    (tmp_path / name).write_bytes(data)
    save_xyz(PointCloud(np.array([[25.0, 25.0, 10.0]])), tmp_path / "ok.xyz")
    code, out, err = run_cli("compare", tmp_path / name, tmp_path / "ok.xyz")
    assert code == EXIT_DATA
    assert f"{tmp_path / name}: {where}" in err
    assert out == ""


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_compare_sample_count_below_one_is_config_error(tmp_path, samples):
    plate = tmp_path / "plate.stl"
    save_stl(make_plate(0.0, 0.0, 50.0, 50.0, 10.0), plate)
    code, out, err = run_cli("compare", plate, plate, "--samples", samples)
    assert code == EXIT_CONFIG
    assert f"sample count must be at least 1, got {samples}" in err
    assert out == ""


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--seed", "-1", "seed must be non-negative, got -1"),
        ("--samples", "0", "sample count must be at least 1, got 0"),
        (
            "--samples",
            str(MAX_SAMPLE_POINTS + 1),
            f"sample count must be at most {MAX_SAMPLE_POINTS}, got {MAX_SAMPLE_POINTS + 1}",
        ),
    ],
    ids=["seed", "samples", "samples-ceiling"],
)
def test_compare_flags_checked_before_any_file_loads(
    tmp_path, monkeypatch, flag, value, message
):
    # an .xyz input never reaches the sampler, so compare checks both
    # flags itself, before it reads either file
    cloud = tmp_path / "a.xyz"
    save_xyz(PointCloud(np.array([[25.0, 25.0, 10.0]])), cloud)
    loaded = []
    monkeypatch.setattr(cli, "load_xyz", lambda path: loaded.append(path) or load_xyz(path))
    code, out, err = run_cli("compare", cloud, cloud, flag, value)
    assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")
    assert loaded == []


# ------------------------------------------------------------- test-a/b


def test_cli_test_a_zero_noise(tmp_path):
    code, out, _ = run_cli("test-a")
    assert code == EXIT_OK
    assert "Diameter difference" in out
    assert float(parse_kv(out)["average_dd_mm"]) == pytest.approx(0.0, abs=1e-9)


def test_cli_test_a_seeded_and_unreachable():
    a = run_cli("test-a", "--sigma", "0.02", "--seed", "4")
    b = run_cli("test-a", "--sigma", "0.02", "--seed", "4")
    assert a == b and a[0] == EXIT_OK
    code, _, err = run_cli("test-a", "--center", "900", "0", "50")
    assert code == EXIT_UNREACHABLE and "probe point" in err


def test_cli_test_a_joint_limit_is_unreachable(monkeypatch):
    # a probe pose past a joint stop is out of reach like any other: exit 3
    tight_elbow = (0.0, math.radians(60.0))
    monkeypatch.setattr(
        kinematics, "JOINT_LIMITS", JOINT_LIMITS[:2] + (tight_elbow,) + JOINT_LIMITS[3:]
    )
    code, out, err = run_cli("test-a")
    assert (code, out) == (EXIT_UNREACHABLE, "")
    assert err.startswith("error: sphere probe point ") and "joint 3 angle " in err


def test_cli_test_b_defaults_and_repeats():
    code, out, _ = run_cli("test-b", "--sigma", "0.02", "--repeats", "30")
    assert code == EXIT_OK
    assert "Point repeatability (mm)" in out
    kv = parse_kv(out)
    assert kv["repeats"] == "30"
    assert float(kv["repeatability_mm"]) > 0.0
    assert run_cli("test-b", "--sigma", "0.02") == run_cli("test-b", "--sigma", "0.02")


def test_cli_test_b_repeats_over_bound_fails_before_any_draw(monkeypatch):
    def no_draw(self, ordinal):
        raise AssertionError("test-b drew noise for an out-of-bound repeat count")

    monkeypatch.setattr(NoiseModel, "error_at", no_draw)
    monkeypatch.setattr(NoiseModel, "errors", no_draw)
    code, out, err = run_cli("test-b", "--repeats", "100000000000", "--distances", "300")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        f"error: repeatability takes at most {MAX_TEST_B_REPEATS} repeats, "
        "got 100000000000\n"
    )


def test_cli_test_a_overflowing_contact_errors_are_config_error():
    # the squared norms overflow: the fit used to warn and call the
    # points coplanar
    code, out, err = run_cli("test-a", "--sigma", "1e200")
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        "error: sphere fit overflows: a doubled coordinate or a squared norm is not finite\n"
    )


@pytest.mark.parametrize(
    "drift, repeats", [("1e308", "3"), ("1e200", "10")], ids=["heights", "repeatability"]
)
def test_cli_test_b_overflowing_contact_errors_are_config_error(drift, repeats):
    # 1e308 overflows the touch heights and 1e200 their repeatability; the
    # table used to print nan or inf and exit 0
    code, out, err = run_cli("test-b", "--drift", drift, "--repeats", repeats)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == (
        "error: test point at 120.0 mm: the contact errors overflow its touch "
        "heights or their repeatability\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "0", "0", "0", "0", "0", "0", "--d1", "1e308", "--l2", "1e308"],
        ["ik", "300", "0", "50", "--l2", "1e200", "--d4", "1e200"],
        ["scan", "job.ini"],
    ],
    ids=["fk", "ik", "scan"],
)
def test_cli_link_lengths_too_long_to_square_are_config_error(tmp_path, monkeypatch, argv):
    # fk used to print z_mm = inf, and ik failed on a NaN elbow cosine
    config = write_job(tmp_path)
    config.write_text("[robot]\nl2 = 1e200\n" + config.read_text())
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "mm, too long to square\n" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["ik", "300", "0", "50", "--d4", "nan"], "d4"),
        (["test-a", "--sigma", "nan"], "sigma_contact"),
        (["test-b", "--sigma", "nan", "--repeats", "3"], "sigma_contact"),
        (["test-b", "--drift", "inf", "--repeats", "3"], "drift_per_contact"),
        (["ik", "300", "0", "nan"], "point X Y Z"),
        (["test-a", "--center", "300", "0", "nan"], "sphere center"),
        (["test-b", "--distances", "300", "nan", "--repeats", "3"], "test distances"),
        (["fk", "nan", "0", "0", "0", "0", "0"], "joint angles"),
    ],
    ids=[
        "ik-d4-nan", "test-a-sigma-nan", "test-b-sigma-nan", "test-b-drift-inf",
        "ik-point-nan", "test-a-center-nan", "test-b-distance-nan", "fk-angle-nan",
    ],
)
def test_cli_non_finite_flag_is_config_error(argv, field):
    # the flags and points skip the job parser: the types, the metrics
    # tests and the ik command must refuse them themselves
    code, out, err = run_cli(*argv)
    assert code == EXIT_CONFIG
    assert f"{field} must be finite" in err
    assert out == ""


@pytest.mark.parametrize("command", ["test-a", "test-b", "compare"])
def test_cli_negative_seed_is_config_error(tmp_path, command):
    # numpy refuses a negative seed only at its first draw, in its own words
    plate = tmp_path / "plate.stl"
    save_stl(make_plate(0.0, 0.0, 50.0, 50.0, 10.0), plate)
    argv = {
        "test-a": ["test-a", "--sigma", "0.1", "--seed", "-1"],
        "test-b": ["test-b", "--sigma", "0.1", "--seed", "-1", "--repeats", "3"],
        "compare": ["compare", plate, plate, "--samples", "10", "--seed", "-1"],
    }[command]
    code, out, err = run_cli(*argv)
    assert code == EXIT_CONFIG
    assert "seed must be non-negative, got -1" in err
    assert out == ""


# ------------------------------------------------------- utility flags

# Each [robot] and [noise] key's flag, with a value other than its default.
JOB_KEY_FLAGS = {
    ("robot", "d1"): ("--d1", "180"),
    ("robot", "l1"): ("--l1", "70"),
    ("robot", "l2"): ("--l2", "300"),
    ("robot", "d4"): ("--d4", "230"),
    ("robot", "d6"): ("--d6", "65"),
    ("noise", "sigma_contact"): ("--sigma", "0.02"),
    ("noise", "drift_per_contact"): ("--drift", "0.001"),
    ("noise", "seed"): ("--seed", "7"),
}

# Each utility command's arguments, the module `cli` finds its callee
# in, and the callee's name there.
UTILITY_CALLEES = {
    "fk": (["fk", "0", "0", "30", "0", "90", "0"], cli, "forward_kinematics"),
    "ik": (["ik", "300", "0", "50"], cli, "inverse_kinematics"),
    "test-a": (["test-a"], cli.metrics, "test_a"),
    "test-b": (["test-b"], cli.metrics, "test_b"),
}


class Captured(Exception):
    """Carries the arm and noise models a callee was handed."""


def captured_models(monkeypatch, command, *flags):
    """The RobotGeometry and NoiseModel arguments `command` passes its callee."""
    argv, owner, name = UTILITY_CALLEES[command]

    def capture(*args, **kwargs):
        raise Captured([a for a in args if isinstance(a, (RobotGeometry, NoiseModel))])

    monkeypatch.setattr(owner, name, capture)
    with pytest.raises(Captured) as caught:
        main([*argv, *flags])
    return caught.value.args[0]


def test_utility_flags_cover_the_robot_and_noise_keys():
    grammar = {(s, key) for s in ("robot", "noise") for key, *_ in cli.JOB_KEYS[s]}
    assert set(JOB_KEY_FLAGS) == grammar


@pytest.mark.parametrize("command", list(UTILITY_CALLEES))
def test_cli_utility_defaults_are_the_job_defaults(monkeypatch, command):
    expected = [RobotGeometry()]
    if command.startswith("test"):
        expected.append(NoiseModel())
    assert captured_models(monkeypatch, command) == expected


@pytest.mark.parametrize(
    "command, section, key",
    [
        (command, section, key)
        for command in UTILITY_CALLEES
        for section, key in JOB_KEY_FLAGS
        if section == "robot" or command.startswith("test")
    ],
)
def test_cli_utility_flag_sets_its_job_key(tmp_path, monkeypatch, command, section, key):
    flag, value = JOB_KEY_FLAGS[section, key]
    config = write_job(tmp_path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(config)
    parser.remove_section("noise")
    parser[section] = {key: value}
    with open(config, "w") as handle:
        parser.write(handle)
    job = load_job(config)
    expected = [job.geom, job.noise] if command.startswith("test") else [job.geom]
    assert expected != [RobotGeometry(), NoiseModel()][: len(expected)]
    assert captured_models(monkeypatch, command, flag, value) == expected


# ----------------------------------------------------------------- fk/ik


def test_cli_fk_home_tuple():
    code, out, _ = run_cli("fk", "0", "0", "0", "0", "0", "0")
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert float(kv["x_mm"]) == pytest.approx(65.0, abs=1e-6)
    assert float(kv["y_mm"]) == pytest.approx(0.0, abs=1e-6)
    assert float(kv["z_mm"]) == pytest.approx(767.0, abs=1e-6)
    assert kv["rotation_row_1"].split() == ["1.000000000", "0.000000000", "0.000000000"]


def test_cli_fk_joint_limit_exit_code():
    code, _, err = run_cli("fk", "0", "0", "-10", "0", "0", "0")
    assert code == EXIT_JOINT_LIMIT and "joint 3" in err


def test_cli_ik_round_trips_through_fk():
    code, out, _ = run_cli("ik", "300", "0", "50")
    assert code == EXIT_OK
    kv = parse_kv(out)
    angles = [kv[f"theta{j}_deg"] for j in range(1, 7)]
    code, out, _ = run_cli("fk", *angles)
    assert code == EXIT_OK
    kv = parse_kv(out)
    assert float(kv["x_mm"]) == pytest.approx(300.0, abs=1e-4)
    assert float(kv["y_mm"]) == pytest.approx(0.0, abs=1e-4)
    assert float(kv["z_mm"]) == pytest.approx(50.0, abs=1e-4)
    assert kv["rotation_row_3"].split()[2] == "-1.000000000"


def test_cli_ik_signed_zeros_aim_the_yaw_apart():
    # 0.0 and -0.0 are equal but aim the yaw half a turn apart, so IK
    # tells (x, y) apart by their bits
    sixths = []
    for x, y in (("0", "0"), ("-0.0", "-0.0")):
        code, out, _ = run_cli("ik", x, y, "400")
        assert code == EXIT_OK
        sixths.append(parse_kv(out)["theta6_deg"])
    assert sixths == ["180.000000", "0.000000"]


def test_cli_ik_unreachable_exit_code():
    code, _, err = run_cli("ik", "900", "0", "50")
    assert code == EXIT_UNREACHABLE and "error:" in err


@pytest.mark.parametrize("command", ["scan", "compare", "test-a", "test-b", "fk", "ik"])
def test_cli_help_exits_zero(capsys, command):
    # argparse %-formats help strings and cannot list a positional's
    # tuple metavar: either fault raises here instead
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: armscan {command} ")


def test_cli_ik_missing_coordinate_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ik", "300", "0"])
    assert excinfo.value.code == 2
    assert "the following arguments are required: Z" in capsys.readouterr().err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize(
    "kind, code", list(cli.EXIT_CODES.items()), ids=[kind.__name__ for kind in cli.EXIT_CODES]
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, kind, code):
    # one case per entry; the first matching entry wins, so a
    # JointLimitError, an UnreachableError too, exits 4, not 3
    error = kind([(1, 2)], "boom") if kind is UnreachableGridError else kind("boom")

    def fail(args, out):
        raise error

    monkeypatch.setattr(cli, "_cmd_ik", fail)
    assert run_cli("ik", "300", "0", "50") == (code, "", f"error: {error}\n")


@pytest.mark.parametrize("kind", [RuntimeError, ValueError], ids=lambda kind: kind.__name__)
def test_main_lets_an_unlisted_error_propagate(monkeypatch, kind):
    # a plain ValueError is a bug, not a rejected input: it gets no exit code
    def fail(args, out):
        raise kind("boom")

    monkeypatch.setattr(cli, "_cmd_ik", fail)
    with pytest.raises(kind, match="boom"):
        run_cli("ik", "300", "0", "50")
