"""End-to-end command-line tests: job parsing, artifact writing,
exit codes, and the report-echo rerun invariant."""

import configparser
import io
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from armscan import cli
from armscan.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_IO,
    EXIT_JOINT_LIMIT,
    EXIT_OK,
    EXIT_UNREACHABLE,
    JobConfigError,
    load_job,
    main,
)
from armscan.kinematics import RobotGeometry
from armscan.meshio import (
    PointCloud,
    load_stl,
    load_xyz,
    save_stl,
    save_xyz,
    write_stl_binary,
)
from armscan.objects import make_plate
from armscan.scanner import UnreachableGridError
from armscan.scene import FLOOR_MODES, NoiseModel

from conftest import write_stl_ascii

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
    with pytest.raises(JobConfigError, match="not found"):
        load_job(tmp_path / "nope.ini")


def test_load_job_missing_section(tmp_path):
    config = write_job(tmp_path)
    text = config.read_text().replace("[grid]", "[grff]")
    config.write_text(text)
    with pytest.raises(JobConfigError, match=r"\[grid\]"):
        load_job(config)


def test_load_job_missing_key(tmp_path):
    config = write_job(tmp_path)
    config.write_text(config.read_text().replace("rows = 6\n", ""))
    with pytest.raises(JobConfigError, match="needs key 'rows'"):
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
    with pytest.raises(JobConfigError, match=match):
        load_job(config)


def test_load_job_bad_floor_mode(tmp_path):
    with pytest.raises(JobConfigError, match="floor_mode"):
        load_job(write_job(tmp_path, floor_mode="lava"))


def test_load_job_missing_mesh(tmp_path):
    config = write_job(tmp_path)
    (tmp_path / "plate.stl").unlink()
    with pytest.raises(JobConfigError, match="mesh file not found"):
        load_job(config)


def test_load_job_not_utf8_is_config_error(tmp_path):
    config = write_job(tmp_path)
    config.write_bytes(config.read_bytes().replace(b"table_z = 0", b"table_z = 0 # \xff"))
    with pytest.raises(JobConfigError, match="not UTF-8"):
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
    with pytest.raises(JobConfigError, match="l2"):
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


# positive, non-negative and unbounded values as their types validate them
POSITIVE = finite(min_value=0.0, exclude_min=True)
NON_NEGATIVE = finite(min_value=0.0) | st.just(-0.0)
ANY = finite() | st.just(-0.0)


@settings(max_examples=100, deadline=None)
@given(
    robot=st.none() | st.fixed_dictionaries(
        {"d1": POSITIVE, "l1": NON_NEGATIVE, "l2": POSITIVE, "d4": POSITIVE, "d6": POSITIVE}
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
    with pytest.raises(JobConfigError, match="degenerate"):
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
    with pytest.raises(JobConfigError, match="degenerate"):
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
    ],
    ids=["seed", "samples"],
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


def test_cli_test_b_defaults_and_repeats():
    code, out, _ = run_cli("test-b", "--sigma", "0.02", "--repeats", "30")
    assert code == EXIT_OK
    assert "Point repeatability (mm)" in out
    kv = parse_kv(out)
    assert kv["repeats"] == "30"
    assert float(kv["repeatability_mm"]) > 0.0
    assert run_cli("test-b", "--sigma", "0.02") == run_cli("test-b", "--sigma", "0.02")


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


def test_cli_ik_unreachable_exit_code():
    code, _, err = run_cli("ik", "900", "0", "50")
    assert code == EXIT_UNREACHABLE and "error:" in err


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize(
    "kind, code", list(cli.EXIT_CODES.items()), ids=[kind.__name__ for kind in cli.EXIT_CODES]
)
def test_main_maps_each_error_to_its_exit_code(monkeypatch, kind, code):
    # the first matching entry wins: StlFormatError is a ValueError, yet
    # exits 6, not 2
    error = kind([(1, 2)], "boom") if kind is UnreachableGridError else kind("boom")

    def fail(args, out):
        raise error

    monkeypatch.setattr(cli, "_cmd_ik", fail)
    assert run_cli("ik", "300", "0", "50") == (code, "", f"error: {error}\n")


def test_main_lets_an_unlisted_error_propagate(monkeypatch):
    def fail(args, out):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_ik", fail)
    with pytest.raises(RuntimeError, match="boom"):
        run_cli("ik", "300", "0", "50")
