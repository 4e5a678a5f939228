"""End-to-end command-line tests: job parsing, artifact writing,
exit codes, and the report-echo rerun invariant."""

import configparser
import io

import numpy as np
import pytest

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
from armscan.meshio import PointCloud, load_stl, save_stl, save_xyz
from armscan.objects import make_plate

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
    assert job.mesh_path == (tmp_path / "plate.stl").resolve()
    assert job.stl_path == (tmp_path / "out" / "scan.stl").resolve()
    assert job.geom.d1 == 170.0 and job.geom.d6 == 70.0  # [robot] omitted
    assert job.grid.n_rows == 6 and job.grid.n_cols == 7
    assert job.noise.sigma_contact == 0.0 and job.noise.seed == 11
    assert job.noise.drift_per_contact == 0.0
    assert job.floor_mode == "table" and job.flip_normals is False


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
    ],
    ids=[
        "not-a-float",
        "safe_z-nan",
        "safe_z-inf",
        "row_spacing-inf",
        "drift-nan",
        "sigma-nan",
        "table_z-minus-inf",
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


def test_load_job_invalid_geometry_value(tmp_path):
    config = write_job(tmp_path)
    config.write_text("[robot]\nl2 = -5\n" + config.read_text())
    with pytest.raises(JobConfigError, match="l2"):
        load_job(config)


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
    ],
    ids=["ik-d4-nan", "test-a-sigma-nan", "test-b-sigma-nan", "test-b-drift-inf"],
)
def test_cli_non_finite_flag_is_config_error(argv, field):
    # the flags skip the job parser: the types themselves must refuse
    code, out, err = run_cli(*argv)
    assert code == EXIT_CONFIG
    assert f"{field} must be finite" in err
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
