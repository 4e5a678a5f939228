"""Command-line front end.

Subcommands:
    scan      run a scan job described by a config file
    compare   Chamfer distance between two geometry files (STL or XYZ)
    test-a    nine-point sphere accuracy test
    test-b    single-point repeatability test
    fk        forward kinematics of one joint tuple
    ik        tool-down inverse kinematics of one point

Scan jobs are sectioned key=value text (INI).  All lengths are mm and
all angles are degrees at this boundary.  Grammar:

    [robot]            optional, link lengths d1 l1 l2 d4 d6
    [scene]            mesh = path.stl; table_z; floor_mode table|skip
    [grid]             x0 y0 rows cols row_spacing col_spacing safe_z
    [noise]            optional, sigma_contact drift_per_contact seed
    [output]           stl xyz trace report paths; flip_normals

Relative paths are resolved against the config file's directory.  The
report a run writes echoes the fully resolved job as a valid config
followed by the result counts as comments, so any report can be fed
back to `armscan scan` to reproduce its artifacts byte for byte.

Exit codes: 0 success, 2 bad config or arguments, 3 unreachable
geometry, 4 joint limit violation, 5 I/O failure, 6 malformed
geometry data.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import metrics
from .kinematics import (
    JointAngles,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    forward_kinematics,
    inverse_kinematics,
)
from .meshio import (
    StlFormatError,
    XyzFormatError,
    load_stl,
    load_xyz,
    save_stl,
    save_xyz,
    write_atomic,
)
from .scanner import ScanGrid, ScanResult, UnreachableGridError, run_scan
from .scene import FLOOR_MODES, NoiseModel, TargetScene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNREACHABLE = 3
EXIT_JOINT_LIMIT = 4
EXIT_IO = 5
EXIT_DATA = 6

DEFAULT_COMPARE_SAMPLES = 10000


class JobConfigError(Exception):
    """Scan-job file is missing, unparsable, or fails validation."""


# ------------------------------------------------------------------- job


@dataclass
class ScanJob:
    geom: RobotGeometry
    mesh_path: Path
    table_z: float
    floor_mode: str
    grid: ScanGrid
    noise: NoiseModel
    flip_normals: bool
    stl_path: Path
    xyz_path: Path
    trace_path: Path
    report_path: Path


class _Section:
    """One config section with typed, error-reporting accessors."""

    def __init__(self, parser, name, where):
        self.name = name
        self.where = where
        self.raw = parser[name] if parser.has_section(name) else None

    def require(self):
        if self.raw is None:
            raise JobConfigError(f"{self.where}: missing section [{self.name}]")
        return self

    def _fetch(self, key, kind, fallback):
        if self.raw is None or key not in self.raw:
            if fallback is not None:
                return fallback
            raise JobConfigError(
                f"{self.where}: section [{self.name}] needs key '{key}'"
            )
        text = self.raw[key]
        try:
            if kind is bool:
                return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
            return kind(text)
        except (ValueError, KeyError):
            raise JobConfigError(
                f"{self.where}: [{self.name}] {key} = {text!r} is not a valid "
                f"{kind.__name__}"
            ) from None

    def number(self, key, fallback=None):
        value = self._fetch(key, float, fallback)
        if not math.isfinite(value):
            raise JobConfigError(
                f"{self.where}: [{self.name}] {key} = {self.raw[key]!r} is not finite"
            )
        return value

    def integer(self, key, fallback=None):
        return self._fetch(key, int, fallback)

    def flag(self, key, fallback=None):
        return self._fetch(key, bool, fallback)

    def text(self, key, fallback=None):
        return self._fetch(key, str, fallback)


def load_job(path) -> ScanJob:
    """Parse and validate a scan-job config file."""
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except FileNotFoundError:
        raise JobConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise JobConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        raise JobConfigError(f"config parse error: {exc}") from None

    where = str(path)
    robot = _Section(parser, "robot", where)
    scene = _Section(parser, "scene", where).require()
    grid = _Section(parser, "grid", where).require()
    noise = _Section(parser, "noise", where)
    output = _Section(parser, "output", where).require()

    base = path.resolve().parent

    try:
        geom = RobotGeometry(
            **{
                name: robot.number(name, getattr(RobotGeometry, name))
                for name in ("d1", "l1", "l2", "d4", "d6")
            }
        )
        scan_grid = ScanGrid(
            x0=grid.number("x0"),
            y0=grid.number("y0"),
            n_rows=grid.integer("rows"),
            n_cols=grid.integer("cols"),
            row_spacing=grid.number("row_spacing"),
            col_spacing=grid.number("col_spacing"),
            safe_z=grid.number("safe_z"),
        )
        noise_model = NoiseModel(
            sigma_contact=noise.number("sigma_contact", NoiseModel.sigma_contact),
            drift_per_contact=noise.number(
                "drift_per_contact", NoiseModel.drift_per_contact
            ),
            seed=noise.integer("seed", NoiseModel.seed),
        )
    except ValueError as exc:
        raise JobConfigError(f"{where}: {exc}") from None

    floor_mode = scene.text("floor_mode", TargetScene.floor_mode)
    if floor_mode not in FLOOR_MODES:
        raise JobConfigError(
            f"{where}: [scene] floor_mode must be one of {'/'.join(FLOOR_MODES)}, "
            f"got {floor_mode!r}"
        )
    mesh_path = (base / Path(scene.text("mesh"))).resolve()
    if not mesh_path.is_file():
        raise JobConfigError(f"{where}: [scene] mesh file not found: {mesh_path}")
    # each file the job reads or writes is a distinct path
    files = {"[scene] mesh": mesh_path}
    for key in ("stl", "xyz", "trace", "report"):
        files[f"[output] {key}"] = (base / Path(output.text(key))).resolve()
    owner = {}
    for key, file in files.items():
        if file in owner:
            raise JobConfigError(f"{where}: {owner[file]} and {key} are both {file}")
        owner[file] = key

    return ScanJob(
        geom=geom,
        mesh_path=mesh_path,
        table_z=scene.number("table_z", TargetScene.table_z),
        floor_mode=floor_mode,
        grid=scan_grid,
        noise=noise_model,
        flip_normals=output.flag("flip_normals", False),
        stl_path=files["[output] stl"],
        xyz_path=files["[output] xyz"],
        trace_path=files["[output] trace"],
        report_path=files["[output] report"],
    )


def _job_as_config(job: ScanJob) -> str:
    """The fully resolved job as runnable config text."""
    g, sg, n = job.geom, job.grid, job.noise
    return "\n".join(
        [
            "[robot]",
            f"d1 = {g.d1!r}",
            f"l1 = {g.l1!r}",
            f"l2 = {g.l2!r}",
            f"d4 = {g.d4!r}",
            f"d6 = {g.d6!r}",
            "",
            "[scene]",
            f"mesh = {job.mesh_path}",
            f"table_z = {job.table_z!r}",
            f"floor_mode = {job.floor_mode}",
            "",
            "[grid]",
            f"x0 = {sg.x0!r}",
            f"y0 = {sg.y0!r}",
            f"rows = {sg.n_rows}",
            f"cols = {sg.n_cols}",
            f"row_spacing = {sg.row_spacing!r}",
            f"col_spacing = {sg.col_spacing!r}",
            f"safe_z = {sg.safe_z!r}",
            "",
            "[noise]",
            f"sigma_contact = {n.sigma_contact!r}",
            f"drift_per_contact = {n.drift_per_contact!r}",
            f"seed = {n.seed}",
            "",
            "[output]",
            f"stl = {job.stl_path}",
            f"xyz = {job.xyz_path}",
            f"trace = {job.trace_path}",
            f"report = {job.report_path}",
            f"flip_normals = {'true' if job.flip_normals else 'false'}",
            "",
        ]
    )


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text.encode("utf-8"))


def _comment_block(text: str) -> str:
    return "".join(f"# {line}".rstrip() + "\n" for line in text.splitlines())


def run_job(job: ScanJob, out=sys.stdout) -> ScanResult:
    """Execute a loaded job and write all four artifacts.

    On an unreachable grid no geometry artifact is touched; the report
    is still written (with the abort reason) and the error propagates
    for the exit-code mapping.
    """
    scene = TargetScene(
        load_stl(job.mesh_path), table_z=job.table_z, floor_mode=job.floor_mode
    )
    header = "# scan job report; feed this file back to `armscan scan` to rerun\n"
    try:
        result = run_scan(
            job.grid, job.geom, scene, job.noise, flip_normals=job.flip_normals
        )
    except UnreachableGridError as exc:
        report = (
            header
            + _job_as_config(job)
            + "\n# aborted before any motion\n"
            + _comment_block(f"unreachable grid: {exc}")
        )
        _write_text(job.report_path, report)
        raise

    for artifact in (job.stl_path, job.xyz_path):
        artifact.parent.mkdir(parents=True, exist_ok=True)
    save_stl(result.mesh, job.stl_path)
    save_xyz(result.points.measured_cloud(), job.xyz_path)
    _write_text(job.trace_path, result.trace.to_csv())
    report = header + _job_as_config(job) + "\n# results\n"
    report += _comment_block(result.summary())
    _write_text(job.report_path, report)

    out.write(result.summary())
    out.write(f"stl     {job.stl_path}\n")
    out.write(f"xyz     {job.xyz_path}\n")
    out.write(f"trace   {job.trace_path}\n")
    out.write(f"report  {job.report_path}\n")
    return result


# ------------------------------------------------------------ subcommands


def _load_cloud(path: Path, samples: int, seed: int):
    suffix = path.suffix.lower()
    if suffix == ".xyz":
        return load_xyz(path)
    if suffix == ".stl":
        return metrics.sample_mesh_surface(load_stl(path), count=samples, seed=seed)
    raise JobConfigError(f"{path}: expected a .stl or .xyz file")


def _cmd_scan(args, out) -> int:
    run_job(load_job(args.config), out=out)
    return EXIT_OK


def _cmd_compare(args, out) -> int:
    a = _load_cloud(Path(args.path_a), args.samples, args.seed)
    b = _load_cloud(Path(args.path_b), args.samples, args.seed)
    out.write(metrics.chamfer_distance(a, b).key_values())
    return EXIT_OK


def _geometry_from(args) -> RobotGeometry:
    return RobotGeometry(d1=args.d1, l1=args.l1, l2=args.l2, d4=args.d4, d6=args.d6)


def _noise_from(args) -> NoiseModel:
    return NoiseModel(
        sigma_contact=args.sigma, drift_per_contact=args.drift, seed=args.seed
    )


def _cmd_test_a(args, out) -> int:
    report = metrics.test_a(
        tuple(args.center), args.diameter, _geometry_from(args), _noise_from(args)
    )
    out.write(report.table())
    out.write("\n")
    out.write(report.key_values())
    return EXIT_OK


def _cmd_test_b(args, out) -> int:
    reports = metrics.test_b(
        _geometry_from(args),
        _noise_from(args),
        distances=tuple(args.distances),
        repeats=args.repeats,
    )
    out.write(metrics.repeatability_table(reports))
    out.write("\n")
    for report in reports:
        out.write(report.key_values())
    return EXIT_OK


def _cmd_fk(args, out) -> int:
    if not all(map(math.isfinite, args.angles)):
        raise ValueError(f"joint angles must be finite, got {args.angles}")
    geom = _geometry_from(args)
    angles = JointAngles(*np.radians(args.angles).tolist())
    geom.check_limits(angles)
    pose = forward_kinematics(angles, geom)
    x, y, z = pose.position
    out.write(f"x_mm = {x:.6f}\ny_mm = {y:.6f}\nz_mm = {z:.6f}\n")
    for row in range(3):
        entries = " ".join(f"{pose.rotation[row, col]:.9f}" for col in range(3))
        out.write(f"rotation_row_{row + 1} = {entries}\n")
    return EXIT_OK


def _cmd_ik(args, out) -> int:
    if not all(map(math.isfinite, args.point)):
        raise ValueError(f"point X Y Z must be finite, got {args.point}")
    solution, _ = inverse_kinematics(Pose.tool_down(*args.point), _geometry_from(args))
    for name, value in solution._asdict().items():
        out.write(f"{name}_deg = {np.degrees(value):.6f}\n")
    return EXIT_OK


# ----------------------------------------------------------------- parser


def _add_geometry_flags(sub):
    arm = RobotGeometry()
    sub.add_argument("--d1", type=float, default=arm.d1, help="base height, mm")
    sub.add_argument("--l1", type=float, default=arm.l1, help="shoulder offset, mm")
    sub.add_argument("--l2", type=float, default=arm.l2, help="upper arm, mm")
    sub.add_argument("--d4", type=float, default=arm.d4, help="forearm, mm")
    sub.add_argument("--d6", type=float, default=arm.d6, help="tool offset, mm")


def _add_noise_flags(sub):
    off = NoiseModel()
    sub.add_argument(
        "--sigma", type=float, default=off.sigma_contact, help="contact noise, mm"
    )
    sub.add_argument(
        "--drift", type=float, default=off.drift_per_contact,
        help="drift per contact, mm",
    )
    sub.add_argument("--seed", type=int, default=off.seed, help="noise seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armscan",
        description="Simulated contact-probe 3D scanner for a 6-DoF arm.",
        epilog=(
            "exit codes: 0 ok, 2 config, 3 unreachable, 4 joint limit, "
            "5 I/O, 6 bad geometry data"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("scan", help="run a scan job config")
    scan.add_argument("config", help="job file (see module docs for grammar)")
    scan.set_defaults(func=_cmd_scan)

    compare = subs.add_parser("compare", help="Chamfer distance of two files")
    compare.add_argument("path_a")
    compare.add_argument("path_b")
    compare.add_argument(
        "--samples",
        type=int,
        default=DEFAULT_COMPARE_SAMPLES,
        help="surface samples per STL input",
    )
    compare.add_argument("--seed", type=int, default=0, help="sampling seed")
    compare.set_defaults(func=_cmd_compare)

    test_a = subs.add_parser("test-a", help="nine-point sphere accuracy test")
    test_a.add_argument(
        "--center", type=float, nargs=3, default=[300.0, 0.0, 50.0],
        metavar=("X", "Y", "Z"),
    )
    test_a.add_argument("--diameter", type=float, default=25.0, help="sphere, mm")
    _add_noise_flags(test_a)
    _add_geometry_flags(test_a)
    test_a.set_defaults(func=_cmd_test_a)

    test_b = subs.add_parser("test-b", help="single-point repeatability test")
    test_b.add_argument(
        "--distances", type=float, nargs="+", default=list(metrics.TEST_B_DISTANCES)
    )
    test_b.add_argument("--repeats", type=int, default=metrics.TEST_B_REPEATS)
    _add_noise_flags(test_b)
    _add_geometry_flags(test_b)
    test_b.set_defaults(func=_cmd_test_b)

    fk = subs.add_parser("fk", help="forward kinematics of six joint angles")
    fk.add_argument("angles", type=float, nargs=6, metavar="DEG")
    _add_geometry_flags(fk)
    fk.set_defaults(func=_cmd_fk)

    ik = subs.add_parser("ik", help="tool-down inverse kinematics of x y z")
    ik.add_argument("point", type=float, nargs=3, metavar=("X", "Y", "Z"))
    _add_geometry_flags(ik)
    ik.set_defaults(func=_cmd_ik)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except (StlFormatError, XyzFormatError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_DATA
    except (UnreachableError, UnreachableGridError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_UNREACHABLE
    except JointLimitError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_JOINT_LIMIT
    except (JobConfigError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
