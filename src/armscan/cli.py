"""Command-line front end.

Subcommands:
    scan      run a scan job described by a config file
    compare   Chamfer distance between two geometry files (STL or XYZ)
    test-a    nine-point sphere accuracy test
    test-b    single-point repeatability test
    fk        forward kinematics of one joint tuple
    ik        tool-down inverse kinematics of one point

Scan jobs are sectioned key=value text (INI).  All lengths are mm and
all angles are degrees at this boundary.  Grammar (`JOB_KEYS`):

    [robot]   d1 l1 l2 d4 d6                                 (optional)
    [scene]   mesh table_z floor_mode
    [grid]    x0 y0 rows cols row_spacing col_spacing safe_z
    [noise]   sigma_contact drift_per_contact seed           (optional)
    [output]  stl xyz trace report flip_normals

mesh and the four output keys are paths, resolved against the config
file's directory; rows, cols and seed are integers; floor_mode is table
or skip; flip_normals is a boolean; every other value is a finite
number.  Values are taken literally: `%` is an ordinary character.  A
section or key outside the grammar, and an output path that names a
directory or lies under a file, fail the job at load.  The report a
run writes echoes the fully resolved job as a valid config followed
by the result counts as comments, so any report can be fed back to
`armscan scan` to reproduce its artifacts byte for byte.

`compare` samples each STL input at `--samples` points, at least 1 and
at most `metrics.MAX_SAMPLE_POINTS` (10,000,000), and rejects an XYZ
input with no points or an STL input with no facets or no area,
naming the file.
`test-b` takes `--repeats` from 2 to `metrics.MAX_TEST_B_REPEATS`
(1,000,000).
`fk`, `ik`, `test-a` and `test-b` take the `[robot]` keys as the flags
`--d1 --l1 --l2 --d4 --d6`, and `test-a` and `test-b` take the `[noise]`
keys as `--sigma` (sigma_contact), `--drift` (drift_per_contact) and
`--seed`; each flag has its key's type, default and checks.

Exit codes: 0 success, 2 bad config or arguments, 3 unreachable
geometry, 4 joint limit violation, 5 I/O failure, 6 malformed
geometry data.  Exit 2 is a `ConfigError`: a job, flag or input-file
value was rejected.  Exit 6 is a `FormatError`.  `ik` or `fk` stopped
at a joint limit exits 4; a scan grid or a test-a/test-b point out of
reach, for any kinematic reason, exits 3.  Any other error is a bug
and ends with a traceback.
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
    ConfigError,
    JointAngles,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    check_limits,
    forward_kinematics,
    inverse_kinematics,
)
from .meshio import (
    FormatError,
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


# The error each exit code reports, in precedence order: `main` exits
# with the first entry the error is an instance of, so each subclass
# comes before its base class.  Any other error is a bug: it propagates.
EXIT_CODES = {
    FormatError: EXIT_DATA,
    JointLimitError: EXIT_JOINT_LIMIT,
    UnreachableError: EXIT_UNREACHABLE,
    ConfigError: EXIT_CONFIG,
    OSError: EXIT_IO,
}


# ------------------------------------------------------------------- job

# The job grammar: each section's keys in report order, with their type
# and default.  A default of None marks a required key; a section with a
# required key is required.  The grid keys are in ScanGrid's field order.
JOB_KEYS = {
    "robot": tuple(
        (name, float, getattr(RobotGeometry, name))
        for name in ("d1", "l1", "l2", "d4", "d6")
    ),
    "scene": (
        ("mesh", Path, None),
        ("table_z", float, TargetScene.table_z),
        ("floor_mode", str, TargetScene.floor_mode),
    ),
    "grid": (
        ("x0", float, None),
        ("y0", float, None),
        ("rows", int, None),
        ("cols", int, None),
        ("row_spacing", float, None),
        ("col_spacing", float, None),
        ("safe_z", float, None),
    ),
    "noise": (
        ("sigma_contact", float, NoiseModel.sigma_contact),
        ("drift_per_contact", float, NoiseModel.drift_per_contact),
        ("seed", int, NoiseModel.seed),
    ),
    "output": (
        ("stl", Path, None),
        ("xyz", Path, None),
        ("trace", Path, None),
        ("report", Path, None),
        ("flip_normals", bool, False),
    ),
}


@dataclass
class ScanJob:
    geom: RobotGeometry
    grid: ScanGrid
    noise: NoiseModel
    values: dict  # section -> key -> resolved value, for every JOB_KEYS key

    def as_config(self) -> str:
        """The fully resolved job as runnable config text."""
        lines = []
        for section, keys in JOB_KEYS.items():
            lines.append(f"[{section}]")
            for key, kind, _ in keys:
                value = self.values[section][key]
                if kind is float:
                    value = repr(value)
                elif kind is bool:
                    value = "true" if value else "false"
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)


def load_job(path) -> ScanJob:
    """Parse and validate a scan-job config file."""
    path = Path(path)
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None
    )
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from None

    where = str(path)
    for section, keys in JOB_KEYS.items():
        if not parser.has_section(section) and any(d is None for *_, d in keys):
            raise ConfigError(f"{where}: missing section [{section}]")
    # a misspelt name would otherwise run with the default it shadows
    for section, raw in parser.items():
        if section not in JOB_KEYS and section != parser.default_section:
            raise ConfigError(f"{where}: unknown section [{section}]")
        known = [key for key, *_ in JOB_KEYS.get(section, ())]
        for key in raw:
            if key not in known:
                raise ConfigError(f"{where}: [{section}] has no key '{key}'")

    base = path.resolve().parent

    def read(section, key, kind, default):
        """One value read as `kind`, or its default when the key is absent."""
        if not parser.has_option(section, key):
            if default is None:
                raise ConfigError(f"{where}: section [{section}] needs key '{key}'")
            return default
        text = parser[section][key]
        bad = f"{where}: [{section}] {key} = {text!r} is not"
        if kind is Path:
            if "\0" in text:  # no file name holds one, and resolve() fails on it
                raise ConfigError(f"{bad} a valid path")
            return (base / text).resolve()
        try:
            value = parser.BOOLEAN_STATES[text.lower()] if kind is bool else kind(text)
        except (ValueError, KeyError):
            raise ConfigError(f"{bad} a valid {kind.__name__}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"{bad} finite")
        return value

    values = {
        section: {key: read(section, key, kind, default) for key, kind, default in keys}
        for section, keys in JOB_KEYS.items()
    }
    try:
        geom = RobotGeometry(**values["robot"])
        grid = ScanGrid(*values["grid"].values())
        noise = NoiseModel(**values["noise"])
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None

    scene = values["scene"]
    if scene["floor_mode"] not in FLOOR_MODES:
        raise ConfigError(
            f"{where}: [scene] floor_mode must be one of {'/'.join(FLOOR_MODES)}, "
            f"got {scene['floor_mode']!r}"
        )
    if not scene["mesh"].is_file():
        raise ConfigError(f"{where}: [scene] mesh file not found: {scene['mesh']}")
    # each file the job reads or writes is a distinct path that can be a
    # file: not a directory, and under no existing file
    paths = [
        (f"[{section}] {key}", values[section][key])
        for section, keys in JOB_KEYS.items()
        for key, kind, _ in keys
        if kind is Path
    ]
    owner = {}
    for name, file in paths:
        if file in owner:
            raise ConfigError(f"{where}: {owner[file]} and {name} are both {file}")
        owner[file] = name
        if file.is_dir():
            raise ConfigError(f"{where}: {name} is a directory: {file}")
        nearest = next(parent for parent in file.parents if parent.exists())
        if not nearest.is_dir():
            raise ConfigError(f"{where}: {name} is under a file: {nearest}")

    return ScanJob(geom, grid, noise, values)


def _write_text(path: Path, text) -> None:
    """Write `text`, a str or an iterable of encoded blocks, atomically."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text.encode("utf-8") if isinstance(text, str) else text)


def _comment_block(text: str) -> str:
    return "".join(f"# {line}".rstrip() + "\n" for line in text.splitlines())


def run_job(job: ScanJob, out=sys.stdout) -> ScanResult:
    """Execute a loaded job and write all four artifacts.

    On an unreachable grid no geometry artifact is touched; the report
    is still written (with the abort reason) and the error propagates
    for the exit-code mapping.
    """
    setup, output = job.values["scene"], job.values["output"]
    mesh = load_stl(setup["mesh"])
    try:
        scene = TargetScene(mesh, setup["table_z"], setup["floor_mode"])
    except ConfigError as exc:
        raise ConfigError(f"[scene] mesh {setup['mesh']}: {exc}") from None
    report = "# scan job report; feed this file back to `armscan scan` to rerun\n"
    report += job.as_config()
    try:
        result = run_scan(
            job.grid, job.geom, scene, job.noise, flip_normals=output["flip_normals"]
        )
    except UnreachableGridError as exc:
        report += "\n# aborted before any motion\n"
        report += _comment_block(f"unreachable grid: {exc}")
        _write_text(output["report"], report)
        raise

    for artifact in (output["stl"], output["xyz"]):
        artifact.parent.mkdir(parents=True, exist_ok=True)
    save_stl(result.mesh, output["stl"])
    save_xyz(result.points.measured_cloud(), output["xyz"])
    _write_text(output["trace"], result.trace.csv_blocks())
    report += "\n# results\n" + _comment_block(result.summary())
    _write_text(output["report"], report)

    out.write(result.summary())
    for key in ("stl", "xyz", "trace", "report"):
        out.write(f"{key:<8}{output[key]}\n")
    return result


# ------------------------------------------------------------ subcommands


def _load_cloud(path: Path, samples: int, seed: int):
    suffix = path.suffix.lower()
    if suffix == ".xyz":
        cloud = load_xyz(path)
        if len(cloud) == 0:
            raise ConfigError(f"{path}: no points")
        return cloud
    if suffix == ".stl":
        mesh = load_stl(path)
        try:
            return metrics.sample_mesh_surface(mesh, count=samples, seed=seed)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"{path}: expected a .stl or .xyz file")


def _cmd_scan(args, out) -> int:
    run_job(load_job(args.config), out=out)
    return EXIT_OK


def _cmd_compare(args, out) -> int:
    # checked up front: an .xyz input never reaches the sampler's checks
    metrics.check_sampling(args.samples, args.seed)
    a = _load_cloud(Path(args.path_a), args.samples, args.seed)
    b = _load_cloud(Path(args.path_b), args.samples, args.seed)
    out.write(metrics.chamfer_distance(a, b).key_values())
    return EXIT_OK


def _job_values(args, section) -> dict:
    """The `JOB_KEYS[section]` values `_add_job_flags` parsed, by key."""
    return {key: getattr(args, key) for key, *_ in JOB_KEYS[section]}


def _cmd_test_a(args, out) -> int:
    report = metrics.test_a(
        tuple(args.center),
        args.diameter,
        RobotGeometry(**_job_values(args, "robot")),
        NoiseModel(**_job_values(args, "noise")),
    )
    out.write(report.table())
    out.write("\n")
    out.write(report.key_values())
    return EXIT_OK


def _cmd_test_b(args, out) -> int:
    reports = metrics.test_b(
        RobotGeometry(**_job_values(args, "robot")),
        NoiseModel(**_job_values(args, "noise")),
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
        raise ConfigError(f"joint angles must be finite, got {args.angles}")
    geom = RobotGeometry(**_job_values(args, "robot"))
    angles = JointAngles(*np.radians(args.angles).tolist())
    check_limits(angles)
    pose = forward_kinematics(angles, geom)
    x, y, z = pose.position
    out.write(f"x_mm = {x:.6f}\ny_mm = {y:.6f}\nz_mm = {z:.6f}\n")
    for row in range(3):
        entries = " ".join(f"{pose.rotation[row, col]:.9f}" for col in range(3))
        out.write(f"rotation_row_{row + 1} = {entries}\n")
    return EXIT_OK


def _cmd_ik(args, out) -> int:
    point = [args.X, args.Y, args.Z]
    if not all(map(math.isfinite, point)):
        raise ConfigError(f"point X Y Z must be finite, got {point}")
    geom = RobotGeometry(**_job_values(args, "robot"))
    solution = inverse_kinematics(Pose.tool_down(*point), geom)
    for name, value in solution._asdict().items():
        out.write(f"{name}_deg = {np.degrees(value):.6f}\n")
    return EXIT_OK


# ----------------------------------------------------------------- parser


# The flags of job keys spelt other than `--{key}`.
FLAG_NAMES = {"sigma_contact": "--sigma", "drift_per_contact": "--drift"}


def _add_job_flags(sub, *sections):
    """One flag per key of each `JOB_KEYS` section, with its type and default."""
    for section in sections:
        for key, kind, default in JOB_KEYS[section]:
            flag = FLAG_NAMES.get(key, f"--{key}")
            sub.add_argument(
                flag, dest=key, type=kind, default=default, metavar=flag[2:].upper(),
                help=f"[{section}] {key} of a scan job",
            )


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
    _add_job_flags(test_a, "noise", "robot")
    test_a.set_defaults(func=_cmd_test_a)

    test_b = subs.add_parser("test-b", help="single-point repeatability test")
    test_b.add_argument(
        "--distances", type=float, nargs="+", default=list(metrics.TEST_B_DISTANCES)
    )
    test_b.add_argument("--repeats", type=int, default=metrics.TEST_B_REPEATS)
    _add_job_flags(test_b, "noise", "robot")
    test_b.set_defaults(func=_cmd_test_b)

    fk = subs.add_parser("fk", help="forward kinematics of six joint angles")
    fk.add_argument("angles", type=float, nargs=6, metavar="DEG")
    _add_job_flags(fk, "robot")
    fk.set_defaults(func=_cmd_fk)

    ik = subs.add_parser("ik", help="tool-down inverse kinematics of x y z")
    # one positional per axis: argparse's help cannot list a tuple metavar
    for axis in "XYZ":
        ik.add_argument(axis, type=float, help="tip position, mm")
    _add_job_flags(ik, "robot")
    ik.set_defaults(func=_cmd_ik)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except tuple(EXIT_CODES) as exc:
        err.write(f"error: {exc}\n")
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
