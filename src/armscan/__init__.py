"""Simulated contact-probe 3D scanning with a 6-DoF arm.

Closed-form inverse kinematics drives a virtual touch probe over a
rectangular grid; contacts against a target mesh become a point cloud
and a triangulated STL, scored by Chamfer distance and the standard
accuracy/repeatability probe tests.
"""

from .kinematics import (
    JointAngles,
    JointLimitError,
    Pose,
    RobotGeometry,
    UnreachableError,
    forward_kinematics,
    inverse_kinematics,
    is_reachable,
    wrist_center,
)
from .meshio import (
    PointCloud,
    StlFormatError,
    TriangleMesh,
    XyzFormatError,
    load_stl,
    load_xyz,
    read_stl,
    read_xyz,
    save_stl,
    save_xyz,
    write_stl_binary,
    write_xyz,
)
from .metrics import (
    AccuracyReport,
    ChamferReport,
    RepeatabilityReport,
    SphereFit,
    chamfer_distance,
    fit_sphere,
    sample_mesh_surface,
    test_a,
    test_b,
)
from .motion import JointTrace, LinearPath, plan_line, probe_cycle
from .objects import make_plate, make_wing
from .scanner import (
    PointGrid,
    ScanGrid,
    ScanResult,
    UnreachableGridError,
    run_scan,
    triangulate,
)
from .scene import NoiseModel, TargetScene, probe_contact, raycast_down

__version__ = "0.1.0"

__all__ = [
    "AccuracyReport",
    "ChamferReport",
    "JointAngles",
    "JointLimitError",
    "JointTrace",
    "LinearPath",
    "NoiseModel",
    "PointCloud",
    "PointGrid",
    "Pose",
    "RepeatabilityReport",
    "RobotGeometry",
    "ScanGrid",
    "ScanResult",
    "SphereFit",
    "StlFormatError",
    "TargetScene",
    "TriangleMesh",
    "UnreachableError",
    "UnreachableGridError",
    "XyzFormatError",
    "chamfer_distance",
    "fit_sphere",
    "forward_kinematics",
    "inverse_kinematics",
    "is_reachable",
    "load_stl",
    "load_xyz",
    "make_plate",
    "make_wing",
    "plan_line",
    "probe_contact",
    "probe_cycle",
    "raycast_down",
    "read_stl",
    "read_xyz",
    "run_scan",
    "sample_mesh_surface",
    "save_stl",
    "save_xyz",
    "test_a",
    "test_b",
    "triangulate",
    "wrist_center",
    "write_stl_binary",
    "write_xyz",
]
