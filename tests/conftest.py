import warnings

import numpy as np
import pytest

from armscan.kinematics import JOINT_LIMITS, RobotGeometry

# Hypothesis imports its failure-explanation module the first time a
# test fails, and that import raises a DeprecationWarning from a
# dependency, which the session's warning filters make an error that
# ends the whole run.  Importing it once here, with that warning
# ignored, keeps one failing test from hiding the tests after it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def geom():
    return RobotGeometry()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def random_joint_tuples(n, rng, margin=1e-6):
    """Uniform in-limit joint samples, one row per tuple."""
    lows = np.array([lo + margin for lo, hi in JOINT_LIMITS])
    highs = np.array([hi - margin for lo, hi in JOINT_LIMITS])
    return rng.uniform(lows, highs, size=(n, 6))


def write_stl_ascii(mesh, name="scan"):
    """ASCII STL text of a mesh, as other tools write it."""
    lines = [f"solid {name}"]
    for normal, vertices in zip(mesh.normals, mesh.vertices):
        lines.append("  facet normal {:e} {:e} {:e}".format(*normal))
        lines.append("    outer loop")
        for v in vertices:
            lines.append("      vertex {:e} {:e} {:e}".format(*v))
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    return "\n".join(lines) + "\n"
