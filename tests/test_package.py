"""The package's public surface."""

import armscan


def test_every_export_resolves():
    # a stale name here would break `from armscan import *`
    missing = [name for name in armscan.__all__ if not hasattr(armscan, name)]
    assert missing == []
