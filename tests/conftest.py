"""Session-wide checks shared by every test module."""

import os

import pytest

_SHM_DIR = "/dev/shm"
_BEFORE = pytest.StashKey[set]()


def _regions() -> set:
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("fbcomp-")}


def pytest_sessionstart(session):
    session.config.stash[_BEFORE] = _regions()


def pytest_sessionfinish(session):
    """Fail the session when a region made during it is still in /dev/shm."""
    left = sorted(_regions() - session.config.stash[_BEFORE])
    if left:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        reporter = session.config.pluginmanager.get_plugin("terminalreporter")
        if reporter is not None:
            reporter.write("\n")
            reporter.write_sep(
                "=", f"regions left in {_SHM_DIR}: {', '.join(left)}", red=True)
