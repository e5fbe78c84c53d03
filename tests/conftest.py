import os
import re

import pytest

from hvsinglet import geometry

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_LABEL = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One printed verdict line per numbered acceptance criterion."""
    verdicts = {}
    for status, label in _LABEL.items():
        for report in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(report, "nodeid", ""))
            if m is None:
                continue
            num, slug = int(m.group(1)), m.group(2)
            if label == "FAIL" or num not in verdicts:
                verdicts[num] = (slug, label)
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(verdicts):
        slug, label = verdicts[num]
        terminalreporter.write_line(
            f"criterion {num} ({slug.replace('_', ' ')}): {label}")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the worker processes forked through ``os.fork``, on a 4-CPU process."""
    pids, fork = [], os.fork

    def counting() -> int:
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    return pids


def _no_child_left() -> bool:
    """True when this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def no_child_left():
    """``no_child_left()`` is True when this process has no child, running or unreaped."""
    return _no_child_left


class CallLog:
    """A list that forked workers append to too: one line per entry, appended to a file."""

    def __init__(self, path):
        self.path = path
        path.write_text("")

    def append(self, entry) -> None:
        with open(self.path, "a") as f:  # one short write: appends from processes do not mix
            f.write(f"{entry}\n")

    def entries(self) -> list[str]:
        return self.path.read_text().split()


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls")
