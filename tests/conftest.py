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


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and starts no thread.

    A submitted helper runs when the pool closes, after the caller has taken
    every task, so it finds none left.
    """

    sizes: list = []

    def __init__(self, max_workers):
        _RecordingPool.sizes.append(max_workers)
        self.submitted = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fn in self.submitted:
            fn()
        return False

    def submit(self, fn):
        self.submitted.append(fn)


@pytest.fixture
def recording_pool(monkeypatch):
    """Helper counts asked for, on a stand-in executor and a 4-CPU process."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(geometry, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 4)
    return _RecordingPool.sizes
