"""Shared pytest hooks: per-criterion summary lines for the acceptance suite."""

import re

_CRITERION = re.compile(r"test_acceptance\.py::.*test_criterion_(\d+)")
_results = {}
_seconds = {}


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    num = int(match.group(1))
    # wall time of every phase (setup, call, teardown) of every part
    _seconds[num] = _seconds.get(num, 0.0) + report.duration
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
    elif report.skipped:
        outcome = "SKIP"
    elif report.failed:
        outcome = "FAIL"
    else:
        return
    # a criterion split over several tests fails as soon as one part fails
    previous = _results.get(num)
    if previous != "FAIL":
        _results[num] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        terminalreporter.write_line(f"criterion {num}: {_results[num]} ({_seconds[num]:.2f} s)")
