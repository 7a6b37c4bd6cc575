"""Terminal summary: one pass/fail line per acceptance test.

Each test in test_acceptance.py states its guarantee in the first line of
its docstring; this hook replays those lines with outcomes at the end of
the run so the acceptance gate can be read without scrolling the log.

It also holds the fixtures that the oracle, campaign and CLI tests share to
watch forked children: the exhaustive sweep's workers and a campaign's
child, which makes havoc mutants and runs stage executions ahead.
"""

import os
import signal

import pytest

_lines: dict[str, str] = {}  # nodeid -> summary line (collection order)
_outcomes: dict[str, str] = {}


def pytest_collection_modifyitems(config, items):
    for item in items:
        if item.module.__name__ != "test_acceptance":
            continue
        doc = item.function.__doc__ or item.name
        _lines[item.nodeid] = doc.strip().splitlines()[0]


def pytest_runtest_logreport(report):
    if report.nodeid not in _lines:
        return
    if report.when == "call":
        _outcomes[report.nodeid] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # setup failures and skips never reach the call phase
        _outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _lines:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, line in _lines.items():
        outcome = _outcomes.get(nodeid, "notrun")
        tag = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}.get(
            outcome, outcome.upper()
        )
        terminalreporter.write_line(f"[{tag}] {line}")


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children a sweep or a campaign forks, so that a test
    cannot compare an in-process run with another in-process one."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


@pytest.fixture
def deadline():
    """Fails a sweep or campaign that hangs instead of leaving the suite waiting."""

    def expire(signum, frame):
        raise TimeoutError("the sweep or campaign hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class Scheduled(list):
    """One (input, dead) per evaluation a campaign's schedule handed out, in
    order. A dead run of k flips of bytes the parser drops is k times (its
    parent's bytes, True): each of those flips decodes to the parent's
    triple, so a replay of the parent classifies it. `sizes` holds each
    schedule item's count of evaluations; the last item is whole, so a
    campaign that stops inside a dead run evaluates only a prefix."""

    def __init__(self):
        super().__init__()
        self.sizes: list[int] = []

    def evaluated(self, executions: int) -> list:
        """The first `executions`, checked to end inside the last item: a
        campaign that counted fewer evaluations per item would have taken
        more items than this."""
        assert len(self) - self.sizes[-1] < executions <= len(self)
        return self[:executions]


@pytest.fixture
def scheduled(monkeypatch):
    """The Scheduled record of every campaign the test runs."""
    from deltafuzz import campaign

    record, real = Scheduled(), campaign._schedule

    def recording(seeds, queue, *args):
        for item, parent in real(seeds, queue, *args):
            if isinstance(item, int):
                record.extend([(queue.entries[parent].data, True)] * item)
            else:
                record.append((item, False))
            record.sizes.append(item if isinstance(item, int) else 1)
            yield item, parent

    monkeypatch.setattr(campaign, "_schedule", recording)
    return record
