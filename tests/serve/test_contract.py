"""The service contract: protocol tables, dispatch and job lifecycle.

``docs/service.md`` is the published v1 contract; these checks keep the
op table, the error-code table, the server dispatch and the declared
job state machine in step with each other.
"""

import pathlib

import pytest

from repro.serve import protocol
from repro.serve.jobs import JOB_STATES, JOB_TRANSITIONS, TERMINAL_JOB_STATES
from repro.serve.server import JobServer

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs/service.md"


def doc_table_column(header: str) -> list[str]:
    """First-column values of the markdown table whose header row starts
    with ``| <header> |``, backticks stripped."""
    rows = iter(DOC.read_text(encoding="utf-8").splitlines())
    for line in rows:
        if line.startswith(f"| {header} |"):
            break
    else:
        raise AssertionError(f"no '| {header} |' table in {DOC}")
    next(rows)  # the |---| separator
    values = []
    for line in rows:
        if not line.startswith("|"):
            break
        values.append(line.split("|")[1].strip().strip("`"))
    return values


def test_ops_match_doc_table():
    assert list(protocol.OPS) == doc_table_column("op")


def test_error_codes_match_doc_table():
    assert list(protocol.ERROR_CODES) == doc_table_column("code")


class StubManager:
    """Answers every manager call with the name of the method called."""

    def __getattr__(self, name):
        return lambda *args, **kwargs: name


@pytest.mark.parametrize("op", protocol.OPS)
def test_every_op_is_dispatched(op):
    server = JobServer(StubManager())
    request = protocol.request(op, "r1", {"spec": {}, "job_id": "j1"})
    reply = server._handle_line(protocol.encode(request))
    assert reply["ok"], reply["error"]


def test_job_transitions_are_closed_and_reachable():
    states = set(JOB_STATES)
    for src, dst in JOB_TRANSITIONS:
        assert src in states and dst in states, (src, dst)
        assert src not in TERMINAL_JOB_STATES, (src, dst)
    reached, frontier = {"queued"}, ["queued"]
    while frontier:
        state = frontier.pop()
        for src, dst in JOB_TRANSITIONS:
            if src == state and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    assert reached == states
