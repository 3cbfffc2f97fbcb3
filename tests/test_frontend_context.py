"""Mid-stream context reconfiguration: ``set_context_id`` boundaries.

The driver contract says a context ID change requires a stopped
session and takes effect on the next enable.  These tests pin what
that means on the wire and in the dataplanes, for both grammars:

- decoding the concatenated capture of session A (context 0x11) and
  session B (context 0x42) yields the context switch exactly on the
  session boundary — every session-A branch decodes under 0x11,
  every session-B branch under 0x42, none are lost or reordered;
- an SoC run spanning the context change produces identical verdicts
  on the batched and per-event dataplanes.
"""

import pytest

from repro.coresight.decoder import (
    DecodedBranch,
    DecodedContext,
    DecodedISync,
)
from repro.eval.metrics import build_demo_soc, demo_events
from repro.frontends import get_frontend
from repro.frontends.etrace import (
    EtraceBranch,
    EtraceContext,
    EtraceSync,
)

FRONTEND_NAMES = ("coresight", "etrace")
CONTEXT_A = 0x11
CONTEXT_B = 0x42

_CONTEXT_TYPES = (DecodedISync, DecodedContext, EtraceSync, EtraceContext)
_BRANCH_TYPES = (DecodedBranch, EtraceBranch)


def _decode(name: str, blob: bytes):
    frontend = get_frontend(name)
    deframer = frontend.new_deframer()
    decoder = frontend.new_decoder()
    decoded = list(decoder.feed(deframer.push(blob)))
    decoded += decoder.finish()
    return decoded


def _timeline(decoded):
    """Flatten a decode into ("ctx", id) / ("branch", address) marks."""
    marks = []
    for packet in decoded:
        if isinstance(packet, _CONTEXT_TYPES):
            marks.append(("ctx", packet.context_id))
        elif isinstance(packet, _BRANCH_TYPES):
            marks.append(("branch", packet.address))
    return marks


def _branches(marks):
    return [value for kind, value in marks if kind == "branch"]


def _two_session_capture(name: str):
    """Session A under 0x11, reconfigure, session B under 0x42."""
    driver = get_frontend(name).create_driver()
    driver.set_context_id(CONTEXT_A)
    events_a = demo_events("lstm", 0, 600, run_label="ctx-a")
    events_b = demo_events("lstm", 1, 600, run_label="ctx-b")
    driver.enable()
    framed_a = driver.trace_all(events_a)
    driver.disable()
    driver.set_context_id(CONTEXT_B)
    driver.enable()
    framed_b = driver.trace_all(events_b)
    driver.disable()
    return framed_a, framed_b


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_context_switch_lands_on_the_session_boundary(name):
    framed_a, framed_b = _two_session_capture(name)
    marks = _timeline(_decode(name, framed_a + framed_b))

    contexts = [value for kind, value in marks if kind == "ctx"]
    assert CONTEXT_A in contexts and CONTEXT_B in contexts
    boundary = next(
        i for i, (kind, value) in enumerate(marks)
        if kind == "ctx" and value == CONTEXT_B
    )
    # Every context observation before the boundary is session A's,
    # every one at or after it is session B's: the reconfiguration
    # leaks into neither direction.
    assert {v for k, v in marks[:boundary] if k == "ctx"} == {CONTEXT_A}
    assert {v for k, v in marks[boundary:] if k == "ctx"} == {CONTEXT_B}

    # And the branch split at the boundary is exactly the per-session
    # decode: no branch crosses the context change, none are lost.
    branches_a = _branches(_timeline(_decode(name, framed_a)))
    branches_b = _branches(_timeline(_decode(name, framed_b)))
    assert branches_a, "vacuous: session A decoded no branches"
    assert branches_b, "vacuous: session B decoded no branches"
    assert _branches(marks[:boundary]) == branches_a
    assert _branches(marks[boundary:]) == branches_b


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_periodic_syncs_republish_the_live_context(name):
    """Inside one session every sync agrees on the configured ID."""
    framed_a, _ = _two_session_capture(name)
    contexts = [
        value
        for kind, value in _timeline(_decode(name, framed_a))
        if kind == "ctx"
    ]
    assert contexts and set(contexts) == {CONTEXT_A}


@pytest.mark.parametrize("name", FRONTEND_NAMES)
def test_dataplanes_agree_across_a_context_change(name):
    """Batched and loop verdicts stay identical when a run spans
    end_session -> set_context_id -> new session."""
    events_a = demo_events("lstm", 0, 1500, run_label="ctx-plane-a")
    events_b = demo_events("lstm", 1, 1500, run_label="ctx-plane-b")

    def verdicts(dataplane):
        # Fresh SoC per dataplane: run_events returns the MCM's
        # lifetime record log, covering both sessions.
        soc = build_demo_soc("lstm", seed=0, frontend=name)
        soc.run_events(events_a, dataplane=dataplane)
        soc.loop.driver.disable()
        soc.loop.driver.set_context_id(CONTEXT_B)
        records = soc.run_events(events_b, dataplane=dataplane)
        return [
            (r.sequence_number, r.score, bool(r.anomalous))
            for r in records
        ]

    batched = verdicts("batched")
    loop = verdicts("loop")
    assert batched, "vacuous agreement (no inferences)"
    assert batched == loop
