"""Which engine functions read ground truth: a pinned audit of ``role``.

A node's ``role`` is ground truth: a cluster head cannot observe it.  The
engine's decisions should rest on what it can observe, so every function
that reads ``role`` is pinned here, over short runs of three scenarios,
together with the keys of every VERDICT payload.  A new reader fails the
test until it is named: either as an observation, or as a leak.

Today both readers are known leaks (ROADMAP item 5):

- ``_verify`` derives ``honest`` from the peer's role.  Passing it into
  the protocol as the candidate's behaviour is allowed.  Carrying it in
  the verdict payload, where ``_handle_verdict`` reads it back, is a leak.
- ``_reference_candidates`` filters references by role.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from sectrack import engine
from sectrack.cipher import derive_stream_seed
from sectrack.config import ScenarioConfig
from sectrack.scenarios import friendliness_config, multi_target_config, switching_config

ROLE_READERS = {"_verify", "_reference_candidates"}
VERDICT_KEYS = frozenset({"peer", "verdict", "honest"})


def short_config(name: str) -> ScenarioConfig:
    base = ScenarioConfig(master_seed=1)
    if name == "switching":
        short = dataclasses.replace(base, duration=100.0)
        return switching_config(short, 5.0, derive_stream_seed(1, "switching", 0))
    if name == "multi-target":
        short = dataclasses.replace(base, duration=100.0)
        return multi_target_config(short, derive_stream_seed(1, "multi-target", 0))
    return friendliness_config(base)


@pytest.mark.parametrize("name", ["switching", "multi-target", "friendliness"])
def test_role_readers_and_verdict_payload_keys(name, monkeypatch):
    readers: set[str] = set()
    payload_keys: set[frozenset[str]] = set()

    class AuditedNode(engine.NodeState):
        def __getattribute__(self, attr):
            if attr == "role":
                readers.add(sys._getframe(1).f_code.co_name)
            return super().__getattribute__(attr)

    push = engine.EventQueue.push

    def recording_push(queue, time, kind, payload=None):
        if kind is engine.VERDICT:
            payload_keys.add(frozenset(payload))
        push(queue, time, kind, payload)

    monkeypatch.setattr(engine, "NodeState", AuditedNode)
    monkeypatch.setattr(engine.EventQueue, "push", recording_push)
    eng = engine.Engine(short_config(name))
    log = eng.run()

    assert all(type(node) is AuditedNode for node in eng.nodes.values())
    assert log.tracks, "the run must activate a track, or no reference is ever chosen"
    assert readers == ROLE_READERS
    assert payload_keys == {VERDICT_KEYS}
