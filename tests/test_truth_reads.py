"""Which engine functions read ground truth: pinned audits of ``malicious`` and position.

A node's ``malicious`` flag and a target's true position are ground
truth: a cluster head observes neither.  The engine's decisions should
rest on what it can observe, so every function that reads ``malicious``
is pinned here, over short runs of three scenarios, together with the
handler and the arguments of every VERDICT event.  A target's true
position is marked where it is read, and every engine call that receives
it is pinned.  A new reader or receiver fails its test until it is
named: either as an observation, or as a leak.

Both readers of ``malicious`` are known leaks (ROADMAP item 9):

- ``_verify`` derives ``honest`` from the peer's flag.  Passing it into
  the protocol as the candidate's behaviour is allowed.  Carrying it in
  the VERDICT event, where ``_handle_verdict`` takes it as its
  ``honest`` argument, is a leak.
- ``_reference_candidates`` filters references by the flag.

A target's true position may go to the channel, whose physics times the
exchanges, and to scoring.  The zone anchor that ``_activate_track`` and
``_claim_pair`` take from it is a known leak.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import sys
from collections import Counter

import pytest

from sectrack import engine
from sectrack.cipher import derive_stream_seed
from sectrack.config import ScenarioConfig
from sectrack.geometry import Position
from sectrack.scenarios import friendliness_config, multi_target_config, switching_config

MALICIOUS_READERS = {"_verify", "_reference_candidates"}
# The VERDICT event's handler and the parameters its arguments fill;
# ``honest`` is the leak.
VERDICT_HANDLER = ("_handle_verdict", ("peer_id", "passed", "honest"))


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
def test_malicious_readers_and_verdict_handler(name, monkeypatch):
    readers: set[str] = set()
    verdict_handlers: set[tuple[str, tuple[str, ...]]] = set()

    class AuditedNode(engine.NodeState):
        def __getattribute__(self, attr):
            if attr == "malicious":
                readers.add(sys._getframe(1).f_code.co_name)
            return super().__getattribute__(attr)

    push = engine.EventQueue.push

    def recording_push(queue, time, kind, handler, *args):
        if kind is engine.EventKind.VERDICT:
            params = tuple(inspect.signature(handler).parameters)[1:]  # after the time
            assert len(args) == len(params)
            verdict_handlers.add((handler.__name__, params))
        push(queue, time, kind, handler, *args)

    monkeypatch.setattr(engine, "NodeState", AuditedNode)
    monkeypatch.setattr(engine.EventQueue, "push", recording_push)
    eng = engine.Engine(short_config(name))
    log = eng.run()

    assert all(type(node) is AuditedNode for node in eng.nodes.values())
    assert log.tracks, "the run must activate a track, or no reference is ever chosen"
    assert readers == MALICIOUS_READERS
    assert verdict_handlers == {VERDICT_HANDLER}


# Functions that read a target's true position from ``NodeState.position``.
TRUTH_READERS = {
    "_verify",  # the screen's preamble: physics and the quantised d and bearing
    "tracking_tick",  # the ranging legs and the scoring sample
    "_activate_track",  # known leak: the detection fix seeds the pairing and the zone
    "_claim_pair",  # known leak: a fresh detection fix becomes the zone anchor
}
# (reader, receiver) for every engine call, made while a tracking tick runs,
# that passes a target's true position read by ``reader`` to ``receiver``.
TICK_RECEIVERS = {
    ("tracking_tick", "exchange"),  # physics: the channel times each ranging exchange
    ("tracking_tick", "distance"),  # scoring: the sample's error
    ("tracking_tick", "EstimateSample"),  # scoring: the sample's truth
    # Known leaks: the anchor that _claim_pair read seeds the tick's zone.
    ("_claim_pair", "_form_zone"),
    ("_claim_pair", "form_zone"),
}


class Truth(Position):
    """A target's true position, as ``reader`` read it."""

    reader: str


def callee_name(frame) -> str:
    """The called function's name; a NamedTuple's or a dataclass's for its constructor."""
    local = frame.f_locals
    if "_cls" in local:  # collections.namedtuple's generated __new__
        return local["_cls"].__name__
    if frame.f_code.co_name == "__init__":
        return type(local["self"]).__name__
    return frame.f_code.co_name


@pytest.mark.parametrize("name", ["switching", "multi-target"])
def test_truth_position_readers_and_tick_receivers(name, monkeypatch):
    readers: set[str] = set()
    receivers: Counter[tuple[str, str]] = Counter()
    in_tick = 0

    def position(node):
        pos = node.mobility.position
        if not node.malicious:
            return pos
        truth = Truth(*pos)
        truth.reader = sys._getframe(1).f_code.co_name
        readers.add(truth.reader)
        return truth

    def distance(a, b):
        # geometry.distance is math.dist, whose arguments a profiler cannot see.
        return math.dist(a, b)

    tick = engine.Engine.tracking_tick

    def counted_tick(self, track, t):
        nonlocal in_tick
        in_tick += 1
        try:
            tick(self, track, t)
        finally:
            in_tick -= 1

    def profile(frame, event, arg):
        caller = frame.f_back
        if event != "call" or not in_tick or caller.f_code.co_filename != engine.__file__:
            return
        code = frame.f_code
        for arg_name in code.co_varnames[: code.co_argcount + code.co_kwonlyargcount]:
            value = frame.f_locals.get(arg_name)
            if isinstance(value, Truth):
                receivers[value.reader, callee_name(frame)] += 1

    monkeypatch.setattr(engine.NodeState, "position", property(position))
    monkeypatch.setattr(engine, "distance", distance)
    monkeypatch.setattr(engine.Engine, "tracking_tick", counted_tick)
    eng = engine.Engine(short_config(name))
    sys.setprofile(profile)
    try:
        log = eng.run()
    finally:
        sys.setprofile(None)

    samples = [s for record in log.tracks.values() for s in record.estimates]
    assert samples and all(s.truth.reader == "tracking_tick" for s in samples)
    assert readers == TRUTH_READERS
    assert set(receivers) == TICK_RECEIVERS
    # The tick's truth meets ``distance`` only for each sample's error.
    assert receivers["tracking_tick", "distance"] == len(samples)
    assert receivers["tracking_tick", "EstimateSample"] == len(samples)
