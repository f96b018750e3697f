"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the simulator's modules from the
outside, where each caller looks them up, so no code under ``src/``
changes:

- ``engine.py`` binds the geometry functions with ``from ... import``,
  so they are patched in the ``sectrack.engine`` namespace;
- ``mobility.step``, ``ch.propagate``, ``cipher.*`` and ``protocol.*``
  are called as module attributes and are patched on their modules;
- ``Engine`` methods are patched on the class;
- ``scenarios.py`` binds ``run_scenario`` and ``write_csv`` by name, so
  they are patched in the ``sectrack.scenarios`` namespace.

Each wrapper records a span: its duration counts toward the span's busy
time, and its self time is the duration minus the time of the spans it
encloses. The nesting is ``run_scenario`` -> ``reauthentication_tick`` ->
``complete_verification`` -> ``cipher.*`` and ``run_scenario`` ->
``tracking_tick`` -> ``channel``/``geometry``. Wrappers draw no random
numbers, so the simulator's shared streams see the same draws in the same
order and the output tree is unchanged.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable

CIPHER_FUNCTIONS = (
    "pad",
    "first_plain_segment",
    "derive_initial_key",
    "reconstruct_initial_key",
    "key_chain",
    "encrypt_packet",
    "decrypt_packet",
    "xor_fold_digest",
)
GEOMETRY_FUNCTIONS = (
    "form_zone",
    "beamwidth_for_zone",
    "range_from_timestamps",
    "triangulate",
    "circle_intersections",
)
EVENT_KINDS = ("mobility", "sweep", "assign", "track", "scan_done", "verdict")

# (metric name, unit) of every per-layer metric a traced call reports.
LAYER_METRICS = (
    ("mobility.step.calls", "count"),
    ("mobility.step.self_s", "s"),
    ("engine.sweep.calls", "count"),
    ("engine.sweep.busy_s", "s"),
    ("engine.sweep.self_s", "s"),
    ("protocol.sessions", "count"),
    ("protocol.verify.self_s", "s"),
    ("cipher.packets", "count"),
    ("cipher.bytes_xored", "bytes"),
    ("cipher.key_chains", "count"),
    ("cipher.self_s", "s"),
    ("engine.track_tick.calls", "count"),
    ("engine.track_tick.busy_s", "s"),
    ("engine.track_tick.self_s", "s"),
    ("engine.assign.calls", "count"),
    ("engine.assign.self_s", "s"),
    ("engine.switch.calls", "count"),
    ("geometry.triangulate.calls", "count"),
    ("geometry.fix_ratio", "ratio"),
    ("geometry.form_zone.calls", "count"),
    ("geometry.self_s", "s"),
    ("channel.propagate.calls", "count"),
    ("channel.delivered_ratio", "ratio"),
    ("channel.self_s", "s"),
    ("protocol.mc.calls", "count"),
    ("protocol.mc.trials", "count"),
    ("protocol.mc.self_s", "s"),
    ("engine.events", "count"),
    *((f"engine.events.{kind}", "count") for kind in EVENT_KINDS),
    ("engine.us_per_event", "us"),
    ("engine.self_s", "s"),
    ("scenarios.engine_runs", "count"),
    ("metrics.write_csv.self_s", "s"),
    ("metrics.bytes_written", "bytes"),
    ("sim.verdicts", "count"),
    ("sim.estimates", "count"),
    ("sim.switches", "count"),
    ("sim.node_s", "node-s"),
)

# Metrics above that must repeat exactly between two runs of the same code.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit in ("count", "bytes", "node-s"))


class _Span:
    __slots__ = ("calls", "returned", "busy", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.returned = 0
        self.busy = 0.0
        self.self = 0.0


class Tracer:
    """Install with :meth:`install`, run one scenario call, then :meth:`remove`."""

    def __init__(self) -> None:
        self.spans: dict[str, _Span] = {}
        self.counts: Counter[str] = Counter()
        self.engine_run_s: list[float] = []
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        from sectrack import channel, cipher, engine, mobility, protocol, scenarios

        if self._patches:
            raise RuntimeError("tracer already installed")
        Engine = engine.Engine
        self._span(mobility, "step", "mobility.step")
        self._span(Engine, "reauthentication_tick", "engine.sweep")
        self._span(Engine, "tracking_tick", "engine.track_tick")
        self._span(Engine, "assign_targets", "engine.assign")
        self._span(Engine, "switch_reference", "engine.switch")
        self._span(protocol, "complete_verification", "protocol.verify")
        self._span(protocol, "monte_carlo_detection", "protocol.mc", self._on_mc)
        for name in CIPHER_FUNCTIONS:
            on_return = self._on_packet if name.endswith("_packet") else None
            self._span(cipher, name, f"cipher.{name}", on_return)
        self._span(channel, "propagate", "channel.propagate", self._on_propagate)
        for name in GEOMETRY_FUNCTIONS:
            self._span(engine, name, f"geometry.{name}")
        self._span(scenarios, "run_scenario", "scenarios.run_scenario", self._on_engine_run)
        self._span(scenarios, "write_csv", "metrics.write_csv", self._on_write_csv)
        self._count_events(engine.EventQueue)

    def remove(self) -> None:
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[Any, str, Any]]:
        """(owner, attribute, original) of every live patch."""
        return list(self._patches)

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _span(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: Callable[[Any, tuple, dict, float], None] | None = None,
    ) -> None:
        fn = vars(owner)[attr]
        span = self.spans.setdefault(name, _Span())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span.calls += 1
                span.busy += elapsed
                span.self += elapsed - children
                if stack:
                    stack[-1] += elapsed
            span.returned += 1
            if on_return is not None:
                on_return(result, args, kwargs, elapsed)
            return result

        wrapper.__wrapped__ = fn
        self._patch(owner, attr, wrapper)

    def _count_events(self, queue_cls: type) -> None:
        pop = vars(queue_cls)["pop"]
        counts = self.counts

        def counting_pop(queue: Any) -> Any:
            item = pop(queue)
            counts[f"engine.events.{item[1].value}"] += 1
            return item

        counting_pop.__wrapped__ = pop
        self._patch(queue_cls, "pop", counting_pop)

    # ------------------------------------------------------------------
    # per-call observations

    def _on_mc(self, result: Any, args: tuple, kwargs: dict, elapsed: float) -> None:
        self.counts["protocol.mc.trials"] += args[2] if len(args) > 2 else kwargs["trials"]

    def _on_packet(self, result: Any, args: tuple, kwargs: dict, elapsed: float) -> None:
        self.counts["cipher.bytes_xored"] += len(result.payload)

    def _on_propagate(self, result: Any, args: tuple, kwargs: dict, elapsed: float) -> None:
        self.counts["channel.delivered"] += result is not None

    def _on_engine_run(self, log: Any, args: tuple, kwargs: dict, elapsed: float) -> None:
        cfg = args[0] if args else kwargs["cfg"]
        self.engine_run_s.append(elapsed)
        self.counts["sim.node_s"] += cfg.node_count * cfg.duration
        self.counts["sim.verdicts"] += len(log.verdicts)
        self.counts["sim.estimates"] += sum(len(r.estimates) for r in log.tracks.values())
        self.counts["sim.switches"] += len(log.switches)

    def _on_write_csv(self, paths: Any, args: tuple, kwargs: dict, elapsed: float) -> None:
        self.counts["metrics.bytes_written"] += sum(p.stat().st_size for p in paths)

    # ------------------------------------------------------------------
    # results

    def metrics(self) -> dict[str, float]:
        """Every name in LAYER_METRICS, for the one traced scenario call."""
        s = self.spans
        c = self.counts

        def total(prefix: str, field: str) -> float:
            return sum(getattr(v, field) for k, v in s.items() if k.startswith(prefix))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        engine_run = s["scenarios.run_scenario"]
        events = sum(c[f"engine.events.{kind}"] for kind in EVENT_KINDS)
        out: dict[str, float] = {
            "mobility.step.calls": s["mobility.step"].calls,
            "mobility.step.self_s": s["mobility.step"].self,
            "engine.sweep.calls": s["engine.sweep"].calls,
            "engine.sweep.busy_s": s["engine.sweep"].busy,
            "engine.sweep.self_s": s["engine.sweep"].self,
            "protocol.sessions": s["protocol.verify"].calls,
            "protocol.verify.self_s": s["protocol.verify"].self,
            "cipher.packets": s["cipher.encrypt_packet"].calls + s["cipher.decrypt_packet"].calls,
            "cipher.bytes_xored": c["cipher.bytes_xored"],
            "cipher.key_chains": s["cipher.key_chain"].calls,
            "cipher.self_s": total("cipher.", "self"),
            "engine.track_tick.calls": s["engine.track_tick"].calls,
            "engine.track_tick.busy_s": s["engine.track_tick"].busy,
            "engine.track_tick.self_s": s["engine.track_tick"].self,
            "engine.assign.calls": s["engine.assign"].calls,
            "engine.assign.self_s": s["engine.assign"].self,
            "engine.switch.calls": s["engine.switch"].calls,
            "geometry.triangulate.calls": s["geometry.triangulate"].calls,
            "geometry.fix_ratio": ratio(
                s["geometry.triangulate"].returned, s["geometry.triangulate"].calls
            ),
            "geometry.form_zone.calls": s["geometry.form_zone"].calls,
            "geometry.self_s": total("geometry.", "self"),
            "channel.propagate.calls": s["channel.propagate"].calls,
            "channel.delivered_ratio": ratio(
                c["channel.delivered"], s["channel.propagate"].calls
            ),
            "channel.self_s": s["channel.propagate"].self,
            "protocol.mc.calls": s["protocol.mc"].calls,
            "protocol.mc.trials": c["protocol.mc.trials"],
            "protocol.mc.self_s": s["protocol.mc"].self,
            "engine.events": events,
            **{f"engine.events.{kind}": c[f"engine.events.{kind}"] for kind in EVENT_KINDS},
            "engine.us_per_event": ratio(engine_run.busy * 1e6, events),
            "engine.self_s": engine_run.self,
            "scenarios.engine_runs": engine_run.calls,
            "metrics.write_csv.self_s": s["metrics.write_csv"].self,
            "metrics.bytes_written": c["metrics.bytes_written"],
            "sim.verdicts": c["sim.verdicts"],
            "sim.estimates": c["sim.estimates"],
            "sim.switches": c["sim.switches"],
            "sim.node_s": c["sim.node_s"],
        }
        assert list(out) == [name for name, _ in LAYER_METRICS]
        return out

    def span_calls(self) -> dict[str, int]:
        """Calls per wrapped name, for checking that every wrapper is reached."""
        calls = {name: span.calls for name, span in self.spans.items()}
        calls["engine.events"] = sum(self.counts[f"engine.events.{k}"] for k in EVENT_KINDS)
        return calls
