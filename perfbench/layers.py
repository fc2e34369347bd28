"""Outside-in layer tracing for the benchmark.

The benchmark never edits the program: it wraps the public entry points of
each ``repro.<package>`` layer from here, where they are looked up (class
attributes, and module attributes in every module that imported the
function by name), and restores the originals afterwards.

Each wrapped call is a span: point name, start, end, the enclosing wrapped
span as parent, and the current op index as request id.  Spans stay in
memory and are written when the run ends.  A span's self time is its
duration minus the time covered by its child spans.  Generator entry points
(``SLDEngine.iter_query``, ``Peer.answer_query_steps``, ...) are timed per
resume, so the time a suspended evaluation waits for the network is never
charged to it.

The same patching machinery installs fixed delays instead of spans, which
the sensitivity self-test uses to prove that the benchmark's metrics move
when one layer gets slower.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

_now = time.perf_counter_ns

# A wrap point's layer is its name up to the first dot.
LAYERS = ("crypto", "credentials", "datalog", "negotiation", "net",
          "runtime", "obs", "storage")

# Spans kept for the span file; aggregates are exact beyond the cap.
SPAN_CAP = 300_000


def _targets():
    """``(owner, attribute, point, is_generator)`` for every wrapped entry
    point.  Importing every ``repro`` module first makes the by-name patch
    complete, so uninstalling restores every reference."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)
    from repro.credentials import credential
    from repro.crypto import keys, rsa
    from repro.datalog import parser
    from repro.datalog.sld import SLDEngine
    from repro.negotiation.peer import Peer
    from repro.net import message
    from repro.net.transport import Transport
    from repro.obs.flightrec import FlightRecorder
    from repro.runtime.scheduler import EventScheduler
    from repro.storage import recovery
    from repro.storage.store import DurableStore, StateStore

    targets = [
        (keys.KeyPair, "generate", "crypto.keygen", False),
        (rsa, "sign", "crypto.sign", False),
        (rsa, "verify", "crypto.verify", False),
        (credential, "verify_credential", "credentials.verify", False),
        (credential, "issue_credential", "credentials.issue", False),
        (parser, "parse_program", "datalog.parse", False),
        (parser, "parse_rule", "datalog.parse", False),
        (parser, "parse_literal", "datalog.parse", False),
        (parser, "parse_goals", "datalog.parse", False),
        (parser, "parse_term", "datalog.parse", False),
        (SLDEngine, "query", "datalog.solve", False),
        (SLDEngine, "iter_query", "datalog.solve", True),
        (SLDEngine, "solve", "datalog.solve", True),
        (SLDEngine, "solve_goals", "datalog.solve", True),
        (Peer, "answer_query_steps", "negotiation.peer", True),
        (Peer, "handle", "negotiation.peer", False),
        (Peer, "local_query", "negotiation.peer", False),
        (Transport, "begin_transmission", "net.transmit", False),
        (Transport, "_transmit", "net.transmit", False),
        (EventScheduler, "run_until_idle", "runtime.loop", False),
        (FlightRecorder, "note", "obs.flightrec", False),
        (StateStore, "put", "storage.write", False),
        (StateStore, "delete", "storage.write", False),
        (StateStore, "drop", "storage.write", False),
        (StateStore, "restore", "storage.write", False),
        (DurableStore, "_journal", "storage.journal", False),
        (recovery, "recover_peer", "storage.recover", False),
    ]
    for value in vars(message).values():
        if isinstance(value, type) and value.__module__ == message.__name__:
            for name in ("encode", "wire_size"):
                if name in vars(value):
                    targets.append((value, name, "net.encode", False))
    return targets


class _Patch:
    """Replaces callables where they are looked up and puts them back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, make) -> None:
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
        is_static = isinstance(raw, staticmethod)
        original = raw.__func__ if is_static else raw
        replacement = make(original)
        functools.update_wrapper(replacement, original)
        self._set(owner, name, staticmethod(replacement) if is_static else replacement)
        if isinstance(owner, type):
            return
        # Module-level function: also rebind every by-name import.
        for module in list(sys.modules.values()):
            if (module is not owner and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, name, None) is original):
                self._set(module, name, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class _TracedGenerator:
    """Proxy that times every resume of a wrapped generator."""

    __slots__ = ("_gen", "_tracer", "_point")

    def __init__(self, gen, tracer: "Tracer", point: str) -> None:
        self._gen = gen
        self._tracer = tracer
        self._point = point

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self._gen.send, None)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)

    def _resume(self, method, *args):
        tracer = self._tracer
        tracer.enter(self._point)
        try:
            return method(*args)
        finally:
            tracer.exit()


class Tracer:
    """Span recorder with per-point aggregates, split by phase."""

    def __init__(self) -> None:
        self.phase = "setup"
        # phase -> point -> [calls, resumes, inclusive_ns, self_ns]
        self.stats: dict[str, dict[str, list[int]]] = {}
        # phase -> self ns of spans that ran inside a timed call
        self.self_in_calls: dict[str, int] = {}
        self.recover_ns: list[int] = []
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.request = -1           # op index of the running call, -1 outside
        self._stack: list[list] = []  # [span_id, point, start_ns, child_ns]
        self._active: dict[str, int] = {}
        self._next_id = 0
        self._patch = _Patch()

    # -- phases --------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        self.phase = name

    def point_stats(self, phase: str) -> dict[str, list[int]]:
        return self.stats.setdefault(phase, {})

    def _entry(self, point: str) -> list[int]:
        table = self.stats.setdefault(self.phase, {})
        entry = table.get(point)
        if entry is None:
            entry = table[point] = [0, 0, 0, 0]
        return entry

    # -- spans ---------------------------------------------------------------

    def count_call(self, point: str) -> None:
        self._entry(point)[0] += 1

    def enter(self, point: str) -> None:
        self._next_id += 1
        self._active[point] = self._active.get(point, 0) + 1
        self._stack.append([self._next_id, point, _now(), 0])

    def exit(self) -> None:
        end = _now()
        span_id, point, start, child = self._stack.pop()
        duration = end - start
        own = duration - child
        entry = self._entry(point)
        entry[1] += 1
        entry[3] += own
        depth = self._active[point] = self._active[point] - 1
        if depth == 0:
            entry[2] += duration    # inclusive time counts outermost spans only
        if point == "storage.recover":
            self.recover_ns.append(duration)
        parent = 0
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            parent = top[0]
        if self.request >= 0:
            self.self_in_calls[self.phase] = self.self_in_calls.get(self.phase, 0) + own
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, self.request, point, start, end))
        else:
            self.spans_dropped += 1

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for owner, name, point, is_generator in _targets():
            self._patch.replace(owner, name, self._wrapper(point, is_generator))

    def uninstall(self) -> None:
        self._patch.restore()

    def _wrapper(self, point: str, is_generator: bool):
        tracer = self

        if is_generator:
            def make(original):
                def traced(*args, **kwargs):
                    tracer.count_call(point)
                    return _TracedGenerator(original(*args, **kwargs), tracer, point)
                return traced
            return make

        def make(original):
            def traced(*args, **kwargs):
                tracer.count_call(point)
                tracer.enter(point)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.exit()
            return traced
        return make

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            handle.write("span\tparent\trequest\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def layer_calls(table: dict[str, list[int]]) -> dict[str, int]:
    """Calls per layer in one phase's point table."""
    return {layer: sum(entry[0] for point, entry in table.items()
                       if point.startswith(layer + "."))
            for layer in LAYERS}


def missing_layers(table: dict[str, list[int]], required) -> list[str]:
    """Layers in ``required`` that recorded no call in ``table``."""
    calls = layer_calls(table)
    return [layer for layer in required if not calls[layer]]


# ---------------------------------------------------------------------------
# Fixed-delay injection (sensitivity self-test)
# ---------------------------------------------------------------------------

DELAY_POINTS = ("datalog.solve", "runtime.loop", "storage.write", "crypto.keygen")


def _spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def install_delay(point: str, milliseconds: float) -> None:
    """Add a fixed busy-wait of ``milliseconds`` to every call of the entry
    points behind ``point`` (one of DELAY_POINTS), for the rest of the
    process."""
    from repro.crypto.keys import KeyPair
    from repro.datalog.sld import SLDEngine
    from repro.runtime.scheduler import EventScheduler
    from repro.storage.store import DurableStore

    owner, names = {
        "datalog.solve": (SLDEngine, ("query", "iter_query", "solve", "solve_goals")),
        "runtime.loop": (EventScheduler, ("run_until_idle",)),
        "storage.write": (DurableStore, ("put", "delete", "drop", "restore")),
        "crypto.keygen": (KeyPair, ("generate",)),
    }[point]
    seconds = milliseconds / 1000.0

    def make(original):
        def delayed(*args, **kwargs):
            _spin(seconds)
            return original(*args, **kwargs)
        return delayed

    patch = _Patch()
    for name in names:
        if name not in vars(owner):
            # Inherited (DurableStore.put comes from StateStore): shadow it
            # on the subclass so memory stores stay untouched.
            setattr(owner, name, getattr(owner, name))
        patch.replace(owner, name, make)
