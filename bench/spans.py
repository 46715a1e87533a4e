"""Outside-in span tracing of the wgiot layers.

The program is not instrumented.  `Tracer.installed()` replaces module and
class attributes with timing wrappers, which works because the program calls
`crypto.X`, `wire.X`, `unexpected` and agent methods through attribute lookup
at call time.  The originals are put back when the block exits, so untraced
runs never see a wrapper.

A span's self time is its duration minus the durations of the spans it
called directly.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from wgiot import access_point, crypto, icd, rng, scenario, simnet, wbrac, wire

# (span name, owner, attribute).  Span names are `<module>.<function>`.
LAYERS = (
    ("scenario.parse", scenario, "parse_scenario"),
    ("simnet.build", simnet.Simulator, "__init__"),
    ("simnet.step", simnet.Simulator, "step"),
    ("simnet.send", simnet.Simulator, "send"),
    ("simnet.trace_add", simnet.Trace, "add"),
    ("simnet.serialize", simnet.Trace, "serialize"),
    ("wire.encode", wire, "encode"),
    ("wire.decode", wire, "decode"),
    ("crypto.prf", crypto.HmacSha256Backend, "evaluate"),
    ("crypto.authenticate_signature", crypto, "authenticate_signature"),
    ("crypto.sd_generation", crypto, "sd_generation"),
    ("crypto.authorization_signature", crypto, "authorization_signature"),
    ("crypto.derive_session_key", crypto, "derive_session_key"),
    ("crypto.decompose_guid", crypto, "decompose_guid"),
    ("rng.draw_bytes", rng.SimRng, "draw_bytes"),
    ("rng.chance", rng.SimRng, "chance"),
    ("icd.start", icd.IcdAgent, "start"),
    ("icd.handle", icd.IcdAgent, "handle"),
    ("icd.tick", icd.IcdAgent, "tick"),
    ("icd.unexpected", icd, "unexpected"),
    ("access_point.handle", access_point.MapAgent, "handle"),
    ("access_point.verify", access_point.MapAgent, "verify"),
    ("access_point.unexpected", access_point, "unexpected"),
    ("wbrac.handle", wbrac.WbracService, "handle"),
    ("wbrac.map_provision", wbrac.WbracService, "map_provision"),
    ("wbrac.rotate_mpc", wbrac.WbracService, "rotate_mpc"),
    ("wbrac.begin_update", wbrac.WbracService, "begin_update"),
    ("wbrac.commit", wbrac.WbracService, "commit"),
    ("wbrac.unexpected", wbrac, "unexpected"),
)

SPANS = tuple(name for name, _, _ in LAYERS)


class Tracer:
    """Per-span call counts and self time, plus the counters that need a
    look at arguments or results: bytes encoded, pending-event queue depth,
    and update flows begun and confirmed."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.bytes_encoded = 0
        self.queue_depth_max = 0
        self.updates_begun = 0
        self.updates_confirmed = 0
        self._children: list[int] = []  # child-span time of each open span
        # Called with (args, result) after a span returns normally.
        self._after = {
            "simnet.step": self._sample_queue,
            "wire.encode": self._count_bytes,
            "wbrac.begin_update": self._count_begun,
            "wbrac.commit": self._count_commit,
        }

    @contextlib.contextmanager
    def installed(self):
        saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr in LAYERS]
        try:
            for (name, owner, attr), (_, _, original) in zip(LAYERS, saved):
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        calls, self_ns, children = self.calls, self.self_ns, self._children
        clock = time.perf_counter_ns
        after = self._after.get(name)

        def span(*args, **kwargs):
            children.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - t0
                self_ns[name] += took - children.pop()
                calls[name] += 1
                if children:
                    children[-1] += took
            if after is not None:
                after(args, result)
            return result

        return span

    def _sample_queue(self, args, _):
        self.queue_depth_max = max(self.queue_depth_max, len(args[0]._heap))

    def _count_bytes(self, _, raw):
        self.bytes_encoded += len(raw)

    def _count_begun(self, *_):
        self.updates_begun += 1

    def _count_commit(self, args, _):
        # commit(self, icd_in, confirmed)
        self.updates_confirmed += bool(args[2])
