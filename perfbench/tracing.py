"""Span recorder and timing proxies for the traced benchmark run.

Everything here lives outside ``src/``: layers are timed from the
benchmark's side of their public interfaces.

* :func:`traced` wraps any object so that every public method call is a
  span of one named layer.  Proxies are handed to the program through
  its public constructors (``ClientTransactionManager(stores)``,
  ``TxnDB(manager=)``, ``KVStoreHTTPServer(store)``,
  ``ShardCluster(store_factory=)``, ``TwoPCManager(shards, participants,
  wal)``, ``server.revive(participant=)``).
* :meth:`Tracer.enable` patches ``TxRecord.encode``/``TxRecord.decode``
  for the record codec, which has no constructor hook, and
  :meth:`Tracer.disable` restores them.

Spans nest per thread.  A span's *self* time is its duration minus the
duration of the spans it directly contains, so each layer's own cost
falls out without double counting.  Totals are kept per
``(parent layer, layer, method)`` in a pending table that the benchmark
folds into per-operation-type buckets when each operation ends.

While the tracer is disabled a proxy method calls straight through, at
the cost of one extra Python call.
"""

from __future__ import annotations

import functools
import inspect
import threading
from time import perf_counter_ns

from repro.txn.record import TxRecord

__all__ = ["Tracer", "traced", "SpanKey"]

#: (layer of the enclosing span on the same thread or None, layer, method)
SpanKey = tuple


class Tracer:
    """Collects spans while enabled; thread-safe."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span totals since the last :meth:`take`: key -> [calls, ns, self_ns]
        self._pending: dict[SpanKey, list[int]] = {}
        #: every client-side HTTP round-trip duration (ns) while enabled.
        self.round_trips_ns: list[int] = []
        self._codec_originals: dict[str, object] | None = None

    # -- switching -------------------------------------------------------------

    def enable(self) -> None:
        if self.enabled:
            return
        self._patch_codec()
        self.enabled = True

    def disable(self) -> None:
        if not self.enabled:
            return
        self.enabled = False
        self._unpatch_codec()

    def _patch_codec(self) -> None:
        encode = TxRecord.__dict__["encode"]
        decode = TxRecord.__dict__["decode"]
        self._codec_originals = {"encode": encode, "decode": decode}

        def timed_encode(record):
            return self.span("codec", "encode", encode, (record,), {})

        def timed_decode(cls, value):
            return self.span("codec", "decode", decode.__func__, (cls, value), {})

        TxRecord.encode = timed_encode
        TxRecord.decode = classmethod(timed_decode)

    def _unpatch_codec(self) -> None:
        if self._codec_originals is None:
            return
        TxRecord.encode = self._codec_originals["encode"]
        TxRecord.decode = self._codec_originals["decode"]
        self._codec_originals = None

    # -- spans -----------------------------------------------------------------

    def span(self, layer: str, method: str, function, args: tuple, kwargs: dict):
        """Call ``function(*args, **kwargs)`` as a span of ``layer``.``method``."""
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        parent = stack[-1][0] if stack else None
        frame = [layer, 0]  # [layer, ns covered by direct children]
        stack.append(frame)
        started = perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            own = elapsed - frame[1]
            key = (parent, layer, method)
            with self._lock:
                totals = self._pending.get(key)
                if totals is None:
                    self._pending[key] = [1, elapsed, own]
                else:
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += own
                if layer == "http":
                    self.round_trips_ns.append(elapsed)

    def take(self) -> dict[SpanKey, list[int]]:
        """Span totals recorded since the previous call (and reset them)."""
        with self._lock:
            pending, self._pending = self._pending, {}
        return pending


class Traced:
    """Base of the generated proxy classes; see :func:`traced`.

    Attributes that are not methods of the wrapped class (properties,
    instance fields) are read straight from the wrapped object.
    """

    __slots__ = ("_inner", "_layer", "_tracer", "_results")

    def __init__(self, inner, layer: str, tracer: Tracer, results: dict[str, str]):
        self._inner = inner
        self._layer = layer
        self._tracer = tracer
        self._results = results

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def traced(inner, layer: str, tracer: Tracer, results: dict[str, str] | None = None):
    """``inner`` behind a proxy that times each public method call as a
    span of ``layer`` while ``tracer`` is enabled.

    ``results`` maps a method name to the layer its return value is traced
    as: ``manager.begin()`` hands back a transaction whose calls belong to
    the transaction layer too.
    """
    return _proxy_class(type(inner))(inner, layer, tracer, results or {})


@functools.cache
def _proxy_class(cls: type) -> type:
    """A :class:`Traced` subclass with one forwarding method per public
    method of ``cls``, so calls skip the ``__getattr__`` fallback."""
    methods = {}
    for name in dir(cls):
        attribute = inspect.getattr_static(cls, name)
        if not name.startswith("_") and (
            inspect.isfunction(attribute) or isinstance(attribute, (classmethod, staticmethod))
        ):
            methods[name] = _forwarder(name)
    return type(f"Traced{cls.__name__}", (Traced,), {"__slots__": (), **methods})


def _forwarder(name: str):
    def forward(self, *args, **kwargs):
        method = getattr(self._inner, name)
        tracer = self._tracer
        if not tracer.enabled:
            return method(*args, **kwargs)
        result = tracer.span(self._layer, name, method, args, kwargs)
        result_layer = self._results.get(name)
        return result if result_layer is None else traced(result, result_layer, tracer)

    forward.__name__ = name
    return forward
