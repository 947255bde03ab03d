"""Outside-in layer tracer: spans around each layer's public entry points.

The benchmark measures the program without editing it.  ``Tracer``
replaces each entry point named in :data:`LAYERS` with a wrapper that
counts calls and times them on a per-thread span stack, so a layer's
*self* time is its inclusive time minus the time of wrapped calls made
inside it.  Self times of all layers plus ``other.self_s`` add up to
the wall time of the measured call.

Two rules keep the wrappers on every call path:

* they are installed before any program object is built, because
  objects capture bound methods (the reporting server's route table
  does);
* a module-level function is rebound in every ``repro`` module whose
  attribute *is* the original, so ``from x import f`` call sites are
  covered too.

``uninstall()`` restores every original, so a tracer can run inside a
test process without leaking into later tests.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


def _der_key(args: tuple, kwargs: dict):
    return args[0] if args else kwargs["data"]


def _chain_key(args: tuple, kwargs: dict):
    chain = args[0] if args else kwargs["chain"]
    hostname = args[2] if len(args) > 2 else kwargs.get("hostname")
    return tuple(certificate.raw for certificate in chain), hostname


def _forge_hits(args: tuple) -> int:
    return args[0].cache_hits


# (layer name, module, attribute, options).  Several entry points may
# share one layer name; ``outermost`` skips calls nested in the same
# layer (``decode`` recurses once per TLV).
LAYERS = (
    ("asn1.decode", "repro.asn1.types", "decode", {"outermost": True}),
    ("x509.parse", "repro.x509.parse", "parse_certificate", {"key": _der_key}),
    ("x509.tbs_encode", "repro.x509.model", "TbsCertificate.encode", {}),
    ("x509.verify", "repro.x509.verify", "verify_certificate_signature", {}),
    ("x509.validate_chain", "repro.x509.verify", "validate_chain", {"key": _chain_key}),
    ("rsa.keygen", "repro.crypto.rsa", "generate_rsa_key", {}),
    ("rsa.sign", "repro.crypto.rsa", "pkcs1_sign", {}),
    ("rsa.verify", "repro.crypto.rsa", "pkcs1_verify", {}),
    ("tls.decode_records", "repro.tls.codec", "decode_records", {}),
    ("tls.hello_parse", "repro.tls.codec", "ClientHello.from_body", {}),
    ("tls.hello_parse", "repro.tls.codec", "ServerHello.from_body", {}),
    ("netsim.send", "repro.netsim.network", "StreamSocket.send", {}),
    ("netsim.drain", "repro.netsim.events", "DeliveryQueue.drain", {}),
    ("proxy.engine", "repro.proxy.engine", "_MitmConnection.data_received", {}),
    ("proxy.forge", "repro.proxy.forger", "SubstituteCertForger.forge", {"hits": _forge_hits}),
    ("report.ingest", "repro.measure.server", "ReportingServer._ingest_report", {"durations": True}),
    ("db.add_mismatch", "repro.measure.database", "ReportDatabase.add_mismatch", {}),
    ("store.flush", "repro.measure.store", "ReportStore.flush", {}),
    ("store.scan", "repro.measure.store", "scan_store", {}),
    ("audit.scenario", "repro.audit.harness", "AuditHarness.run_scenario", {}),
    ("audit.mimicry", "repro.audit.harness", "AuditHarness.run_mimicry", {}),
)

# Layers whose distinct inputs are counted (``<layer>.distinct_ratio``).
DISTINCT_LAYERS = ("x509.parse", "x509.validate_chain")


@dataclass
class LayerStats:
    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    keys: set = field(default_factory=set)
    durations: list = field(default_factory=list)

    def reset(self) -> None:
        self.calls = self.hits = 0
        self.inclusive_s = self.self_s = 0.0
        self.keys.clear()
        self.durations.clear()


class Tracer:
    """Wraps the :data:`LAYERS` entry points between ``install`` and ``uninstall``."""

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {}
        for name, *_ in LAYERS:
            self.stats.setdefault(name, LayerStats())
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for name, module_name, attribute, options in LAYERS:
            module = sys.modules[module_name]
            owner_name, _, attr = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, **options))
                else:
                    wrapped = self._wrap(name, raw, **options)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, **options)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name != "repro" and not loaded_name.startswith("repro."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name, fn, outermost=False, key=None, hits=None, durations=False):
        stats = self.stats[name]
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if outermost and stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            if key is not None:
                stats.keys.add(key(args, kwargs))
            before = hits(args) if hits is not None else 0
            # layer, time in wrapped children, time excluded (host probes)
            frame = [stats, 0.0, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start - frame[2]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.inclusive_s += elapsed
                stats.self_s += elapsed - frame[1]
                if durations:
                    stats.durations.append(elapsed)
                if hits is not None:
                    stats.hits += hits(args) - before

        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` that just ran inside the open spans out of them."""
        for frame in self._local.__dict__.get("stack", ()):
            frame[2] += seconds

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (set-up work, for instance)."""
        for stats in self.stats.values():
            stats.reset()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer counts, self times and ratios over a call of ``wall_s``."""
        out: dict[str, float] = {}
        for name, stats in self.stats.items():
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
        for name in DISTINCT_LAYERS:
            stats = self.stats[name]
            out[f"{name}.distinct_ratio"] = (
                len(stats.keys) / stats.calls if stats.calls else 0.0
            )
        forge = self.stats["proxy.forge"]
        out["proxy.forge.cache_hit_ratio"] = (
            forge.hits / forge.calls if forge.calls else 0.0
        )
        ingest = self.stats["report.ingest"].durations
        if len(ingest) >= 2:
            cuts = statistics.quantiles(ingest, n=100)
            out["report.ingest.p50_ms"] = statistics.median(ingest) * 1e3
            out["report.ingest.p99_ms"] = cuts[98] * 1e3
        else:
            out["report.ingest.p50_ms"] = out["report.ingest.p99_ms"] = 0.0
        covered = sum(stats.self_s for stats in self.stats.values())
        out["other.self_s"] = wall_s - covered
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return out
