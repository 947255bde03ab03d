"""The measurement tool and reporting pipeline.

Mirrors §3 of the paper end to end:

* :class:`MeasurementTool` — the "Flash app": checks the socket policy
  file, runs the partial-handshake probe against each target, and POSTs
  the received PEM chain to the reporting server.  It enforces the
  same constraint the Flash runtime did: no policy file, no socket.
  It is the one report client: the chaos drills submit through it too.
* :class:`ReportingServer` — receives reports, geolocates the client
  IP (the MaxMind step), compares the reported chain against the
  authoritative one, and stores the result.
* :class:`ReportTally` — the counts every table of §5–6 reads
  (aggregate counters for matched traffic — at paper scale, 99.6 % of
  measurements are matched and boring — per-country and per-host-type
  totals, proxied IPs, the failure ledger) and the aggregate
  signature over them.
* :class:`ReportDatabase` — the analysis substrate: a tally plus the
  detailed record of every mismatch.
* :class:`ReportStore` — the paper-scale sibling: an append-only
  segmented on-disk store that keeps a tally beside its segments, with
  batched writes.

Both sinks are a :class:`ReportSink`, the one interface every report
reaches its destination through.
"""

from repro.measure.database import ReportDatabase, ReportSink, ReportTally
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.server import CombinedPolicyHttpServer, ReportingServer
from repro.measure.store import (
    ReportStore,
    iter_store_mismatches,
    load_store,
    scan_store,
)
from repro.measure.tool import MeasurementTool, SessionOutcome

__all__ = [
    "CertSummary",
    "CombinedPolicyHttpServer",
    "MeasurementRecord",
    "MeasurementTool",
    "ReportDatabase",
    "ReportSink",
    "ReportStore",
    "ReportTally",
    "ReportingServer",
    "SessionOutcome",
    "iter_store_mismatches",
    "load_store",
    "scan_store",
]
