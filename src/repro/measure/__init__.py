"""The measurement tool and reporting pipeline.

Mirrors §3 of the paper end to end:

* :class:`MeasurementTool` — the "Flash app": checks the socket policy
  file, runs the partial-handshake probe against each target, and POSTs
  the received PEM chain to the reporting server.  It enforces the
  same constraint the Flash runtime did: no policy file, no socket.
* :class:`ReportingServer` — receives reports, geolocates the client
  IP (the MaxMind step), compares the reported chain against the
  authoritative one, and stores the result.
* :class:`ReportDatabase` — the analysis substrate: detailed records
  for every mismatch, aggregate counters for matched traffic (at
  paper scale, 99.6 % of measurements are matched and boring).
* :class:`ReportStore` — the paper-scale sibling: an append-only
  segmented on-disk store with streaming aggregation
  (:class:`StreamingAggregator`), batched writes and back-pressure,
  driven concurrently by :class:`IngestLoop`.

Both are a :class:`ReportSink`, the one interface every report reaches
its destination through.
"""

from repro.measure.database import ReportDatabase, ReportSink
from repro.measure.ingest import IngestLoop, ReportSubmission
from repro.measure.records import CertSummary, MeasurementRecord
from repro.measure.server import CombinedPolicyHttpServer, ReportingServer
from repro.measure.store import (
    ReportStore,
    StreamingAggregator,
    iter_store_mismatches,
    load_store,
    scan_store,
)
from repro.measure.tool import MeasurementTool, SessionOutcome

__all__ = [
    "CertSummary",
    "CombinedPolicyHttpServer",
    "IngestLoop",
    "MeasurementRecord",
    "MeasurementTool",
    "ReportDatabase",
    "ReportSink",
    "ReportStore",
    "ReportSubmission",
    "ReportingServer",
    "SessionOutcome",
    "StreamingAggregator",
    "iter_store_mismatches",
    "load_store",
    "scan_store",
]
