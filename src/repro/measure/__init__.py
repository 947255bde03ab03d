"""The measurement tool and reporting pipeline.

Mirrors §3 of the paper end to end:

* :class:`~repro.measure.tool.MeasurementTool` — the "Flash app":
  checks the socket policy file, runs the partial-handshake probe
  against each target, and POSTs the received PEM chain to the
  reporting server.  It enforces the same constraint the Flash
  runtime did: no policy file, no socket.  It is the one report
  client: the chaos drills submit through it too.
* :class:`~repro.measure.server.ReportingServer` — receives reports,
  geolocates the client IP (the MaxMind step), compares the reported
  chain against the authoritative one, and stores the result.
* :class:`~repro.measure.database.ReportTally` — the counts every
  table of §5–6 reads (aggregate counters for matched traffic — at
  paper scale, 99.6 % of measurements are matched and boring —
  per-country and per-host-type totals, proxied IPs, the failure
  ledger) and the aggregate signature over them.
* :class:`~repro.measure.database.ReportDatabase` — the analysis
  substrate: a tally plus the detailed record of every mismatch.
* :class:`~repro.measure.store.ReportStore` — the paper-scale
  sibling: an append-only segmented on-disk store that keeps a tally
  beside its segments, with batched writes.

Both sinks are a :class:`~repro.measure.database.ReportSink`, the one
interface every report reaches its destination through.  The package
re-exports nothing, so importing the store loads only the store.
"""
