"""The study's server side: report ingestion plus policy-on-port-80.

The paper served the Flash socket policy file on the web server's own
port 80 to dodge captive portals (§3.1).  That means one listener must
speak two protocols; :class:`CombinedPolicyHttpServer` sniffs the first
bytes exactly the way the authors' published policy server did.
"""

from __future__ import annotations

from repro.geoip.database import GeoIpDatabase
from repro.httpmin.codec import HttpRequest, HttpResponse
from repro.httpmin.server import HttpServer
from repro.measure.database import ReportSink
from repro.measure.records import CertSummary, MeasurementRecord
from repro.netsim.network import Host, Protocol, StreamSocket
from repro.obs.metrics import MetricsRegistry
from repro.policy.model import PolicyFile
from repro.policy.server import POLICY_REQUEST, PolicyServer
from repro.x509.parse import X509Error, parse_certificate
from repro.x509.pem import PemError, pem_decode_all

# The measurement tool, served as the "ad" payload.
_TOOL_PAYLOAD = b"<html><body><!-- repro measurement tool (flash) --></body></html>"


class ReportingServer:
    """Receives certificate reports and judges mismatches.

    ``expected_leaves`` maps hostname → authoritative leaf fingerprint,
    established the way the authors did it: by probing each target from
    a clean vantage point at study setup.

    Reports land in one :class:`~repro.measure.database.ReportSink`:
    the in-memory :class:`~repro.measure.database.ReportDatabase` or an
    on-disk :class:`~repro.measure.store.ReportStore`.  While the sink
    is overloaded, submissions are turned away with 429 +
    ``Retry-After`` until someone flushes — the back-pressure contract
    the ingest loop leans on.
    """

    def __init__(
        self,
        sink: ReportSink,
        geoip: GeoIpDatabase | None,
        study: int,
        campaign: str = "default",
        public_roots=None,
        registry: MetricsRegistry | None = None,
        fault_hook=None,  # Callable[[HttpRequest, Host | None], HttpResponse | None]
    ) -> None:
        if sink is None:
            raise ValueError("ReportingServer needs a sink")
        self.sink = sink
        # Chaos hook, consulted before the report handler: returning a
        # response injects it (500/503/429 drills) without the report
        # ever touching the sink.
        self.fault_hook = fault_hook
        self.geoip = geoip
        self.study = study
        self.campaign = campaign
        self.public_roots = public_roots  # RootStore | None
        self.expected_leaves: dict[str, str] = {}
        self.host_types: dict[str, str] = {}
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.http = HttpServer(registry=self.metrics)
        self.http.route("GET", "/ad", self._serve_tool)
        self.http.route("POST", "/report", self._ingest_report)
        # A report whose connection dies mid-parse never reaches the
        # handler; without this hook it would vanish from the failure
        # accounting entirely.
        self.http.on_abandoned = self._report_abandoned

    def expect(self, hostname: str, leaf_fingerprint: str, host_type: str) -> None:
        """Register the authoritative leaf for a probe target."""
        self.expected_leaves[hostname] = leaf_fingerprint
        self.host_types[hostname] = host_type

    # -- handlers ------------------------------------------------------------

    def _serve_tool(self, request: HttpRequest, remote: Host | None) -> HttpResponse:
        self.metrics.inc("reports.tool_served")
        return HttpResponse(200, body=_TOOL_PAYLOAD)

    def _report_abandoned(self, partial: bytes) -> None:
        """A connection closed with an undecodable request still buffered.

        Only report submissions count against the study's failure
        ledger — a half-received ``GET /ad`` wasted an impression, not
        a report.
        """
        request_line = partial.split(b"\r\n", 1)[0]
        if request_line.startswith(b"POST /report"):
            self.sink.add_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="truncated")

    def _ingest_report(self, request: HttpRequest, remote: Host | None) -> HttpResponse:
        if self.fault_hook is not None:
            injected = self.fault_hook(request, remote)
            if injected is not None:
                return injected
        if self.sink.overloaded:
            # Deferred accept: the pending write buffer is full, so the
            # client must come back after the next flush drains it.
            self.sink.defer()
            return HttpResponse(
                429, headers={"Retry-After": "1"}, body=b"ingest backlog"
            )
        hostname = request.headers.get("x-probed-host", "")
        if not hostname or hostname not in self.expected_leaves:
            self.sink.add_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="unknown-host")
            return HttpResponse(400, body=b"unknown probed host")
        try:
            der_chain = pem_decode_all(request.body.decode("ascii", errors="replace"))
        except PemError as exc:
            self.sink.add_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="pem")
            return HttpResponse(400, body=str(exc).encode())
        if not der_chain:
            self.sink.add_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="empty")
            return HttpResponse(400, body=b"empty report")
        # Extension values decode lazily, on first use by the chain
        # check or the summaries, so those belong under the handler too.
        try:
            chain = [parse_certificate(der) for der in der_chain]
            client_ip = remote.ip if remote is not None else "0.0.0.0"
            country = self.geoip.lookup(client_ip) if self.geoip is not None else None
            leaf = chain[0]
            mismatch = leaf.fingerprint() != self.expected_leaves[hostname]
            chain_valid = False
            if self.public_roots is not None:
                from repro.x509.verify import validate_chain

                chain_valid = bool(
                    validate_chain(chain, self.public_roots, hostname=hostname)
                )
            record = MeasurementRecord(
                study=self.study,
                campaign=self.campaign,
                client_ip=client_ip,
                country=country,
                hostname=hostname,
                host_type=self.host_types.get(hostname, "?"),
                mismatch=mismatch,
                leaf=CertSummary.from_certificate(leaf),
                chain=tuple(CertSummary.from_certificate(c) for c in chain[1:]),
                chain_valid=chain_valid,
                via="wire",
                product_key=request.headers.get("x-sim-product") or None,
            )
        except X509Error as exc:
            self.sink.add_failure("report_failed")
            self.metrics.inc("reports.rejected", reason="x509")
            return HttpResponse(400, body=str(exc).encode())
        if mismatch:
            self.sink.add_mismatch(record)
            self.metrics.inc("reports.ingested", verdict="mismatch")
        else:
            self.sink.add_matched(record)
            self.metrics.inc("reports.ingested", verdict="matched")
        return HttpResponse(200, body=b"ok")


class CombinedPolicyHttpServer(Protocol):
    """One port, two protocols: Flash policy requests and HTTP.

    Sniffs the first client bytes: a literal ``<policy-file-request/>``
    is answered by the policy server, anything else is handed to the
    HTTP server.  This is exactly the §3.1 arrangement.
    """

    def __init__(self, policy: PolicyFile, http: HttpServer) -> None:
        self._policy_template = policy
        self._http_template = http
        self._delegate: Protocol | None = None
        self._buffer = b""

    def factory(self) -> "CombinedPolicyHttpServer":
        return CombinedPolicyHttpServer(self._policy_template, self._http_template)

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if self._delegate is not None:
            self._delegate.data_received(sock, data)
            return
        self._buffer += data
        probe_len = len(POLICY_REQUEST)
        if self._buffer.startswith(POLICY_REQUEST[: min(len(self._buffer), probe_len)]):
            if len(self._buffer) < probe_len:
                return  # could still be either; wait for more bytes
            delegate: Protocol = PolicyServer(self._policy_template).factory()
        else:
            delegate = self._http_template.factory()
        self._delegate = delegate
        buffered, self._buffer = self._buffer, b""
        delegate.data_received(sock, buffered)

    def connection_lost(self, sock: StreamSocket) -> None:
        if self._delegate is not None:
            self._delegate.connection_lost(sock)
