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
from repro.util import content_memo
from repro.x509.parse import X509Error, parse_certificate
from repro.x509.pem import PemError, pem_decode_all
from repro.x509.verify import validate_chain

# The measurement tool, served as the "ad" payload.
_TOOL_PAYLOAD = b"<html><body><!-- repro measurement tool (flash) --></body></html>"

#: Distinct report judgements ``report.verdicts`` keeps; a body over
#: 16 KiB (the memo's key cap) is judged afresh every time.
REPORT_VERDICTS = 1024


class _EmptyReport(ValueError):
    """A report body that holds no PEM certificate."""


@content_memo("report.verdicts", REPORT_VERDICTS, size=lambda key: len(key[0]))
def _judge(key: tuple) -> tuple:
    """``(leaf, rest of chain, mismatch, chain valid)`` of one report.

    ``key`` is ``(body, probed hostname, expected leaf fingerprint,
    public roots, their generation)``: everything the judgement reads,
    so a new expectation or a change of roots is a new key.  Raises
    :class:`PemError`, :class:`_EmptyReport` or :class:`X509Error`;
    extension values decode here too, on the summaries' first read of
    ``is_ca`` and the SAN names.
    """
    body, hostname, expected_leaf, roots, _ = key
    der_chain = pem_decode_all(body.decode("ascii", errors="replace"))
    if not der_chain:
        raise _EmptyReport("empty report")
    chain = tuple(parse_certificate(der) for der in der_chain)
    summaries = tuple(CertSummary.from_certificate(c) for c in chain)
    mismatch = summaries[0].fingerprint != expected_leaf
    chain_valid = roots is not None and bool(
        validate_chain(chain, roots, hostname=hostname)
    )
    return summaries[0], summaries[1:], mismatch, chain_valid


class ReportingServer:
    """Receives certificate reports and judges mismatches.

    ``expected_leaves`` maps hostname → authoritative leaf fingerprint,
    established the way the authors did it: by probing each target from
    a clean vantage point at study setup.

    Reports land in one :class:`~repro.measure.database.ReportSink`:
    the in-memory :class:`~repro.measure.database.ReportDatabase` or an
    on-disk :class:`~repro.measure.store.ReportStore`.

    Nearly every client reports its site's authoritative chain, so each
    accepted report's judgement (the summaries, the mismatch flag and
    the chain verdict) is kept in ``report.verdicts``, keyed on all it
    reads: the body, the hostname, that hostname's expected leaf and
    ``public_roots`` at its current ``generation``.  Only the client
    address and its country are read per report, and ``X-Sim-Product``
    per mismatch: a matched report is a count of one, a mismatch a full
    record.  A refused report is never kept, so it is refused and
    counted on every submission.
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
        self._c_matched = self.metrics.counter("reports.ingested", verdict="matched")
        self._c_mismatch = self.metrics.counter("reports.ingested", verdict="mismatch")
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

    def _reject(self, reason: str, body: bytes) -> HttpResponse:
        """Count a refused report against the failure ledger; answer 400."""
        self.sink.add_failure("report_failed")
        self.metrics.inc("reports.rejected", reason=reason)
        return HttpResponse(400, body=body)

    def _ingest_report(self, request: HttpRequest, remote: Host | None) -> HttpResponse:
        if self.fault_hook is not None:
            injected = self.fault_hook(request, remote)
            if injected is not None:
                return injected
        hostname = request.headers.get("x-probed-host", "")
        if not hostname or hostname not in self.expected_leaves:
            return self._reject("unknown-host", b"unknown probed host")
        roots = self.public_roots
        try:
            leaf, chain, mismatch, chain_valid = _judge(
                (
                    request.body,
                    hostname,
                    self.expected_leaves[hostname],
                    roots,
                    None if roots is None else roots.generation,
                )
            )
        except PemError as exc:
            return self._reject("pem", str(exc).encode())
        except _EmptyReport:
            return self._reject("empty", b"empty report")
        except X509Error as exc:
            return self._reject("x509", str(exc).encode())
        client_ip = remote.ip if remote is not None else "0.0.0.0"
        country = self.geoip.lookup(client_ip) if self.geoip is not None else None
        host_type = self.host_types.get(hostname, "?")
        if not mismatch:
            self.sink.add_matched_bulk(country or "??", host_type, hostname, 1)
            self._c_matched.inc()
            return HttpResponse(200, body=b"ok")
        self.sink.add_mismatch(
            MeasurementRecord(
                study=self.study,
                campaign=self.campaign,
                client_ip=client_ip,
                country=country,
                hostname=hostname,
                host_type=host_type,
                mismatch=True,
                leaf=leaf,
                chain=chain,
                chain_valid=chain_valid,
                via="wire",
                product_key=request.headers.get("x-sim-product") or None,
            )
        )
        self._c_mismatch.inc()
        return HttpResponse(200, body=b"ok")


class CombinedPolicyHttpServer(Protocol):
    """One port, two protocols: Flash policy requests and HTTP.

    Sniffs the first client bytes: a literal ``<policy-file-request/>``
    is answered by the policy server, anything else is handed to the
    HTTP server.  This is exactly the §3.1 arrangement.

    One listener builds one :class:`PolicyServer` (``policy_server``);
    every connection's policy requests are served, and counted, by
    its clones.
    """

    def __init__(self, policy: PolicyFile, http: HttpServer) -> None:
        self.policy_server = PolicyServer(policy)
        self._http_template = http
        self._delegate: Protocol | None = None
        self._buffer = b""

    def factory(self) -> "CombinedPolicyHttpServer":
        connection = object.__new__(CombinedPolicyHttpServer)
        connection.policy_server = self.policy_server
        connection._http_template = self._http_template
        connection._delegate = None
        connection._buffer = b""
        return connection

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        if self._delegate is not None:
            self._delegate.data_received(sock, data)
            return
        self._buffer += data
        probe_len = len(POLICY_REQUEST)
        if self._buffer.startswith(POLICY_REQUEST[: min(len(self._buffer), probe_len)]):
            if len(self._buffer) < probe_len:
                return  # could still be either; wait for more bytes
            delegate: Protocol = self.policy_server.factory()
        else:
            delegate = self._http_template.factory()
        self._delegate = delegate
        buffered, self._buffer = self._buffer, b""
        delegate.data_received(sock, buffered)

    def connection_lost(self, sock: StreamSocket) -> None:
        if self._delegate is not None:
            self._delegate.connection_lost(sock)
