"""The client-side measurement tool (the "Flash app").

Follows §3.1's three steps for every probe target:

1. the embedding page delivers the tool (modelled by an HTTP GET),
2. the tool opens a raw socket — but only after the Flash runtime's
   socket-policy check passes for that host and port,
3. the received certificate chain is POSTed back in PEM.

The tool probes the authors' site first, then the remaining targets,
matching §4.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.data.sites import ProbeSite
from repro.faults.plan import Backoff, FaultPlan
from repro.httpmin.client import HttpClient
from repro.httpmin.codec import HttpError
from repro.netsim.network import ConnectionRefused, ConnectionReset, Host
from repro.obs.metrics import MetricsRegistry
from repro.policy.model import PolicyError
from repro.policy.server import fetch_policy_task
from repro.tls.probe import ProbeClient
from repro.util import content_memo
from repro.x509.pem import pem_encode


#: Distinct DER chains whose PEM report body is kept: wire sessions
#: POST the same few chains over and over.
PEM_BODY_CACHE_SIZE = 256

#: Retry budget and per-session backoff deadline (in cooperative
#: ticks) of a tool run without a fault plan; its backoff seed is 0.
DEFAULT_RETRIES = 4
DEFAULT_DEADLINE_TICKS = 256

#: Where the Flash runtime looks for a socket policy, in order.
POLICY_PORTS = (843, 80)


@content_memo(
    "tool.pem_cache", PEM_BODY_CACHE_SIZE, size=lambda chain: sum(map(len, chain))
)
def _pem_body(der_chain: tuple[bytes, ...]) -> bytes:
    """The report body for one received chain: every certificate in PEM."""
    return "".join(pem_encode(der) for der in der_chain).encode("ascii")


@dataclass
class SessionOutcome:
    """What one client session accomplished."""

    probes_attempted: int = 0
    reports_delivered: int = 0
    policy_denied: int = 0
    connect_failed: int = 0
    probe_failed: int = 0
    report_failed: int = 0
    report_retries: int = 0
    backoff_ticks: int = 0
    deadline_exhausted: int = 0
    errors: list[str] = field(default_factory=list)


class MeasurementTool:
    """Runs measurement sessions, and submits reports, from client hosts.

    The one report client: a wire session (:meth:`session_task`) and a
    lone report (:meth:`report_task`, what the chaos drills submit)
    share one retry loop.  Its retry budget, backoff seed and
    per-session deadline come from ``fault_plan`` (``retries``,
    ``seed``, ``deadline``), or are :data:`DEFAULT_RETRIES`, 0 and
    :data:`DEFAULT_DEADLINE_TICKS` without one.
    """

    def __init__(
        self,
        reporting_host: str = "tlsresearch.byu.edu",
        report_port: int = 80,
        registry: MetricsRegistry | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.reporting_host = reporting_host
        self.report_port = report_port
        # How many retryable failures (429, transient transport or 5xx)
        # a client rides through before giving the report up as failed;
        # the jittered backoff between attempts is accounted in
        # cooperative ticks (nothing sleeps), and a session that spends
        # its deadline budget waiting gives up instead of retrying
        # forever.
        planned = fault_plan is not None
        self.report_retry_limit = fault_plan.retries if planned else DEFAULT_RETRIES
        self.backoff = Backoff(fault_plan.seed if planned else 0)
        self.session_deadline_ticks = (
            fault_plan.deadline if planned else DEFAULT_DEADLINE_TICKS
        )
        # Seeded fault plan for client-side stall injections: a stall
        # is a run of scheduler ticks during which the session holds
        # its admission slot while others run.  Keyed on the
        # planning-time session ordinal, so injections are identical
        # at any concurrency.
        self.fault_plan = fault_plan
        # Shared with the per-session ProbeClients, so probe attempts
        # and failure stages aggregate across the whole run.
        self.metrics = registry if registry is not None else MetricsRegistry()

    def session_task(
        self,
        client: Host,
        sites: list[ProbeSite],
        product_key: str | None = None,
        session_ordinal: int = 0,
    ):
        """Fetch the tool, then probe and report every site.

        A generator state machine that yields while awaiting bytes on a
        scheduled transport, and for every backoff or injected-stall
        tick, so a :class:`~repro.netsim.loop.WireScheduler` can
        multiplex thousands of sessions.  Returns the
        :class:`SessionOutcome` via ``StopIteration``.
        """
        outcome = SessionOutcome()
        http = HttpClient(client)
        attempt = 0
        while True:
            try:
                yield from http.request_task(
                    "GET", self.reporting_host, "/ad", port=self.report_port
                )
                break
            except (ConnectionRefused, ConnectionReset, HttpError) as exc:
                delay = self._backoff_tick(
                    attempt, "ad", client.hostname, None, outcome
                )
                if delay is None:
                    outcome.errors.append(f"ad fetch: {exc}")
                    return outcome
                for _ in range(delay):
                    yield
                attempt += 1
        for site in sites:
            yield from self._probe_and_report(
                client, http, site, product_key, outcome, session_ordinal
            )
        return outcome

    def _probe_and_report(
        self,
        client: Host,
        http: HttpClient,
        site: ProbeSite,
        product_key: str | None,
        outcome: SessionOutcome,
        session_ordinal: int = 0,
    ):
        outcome.probes_attempted += 1
        permitted = yield from self._policy_permits(client, site.hostname, outcome)
        if not permitted:
            return
        result = yield from ProbeClient(client, registry=self.metrics).probe_task(
            site.hostname, 443
        )
        if not result.ok:
            if result.error.startswith("connect"):
                outcome.connect_failed += 1
            else:
                outcome.probe_failed += 1
            outcome.errors.append(f"{site.hostname}: {result.error}")
            return
        yield from self._submit_report(
            http,
            site.hostname,
            _pem_body(result.der_chain),
            product_key,
            session_ordinal,
            outcome,
        )

    def report_task(
        self,
        client: Host,
        hostname: str,
        body: bytes,
        product_key: str | None = None,
        session_ordinal: int = 0,
    ):
        """POST one report about ``hostname`` from ``client``, as a task.

        The report leg of a session on its own, with the same headers,
        stall injection and retries, and a deadline budget of its own.
        A generator like :meth:`session_task`; returns the report's
        :class:`SessionOutcome` via ``StopIteration``.
        """
        outcome = SessionOutcome()
        yield from self._submit_report(
            HttpClient(client), hostname, body, product_key, session_ordinal, outcome
        )
        return outcome

    def _backoff_tick(
        self,
        attempt: int,
        leg: str,
        site: str,
        retry_after: int | None,
        outcome: SessionOutcome,
    ) -> int | None:
        """Account one backoff wait; ``None`` when the budget says give up.

        Returns the tick count the caller should wait (yield) — a pure
        function of the backoff seed and the (leg, site, attempt)
        coordinates, accounted against the session deadline.
        """
        if attempt >= self.report_retry_limit:
            return None
        delay = self.backoff.delay(attempt, leg, site, retry_after=retry_after)
        if outcome.backoff_ticks + delay > self.session_deadline_ticks:
            outcome.deadline_exhausted += 1
            self.metrics.inc("tool.deadline_exhausted")
            return None
        outcome.backoff_ticks += delay
        outcome.report_retries += 1
        self.metrics.inc("tool.report_retries", leg=leg)
        return delay

    def _submit_report(
        self,
        http: HttpClient,
        site_hostname: str,
        body: bytes,
        product_key: str | None,
        session_ordinal: int,
        outcome: SessionOutcome,
    ):
        """POST one report, retrying transient failures with backoff.

        A planned client-side stall comes first.  Retryable:
        connection refused/reset, incomplete responses, 429 and 5xx —
        honouring the server's ``Retry-After`` as a floor on the
        backoff delay.  Any other 4xx is a permanent rejection.  Every
        terminal path counts exactly once against
        ``reports_delivered`` or ``report_failed``.
        """
        headers = {
            "X-Probed-Host": site_hostname,
            "Content-Type": "application/x-pem-file",
        }
        if product_key:
            headers["X-Sim-Product"] = product_key
        plan = self.fault_plan
        if plan is not None:
            stall = plan.stall_ticks("wire", site_hostname, session_ordinal)
            if stall:
                # Injected client-side stall: delay ticks holding the
                # session slot.
                self.metrics.inc("faults.injected", kind="stall")
                for _ in range(stall):
                    yield
        attempt = 0
        while True:
            retry_after = None
            try:
                response = yield from http.request_task(
                    "POST",
                    self.reporting_host,
                    "/report",
                    port=self.report_port,
                    body=body,
                    headers=headers,
                )
            except (ConnectionRefused, ConnectionReset, HttpError) as exc:
                error = f"report: {exc}"
            else:
                if response.ok:
                    outcome.reports_delivered += 1
                    return
                if response.status != 429 and response.status < 500:
                    outcome.report_failed += 1
                    outcome.errors.append(
                        f"report rejected ({response.status}): {response.body[:80]!r}"
                    )
                    return
                header = response.headers.get("retry-after")
                if header is not None:
                    try:
                        retry_after = max(0, int(header))
                    except ValueError:
                        retry_after = None
                error = (
                    f"report rejected ({response.status}): {response.body[:80]!r}"
                )
            delay = self._backoff_tick(
                attempt, "report", site_hostname, retry_after, outcome
            )
            if delay is None:
                outcome.report_failed += 1
                outcome.errors.append(error)
                return
            for _ in range(delay):
                yield
            attempt += 1

    def _policy_permits(self, client: Host, hostname: str, outcome: SessionOutcome):
        """The Flash runtime's mandatory socket-policy check."""
        for port in POLICY_PORTS:
            try:
                policy = yield from fetch_policy_task(client, hostname, port)
            except ConnectionRefused:
                continue
            except (PolicyError, ConnectionReset):
                outcome.policy_denied += 1
                return False
            if policy.permits("tlsresearch.byu.edu", 443):
                return True
            outcome.policy_denied += 1
            return False
        outcome.policy_denied += 1
        return False
