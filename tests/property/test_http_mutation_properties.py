"""Property-based tests: hostile HTTP ends in a count, never an exception.

Seed-derived inputs are the messages the report leg really exchanges:
the tool's ``GET /ad``, its ``POST /report`` (``X-Probed-Host``,
``Content-Type``, an optional ``X-Sim-Product`` and the PEM body of a
seed-minted chain), and the server's 200, 400 and 404 answers and the
429 and 503 answers with ``Retry-After`` its fault hook gives.  Each is
mutated by bit flips, truncation, inserted bytes, an inflated or
repeated ``Content-Length``, an edited start line or a split into two
sends.

* ``try_decode`` gives the same message with the head memos cold, warmed
  by the unmutated input and warmed by the mutant itself, or raises
  :class:`HttpError` in every case.
* On a :class:`ReportingServer` connection every request decoded from
  the bytes is dispatched, a decode failure is a 400 counted in
  ``http.parse_errors``, and an undecodable tail left when the client
  closes is counted in ``http.requests_abandoned`` (and, for a
  ``POST /report``, in ``reports.rejected{reason=truncated}``).  No
  answer is a 500 and nothing raises out of ``data_received``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.keystore import KeyStore
from repro.httpmin import codec
from repro.httpmin.codec import HttpError, HttpRequest, HttpResponse
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.measure.tool import _pem_body
from repro.netsim import Network
from repro.x509 import Name
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import SubjectPublicKeyInfo
from repro.x509.store import RootStore

SITE = "tlsresearch.byu.edu"
PROBED = "probed.example"

# --- seed-minted chain ----------------------------------------------------

_KEYS = KeyStore(seed=8080)
_ROOT = CertificateAuthority.self_signed(
    SelfSignedParams(
        subject=Name.build(common_name="HTTP Suite Root CA", organization="HTTP Trust"),
        key=_KEYS.key("http-root", 512),
    )
)
_LEAF_KEY = _KEYS.key("http-leaf", 512)
_LEAF = _ROOT.issue(
    Name.build(common_name=PROBED),
    SubjectPublicKeyInfo(_LEAF_KEY.n, _LEAF_KEY.e),
    dns_names=[PROBED],
)
BODY = _pem_body((_LEAF.encode(), _ROOT.certificate.encode()))

# --- seed-derived messages ------------------------------------------------


def _report(product):
    headers = {
        "Host": SITE,
        "X-Probed-Host": PROBED,
        "Content-Type": "application/x-pem-file",
    }
    if product is not None:
        headers["X-Sim-Product"] = product
    return HttpRequest("POST", "/report", headers=headers, body=BODY).encode()


REQUESTS = (
    HttpRequest("GET", "/ad", headers={"Host": SITE}).encode(),
    _report(None),
    _report("avast"),
)
RESPONSES = (
    HttpResponse(200, body=b"ok").encode(),
    HttpResponse(400, body=b"unknown probed host").encode(),
    HttpResponse(404).encode(),
    HttpResponse(429, headers={"Retry-After": "1"}, body=b"injected backpressure").encode(),
    HttpResponse(503, headers={"Retry-After": "3"}, body=b"injected slow server").encode(),
)

# --- mutations ------------------------------------------------------------

START_LINE_EDITS = (
    b"GET /ad",
    b"get /ad HTTP/1.1",
    b"POST  /report HTTP/1.1",
    b"POST /report HTTP/2.0",
    b"POST /report HTTP/1.1 extra",
    b"HTTP/1.1 2x0 OK",
    b"HTTP/1.1 20 OK",
    b"HTTP/1.1 2000 OK",
    b"HTTP/1.1 +20 OK",
    b"HTTP/2 200 OK",
    b"HTTP/1.1",
    b"",
)
KINDS = (
    "none", "flip", "truncate", "insert", "inflate-length", "repeat-length",
    "start-line", "split",
)
edits = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 1 << 20),
    st.binary(min_size=1, max_size=16),
)


def apply_edit(message: bytes, edit) -> list[bytes]:
    """The chunks one mutant of ``message`` is sent as."""
    kind, position, data = edit
    if kind == "flip":
        at = position // 8 % len(message)
        return [message[:at] + bytes([message[at] ^ (1 << position % 8)]) + message[at + 1 :]]
    if kind == "truncate":
        return [message[: 1 + position % (len(message) - 1)]]
    if kind == "insert":
        at = position % (len(message) + 1)
        return [message[:at] + data + message[at:]]
    head, _, body = message.partition(b"\r\n\r\n")
    length = f"Content-Length: {len(body)}".encode()
    if kind == "inflate-length":
        inflated = f"Content-Length: {len(body) + 1 + position % 4096}".encode()
        return [message.replace(length, inflated, 1)]
    if kind == "repeat-length":
        value = (len(body), len(body) + 1 + position % 7)[position % 2]
        return [head + b"\r\nContent-Length: %d\r\n\r\n" % value + body]
    if kind == "start-line":
        _, _, rest = message.partition(b"\r\n")
        return [START_LINE_EDITS[position % len(START_LINE_EDITS)] + b"\r\n" + rest]
    if kind == "split":
        at = 1 + position % (len(message) - 1)
        return [message[:at], message[at:]]
    return [message]


# --- the codec ------------------------------------------------------------

_HEAD_MEMOS = (codec._parse_request_head, codec._parse_response_head)


def _cold() -> None:
    for memo in _HEAD_MEMOS:
        memo.cache_clear()


def decoded(cls, data: bytes):
    """What ``cls.try_decode`` makes of ``data``, or ``"HttpError"``."""
    try:
        return cls.try_decode(data)
    except HttpError:
        return "HttpError"


def assert_memo_blind(cls, original: bytes, chunks: list[bytes]) -> None:
    for data in (chunks[0], b"".join(chunks)):
        _cold()
        cold = decoded(cls, data)
        _cold()
        decoded(cls, original)
        assert decoded(cls, data) == cold
        assert decoded(cls, data) == cold


class TestCodec:
    @given(index=st.integers(0, len(REQUESTS) - 1), edit=edits)
    @settings(max_examples=400, deadline=None)
    def test_requests_decode_alike_cold_and_warm(self, index, edit):
        assert_memo_blind(HttpRequest, REQUESTS[index], apply_edit(REQUESTS[index], edit))

    @given(index=st.integers(0, len(RESPONSES) - 1), edit=edits)
    @settings(max_examples=400, deadline=None)
    def test_responses_decode_alike_cold_and_warm(self, index, edit):
        assert_memo_blind(HttpResponse, RESPONSES[index], apply_edit(RESPONSES[index], edit))


# --- the server -----------------------------------------------------------

ROUTES = {("GET", "/ad"), ("POST", "/report")}
COUNTERS = (
    "http.requests_handled",
    "http.unrouted",
    "http.parse_errors",
    "http.requests_abandoned",
    "reports.rejected{reason=truncated}",
)


def expected_counts(data: bytes) -> dict[str, int]:
    """What the server should count for ``data`` followed by a close."""
    counts = dict.fromkeys(COUNTERS, 0)
    buffer = data
    while True:
        try:
            request, buffer = HttpRequest.try_decode(buffer)
        except HttpError:
            counts["http.parse_errors"] += 1
            return counts
        if request is None:
            break
        routed = (request.method.upper(), request.path) in ROUTES
        counts["http.requests_handled" if routed else "http.unrouted"] += 1
    if buffer:
        counts["http.requests_abandoned"] += 1
        if buffer.split(b"\r\n", 1)[0].startswith(b"POST /report"):
            counts["reports.rejected{reason=truncated}"] += 1
    return counts


def serve(chunks: list[bytes]) -> tuple[dict[str, int], list[int]]:
    """Send ``chunks`` on one connection, then close: the counts and the statuses."""
    server = ReportingServer(
        ReportDatabase(), None, study=2, public_roots=RootStore([_ROOT.certificate])
    )
    server.expect(PROBED, _LEAF.fingerprint(), "Business")
    net = Network()
    client = net.add_host("client.example", ip="11.0.0.5")
    net.add_host(SITE).listen(80, server.http.factory)
    sock = client.connect(SITE, 80)
    for chunk in chunks:
        if sock.closed:
            break
        sock.send(chunk)
    received = sock.recv()
    sock.close()
    statuses = []
    while received:
        response, received = HttpResponse.try_decode(received)
        statuses.append(response.status)
    counters = server.metrics.deterministic_snapshot()["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}, statuses


class TestReportingServer:
    @given(index=st.integers(0, len(REQUESTS) - 1), edit=edits)
    @example(index=1, edit=("truncate", 200, b"x"))
    @example(index=1, edit=("repeat-length", 0, b"x"))
    @settings(max_examples=400, deadline=None)
    def test_every_input_ends_in_a_count(self, index, edit):
        chunks = apply_edit(REQUESTS[index], edit)
        counts, statuses = serve(chunks)
        expected = expected_counts(b"".join(chunks))
        assert counts == expected
        assert sum(counts.values()) >= 1
        dispatched = counts["http.requests_handled"] + counts["http.unrouted"]
        assert len(statuses) == dispatched + counts["http.parse_errors"]
        assert 500 not in statuses

    def test_a_message_is_dispatched_once_and_a_prefix_abandoned_once(self):
        none = dict.fromkeys(COUNTERS, 0)
        for message in REQUESTS:
            assert serve([message]) == ({**none, "http.requests_handled": 1}, [200])
            report = message.startswith(b"POST /report")
            for cut in range(1, len(message), 7):
                truncated = report and cut >= len(b"POST /report")
                assert serve([message[:cut]]) == (
                    {
                        **none,
                        "http.requests_abandoned": 1,
                        "reports.rejected{reason=truncated}": int(truncated),
                    },
                    [],
                ), cut
