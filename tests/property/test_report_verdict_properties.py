"""Property-based tests: the report verdict memo changes no answer.

A :class:`repro.measure.server.ReportingServer` keeps what it judged of
each accepted report, keyed on the body, the probed hostname, its
expected leaf and the root store's generation, and answers a repeat
from it.  For seed-minted report bodies and mutants of them, sent under
registered and unknown hostnames from several clients, interleaved with
changes of the expected leaves and of the server's roots, a cold server,
a server warmed by the unmutated bodies and a reference that judges
every report afresh must answer with the same statuses, leave the same
records and counts in their sinks, count the same rejections and raise
nothing.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keystore import KeyStore
from repro.geoip.database import GeoIpDatabase
from repro.httpmin.codec import HttpRequest
from repro.measure import server as server_module
from repro.measure.database import ReportDatabase
from repro.measure.server import ReportingServer
from repro.measure.tool import _pem_body
from repro.netsim import Network
from repro.x509 import Name
from repro.x509.ca import CertificateAuthority, SelfSignedParams
from repro.x509.model import SubjectPublicKeyInfo
from repro.x509.store import RootStore

SITES = ("a.example", "b.example")
UNKNOWN = ("unknown.example", "")


class AlwaysJudges(ReportingServer):
    """The reference: judges every report afresh, past the verdict memo."""

    def _ingest_report(self, request, remote):
        judge = server_module._judge.__wrapped__
        with mock.patch.object(server_module, "_judge", judge):
            return super()._ingest_report(request, remote)


# --- seed-minted chains ---------------------------------------------------

_KEYS = KeyStore(seed=2525)


def _ca(name, label):
    return CertificateAuthority.self_signed(
        SelfSignedParams(
            subject=Name.build(common_name=name, organization="Verdict Trust"),
            key=_KEYS.key(label, 512),
        )
    )


_ROOT = _ca("Verdict Root CA", "verdict-root")
# The substitute root a proxy product would inject.
_PROXY = _ca("Verdict Proxy CA", "verdict-proxy")


def _leaf(issuer, name, label):
    key = _KEYS.key(label, 512)
    return issuer.issue(
        Name.build(common_name=name), SubjectPublicKeyInfo(key.n, key.e), dns_names=[name]
    )


CHAINS = {
    site: [_leaf(_ROOT, site, f"verdict-{site}"), _ROOT.certificate] for site in SITES
}
SUBSTITUTES = {
    site: [_leaf(_PROXY, site, f"verdict-proxy-{site}"), _PROXY.certificate]
    for site in SITES
}
BODIES = tuple(
    _pem_body(tuple(certificate.encode() for certificate in chain))
    for chain in (*CHAINS.values(), *SUBSTITUTES.values())
)
# A leaf the server may expect per site: the genuine one or the substitute.
LEAVES = {
    site: (CHAINS[site][0].fingerprint(), SUBSTITUTES[site][0].fingerprint())
    for site in SITES
}

# Three clients: two in distinct countries, one the database does not place.
CLIENT_IPS = ("11.0.0.7", "12.0.0.9", "13.0.0.1")


def _geoip():
    geoip = GeoIpDatabase()
    geoip.add_range("11.0.0.0", "11.0.0.255", "BR")
    geoip.add_range("12.0.0.0", "12.0.0.255", "US")
    geoip.freeze()
    return geoip


# --- mutations ------------------------------------------------------------

EDIT_KINDS = ("none", "flip", "truncate", "insert", "double", "reverse", "empty")


def apply_edit(body: bytes, kind: str, position: int, data: bytes) -> bytes:
    if kind == "flip":
        at = position // 8 % len(body)
        return body[:at] + bytes([body[at] ^ (1 << position % 8)]) + body[at + 1 :]
    if kind == "truncate":
        return body[: position % len(body)]
    if kind == "insert":
        at = position % (len(body) + 1)
        return body[:at] + data + body[at:]
    if kind == "double":
        return body + body
    if kind == "reverse":
        # The chain's certificates in the other order.
        blocks = body.split(b"-----END CERTIFICATE-----\n")
        return b"-----END CERTIFICATE-----\n".join([*blocks[-2::-1], blocks[-1]])
    if kind == "empty":
        return b""
    return body


# Half the reports are unmutated and two in three name a registered
# site, so most sequences repeat an accepted report across a change.
reports = st.tuples(
    st.just("report"),
    st.integers(0, len(BODIES) - 1),
    st.one_of(st.just("none"), st.sampled_from(EDIT_KINDS)),
    st.integers(0, 1 << 20),
    st.binary(min_size=1, max_size=12),
    st.sampled_from(SITES + SITES + UNKNOWN),
    st.integers(0, len(CLIENT_IPS) - 1),
    st.sampled_from((None, "avast", "kaspersky")),
)
# Swap a site's expected leaf between the genuine and the substitute one.
expectations = st.tuples(st.just("expect"), st.sampled_from(SITES))
root_changes = st.tuples(st.just("roots"), st.sampled_from(("inject", "remove", "add")))
actions = st.lists(
    st.one_of(reports, reports, reports, expectations, root_changes), min_size=1, max_size=8
)


class _World:
    """One server with its own sink, registry, roots and clients."""

    def __init__(self, cls) -> None:
        self.server = cls(
            ReportDatabase(),
            _geoip(),
            study=2,
            public_roots=RootStore([_ROOT.certificate]),
        )
        self.expected = dict.fromkeys(SITES, 0)
        for site in SITES:
            self.server.expect(site, LEAVES[site][0], "Business")
        network = Network()
        self.clients = [
            network.add_host(f"client-{index}.example", ip=ip)
            for index, ip in enumerate(CLIENT_IPS)
        ]

    def warm(self) -> None:
        """Judge every unmutated body under every site, then start a fresh sink."""
        for body in BODIES:
            for site in SITES:
                self.send(body, site, self.clients[0], None)
        self.server.sink = ReportDatabase()

    def send(self, body, hostname, client, product) -> int:
        headers = {"x-probed-host": hostname}
        if product is not None:
            headers["x-sim-product"] = product
        request = HttpRequest("POST", "/report", headers=headers, body=body)
        return self.server._ingest_report(request, client).status

    def counters(self) -> dict:
        return dict(self.server.metrics.deterministic_snapshot()["counters"])

    def run(self, steps) -> tuple:
        """Apply ``steps`` twice, the second time from the next client along."""
        before = self.counters()
        statuses = []
        for shift in (0, 1):
            for step in steps:
                if step[0] == "expect":
                    site = step[1]
                    self.expected[site] ^= 1
                    self.server.expect(site, LEAVES[site][self.expected[site]], "Business")
                elif step[0] == "roots":
                    roots = self.server.public_roots
                    if step[1] == "inject":
                        roots.inject(_PROXY.certificate)
                    elif step[1] == "remove":
                        roots.remove(_PROXY.certificate)
                        roots.remove(_ROOT.certificate)
                    else:
                        roots.add(_ROOT.certificate)
                else:
                    _, index, kind, position, data, hostname, client, product = step
                    body = apply_edit(BODIES[index], kind, position, data)
                    client = self.clients[(client + shift) % len(self.clients)]
                    statuses.append(self.send(body, hostname, client, product))
        sink = self.server.sink
        after = self.counters()
        deltas = {key: value - before.get(key, 0) for key, value in after.items()}
        return (
            statuses,
            sink.records,
            sink.matched_counts,
            sink.failures,
            sink.aggregate_signature(),
            {key: value for key, value in deltas.items() if value},
        )


class TestReportVerdicts:
    @given(steps=actions)
    @settings(max_examples=300, deadline=None)
    def test_cold_warm_and_reference_agree(self, steps):
        reference = _World(AlwaysJudges).run(steps)
        assert _World(ReportingServer).run(steps) == reference
        warm = _World(ReportingServer)
        warm.warm()
        assert warm.run(steps) == reference
