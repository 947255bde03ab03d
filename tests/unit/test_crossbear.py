"""Tests for path-hop interception and Crossbear-style localization."""

import pytest

from repro.crypto.keystore import KeyStore
from repro.data.sites import ProbeSite
from repro.mitigation.crossbear import CrossbearHunter
from repro.netsim import Network, PathHop
from repro.proxy.engine import TlsProxyEngine
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import ProxyCategory, ProxyProfile
from repro.study.webpki import build_web_pki
from repro.tls.probe import ProbeClient
from repro.tls.server import TlsCertServer
from repro.x509 import Name


@pytest.fixture()
def world():
    """An origin, a national gateway hop, and clients behind/outside it."""
    keystore = KeyStore(seed=83)
    forger = SubstituteCertForger(keystore, seed=83)
    site = ProbeSite("news.example", "Popular")
    pki = build_web_pki(keystore, [site], seed=83)
    network = Network()
    origin = network.add_host("news.example", ip="203.0.113.80")
    origin.listen(443, TlsCertServer(pki.chain_for("news.example")).factory)

    gateway = PathHop("national-gateway.cc")
    isp_a = PathHop("isp-a.cc")
    isp_b = PathHop("isp-b.cc")

    inside_a = network.add_host("inside-a.cc")
    inside_a.access_path = [isp_a, gateway]
    inside_b = network.add_host("inside-b.cc")
    inside_b.access_path = [isp_b, gateway]
    outside = network.add_host("outside.example")
    outside.access_path = [PathHop("isp-elsewhere.net")]

    return {
        "network": network,
        "pki": pki,
        "forger": forger,
        "gateway": gateway,
        "gateway_host": network.add_host("gateway-box.cc"),
        "clients": {"inside_a": inside_a, "inside_b": inside_b, "outside": outside},
    }


def national_mitm(world):
    """Attach a state-level TLS proxy to the shared gateway hop."""
    profile = ProxyProfile(
        key="national-gateway-mitm",
        issuer=Name.build(common_name="National Gateway CA", organization="Ministry"),
        category=ProxyCategory.UNKNOWN,
        leaf_key_bits=1024,
        hash_name="sha1",
    )
    engine = TlsProxyEngine(
        profile,
        world["forger"],
        upstream_host=world["gateway_host"],
        upstream_trust=world["pki"].root_store(),
    )
    world["gateway"].add_interceptor(engine)
    return engine


class TestPathInterception:
    def test_hop_interceptor_hits_all_clients_behind_it(self, world):
        engine = national_mitm(world)
        for name in ("inside_a", "inside_b"):
            result = ProbeClient(world["clients"][name]).probe("news.example", 443)
            assert result.ok
            assert result.leaf.issuer.organization == "Ministry"
        assert engine.intercepted == 2

    def test_clients_outside_the_hop_untouched(self, world):
        national_mitm(world)
        result = ProbeClient(world["clients"]["outside"]).probe("news.example", 443)
        assert result.ok
        assert result.leaf.issuer.organization != "Ministry"

    def test_client_interceptor_takes_priority_over_hop(self, world):
        national_mitm(world)
        av_profile = ProxyProfile(
            key="client-av-priority",
            issuer=Name.build(common_name="AV CA", organization="LocalAV"),
            category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            leaf_key_bits=1024,
            hash_name="sha1",
        )
        client = world["clients"]["inside_a"]
        client.add_interceptor(
            TlsProxyEngine(
                av_profile,
                world["forger"],
                upstream_host=client,
                upstream_trust=world["pki"].root_store(),
            )
        )
        result = ProbeClient(client).probe("news.example", 443)
        # The machine-local proxy terminates first.
        assert result.leaf.issuer.organization == "LocalAV"

    def test_traceroute_lists_hops(self, world):
        trace = world["network"].traceroute(
            world["clients"]["inside_a"], "news.example"
        )
        assert trace == [
            "inside-a.cc",
            "isp-a.cc",
            "national-gateway.cc",
            "news.example",
        ]


class TestCrossbearLocalization:
    def authoritative(self, world):
        return world["pki"].leaf_for("news.example").fingerprint()

    def test_no_mitm_no_detection(self, world):
        hunter = CrossbearHunter(world["network"], self.authoritative(world))
        result = hunter.localize(
            list(world["clients"].values()), "news.example"
        )
        assert not result.mitm_detected
        assert result.localized_to is None
        assert len(result.clean) == 3

    def test_national_gateway_localized(self, world):
        national_mitm(world)
        hunter = CrossbearHunter(world["network"], self.authoritative(world))
        result = hunter.localize(
            list(world["clients"].values()), "news.example"
        )
        assert result.mitm_detected
        assert len(result.poisoned) == 2
        assert len(result.clean) == 1
        # ISP hops differ between the poisoned clients; the shared
        # national gateway is the only suspect.
        assert result.suspect_hops == ("national-gateway.cc",)
        assert result.localized_to == "national-gateway.cc"

    def test_client_local_mitm_localizes_to_the_machine(self, world):
        av_profile = ProxyProfile(
            key="client-av-localize",
            issuer=Name.build(common_name="AV CA", organization="LocalAV"),
            category=ProxyCategory.BUSINESS_PERSONAL_FIREWALL,
            leaf_key_bits=1024,
            hash_name="sha1",
        )
        client = world["clients"]["inside_a"]
        client.add_interceptor(
            TlsProxyEngine(
                av_profile,
                world["forger"],
                upstream_host=client,
                upstream_trust=world["pki"].root_store(),
            )
        )
        hunter = CrossbearHunter(world["network"], self.authoritative(world))
        result = hunter.localize(
            list(world["clients"].values()), "news.example"
        )
        # With a single poisoned client, localization narrows to the
        # path segment no clean client crosses: the machine and its
        # access ISP.  (Crossbear has the same ambiguity; more hunters
        # behind isp-a would shrink it.)
        assert result.mitm_detected
        assert result.suspect_hops == ("inside-a.cc", "isp-a.cc")
        assert result.localized_to == "inside-a.cc"

    def test_isp_level_mitm_localized_to_isp(self, world):
        profile = ProxyProfile(
            key="isp-mitm",
            issuer=Name.build(common_name="ISP CA", organization="ISP-A Telecom"),
            category=ProxyCategory.TELECOM,
            leaf_key_bits=2048,
            hash_name="sha1",
        )
        world["clients"]["inside_a"].access_path[0].add_interceptor(
            TlsProxyEngine(
                profile,
                world["forger"],
                upstream_host=world["gateway_host"],
                upstream_trust=world["pki"].root_store(),
            )
        )
        hunter = CrossbearHunter(world["network"], self.authoritative(world))
        result = hunter.localize(
            list(world["clients"].values()), "news.example"
        )
        assert result.mitm_detected
        # inside-a.cc and isp-a.cc are both unique to the poisoned path;
        # the deepest (client-side first) ordering puts the machine
        # first, the ISP second — the MitM is within that segment.
        assert "isp-a.cc" in result.suspect_hops
        assert "national-gateway.cc" not in result.suspect_hops
