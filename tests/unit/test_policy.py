"""Unit tests for Flash socket policy files, server and scanner."""

import pytest

from repro.netsim import Network
from repro.policy.model import PolicyError, PolicyFile, PolicyRule
from repro.policy.scanner import PolicyScanner
from repro.policy.server import (
    POLICY_CACHE_SIZE,
    PolicyServer,
    _parse_policy,
    fetch_policy,
)


class TestPolicyRule:
    def test_wildcard_domain(self):
        rule = PolicyRule(domain="*", to_ports="443")
        assert rule.permits("anything.example", 443)

    def test_exact_domain(self):
        rule = PolicyRule(domain="a.example", to_ports="*")
        assert rule.permits("a.example", 1)
        assert not rule.permits("b.example", 1)

    def test_subdomain_wildcard(self):
        rule = PolicyRule(domain="*.example.com", to_ports="*")
        assert rule.permits("www.example.com", 80)
        assert rule.permits("example.com", 80)
        assert not rule.permits("example.org", 80)

    def test_port_list(self):
        rule = PolicyRule(to_ports="80,443")
        assert rule.permits("x", 443)
        assert rule.permits("x", 80)
        assert not rule.permits("x", 8080)

    def test_port_range(self):
        rule = PolicyRule(to_ports="440-450")
        assert rule.permits("x", 443)
        assert not rule.permits("x", 439)

    def test_garbage_port_entries_ignored(self):
        rule = PolicyRule(to_ports="abc,443,x-y")
        assert rule.permits("x", 443)
        assert not rule.permits("x", 80)

    @pytest.mark.parametrize("entry", ["4_43", "+443", "٤٤٣", "1-4_43"])
    def test_port_bounds_are_ascii_digits(self, entry):
        # int() reads each of these as 443 (or a range up to it); Flash's
        # parser takes none of them.
        assert not PolicyRule(to_ports=entry).permits("x", 443)

    @pytest.mark.parametrize("entry", ["443", "1-1000", "*", " 443"])
    def test_plain_port_entries_permit(self, entry):
        assert PolicyRule(to_ports=entry).permits("x", 443)


class TestPolicyFile:
    def test_xml_round_trip(self):
        policy = PolicyFile(
            (PolicyRule("*", "443"), PolicyRule("*.byu.edu", "80,443"))
        )
        parsed = PolicyFile.from_xml(policy.to_xml())
        assert parsed == policy

    def test_permissive_factory(self):
        policy = PolicyFile.permissive()
        assert policy.is_permissive_for_tls

    def test_restrictive_policy_not_permissive(self):
        policy = PolicyFile((PolicyRule(domain="partner.example", to_ports="443"),))
        assert not policy.is_permissive_for_tls

    def test_empty_policy_denies(self):
        assert not PolicyFile().permits("x", 443)

    def test_bad_xml_rejected(self):
        with pytest.raises(PolicyError):
            PolicyFile.from_xml("<not-even-xml")

    def test_wrong_root_rejected(self):
        with pytest.raises(PolicyError):
            PolicyFile.from_xml("<something-else/>")

    def test_unknown_elements_ignored(self):
        xml = (
            "<cross-domain-policy><site-control permitted-cross-domain-policies"
            '="master-only"/><allow-access-from domain="*" to-ports="443"/>'
            "</cross-domain-policy>"
        )
        policy = PolicyFile.from_xml(xml)
        assert policy.is_permissive_for_tls


class TestPolicyServer:
    def build(self, policy, port=843):
        net = Network()
        client = net.add_host("client.example")
        server_host = net.add_host("site.example")
        server = PolicyServer(policy)
        server_host.listen(port, server.factory)
        return net, client, server

    def test_fetch_round_trip(self):
        policy = PolicyFile.permissive("443")
        net, client, server = self.build(policy)
        fetched = fetch_policy(client, "site.example")
        assert fetched == policy
        assert server.requests_served == 1

    def test_fetch_on_alternate_port(self):
        policy = PolicyFile.permissive()
        net, client, _ = self.build(policy, port=80)
        assert fetch_policy(client, "site.example", port=80) == policy

    def test_non_policy_request_hangs_up(self):
        net, client, server = self.build(PolicyFile.permissive())
        sock = client.connect("site.example", 843)
        sock.send(b"GET / HTTP/1.1\r\n\r\n plus some extra to exceed length")
        assert sock.closed or sock.recv() == b""
        assert server.requests_served == 0

    def test_fetch_garbage_policy_raises(self):
        net = Network()
        client = net.add_host("client.example")
        bad_host = net.add_host("bad.example")

        class Garbage(PolicyServer):
            def data_received(self, sock, data):
                sock.send(b"<<<definitely not xml>>>\x00")
                sock.close()

        bad_host.listen(843, lambda: Garbage(PolicyFile()))
        with pytest.raises(PolicyError):
            fetch_policy(client, "bad.example")


class TestPolicyMemo:
    def test_memo_stays_within_its_bound(self):
        for index in range(POLICY_CACHE_SIZE + 3):
            _parse_policy(PolicyFile.permissive(str(1000 + index)).to_xml().encode())
        info = _parse_policy.cache_info()
        assert info.currsize == info.maxsize == POLICY_CACHE_SIZE

    def test_oversized_document_is_parsed_but_not_cached(self):
        padding = " " * _parse_policy.max_key_bytes
        document = f"<cross-domain-policy>{padding}</cross-domain-policy>".encode()
        currsize = _parse_policy.cache_info().currsize
        first = _parse_policy(document)
        second = _parse_policy(document)
        assert first == second == PolicyFile()
        assert first is not second
        assert _parse_policy.cache_info().currsize == currsize


class TestScanner:
    def build_universe(self):
        net = Network()
        client = net.add_host("scanner.example")
        permissive = PolicyFile.permissive("443")
        restrictive = PolicyFile((PolicyRule(domain="own.example", to_ports="80"),))

        sites = [
            ("qq.com", 9, "popular", permissive),
            ("big-closed.com", 1, "popular", None),
            ("promodj.com", 3500, "popular", permissive),
            ("locked.com", 10, "business", restrictive),
            ("airdroid.com", 30000, "business", permissive),
            ("pornclipstv.com", 90000, "porn", permissive),
        ]
        for hostname, _, _, policy in sites:
            host = net.add_host(hostname)
            if policy is not None:
                server = PolicyServer(policy)
                host.listen(843, server.factory)
        return client, [(h, r, c) for h, r, c, _ in sites]

    def test_scan_classifies_sites(self):
        client, sites = self.build_universe()
        scanner = PolicyScanner(client)
        results = {r.hostname: r for r in scanner.scan(sites)}
        assert results["qq.com"].permissive
        assert not results["big-closed.com"].has_policy
        assert results["locked.com"].has_policy
        assert not results["locked.com"].permissive

    def test_selection_prefers_rank(self):
        client, sites = self.build_universe()
        scanner = PolicyScanner(client)
        results = scanner.scan(sites)
        selected = scanner.select_probe_sites(
            results, {"popular": 1, "business": 1, "porn": 1}
        )
        assert [s.hostname for s in selected["popular"]] == ["qq.com"]
        assert [s.hostname for s in selected["business"]] == ["airdroid.com"]
        assert [s.hostname for s in selected["porn"]] == ["pornclipstv.com"]

    def test_selection_respects_count(self):
        client, sites = self.build_universe()
        scanner = PolicyScanner(client)
        results = scanner.scan(sites)
        selected = scanner.select_probe_sites(results, {"popular": 5})
        assert len(selected["popular"]) == 2  # only two permissive popular sites
