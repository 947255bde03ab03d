"""Wire-mode TLS MitM engine.

A netsim interceptor that does exactly what the measured products do
(Figure 3 of the paper): terminate the client's TLS handshake, open
its own connection to the origin, obtain the real certificate, forge a
substitute, and serve it.  Whitelisted hosts are relayed untouched —
the behaviour Huang et al. observed for Facebook and that motivated
the paper's choice of low-profile probe targets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.hashes import hash_by_signature_oid
from repro.netsim.network import (
    ConnectionRefused,
    ConnectionReset,
    Interceptor,
    Network,
    Protocol,
    StreamSocket,
)
from repro.obs.events import HandshakeEventLog
from repro.obs.metrics import MetricsRegistry
from repro.proxy.forger import SubstituteCertForger
from repro.proxy.profile import (
    DEFECT_DEPRECATED_HASH,
    DEFECT_PROTOCOL_DOWNGRADE,
    DEFECT_REVOKED,
    DEFECT_WEAK_KEY,
    DEPRECATED_HASHES,
    AlpnPolicy,
    ForgedUpstreamPolicy,
    ProxyProfile,
    ServerSessionPolicy,
    UpstreamHelloPolicy,
)
from repro.tls import codec
from repro.tls.fingerprint import (
    TLS13_CIPHER_SUITES,
    build_modern_server_extensions,
    build_own_server_extensions,
    build_own_stack_extensions,
    fingerprint_client_hello,
    fingerprint_server_hello,
    negotiate_origin_cipher,
    origin_alpn_selection,
)
from repro.tls.codec import (
    Alert,
    Certificate as CertificateMessage,
    ClientHello,
    HandshakeMessage,
    ServerHello,
    TlsError,
    version_name,
)
from repro.tls.probe import FlightRefused, read_flight
from repro.x509.model import Certificate
from repro.x509.store import RootStore
from repro.x509.verify import ChainDefect, collect_chain_defects


@dataclass(frozen=True)
class UpstreamObservation:
    """Everything the proxy learned from its origin-facing handshake."""

    chain: tuple[Certificate, ...]
    raw: tuple[bytes, ...]  # DER exactly as received, for pass-through
    version: tuple[int, int]  # version the origin negotiated
    cipher_suite: int | None

    @property
    def leaf(self) -> Certificate:
        return self.chain[0]


class TlsProxyEngine(Interceptor):
    """On-path TLS interception for one product profile.

    ``upstream_host`` is the netsim host the proxy originates its
    origin-facing connections from; ``upstream_trust`` is the proxy's
    own root store, used to judge whether the *origin's* certificate is
    genuine (the §5.2 forged-certificate experiments hinge on this).
    """

    def __init__(
        self,
        profile: ProxyProfile,
        forger: SubstituteCertForger,
        upstream_host,
        upstream_trust: RootStore,
        client_bucket: int = 0,
        rng: random.Random | None = None,
        upstream_via_interceptors: bool = False,
        revoked_serials: frozenset[int] = frozenset(),
        registry: MetricsRegistry | None = None,
        events: HandshakeEventLog | None = None,
    ) -> None:
        self.profile = profile
        self.forger = forger
        self.upstream_host = upstream_host
        self.upstream_trust = upstream_trust
        self.client_bucket = client_bucket
        # When True the origin-facing leg goes through the upstream
        # host's own interceptors — how one middlebox ends up behind
        # another (the §5.2 chained-attack experiment).
        self.upstream_via_interceptors = upstream_via_interceptors
        # The revocation data visible to this proxy (a CRL snapshot);
        # consulted only when the profile ``checks_revocation``.
        self.revoked_serials = revoked_serials
        self._rng = rng or random.Random(0xBEEF)
        # Per-hostname verdicts reused when the profile caches
        # validation instead of re-checking every connection.
        self._validation_cache: dict[str, tuple[ChainDefect, ...]] = {}
        # Session ids the substitute leg has handed out (FRESH policy).
        # A profile that ``resumes_sessions`` honours these when a
        # client presents one back; everyone else mints anew — the
        # resumption-honouring defect the modern audit grades.
        self._issued_session_ids: set[bytes] = set()
        # Decision counters live on the registry (deterministic: the
        # decisions an engine takes are a pure function of seed and
        # plan); the historical attribute names remain as live views.
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._c_intercepted = self.metrics.counter(
            "proxy.decisions", decision="intercepted"
        )
        self._c_whitelisted = self.metrics.counter(
            "proxy.decisions", decision="whitelisted"
        )
        self._c_blocked = self.metrics.counter(
            "proxy.decisions", decision="blocked-forged-upstream"
        )
        self._c_masked = self.metrics.counter(
            "proxy.decisions", decision="masked-forged-upstream"
        )
        self._c_passed_through = self.metrics.counter(
            "proxy.decisions", decision="passed-through-forged-upstream"
        )
        self._c_upstream_failures = self.metrics.counter(
            "proxy.upstream_failures"
        )
        self._c_validation_cache_hits = self.metrics.counter(
            "proxy.validation_cache_hits"
        )
        self._c_bytes_client_in = self.metrics.counter(
            "proxy.bytes", direction="client-in"
        )
        self._c_bytes_client_out = self.metrics.counter(
            "proxy.bytes", direction="client-out"
        )
        self._c_bytes_relayed = self.metrics.counter(
            "proxy.bytes", direction="relayed"
        )
        # Ordered per-connection handshake records — ClientHello,
        # upstream leg, decision, served ServerHello — with JA3/JA3S
        # digests; the audit harness dumps these alongside scorecards.
        # Pass a shared log to pool many engines' histories in one
        # place (connection ids then stay unique across engines).
        self.events = (
            events
            if events is not None
            else HandshakeEventLog(registry=self.metrics)
        )
        # The ClientHello this engine most recently sent on its
        # origin-facing leg — what a fingerprinting origin (or the
        # audit harness) observes instead of the browser's hello.
        self.last_upstream_hello: ClientHello | None = None
        # The substitute ServerHello this engine most recently served
        # back to a client — the server-leg dual, and what a JA3S-style
        # client-side observer fingerprints.
        self.last_served_hello: ServerHello | None = None

    # -- decision counters (live views onto the registry) --------------------

    @property
    def intercepted(self) -> int:
        return self._c_intercepted.value

    @property
    def whitelisted(self) -> int:
        return self._c_whitelisted.value

    @property
    def blocked_forged_upstream(self) -> int:
        return self._c_blocked.value

    @property
    def masked_forged_upstream(self) -> int:
        return self._c_masked.value

    @property
    def passed_through_forged_upstream(self) -> int:
        return self._c_passed_through.value

    @property
    def upstream_failures(self) -> int:
        return self._c_upstream_failures.value

    @property
    def validation_cache_hits(self) -> int:
        return self._c_validation_cache_hits.value

    def noticed_upstream_defects(
        self, observation: UpstreamObservation, hostname: str
    ) -> tuple[ChainDefect, ...]:
        """The upstream defects this product's posture actually catches.

        Chain problems are filtered through the profile's validation
        knobs; key-strength, signature-hash, protocol-version and
        revocation checks are applied here because they need the
        observed connection, not just the chain.
        """
        profile = self.profile
        noticed = [
            defect
            for defect in collect_chain_defects(
                list(observation.chain), self.upstream_trust, hostname=hostname
            )
            if profile.notices_defect(defect.code)
        ]
        leaf = observation.leaf
        if (
            profile.min_upstream_key_bits
            and leaf.public_key_bits < profile.min_upstream_key_bits
        ):
            noticed.append(
                ChainDefect(
                    DEFECT_WEAK_KEY,
                    f"{leaf.public_key_bits}-bit upstream key below the "
                    f"product's {profile.min_upstream_key_bits}-bit floor",
                )
            )
        if profile.rejects_deprecated_hashes and self._hash_deprecated(leaf):
            noticed.append(
                ChainDefect(
                    DEFECT_DEPRECATED_HASH,
                    f"upstream leaf signed with {leaf.signature_algorithm}",
                )
            )
        if profile.notices_defect(DEFECT_PROTOCOL_DOWNGRADE):
            # A product that enforces a protocol floor also vets the
            # negotiated suite: NULL/export/RC4-MD5 is a downgrade even
            # on a modern version.
            if observation.version < profile.min_tls_version:
                noticed.append(
                    ChainDefect(
                        DEFECT_PROTOCOL_DOWNGRADE,
                        f"origin negotiated {version_name(observation.version)}, "
                        f"below {version_name(profile.min_tls_version)}",
                    )
                )
            elif observation.cipher_suite in codec.WEAK_CIPHER_SUITES:
                noticed.append(
                    ChainDefect(
                        DEFECT_PROTOCOL_DOWNGRADE,
                        "origin negotiated weak cipher suite "
                        f"{observation.cipher_suite:#06x}",
                    )
                )
        if (
            profile.checks_revocation
            and leaf.serial_number in self.revoked_serials
        ):
            noticed.append(
                ChainDefect(
                    DEFECT_REVOKED,
                    f"upstream leaf serial {leaf.serial_number:#x} is revoked",
                )
            )
        return tuple(noticed)

    def upstream_client_hello(self, client_hello: ClientHello) -> ClientHello:
        """The hello this product offers the origin for ``client_hello``.

        MIMIC replays the client's offer (fresh random, no session
        resumption); OWN_STACK substitutes the product's fixed suite,
        extension set and version — the fingerprint divergence the
        mimicry audit measures.
        """
        client_random = self._rng.getrandbits(256).to_bytes(32, "big")
        if self.profile.upstream_hello is UpstreamHelloPolicy.MIMIC:
            return ClientHello(
                client_random=client_random,
                server_name=client_hello.server_name,
                version=client_hello.version,
                cipher_suites=client_hello.cipher_suites,
                compression_methods=client_hello.compression_methods,
                extensions=client_hello.extensions,
            )
        profile = self.profile
        # ``server_name`` reflects what is actually on the wire: a
        # stack whose extension set has no SNI slot sends no name
        # (and must not have one synthesised by ClientHello).
        server_name = (
            client_hello.server_name
            if codec.EXT_SERVER_NAME in profile.own_extension_types
            else None
        )
        return ClientHello(
            client_random=client_random,
            server_name=server_name,
            # The stack's own version, TLS 1.2, capped by the client's
            # offer — a proxy cannot sensibly negotiate above what the
            # flow it fronts asked for, and this keeps the historical
            # echo-the-client behaviour for pre-1.2 clients.
            version=min(client_hello.version, codec.TLS_1_2),
            cipher_suites=codec.DEFAULT_CIPHER_SUITES,
            extensions=build_own_stack_extensions(
                profile.own_extension_types, server_name
            ),
        )

    @staticmethod
    def _hash_deprecated(leaf: Certificate) -> bool:
        try:
            return hash_by_signature_oid(leaf.signature_oid).name in DEPRECATED_HASHES
        except KeyError:
            return True  # unknown algorithm: a vigilant product balks

    # -- Interceptor interface ---------------------------------------------

    def intercepts(self, hostname: str, port: int) -> bool:
        # Every product intercepts TLS on 443 only.  Whitelisted hosts
        # are still claimed so the engine can relay them transparently
        # (the client must not see a difference).
        return port == 443

    def accept(
        self, network: Network, client_sock: StreamSocket, hostname: str, port: int
    ) -> None:
        client_sock.protocol = _MitmConnection(self, network, hostname, port)


class _MitmConnection(Protocol):
    """Per-connection state machine for the proxy's client-facing leg."""

    def __init__(
        self, engine: TlsProxyEngine, network: Network, hostname: str, port: int
    ) -> None:
        self.engine = engine
        self.network = network
        self.hostname = hostname
        self.port = port
        self._reader = codec.HandshakeReader()
        self._conn = engine.events.connection()
        # Every byte received, kept only until the relay decision: a
        # whitelisted connection replays them verbatim upstream.
        self._received = b""
        self._relay: StreamSocket | None = None  # pass-through upstream leg
        self._done = False

    # -- protocol callbacks -------------------------------------------------

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        self.engine._c_bytes_client_in.inc(len(data))
        if self._relay is not None:
            self._pump_relay(sock, data)
            return
        if not self._done:
            self._received += data
        try:
            read = self._reader.feed(data)
        except TlsError:
            self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
            return
        if self._done:
            return  # only the first hello is answered
        for item in read:
            if isinstance(item, codec.Record):
                continue  # alerts are ignored
            if item.msg_type != codec.HS_CLIENT_HELLO:
                continue
            try:
                hello = ClientHello.from_body(item.body)
            except TlsError:
                self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
                return
            self._handle_client_hello(sock, hello)
            # A relay has replayed everything received, later records of
            # this chunk included; otherwise the replay copy is dead.
            if self._relay is None:
                self._done = True
                self._received = b""
            return

    def connection_lost(self, sock: StreamSocket) -> None:
        if self._relay is not None and not self._relay.closed:
            self._relay.close()

    # -- decision logic -------------------------------------------------------

    def _handle_client_hello(self, sock: StreamSocket, hello: ClientHello) -> None:
        engine = self.engine
        profile = engine.profile
        target = hello.server_name or self.hostname
        engine.events.record(
            self._conn,
            "client-hello",
            target=target,
            version=version_name(hello.version),
            ja3=fingerprint_client_hello(hello).digest(),
        )

        if profile.is_whitelisted(target):
            engine._c_whitelisted.inc()
            engine.events.record(self._conn, "relay", target=target)
            self._start_relay(sock, hello)
            return

        observation = self._fetch_upstream_chain(hello)
        if observation is None or not observation.chain:
            engine._c_upstream_failures.inc()
            engine.events.record(self._conn, "upstream-failure", target=target)
            self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
            return
        engine.events.record(
            self._conn,
            "upstream-certificate",
            target=target,
            chain_len=len(observation.chain),
            version=version_name(observation.version),
        )

        defects: tuple | None = None
        if profile.caches_validation:
            cached = engine._validation_cache.get(target)
            if cached is not None:
                # Verdict reuse: whatever the origin presents now, the
                # product trusts its earlier conclusion — and skips the
                # (expensive) re-validation entirely, like the real
                # appliances Waked et al. caught doing this.
                engine._c_validation_cache_hits.inc()
                defects = cached
        if defects is None:
            defects = engine.noticed_upstream_defects(observation, target)
            if profile.caches_validation:
                engine._validation_cache[target] = defects
        if defects:
            policy = profile.forged_upstream
            if policy is ForgedUpstreamPolicy.BLOCK:
                engine._c_blocked.inc()
                engine.events.record(
                    self._conn, "blocked", target=target, defects=len(defects)
                )
                self._fatal(sock, codec.ALERT_BAD_CERTIFICATE)
                return
            if policy is ForgedUpstreamPolicy.PASS_THROUGH:
                engine._c_passed_through.inc()
                # Relay the upstream DER verbatim, as captured.
                self._serve_chain(sock, hello, list(observation.raw))
                return
            engine._c_masked.inc()  # MASK falls through to forge

        forged = engine.forger.forge(
            profile,
            observation.leaf,
            target,
            site_ip=self._site_ip(),
            client_bucket=engine.client_bucket,
        )
        engine._c_intercepted.inc()
        self._serve_chain(sock, hello, [c.encode() for c in forged.chain])

    def _site_ip(self) -> str:
        host = self.network.host_or_none(self.hostname)
        return host.ip if host is not None else "203.0.113.1"

    # -- wire helpers ---------------------------------------------------------

    def _fetch_upstream_chain(
        self, hello: ClientHello
    ) -> UpstreamObservation | None:
        """Run the proxy's own partial handshake against the origin.

        The reply is read as the probe reads it (:func:`read_flight`), so
        a flight the probe refuses, an origin alert included, is None.
        """
        engine = self.engine
        try:
            if engine.upstream_via_interceptors:
                # queued=False: the origin-facing leg (even through a
                # second middlebox) must answer synchronously inside
                # whatever delivery event is being processed.
                upstream = self.network.connect(
                    engine.upstream_host, self.hostname, self.port, queued=False
                )
            else:
                upstream = self.network.connect_upstream(
                    engine.upstream_host, self.hostname, self.port
                )
        except ConnectionRefused:
            return None
        try:
            upstream_hello = engine.upstream_client_hello(hello)
            engine.last_upstream_hello = upstream_hello
            engine.events.record(
                self._conn,
                "upstream-hello",
                ja3=fingerprint_client_hello(upstream_hello).digest(),
            )
            upstream.send(
                codec.encode_handshake_record(
                    upstream_hello, version=upstream_hello.version
                )
            )
            raw = upstream.recv()
        except ConnectionReset:
            return None
        finally:
            upstream.close()
        try:
            server_hello, der_chain, chain = read_flight(raw)
        except FlightRefused:
            return None
        return UpstreamObservation(
            chain=chain,
            raw=der_chain,
            version=server_hello.selected_version if server_hello else hello.version,
            cipher_suite=server_hello.cipher_suite if server_hello else None,
        )

    def _alpn_answer_body(self, hello: ClientHello) -> bytes | None:
        """The 1.2-path ALPN body per the profile's policy (None = skip)."""
        profile = self.engine.profile
        if profile.alpn is AlpnPolicy.STRIP:
            return None
        if profile.alpn is AlpnPolicy.ECHO:
            selected = origin_alpn_selection(hello)
            return codec.encode_alpn_body((selected,)) if selected else None
        # OWN: the canned http/1.1 answer — the historical wire bytes.
        return codec.encode_alpn_body(("http/1.1",))

    def _serve_chain(
        self, sock: StreamSocket, hello: ClientHello, der_chain: list[bytes]
    ) -> None:
        engine = self.engine
        profile = engine.profile
        if codec.refuses_fallback(hello, profile.max_tls_version):
            self._fatal(sock, codec.ALERT_INAPPROPRIATE_FALLBACK)
            return
        offered_max = hello.max_offered_version
        # Effective version: the client's best offer (supported_versions
        # aware), capped by the product's ceiling and — pre-1.3 — by the
        # configured substitute version.  A 1.3-capable product with the
        # downgrade knob set pushes 1.3 offers back to 1.2, the Waked
        # et al. appliance defect.
        negotiated = min(offered_max, profile.max_tls_version)
        if profile.substitute_tls_version is not None:
            negotiated = min(negotiated, profile.substitute_tls_version)
        if negotiated >= codec.TLS_1_3 and profile.downgrade_tls13:
            negotiated = codec.TLS_1_2
        tls13 = negotiated >= codec.TLS_1_3
        # The legacy version field: frozen at 1.2 under a 1.3
        # negotiation (RFC 8446 §4.1.3), the plain echo-with-caps
        # otherwise — which reproduces the historical behaviour for
        # every pre-1.3 client.
        version = codec.TLS_1_2 if tls13 else min(hello.version, negotiated)
        session_id = b""
        if (
            profile.resumes_sessions
            and hello.session_id
            and hello.session_id in engine._issued_session_ids
        ):
            # Honoured resumption: echo the id this leg handed out.
            session_id = hello.session_id
        elif profile.server_session_id is ServerSessionPolicy.ECHO:
            session_id = hello.session_id
        elif profile.server_session_id is ServerSessionPolicy.FRESH:
            session_id = engine._rng.getrandbits(256).to_bytes(32, "big")
            engine._issued_session_ids.add(session_id)
        cipher_suite = profile.substitute_cipher_suite
        if cipher_suite is None:
            cipher_suite = negotiate_origin_cipher(hello, tls13=tls13)
        elif tls13 and cipher_suite not in TLS13_CIPHER_SUITES:
            # A canned pre-1.3 suite cannot ride a 1.3 negotiation; a
            # product that actually speaks 1.3 picks from RFC 8446.
            cipher_suite = negotiate_origin_cipher(hello, tls13=True)
        server_random = engine._rng.getrandbits(256).to_bytes(32, "big")
        if (
            profile.sets_downgrade_sentinel
            and offered_max >= codec.TLS_1_3
            and negotiated < codec.TLS_1_3
        ):
            server_random = codec.stamp_downgrade_sentinel(server_random, negotiated)
        if tls13:
            alpn_protocol = None
            if profile.alpn is not AlpnPolicy.STRIP and hello.alpn_protocols:
                alpn_protocol = (
                    origin_alpn_selection(hello)
                    if profile.alpn is AlpnPolicy.ECHO
                    else "http/1.1"
                )
            extensions: tuple[tuple[int, bytes], ...] | None = (
                build_modern_server_extensions(
                    hello, alpn_protocol, profile.issues_session_tickets
                )
            )
        else:
            extensions = build_own_server_extensions(
                profile.own_server_extension_types,
                hello,
                alpn_body=self._alpn_answer_body(hello),
            )
        server_hello = ServerHello(
            server_random=server_random,
            cipher_suite=cipher_suite,
            version=version,
            session_id=session_id,
            compression_method=profile.substitute_compression_method,
            extensions=extensions,
        )
        engine.last_served_hello = server_hello
        engine.events.record(
            self._conn,
            "server-hello",
            version=version_name(negotiated),
            ja3s=fingerprint_server_hello(server_hello).digest(),
        )
        engine.events.record(
            self._conn, "certificate", chain_len=len(der_chain)
        )
        flight = codec.encode_server_flight(
            server_hello,
            [
                CertificateMessage(tuple(der_chain)),
                HandshakeMessage(codec.HS_SERVER_HELLO_DONE, b""),
            ],
            offered_version=hello.version,
        )
        engine._c_bytes_client_out.inc(len(flight))
        sock.send(flight)

    def _start_relay(self, sock: StreamSocket, hello: ClientHello) -> None:
        """Transparent pass-through for whitelisted destinations."""
        try:
            self._relay = self.network.connect_upstream(
                self.engine.upstream_host, self.hostname, self.port
            )
        except ConnectionRefused:
            self._fatal(sock, codec.ALERT_HANDSHAKE_FAILURE)
            return
        # Replay everything received so far verbatim.
        replayed, self._received = self._received, b""
        self._relay.send(replayed)
        self.engine._c_bytes_relayed.inc(len(replayed))
        self._drain_relay(sock)

    def _pump_relay(self, sock: StreamSocket, data: bytes) -> None:
        relay = self._relay
        if relay is None or relay.closed:
            sock.close()
            return
        try:
            relay.send(data)
        except ConnectionReset:
            sock.close()
            return
        self.engine._c_bytes_relayed.inc(len(data))
        self._drain_relay(sock)

    def _drain_relay(self, sock: StreamSocket) -> None:
        """Forward everything the upstream leg has buffered.

        A single ``recv()`` per pump strands any reply that arrives
        without a matching client write; drain until empty instead.
        """
        relay = self._relay
        if relay is None:
            return
        while True:
            reply = relay.recv()
            if not reply:
                return
            self.engine._c_bytes_relayed.inc(len(reply))
            sock.send(reply)

    def _fatal(self, sock: StreamSocket, description: int) -> None:
        self.engine.events.record(self._conn, "alert", description=description)
        record = Alert(2, description).encode_record()
        try:
            sock.send(record)
            self.engine._c_bytes_client_out.inc(len(record))
        except ConnectionReset:
            pass
        sock.close()
