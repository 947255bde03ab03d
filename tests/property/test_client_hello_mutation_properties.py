"""Property-based tests: ``ClientHello.from_body`` on hostile bodies.

The engine parses every hello a client sends, and the audit fingerprints
every hello a product sends upstream, so the codec on its own must meet
any body with one of two answers: it raises :class:`TlsError` and
nothing else, or it returns a hello that re-encodes to the same body
(through ``to_handshake().body``) and whose SNI, JA3 and version views
do not raise.  Seeds are the probe's hello, every browser profile's, a
hello with a session id, a TLS 1.3 offer and a fallback-SCSV offer;
mutants flip bits, truncate, insert bytes, inflate a vector or
extension length, or nest extension blocks inside an extension.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tls import codec
from repro.tls.codec import ClientHello, TlsError
from repro.tls.fingerprint import BROWSER_PROFILES, fingerprint_client_hello

HOSTNAME = "origin.example"
SESSION_ID = bytes(range(32))

KINDS = ("probe", "session-id", "tls13", "fallback", *BROWSER_PROFILES)

# Extensions whose bodies a view parses: SNI, the version list, the
# groups and point formats JA3 reads, and ALPN.
PARSED_EXTENSIONS = (
    codec.EXT_SERVER_NAME,
    codec.EXT_SUPPORTED_VERSIONS,
    codec.EXT_SUPPORTED_GROUPS,
    codec.EXT_EC_POINT_FORMATS,
    codec.EXT_ALPN,
)


def seed_hello(kind: str, client_random: bytes) -> ClientHello:
    if kind == "probe":
        return ClientHello(client_random, server_name=HOSTNAME)
    if kind == "session-id":
        return ClientHello(client_random, server_name=HOSTNAME, session_id=SESSION_ID)
    if kind == "tls13":
        versions = (codec.TLS_1_3, codec.TLS_1_2)
        return ClientHello(
            client_random,
            cipher_suites=(0x1301, 0x1302, 0x002F),
            extensions=(
                (codec.EXT_SERVER_NAME, codec.encode_sni_extension_body(HOSTNAME)),
                (
                    codec.EXT_SUPPORTED_VERSIONS,
                    codec.encode_supported_versions_body(versions),
                ),
                (
                    codec.EXT_KEY_SHARE,
                    codec.encode_key_share_body(((0x001D, bytes(32)),)),
                ),
            ),
        )
    if kind == "fallback":
        return ClientHello(
            client_random,
            server_name=HOSTNAME,
            version=codec.TLS_1_0,
            cipher_suites=(0x002F, codec.TLS_FALLBACK_SCSV),
        )
    return BROWSER_PROFILES[kind].client_hello(client_random, HOSTNAME)


def length_fields(body: bytes) -> list[tuple[int, int]]:
    """``(offset, width)`` of every length in a well-formed hello body.

    The session id, cipher suite and compression vectors, then the
    extensions block and each extension's body, when there is a block.
    """
    fields = []
    offset = 34  # version and random
    for width in (1, 2, 1):
        fields.append((offset, width))
        offset += width + int.from_bytes(body[offset : offset + width], "big")
    if offset < len(body):
        fields.append((offset, 2))
        offset += 2
        while offset < len(body):
            fields.append((offset + 2, 2))
            offset += 4 + int.from_bytes(body[offset + 2 : offset + 4], "big")
    return fields


def extensions_block(extensions, depth: int) -> bytes:
    """The hello's extensions vector, nested ``depth`` times in itself."""
    block = b"".join(
        ext_type.to_bytes(2, "big") + len(ext_body).to_bytes(2, "big") + ext_body
        for ext_type, ext_body in extensions
    )
    block = len(block).to_bytes(2, "big") + block
    for _ in range(depth - 1):
        # The block so far as the body of an SNI extension in a new block.
        inner = codec.EXT_SERVER_NAME.to_bytes(2, "big") + len(block).to_bytes(2, "big")
        block = (len(inner) + len(block)).to_bytes(2, "big") + inner + block
    return block


@st.composite
def mutants(draw) -> bytes:
    """A seed hello's body with one hostile edit."""
    client_random = draw(st.binary(min_size=32, max_size=32))
    hello = seed_hello(draw(st.sampled_from(KINDS)), client_random)
    body = hello.to_handshake().body
    edit = draw(
        st.sampled_from(("flip", "truncate", "insert", "inflate", "nest", "none"))
    )
    if edit == "flip":
        bit = draw(st.integers(0, len(body) * 8 - 1))
        body = bytearray(body)
        body[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(body)
    if edit == "truncate":
        return body[: draw(st.integers(0, len(body) - 1))]
    if edit == "insert":
        at = draw(st.integers(0, len(body)))
        return body[:at] + draw(st.binary(min_size=1, max_size=8)) + body[at:]
    if edit == "inflate":
        offset, width = draw(st.sampled_from(length_fields(body)))
        value = int.from_bytes(body[offset : offset + width], "big")
        ceiling = (1 << (8 * width)) - 1
        inflated = draw(st.integers(min(value + 1, ceiling), ceiling))
        return body[:offset] + inflated.to_bytes(width, "big") + body[offset + width :]
    if edit == "nest" and hello.extensions:
        # One extension's body becomes an extensions block, itself
        # nested up to three deep: a view that parses that extension
        # meets a well-formed vector of the wrong shape.
        ext_type = draw(
            st.sampled_from(PARSED_EXTENSIONS) | st.sampled_from(hello.extension_types)
        )
        nested = extensions_block(hello.extensions, draw(st.integers(1, 3)))
        extensions = [
            (candidate, nested if candidate == ext_type else ext_body)
            for candidate, ext_body in hello.extensions
        ]
        if ext_type not in hello.extension_types:
            extensions.append((ext_type, nested))
        return ClientHello(
            hello.client_random,
            version=hello.version,
            cipher_suites=hello.cipher_suites,
            session_id=hello.session_id,
            compression_methods=hello.compression_methods,
            extensions=tuple(extensions),
        ).to_handshake().body
    return body


class TestClientHelloMutations:
    @settings(max_examples=600, deadline=None)
    @given(mutants())
    def test_refused_with_tls_error_or_lossless_with_safe_views(self, body):
        try:
            hello = ClientHello.from_body(body)
        except TlsError:
            return
        assert hello.to_handshake().body == body
        assert hello.server_name is None or isinstance(hello.server_name, str)
        assert len(fingerprint_client_hello(hello).digest()) == 32
        assert hello.max_offered_version in hello.offered_versions

    def test_every_seed_parses_to_itself(self):
        for kind in KINDS:
            body = seed_hello(kind, bytes(32)).to_handshake().body
            hello = ClientHello.from_body(body)
            assert hello.to_handshake().body == body, kind
            assert hello.server_name == HOSTNAME, kind

    def test_length_fields_cover_every_vector_of_a_seed(self):
        for kind in KINDS:
            hello = seed_hello(kind, bytes(32))
            fields = length_fields(hello.to_handshake().body)
            assert len(fields) == 4 + len(hello.extensions), kind
