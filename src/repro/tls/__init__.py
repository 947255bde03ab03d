"""TLS wire protocol — the slice the measurement tool exercises.

The paper's Flash tool speaks just enough TLS to learn what certificate
the path presents: it sends a ``ClientHello``, reads ``ServerHello`` and
``Certificate``, and aborts.  This package implements that slice with
real record framing and handshake encodings:

* :mod:`repro.tls.codec` — record layer and handshake message codec
  (ClientHello with SNI, ServerHello, Certificate, Alert).
* :class:`TlsCertServer` — a netsim protocol that answers a ClientHello
  with its configured certificate chain.
* :class:`ProbeClient` — the client side of the measurement: partial
  handshake, collect the chain, abort.  (§3.2 of the paper.)
"""

from repro.tls.codec import (
    Alert,
    Certificate as CertificateMessage,
    ClientHello,
    HandshakeMessage,
    Record,
    ServerHello,
    TlsError,
    decode_records,
    encode_handshake_record,
)
from repro.tls.fingerprint import (
    BROWSER_PROFILES,
    BrowserProfile,
    ServerFingerprint,
    TlsFingerprint,
    browser_profile,
    fingerprint_client_hello,
    fingerprint_divergence,
    fingerprint_server_hello,
    server_fingerprint_divergence,
)
from repro.tls.probe import ProbeClient, ProbeResult
from repro.tls.server import TlsCertServer

__all__ = [
    "Alert",
    "BROWSER_PROFILES",
    "BrowserProfile",
    "CertificateMessage",
    "ClientHello",
    "HandshakeMessage",
    "ProbeClient",
    "ProbeResult",
    "Record",
    "ServerFingerprint",
    "ServerHello",
    "TlsCertServer",
    "TlsError",
    "TlsFingerprint",
    "browser_profile",
    "decode_records",
    "encode_handshake_record",
    "fingerprint_client_hello",
    "fingerprint_divergence",
    "fingerprint_server_hello",
    "server_fingerprint_divergence",
]
