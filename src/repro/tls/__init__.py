"""TLS wire protocol — the slice the measurement tool exercises.

The paper's Flash tool speaks just enough TLS to learn what certificate
the path presents: it sends a ``ClientHello``, reads ``ServerHello`` and
``Certificate``, and aborts.  This package implements that slice with
real record framing and handshake encodings:

* :mod:`repro.tls.codec` — record layer and handshake message codec
  (ClientHello with SNI, ServerHello, Certificate, Alert).
* :mod:`repro.tls.fingerprint` — JA3/JA3S-style fingerprints and the
  browser hello profiles.
* :class:`~repro.tls.server.TlsCertServer` — a netsim protocol that
  answers a ClientHello with its configured certificate chain.
* :class:`~repro.tls.probe.ProbeClient` — the client side of the
  measurement: partial handshake, collect the chain, abort.  (§3.2 of
  the paper.)

The package re-exports nothing, so importing the codec loads neither
the probe nor the server, nor the simulated network under them.
"""
