"""TLS interception proxies — the object the paper measures.

A TLS proxy terminates the client's handshake, fetches the origin
server's real certificate over its own upstream connection, forges a
*substitute certificate* for the requested name, and serves it signed
by a CA the client has been made to trust (usually a root injected at
product install time — Figure 2(c) of the paper).

* :class:`~repro.proxy.profile.ProxyProfile` — the observable
  behaviour of one product: issuer strings, substitute key size,
  signature hash, whitelists, issuer-copying, subject rewriting,
  shared leaf keys, and how the product reacts when the *upstream*
  certificate is itself forged (§5.2: Kurupira masks it, Bitdefender
  blocks it).
* :class:`~repro.proxy.forger.SubstituteCertForger` — turns (profile,
  upstream leaf) into a signed substitute certificate.  Shared by the
  wire-mode engine and the fast-mode study driver, which is what
  makes the two modes provably equivalent.
* :class:`~repro.proxy.engine.TlsProxyEngine` — a netsim
  :class:`~repro.netsim.network.Interceptor` that performs the full
  MitM on real sockets.

The package re-exports nothing, so the product catalog and the forger
load without the engine.
"""
