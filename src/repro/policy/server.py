"""Socket policy file server and client fetch.

Speaks the real Flash policy protocol: the client sends the literal
string ``<policy-file-request/>`` terminated by a NUL; the server
answers with the XML document, also NUL-terminated, and closes.

The paper served its policy file on port 80 (same as the web server)
to dodge captive portals that block unusual ports (§3.1); the server
here can listen anywhere.
"""

from __future__ import annotations

from repro.netsim.events import drive, settle
from repro.netsim.network import ConnectionRefused, Host, Protocol, StreamSocket
from repro.policy.model import PolicyError, PolicyFile
from repro.util import content_memo

POLICY_REQUEST = b"<policy-file-request/>\x00"


class PolicyServer(Protocol):
    """Serves one policy document; counts requests.

    The document is rendered and encoded once per listener; its
    :meth:`factory` connections send those bytes and count on it.
    """

    def __init__(self, policy: PolicyFile) -> None:
        self.policy = policy
        self.requests_served = 0
        self._buffer = b""
        self._shared: PolicyServer | None = None
        self._document = policy.to_xml().encode("utf-8") + b"\x00"

    def factory(self) -> "PolicyServer":
        connection = object.__new__(PolicyServer)
        connection.policy = self.policy
        connection.requests_served = 0
        connection._buffer = b""
        connection._shared = self
        connection._document = self._document
        return connection

    def data_received(self, sock: StreamSocket, data: bytes) -> None:
        self._buffer += data
        if POLICY_REQUEST not in self._buffer:
            if len(self._buffer) > len(POLICY_REQUEST):
                sock.close()  # not a policy request; hang up
            return
        sock.send(self._document)
        state = self._shared or self
        state.requests_served += 1
        sock.close()


#: Distinct policy documents whose parse is kept: every probed site
#: serves the same permissive file.
POLICY_CACHE_SIZE = 64


@content_memo("policy.parse_cache", POLICY_CACHE_SIZE)
def _parse_policy(document: bytes) -> PolicyFile:
    """Parse one policy document (the bytes before its NUL terminator)."""
    return PolicyFile.from_xml(document.decode("utf-8", errors="replace"))


def fetch_policy(client: Host, hostname: str, port: int = 843) -> PolicyFile:
    """Fetch and parse the policy file from ``hostname:port``.

    Raises :class:`PolicyError` if the host serves nothing or garbage,
    and lets :class:`ConnectionRefused` propagate when there is no
    policy listener at all — callers treat both as "cannot probe".
    """
    return drive(fetch_policy_task(client, hostname, port))


def fetch_policy_task(client: Host, hostname: str, port: int = 843):
    """Resumable form of :func:`fetch_policy`: a generator state machine.

    Yields while awaiting the policy bytes on a scheduled transport and
    returns the parsed :class:`PolicyFile` via ``StopIteration``.
    """
    sock = client.connect(hostname, port)
    try:
        sock.send(POLICY_REQUEST)
        yield from settle(sock)
        raw = sock.recv()
    finally:
        sock.close()
    if not raw:
        raise PolicyError(f"{hostname}:{port} returned no policy data")
    return _parse_policy(raw.split(b"\x00", 1)[0])


__all__ = [
    "PolicyServer",
    "fetch_policy",
    "fetch_policy_task",
    "POLICY_REQUEST",
    "ConnectionRefused",
]
