"""In-process network simulation.

The measurement study runs over the real Internet; this package
substitutes a deterministic, single-threaded internet that still moves
real bytes.  Servers are event-driven protocol handlers, clients are
pull-style sockets, and — the part the whole paper hinges on —
*interceptors* can sit on a client's path and terminate, inspect, or
re-originate connections exactly like a corporate firewall, antivirus
product, or piece of malware.

Execution model: delivery is synchronous by default — ``socket.send``
immediately invokes the peer protocol's ``data_received``, so anything
the peer sends back lands in the client's receive buffer before
``send`` returns, and an entire TLS handshake is one deterministic
call stack.  For concurrent runs (an admission cap above one) the one
task loop, :class:`~repro.netsim.loop.WireScheduler`, activates the network's
:class:`~repro.netsim.events.DeliveryQueue`: sends then enqueue FIFO
delivery events that are drained between cooperative ticks, letting
one process multiplex thousands of client state machines while every
individual connection still observes synchronous semantics.
"""

from repro.netsim.events import DeliveryQueue, drive, settle
from repro.netsim.loop import LoopStarvation, WireScheduler
from repro.netsim.network import (
    ConnectionRefused,
    ConnectionReset,
    Host,
    Interceptor,
    NetsimError,
    Network,
    PathHop,
    Protocol,
    StreamSocket,
)

__all__ = [
    "ConnectionRefused",
    "ConnectionReset",
    "DeliveryQueue",
    "Host",
    "Interceptor",
    "LoopStarvation",
    "NetsimError",
    "Network",
    "PathHop",
    "Protocol",
    "StreamSocket",
    "WireScheduler",
    "drive",
    "settle",
]
