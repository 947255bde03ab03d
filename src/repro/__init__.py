"""repro — reproduction of "TLS Proxies: Friend or Foe?" (IMC 2016).

A self-contained Python implementation of O'Neill et al.'s TLS
interception measurement study: the certificate-probe measurement
tool, the Flash/AdWords deployment model, the interception products
themselves (as behaviour profiles driving a real MitM engine forging
real DER certificates), and the analysis pipeline that regenerates
every table and figure in the paper's evaluation.

Typical entry points:

* :class:`repro.study.StudyRunner` — run measurement study 1 or 2.
* :class:`repro.tls.probe.ProbeClient` — the partial-handshake certificate
  probe at the heart of the method.
* :class:`repro.proxy.engine.TlsProxyEngine` — an interception product on a
  netsim path.
* :mod:`repro.analysis` — classification, country/host-type tables,
  negligence and malware forensics.
* ``python -m repro`` — the command-line interface.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
