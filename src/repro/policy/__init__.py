"""Flash socket policy files.

The Flash runtime refuses raw sockets unless the destination host
serves a permissive ``<cross-domain-policy>`` file (§3.1 step 2).  This
constraint shaped the whole study: only 17 sites in the Alexa top 1M
could be probed, found by scanning for permissive policy files.

* :class:`~repro.policy.model.PolicyFile` — the XML document and its
  ``permits`` logic.
* :class:`~repro.policy.server.PolicyServer` — serves the file using
  the real Flash wire protocol (``<policy-file-request/>\\0`` → XML +
  NUL).
* :func:`~repro.policy.server.fetch_policy` — client-side fetch + parse.
* :class:`~repro.policy.scanner.PolicyScanner` — the Alexa top-1M scan
  that produced Table 1.

The package re-exports nothing, so a wire study, which serves and
fetches policy files, never loads the scanner only ``repro scan`` runs.
"""
