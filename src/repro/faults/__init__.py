"""Deterministic fault injection & recovery (the chaos layer).

Everything here is seeded: a :class:`~repro.faults.plan.FaultPlan`
turns ``stable_hash(seed, site, kind)`` into fault schedules for the
wire path (:mod:`repro.faults.wire`), the reporting server, and the
report store's named crash points, while :mod:`repro.faults.recovery`
delivers every report batch (op stream, optional gate, sink) with
crash-then-reopen healing and exact loss accounting.
:mod:`repro.faults.chaos` runs the whole drill matrix behind the
``repro chaos`` CLI.

The package re-exports nothing, so a fast study loads the plan and
the recovery path without the wire relay.
"""
