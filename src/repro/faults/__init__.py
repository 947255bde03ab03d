"""Deterministic fault injection & recovery (the chaos layer).

Everything here is seeded: a :class:`FaultPlan` turns
``stable_hash(seed, site, kind)`` into fault schedules for the wire
path (:mod:`repro.faults.wire`), the reporting server, and the report
store's named crash points, while :mod:`repro.faults.recovery`
delivers every report batch (op stream, optional gate, sink) with
crash-then-reopen healing and exact loss accounting.
:mod:`repro.faults.chaos` runs the whole drill matrix behind the
``repro chaos`` CLI.
"""

from repro.faults.plan import (
    CRASH_POINTS,
    SERVER_FAULT_KINDS,
    WIRE_FAULT_KINDS,
    Backoff,
    FaultPlan,
    FaultPlanError,
)
from repro.faults.recovery import (
    CrashSchedule,
    FaultGate,
    ResilientStore,
    database_ops,
    deliver,
)
from repro.faults.wire import FaultRelay, server_fault_hook

__all__ = [
    "Backoff",
    "CRASH_POINTS",
    "CrashSchedule",
    "FaultGate",
    "FaultPlan",
    "FaultPlanError",
    "FaultRelay",
    "ResilientStore",
    "SERVER_FAULT_KINDS",
    "WIRE_FAULT_KINDS",
    "database_ops",
    "deliver",
    "server_fault_hook",
]
