"""Unified telemetry: metrics registry, span tracing, handshake events.

See :mod:`repro.obs.metrics` for the deterministic/process/timing
taxonomy, :mod:`repro.obs.export` for the JSON and Prometheus
exporters, and :mod:`repro.obs.events` for the wire-engine handshake
event log.
"""
