"""Property: wire-mode results are scheduler-interleaving-independent.

The refactor's bar (ISSUE 10): at any admission cap, and under *any*
per-tick task ordering, a wire study must reproduce the serial run's
``aggregate_signature()``, every per-engine handshake event log, and
the deterministic metrics section byte for byte.  Hypothesis drives the
"any ordering" half by seeding the scheduler's shuffle rng — each
example executes the same session plan under a different interleaving.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.study import StudyConfig, StudyRunner

# ~60 planned sessions: big enough for dozens of interleaved chains,
# small enough that each hypothesis example stays around a second.
_SCALE = 0.00002
# Seed 9 samples no client with an interception product; seed 14 gives
# one engine 25 handshake events, so its log is compared too.
_SEEDS = (9, 14)
_ENGINE_SEED = 14


def _run(seed: int, wire_concurrency: int = 1, shuffle_seed: int | None = None):
    """One wire study; returns its full determinism fingerprint."""
    runner = StudyRunner(
        StudyConfig(
            study=2,
            seed=seed,
            scale=_SCALE,
            mode="wire",
            wire_concurrency=wire_concurrency,
        )
    )
    if shuffle_seed is not None:
        runner._wire_shuffle = random.Random(shuffle_seed)
    result = runner.run()
    engine_logs = {}
    for key, host in result.notes["wire_client_hosts"].items():
        for interceptor in host.interceptors:
            events = getattr(interceptor, "events", None)
            if events is not None:
                engine_logs[key] = events.to_dicts()
    return (
        result.database.aggregate_signature(),
        result.metrics["deterministic"],
        engine_logs,
        result.sessions_run,
    )


class TestSchedulerInterleavingDeterminism:
    # The serial baseline is pure per (study, seed, scale); computing
    # it once keeps each hypothesis example to one study run per seed.
    _baselines: dict = {}

    @classmethod
    def baseline(cls, seed):
        if seed not in cls._baselines:
            cls._baselines[seed] = _run(seed, wire_concurrency=1)
        return cls._baselines[seed]

    @given(shuffle_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shuffled_schedule_matches_serial_baseline(self, shuffle_seed):
        assert self.baseline(_ENGINE_SEED)[2], "no engine log to compare"
        for seed in _SEEDS:
            serial_sig, serial_metrics, serial_logs, serial_sessions = self.baseline(seed)
            sig, metrics, logs, sessions = _run(
                seed, wire_concurrency=16, shuffle_seed=shuffle_seed
            )
            assert sessions == serial_sessions
            assert sig == serial_sig
            assert metrics == serial_metrics
            assert logs.keys() == serial_logs.keys()
            for key in serial_logs:
                assert logs[key] == serial_logs[key], f"engine {key} diverged"
