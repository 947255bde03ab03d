"""The four benchmark workloads.

Each workload is one cold process's worth of work, cut into the parts
the benchmark treats differently:

* ``setup(seed, workdir)`` builds the program objects.  Together with
  the imports it triggers, it is timed as ``setup_s``.
* ``inputs(seed)`` builds benchmark-side inputs.  It is not timed.
* ``run(state, inputs, phase)`` is the measured call.  Every timed part
  runs inside ``with phase(name):``.
* ``check(state, inputs, result)`` derives the :class:`Outcome` and
  runs the in-process output checks.  It is not timed.

``yardstick`` names, for set-up and each timed phase, the host
calibration probe that matches what dominates it (``calib.py``):
``"arith"`` where RSA key generation and signing dominate the trace,
``"interp"`` elsewhere.

The program receives nothing but the seed and the generated inputs.
Why each workload was chosen, and which layers it should move, is in
``bench/README.md``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from dataclasses import dataclass, field

# Layer counters read from the program's own registries, not from the
# tracer; every workload reports all of them (zero where unused).
COUNTER_METRICS = (
    "netsim.loop_ticks",
    "netsim.queue_delivered",
    "netsim.queue_depth_peak",
    "store.bytes_written",
    "store.segments_written",
)


@dataclass
class Outcome:
    """What one repetition did and whether its output held up."""

    ops: int  # work units of the measured call (the workload's ``unit``)
    attempted: int
    failed: int
    digest: str  # output identity; every repetition of a seed must agree
    error: str | None = None  # first failed in-process check
    counters: dict[str, float] = field(default_factory=dict)


# -- study workloads ----------------------------------------------------------


def _study_outcome(result, ops: int) -> Outcome:
    failures = result.database.failures
    deterministic = result.metrics["deterministic"]["counters"]
    process = result.metrics["process"]
    failed = (
        failures.connect_failed
        + failures.probe_failed
        + failures.report_failed
        + deterministic.get("loop.task_failures", 0)
    )
    return Outcome(
        ops=ops,
        attempted=failures.sessions_started,
        failed=failed,
        digest=result.database.aggregate_signature(),
        counters={
            "netsim.loop_ticks": process["counters"].get("loop.ticks", 0),
            "netsim.queue_delivered": process["counters"].get("wire.queue_delivered", 0),
            "netsim.queue_depth_peak": process["gauges"].get("wire.queue_depth_peak", 0),
        },
    )


WIRE_CONCURRENCY = 64  # netsim sessions in flight, not OS sockets


class Wire:
    """Study 2 in wire mode: every session crosses netsim and reports over HTTP."""

    name = "wire"
    unit = "sessions"
    yardstick = {"setup": "arith", "run": "interp"}

    def __init__(self, scale: float = 0.0001) -> None:
        self.scale = scale

    def params(self) -> dict:
        return {"scale": self.scale, "wire_concurrency": WIRE_CONCURRENCY}

    def setup(self, seed: int, workdir: pathlib.Path):
        from repro.study import StudyConfig, StudyRunner

        return StudyRunner(
            StudyConfig(
                study=2,
                seed=seed,
                scale=self.scale,
                mode="wire",
                wire_concurrency=WIRE_CONCURRENCY,
            )
        )

    def inputs(self, seed: int) -> None:
        return None

    def run(self, runner, inputs, phase):
        with phase("run"):
            return runner.run()

    def check(self, runner, inputs, result) -> Outcome:
        return _study_outcome(result, ops=result.database.failures.sessions_started)


class Fast:
    """Study 2 in fast mode: vectorised sampling plus certificate forging."""

    name = "fast"
    unit = "measurements"
    yardstick = {"setup": "arith", "run": "arith"}

    def __init__(self, scale: float = 0.0075) -> None:
        self.scale = scale

    def params(self) -> dict:
        return {"scale": self.scale, "workers": 1}

    def setup(self, seed: int, workdir: pathlib.Path):
        from repro.study import StudyConfig, StudyRunner

        return StudyRunner(
            StudyConfig(study=2, seed=seed, scale=self.scale, mode="fast", workers=1)
        )

    def inputs(self, seed: int) -> None:
        return None

    def run(self, runner, inputs, phase):
        with phase("run"):
            return runner.run()

    def check(self, runner, inputs, result) -> Outcome:
        return _study_outcome(result, ops=result.database.total_measurements)


# -- audit --------------------------------------------------------------------

# Every other product of the 48-product catalog, frozen here so that a
# catalog change cannot change the workload.  Three cold repetitions of
# the whole catalog do not fit in one run.
AUDIT_PRODUCTS = (
    "bitdefender", "sendori", "null-issuer", "fortinet", "posco", "webmakerplus",
    "nordnet", "digicert-masquerade", "netspark", "ibrd", "atompark", "objectify",
    "wiredtools", "impressx", "dsp", "telecom-other", "myinternets",
    "other-personal-fw", "other-org", "other-fw", "blank-issuer", "hifi-2432",
    "md5-legacy", "wrong-domain-google",
)


class Audit:
    """The appliance battery over a fixed set of catalog products, serial."""

    name = "audit"
    unit = "products"
    yardstick = {"setup": "interp", "run": "arith"}

    def __init__(self, products: tuple[str, ...] = AUDIT_PRODUCTS) -> None:
        self.products = list(products)

    def params(self) -> dict:
        return {"products": self.products, "workers": 1}

    def setup(self, seed: int, workdir: pathlib.Path):
        from repro.audit import audit_catalog

        return functools.partial(audit_catalog, seed, workers=1, products=self.products)

    def inputs(self, seed: int) -> None:
        return None

    def run(self, audit, inputs, phase):
        with phase("run"):
            return audit()

    def check(self, audit, inputs, report) -> Outcome:
        canonical = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
        products = len(report.scorecards)
        return Outcome(
            ops=products,
            attempted=products,
            failed=0,
            digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        )


# -- ingest -------------------------------------------------------------------

MISMATCH_RATE = 0.005
FAILURE_BLOCK = 50_000  # reports between two failure-ledger rows
FAILURE_ROWS = (("probe_failed", 7), ("report_failed", 2))


@dataclass
class ReportStream:
    """A synthetic report stream: numpy draws, unpacked to lists for the append loop."""

    countries: list[str]
    host_types: list[str]
    hostnames: list[str]
    country_index: list[int]
    site_index: list[int]
    mismatch: list[bool]
    records: list  # one MeasurementRecord per mismatch, in stream order

    @property
    def reports(self) -> int:
        return len(self.country_index)


def _forged_summary(site_index: int, hostname: str):
    from repro.measure.records import CertSummary

    issuer = ("WebWatcher", "SuperFish, Inc.", "Sendori, Inc.", "Kurupira.NET")[
        site_index % 4
    ]
    return CertSummary(
        subject_cn=hostname,
        subject_org=None,
        issuer_cn=issuer,
        issuer_org=issuer,
        issuer_ou=None,
        serial_number=0x5EED00 + site_index,
        key_bits=1024,
        signature_algorithm="sha1WithRSAEncryption",
        fingerprint=hashlib.sha256(f"leaf:{hostname}".encode()).hexdigest(),
        public_key_fingerprint=hashlib.sha256(f"key:{issuer}".encode()).hexdigest(),
    )


@dataclass
class IngestState:
    store: object  # ReportStore
    registry: object  # MetricsRegistry of the store


class Ingest:
    """Report ingest through the on-disk store, then a cold scan back."""

    name = "ingest"
    unit = "reports"
    yardstick = {"setup": "interp", "write": "interp", "scan": "interp"}

    def __init__(self, reports: int = 500_000) -> None:
        self.reports = reports

    def params(self) -> dict:
        return {"reports": self.reports, "mismatch_rate": MISMATCH_RATE}

    def setup(self, seed: int, workdir: pathlib.Path) -> IngestState:
        from repro.measure.store import ReportStore
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        return IngestState(ReportStore(pathlib.Path(workdir) / "store", registry), registry)

    def inputs(self, seed: int) -> ReportStream:
        """The study-2 country and site mix, ~0.5% interception mismatches."""
        import numpy as np

        from repro.data.countries import country_table
        from repro.data.sites import study2_probe_sites
        from repro.measure.records import MeasurementRecord

        rng = np.random.Generator(np.random.PCG64(seed))
        rows = [row for row in country_table(2) if row.total > 0]
        weights = np.array([row.total for row in rows], dtype=np.float64)
        sites = study2_probe_sites()
        country_index = rng.choice(len(rows), size=self.reports, p=weights / weights.sum())
        site_index = rng.integers(0, len(sites), size=self.reports)
        mismatch = rng.random(self.reports) < MISMATCH_RATE
        countries = [row.code for row in rows]
        forged = [_forged_summary(index, site.hostname) for index, site in enumerate(sites)]
        records = [
            MeasurementRecord(
                study=2,
                campaign="bench",
                client_ip=f"203.{(k >> 16) & 255}.{(k >> 8) & 255}.{k & 255}",
                country=countries[c],
                hostname=sites[s].hostname,
                host_type=sites[s].host_type,
                mismatch=True,
                leaf=forged[s],
                chain=(forged[s],),
            )
            for k, (c, s) in enumerate(
                zip(country_index[mismatch].tolist(), site_index[mismatch].tolist()),
                start=1,
            )
        ]
        return ReportStream(
            countries=countries,
            host_types=[site.host_type for site in sites],
            hostnames=[site.hostname for site in sites],
            country_index=country_index.tolist(),
            site_index=site_index.tolist(),
            mismatch=mismatch.tolist(),
            records=records,
        )

    def run(self, state: IngestState, stream: ReportStream, phase):
        from repro.measure.store import scan_store
        from repro.obs.metrics import MetricsRegistry

        store = state.store
        add_matched = store.add_matched_bulk
        add_mismatch = store.add_mismatch
        countries, host_types, hostnames = (
            stream.countries,
            stream.host_types,
            stream.hostnames,
        )
        records = iter(stream.records)
        with phase("write"):
            for start in range(0, stream.reports, FAILURE_BLOCK):
                stop = start + FAILURE_BLOCK
                for c, s, is_mismatch in zip(
                    stream.country_index[start:stop],
                    stream.site_index[start:stop],
                    stream.mismatch[start:stop],
                ):
                    if is_mismatch:
                        add_mismatch(next(records))
                    else:
                        add_matched(countries[c], host_types[s], hostnames[s], 1)
                for name, count in FAILURE_ROWS:
                    store.add_failure(name, count)
            store.close()
        scan_registry = MetricsRegistry()
        with phase("scan"):
            scanned = scan_store(store.path, scan_registry)
        return scanned, scan_registry

    def check(self, state: IngestState, stream: ReportStream, result) -> Outcome:
        """Live aggregator, cold scan and an in-memory replay must agree."""
        from collections import Counter

        from repro.measure.database import ReportDatabase

        scanned, scan_registry = result
        replay = ReportDatabase()
        for record in stream.records:
            replay.add_mismatch(record)
        matched = Counter(
            (c, s)
            for c, s, is_mismatch in zip(
                stream.country_index, stream.site_index, stream.mismatch
            )
            if not is_mismatch
        )
        for (c, s), count in sorted(matched.items()):
            replay.add_matched_bulk(
                stream.countries[c], stream.host_types[s], stream.hostnames[s], count
            )
        blocks = -(-stream.reports // FAILURE_BLOCK)
        for name, count in FAILURE_ROWS:
            setattr(replay.failures, name, count * blocks)

        torn = scan_registry.deterministic_snapshot()["counters"].get(
            "reports.rejected{reason=torn-segment}", 0
        )
        live = state.store.aggregator.aggregate_signature()
        cold = scanned.aggregate_signature()
        error = None
        if not live == cold == replay.aggregate_signature():
            error = "live aggregator, cold scan and in-memory replay disagree"
        elif torn:
            error = f"{torn} torn segments after a clean close"
        counters = state.registry.deterministic_snapshot()["counters"]
        return Outcome(
            ops=stream.reports,
            attempted=stream.reports,
            failed=max(0, stream.reports - scanned.total_measurements) + torn,
            digest=cold,
            error=error,
            counters={
                "store.bytes_written": counters.get("store.bytes_written", 0),
                "store.segments_written": counters.get("store.segments_written", 0),
            },
        )


WORKLOADS = {workload.name: workload for workload in (Wire(), Fast(), Audit(), Ingest())}
