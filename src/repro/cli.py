"""Command-line interface.

``python -m repro <command>`` drives the reproduction end to end:

* ``study1`` / ``study2`` — run a measurement study and print the
  corresponding paper tables (optionally exporting the raw report
  database as a segmented report store).
* ``scan`` — the Table 1 policy-file scan and probe-site selection.
* ``ablation`` — the §7 mitigation ablation matrix.
* ``whitelist`` — the §6.3 whitelist experiment (this paper vs Huang).
* ``audit`` — the appliance security audit: every catalog product vs
  the adversarial upstream battery, graded A–F (Waked et al. style).
* ``mimicry-prevalence`` — the study-mode mimicry analysis: probe the
  catalog's server legs and report per-country detectable-from-client-
  side rates weighted by product market share.
* ``keys`` — warm, inspect or garbage-collect the persistent
  key-material vault that studies and audits share via ``--vault``
  (or ``REPRO_KEY_VAULT``).
* ``chaos`` — the fault-injection drill matrix: every wire, server and
  store-crash fault kind, each checked for exact loss accounting and
  byte-identical recovery (studies take the same plans via
  ``--faults``).
"""

from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'TLS Proxies: Friend or Foe?' (IMC 2016)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for study in (1, 2):
        study_parser = sub.add_parser(
            f"study{study}", help=f"run measurement study {study}"
        )
        study_parser.add_argument("--seed", type=int, default=42)
        study_parser.add_argument(
            "--scale",
            type=float,
            default=0.02,
            help="fraction of the paper's measurement volume (default 0.02)",
        )
        study_parser.add_argument(
            "--mode", choices=("fast", "wire"), default="fast"
        )
        study_parser.add_argument(
            "--workers",
            type=int,
            default=1,
            help="process-pool width for fast-mode country shards; results "
            "are identical for any value (default 1)",
        )
        study_parser.add_argument(
            "--wire-concurrency",
            type=int,
            default=1,
            help="wire-mode admission cap: how many client session chains "
            "the cooperative scheduler multiplexes at once; signatures, "
            "event logs and deterministic metrics are identical for any "
            "value (default 1: one chain at a time)",
        )
        study_parser.add_argument(
            "--vault",
            metavar="DIR",
            help="persistent key-vault directory: RSA key material is "
            "loaded from (and written back to) disk, so workers and "
            "repeat runs skip key generation entirely",
        )
        study_parser.add_argument(
            "--report-store",
            metavar="DIR",
            help="stream fast-mode shard outcomes into an on-disk segmented "
            "report store instead of RAM; tables are then rendered from "
            "the segments (directory must not already hold segments)",
        )
        study_parser.add_argument(
            "--faults",
            metavar="PLAN",
            help="deterministic fault plan, e.g. "
            "'reset=0.05,429=0.02,crash-rotate=2' — wire/server kinds, "
            "crash-<flush|rotate|seal|compact>=N, plus seed/retries/"
            "deadline/segment-bytes/batch-rows overrides; recovery must "
            "reproduce the fault-free aggregate signature",
        )
        study_parser.add_argument(
            "--export",
            metavar="DIR",
            help="write the report database as a segmented report store "
            "(read it back with 'repro store scan'; directory must not "
            "already hold segments)",
        )
        study_parser.add_argument(
            "--metrics-out",
            metavar="PATH",
            help="write the run's metrics snapshot as JSON (deterministic/"
            "process/timing sections) and print the phase profile",
        )

    chaos = sub.add_parser(
        "chaos",
        help="run the fault-injection drill matrix: every wire, server "
        "and store-crash kind, each checked for exact loss accounting "
        "and byte-identical recovery",
    )
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument(
        "--reports",
        type=int,
        default=48,
        help="reports per wire drill (default 48)",
    )
    chaos.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for the embedded study drill; deterministic "
        "counters are identical for any value (default 1)",
    )
    chaos.add_argument(
        "--scale",
        type=float,
        default=0.001,
        help="scale for the embedded study drill (default 0.001)",
    )
    chaos.add_argument(
        "--vault",
        metavar="DIR",
        help="persistent key-vault directory for the embedded study drill",
    )
    chaos.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the matrix's merged deterministic metrics as JSON "
        "(the CI chaos smoke diffs this across worker counts)",
    )

    scan = sub.add_parser("scan", help="Table 1: policy-file scan of the universe")
    scan.add_argument("--universe", type=int, default=2000)

    sub.add_parser("ablation", help="§7 mitigation ablation matrix")

    whitelist = sub.add_parser(
        "whitelist", help="§6.3 whitelist experiment (this paper vs Huang et al.)"
    )
    whitelist.add_argument("--sessions", type=int, default=200_000)
    whitelist.add_argument("--seed", type=int, default=42)

    audit = sub.add_parser(
        "audit",
        help="adversarial upstream battery: grade every product's TLS posture",
    )
    audit.add_argument("--seed", type=int, default=42)
    audit.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pool width for the product fan-out (default 1)",
    )
    audit.add_argument(
        "--product",
        action="append",
        metavar="KEY",
        help="audit only this catalog product (repeatable)",
    )
    from repro.tls.fingerprint import BROWSER_PROFILES, DEFAULT_BROWSER

    audit.add_argument(
        "--browser",
        choices=sorted(BROWSER_PROFILES),
        default=DEFAULT_BROWSER,
        help="browser profile the client-leg mimicry probe impersonates; "
        "2020-era profiles (chrome-2020, firefox-2020, safari-2020) offer "
        "TLS 1.3 and add the ALPN/resumption/downgrade checks "
        f"(default {DEFAULT_BROWSER})",
    )
    audit.add_argument(
        "--detail",
        action="store_true",
        help="print every product's per-check scorecard, not just the table",
    )
    audit.add_argument(
        "--vault",
        metavar="DIR",
        help="persistent key-vault directory shared by workers and runs",
    )
    audit.add_argument(
        "--export", metavar="PATH", help="write the full report as JSON"
    )
    audit.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the battery's metrics snapshot as JSON and print the "
        "phase profile",
    )

    prevalence = sub.add_parser(
        "mimicry-prevalence",
        help="study-mode mimicry analysis: per-country detectable-from-"
        "client-side rates, weighted by product market share",
    )
    prevalence.add_argument("--seed", type=int, default=42)
    prevalence.add_argument(
        "--study",
        type=int,
        choices=(1, 2),
        default=1,
        help="which study's country calibration and market shares to "
        "weight by (default 1)",
    )
    prevalence.add_argument(
        "--browser",
        choices=sorted(BROWSER_PROFILES),
        default=DEFAULT_BROWSER,
        help="browser whose expected origin answer the server legs are "
        f"graded against (default {DEFAULT_BROWSER})",
    )
    prevalence.add_argument(
        "--workers",
        type=int,
        default=1,
        help="pool width for the product fan-out; output is identical "
        "for any value (default 1)",
    )
    prevalence.add_argument(
        "--product",
        action="append",
        metavar="KEY",
        help="survey only this catalog product (repeatable)",
    )
    prevalence.add_argument(
        "--top", type=int, default=20, help="country rows before Other (default 20)"
    )
    prevalence.add_argument(
        "--vault",
        metavar="DIR",
        help="persistent key-vault directory shared by workers and runs",
    )
    prevalence.add_argument(
        "--export", metavar="PATH", help="write the study result as JSON"
    )
    prevalence.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the survey's metrics snapshot as JSON and print the "
        "phase profile",
    )

    store = sub.add_parser(
        "store", help="inspect or maintain an on-disk segmented report store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_scan = store_sub.add_parser(
        "scan",
        help="stream every segment once: totals, aggregate signature, "
        "torn-segment count",
    )
    store_scan.add_argument("--dir", metavar="DIR", required=True)
    store_scan.add_argument(
        "--heal",
        action="store_true",
        help="truncate torn segment tails back to the last complete row",
    )
    store_compact = store_sub.add_parser(
        "compact",
        help="rewrite each shard as one segment with coalesced counters",
    )
    store_compact.add_argument("--dir", metavar="DIR", required=True)

    keys = sub.add_parser(
        "keys", help="manage the persistent RSA key-material vault"
    )
    keys_sub = keys.add_subparsers(dest="keys_command", required=True)
    warm = keys_sub.add_parser(
        "warm",
        help="pre-generate every study/audit RSA key into the vault so "
        "later runs (and their worker processes) only ever load",
    )
    warm.add_argument("--vault", metavar="DIR", required=True)
    warm.add_argument("--seed", type=int, default=42)
    warm.add_argument(
        "--skip-audit",
        action="store_true",
        help="warm only the study keys, not the audit battery's",
    )
    stats = keys_sub.add_parser(
        "stats", help="print vault entry counts and on-disk size per seed"
    )
    stats.add_argument("--vault", metavar="DIR", required=True)
    stats.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="also write the vault gauges as a metrics-snapshot JSON",
    )
    gc = keys_sub.add_parser(
        "gc",
        help="prune vault entries not addressed by the kept seeds — "
        "keeps long-lived CI caches bounded",
    )
    gc.add_argument("--vault", metavar="DIR", required=True)
    gc.add_argument(
        "--keep-seeds",
        metavar="SEED",
        type=int,
        nargs="+",
        required=True,
        help="seeds whose key material survives; everything else is removed",
    )
    return parser


def _emit_metrics(snapshot: dict, path: str) -> None:
    """Write a metrics snapshot and print its phase profile.

    Only runs when ``--metrics-out`` was given: the default stdout must
    stay byte-identical across worker counts (the determinism smokes
    diff it), and wall-clock timings in it would break that.
    """
    from repro.obs.export import write_json
    from repro.reporting import render_metrics_table

    write_json(snapshot, path)
    print(f"\nmetrics snapshot written to {path}\n")
    print(render_metrics_table(snapshot))


def _run_study(study: int, args) -> int:
    from repro.analysis import (
        analyze_negligence,
        classification_table,
        country_breakdown,
        heatmap_series,
        host_type_table,
        issuer_organization_table,
        malware_census,
    )
    from repro.faults.recovery import database_ops, deliver
    from repro.measure.store import (
        ReportStore,
        SegmentedStore,
        load_store,
        require_empty_store,
    )
    from repro.reporting import (
        render_classification_table,
        render_country_table,
        render_heatmap,
        render_host_type_table,
        render_issuer_table,
    )
    from repro.study import StudyConfig, StudyRunner

    try:
        config = StudyConfig(
            study=study,
            seed=args.seed,
            scale=args.scale,
            mode=args.mode,
            workers=args.workers,
            wire_concurrency=args.wire_concurrency,
            vault=args.vault,
            report_store=args.report_store,
            faults=args.faults,
        )
        # A store no writer can use fails here, before any work.
        for store in (args.export, args.report_store):
            if store:
                require_empty_store(store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"running study {study} ({args.mode} mode, scale {args.scale}, "
        f"seed {args.seed}, workers {args.workers}) ..."
    )
    if args.faults:
        print(f"fault plan: {config.fault_plan().describe()}")
    try:
        result = StudyRunner(config).run()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report_store:
        # The streaming path: one pass over the segments rebuilds the
        # database, records and tally both, for every table below.
        db = load_store(args.report_store)
        n_segments = len(SegmentedStore(args.report_store).segment_paths())
        print(
            f"\nreport store: {args.report_store} ({n_segments} segments)"
            f"\naggregate signature: {db.aggregate_signature()}"
        )
    else:
        db = result.database
    faults_note = result.notes.get("faults")
    if faults_note:
        injected = ", ".join(
            f"{kind}: {count}"
            for kind, count in sorted(faults_note.get("injected", {}).items())
        )
        crashes = ", ".join(
            f"crash-{point}: {count}"
            for point, count in sorted(faults_note.get("crashes", {}).items())
        )
        print(
            f"\nfaults: {faults_note['submitted']:,} ops submitted, "
            f"{faults_note['delivered']:,} delivered, "
            f"{faults_note['failed']:,} failed "
            f"({faults_note['retries']} retries, "
            f"{faults_note.get('recoveries', 0)} crash recoveries)"
        )
        if injected or crashes:
            print(f"injected: {'; '.join(filter(None, [injected, crashes]))}")
    print(
        f"\nmeasurements: {db.total_measurements:,}  proxied: "
        f"{db.mismatch_count:,}  rate: "
        f"{db.proxied_rate * 100:.2f}% (paper: 0.41%)"
    )
    order_by = "proxied" if study == 1 else "total"
    print(f"\n== Table {3 if study == 1 else 7}: connections by country ==")
    print(render_country_table(country_breakdown(db, top_n=20, order_by=order_by)))
    print("\n== Table 4: Issuer Organization values ==")
    rows, other = issuer_organization_table(db, top_n=20)
    print(render_issuer_table(rows, other))
    print(f"\n== Table {5 if study == 1 else 6}: issuer classification ==")
    print(render_classification_table(classification_table(db)))
    if study == 2:
        print("\n== Table 8: proxied connections by host type ==")
        print(render_host_type_table(host_type_table(db)))
        print("\n== Figure 7: prevalence heat map ==")
        print(render_heatmap(heatmap_series(db), columns=5))
    negligence = analyze_negligence(db)
    print(
        f"\nnegligence: {negligence.downgraded_1024:,} x 1024-bit "
        f"({100 * negligence.fraction(negligence.downgraded_1024):.1f}%), "
        f"{negligence.md5_signed} MD5, {negligence.false_ca_claims} false CA claims"
    )
    census = malware_census(db)
    print(
        f"malware: {census.family_count} families, "
        f"{census.total_connections:,} connections"
    )
    if args.export:
        deliver(database_ops(db), ReportStore(args.export))
        print(f"\nreport database exported to {args.export}")
    if args.metrics_out:
        _emit_metrics(result.metrics, args.metrics_out)
    return 0


def _run_chaos(args) -> int:
    from repro.faults.chaos import run_chaos_matrix
    from repro.obs.metrics import MetricsRegistry
    from repro.reporting import render_table

    obs = MetricsRegistry()
    print(
        f"chaos drill matrix (seed {args.seed}, {args.reports} reports per "
        f"wire drill, study workers {args.workers}) ..."
    )
    outcomes = run_chaos_matrix(
        seed=args.seed,
        reports=args.reports,
        workers=args.workers,
        scale=args.scale,
        vault=args.vault,
        registry=obs,
    )
    body = []
    for outcome in outcomes:
        injected = ", ".join(
            f"{kind}: {count}" for kind, count in sorted(outcome.injected.items())
        )
        body.append(
            [
                outcome.name,
                f"{outcome.submitted:,}",
                f"{outcome.delivered:,}",
                f"{outcome.failed:,}",
                str(outcome.retries),
                str(outcome.recoveries),
                "ok" if outcome.invariant_ok else "BROKEN",
                {True: "identical", False: "DIVERGED", None: "lossy"}[
                    outcome.signature_ok
                ],
                injected or "-",
            ]
        )
    print()
    print(
        render_table(
            [
                "Drill",
                "Submitted",
                "Delivered",
                "Failed",
                "Retries",
                "Recoveries",
                "Loss",
                "Signature",
                "Injected",
            ],
            body,
        )
    )
    broken = [outcome.name for outcome in outcomes if not outcome.ok]
    if broken:
        print(f"\nFAILED drills: {', '.join(broken)}", file=sys.stderr)
    else:
        print(
            f"\nall {len(outcomes)} drills hold submitted == delivered + failed;"
            " recoverable plans reproduced the fault-free signature"
        )
    if args.metrics_out:
        from repro.obs.export import write_json

        write_json(obs.snapshot(), args.metrics_out)
        print(f"chaos metrics written to {args.metrics_out}")
    return 1 if broken else 0


def _run_scan(args) -> int:
    from repro.data.sites import STUDY2_SITES, synthetic_alexa_universe
    from repro.netsim import Network
    from repro.policy.model import PolicyFile
    from repro.policy.scanner import PolicyScanner
    from repro.policy.server import PolicyServer

    network = Network()
    scanner_host = network.add_host("scanner.example")
    universe = synthetic_alexa_universe(size=args.universe, seed=7)
    table1_hosts = {site.hostname for site in STUDY2_SITES}
    permissive = PolicyFile.permissive("443")
    for hostname, rank, category in universe:
        host = network.add_host(hostname)
        if hostname in table1_hosts:
            host.listen(843, PolicyServer(permissive).factory)
    scanner = PolicyScanner(scanner_host)
    results = scanner.scan(universe)
    selected = scanner.select_probe_sites(
        results, {"popular": 6, "business": 5, "porn": 5}
    )
    permissive_count = sum(1 for r in results if r.permissive)
    print(
        f"scanned {len(results)} sites; {permissive_count} serve permissive "
        "socket policy files"
    )
    for category, sites in selected.items():
        names = ", ".join(site.hostname for site in sites)
        print(f"  {category:<10} {names}")
    return 0


def _run_ablation() -> int:
    from repro.mitigation import evaluate_mitigations

    evaluation = evaluate_mitigations(seed=42)
    header = (
        f"{'scenario':<18} {'intercepted':<11} {'pinning':<20} "
        f"{'pin-strict':<11} {'notary':<15} {'dvcert':<14} {'ct':<10} "
        f"{'mdtls':<26} disclosure"
    )
    print(header)
    print("-" * len(header))
    for outcome in evaluation.outcomes:
        print(
            f"{outcome.scenario:<18} {str(outcome.intercepted):<11} "
            f"{outcome.pinning:<20} {outcome.pinning_strict:<11} "
            f"{outcome.notary:<15} {outcome.dvcert:<14} "
            f"{outcome.ct_monitor:<10} {outcome.mdtls:<26} {outcome.disclosure}"
        )
    return 0


def _run_whitelist(args) -> int:
    from repro.study.whitelist import run_whitelist_experiment

    result = run_whitelist_experiment(seed=args.seed, sessions=args.sessions)
    print(f"sessions: {result.sessions:,}")
    print(
        f"low-profile site rate:  {100 * result.low_profile_rate:.2f}% "
        "(this paper: 0.41%)"
    )
    print(
        f"facebook-class rate:    {100 * result.high_profile_rate:.2f}% "
        "(Huang et al.: 0.20%)"
    )
    print(f"whitelisting products: {', '.join(result.whitelisting_products)}")
    return 0


def _run_audit(args) -> int:
    import json

    from repro.audit import ADVERSARIAL_SCENARIOS, audit_catalog
    from repro.reporting import (
        render_audit_grade_table,
        render_client_leg_table,
        render_scorecard,
        render_server_leg_table,
    )

    from repro.obs.metrics import MetricsRegistry

    obs = MetricsRegistry()
    try:
        report = audit_catalog(
            seed=args.seed,
            workers=args.workers,
            products=args.product or None,
            vault=args.vault,
            browser=args.browser,
            registry=obs,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(
        f"appliance security audit: {len(report.scorecards)} products x "
        f"{len(ADVERSARIAL_SCENARIOS)} adversarial scenarios "
        f"+ client-leg checks vs {args.browser} (seed {args.seed})"
    )
    print()
    print(render_audit_grade_table(report.scorecards))
    print(f"\n== Client leg: ClientHello mimicry vs {args.browser}, "
          "substitute handshake ==")
    print(render_client_leg_table(report.scorecards))
    print(f"\n== Server leg: substitute ServerHello vs the {args.browser} "
          "origin expectation ==")
    print(render_server_leg_table(report.scorecards))
    histogram = report.grade_histogram()
    print(
        "\ngrades: "
        + "  ".join(f"{letter}: {count}" for letter, count in histogram.items())
    )
    if args.detail:
        for card in report.scorecards:
            print()
            print(render_scorecard(card))
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"\naudit report exported to {args.export}")
    if args.metrics_out:
        _emit_metrics(obs.snapshot(), args.metrics_out)
    return 0


def _run_mimicry_prevalence(args) -> int:
    import json

    from repro.analysis.mimicry import mimicry_prevalence
    from repro.audit import mimicry_catalog
    from repro.obs.metrics import MetricsRegistry
    from repro.reporting import render_mimicry_prevalence_table

    obs = MetricsRegistry()
    try:
        survey = mimicry_catalog(
            seed=args.seed,
            workers=args.workers,
            products=args.product or None,
            vault=args.vault,
            browser=args.browser,
            registry=obs,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    prevalence = mimicry_prevalence(survey, study=args.study, top_n=args.top)
    detectable = [entry for entry in prevalence.entries if entry.detectable]
    print(
        f"mimicry prevalence: {len(survey.entries)} products probed with a "
        f"{args.browser} hello (study {args.study} market shares, seed "
        f"{args.seed}); {len(detectable)} serve a client-side detectable "
        "substitute ServerHello"
    )
    print(
        "\n== Detectable-from-client-side rate by country "
        "(share of proxied connections) =="
    )
    print(render_mimicry_prevalence_table(prevalence))
    hidden = [entry for entry in prevalence.entries if not entry.detectable]
    if hidden:
        print(
            "\nindistinguishable server legs: "
            + ", ".join(entry.product_key for entry in hidden)
        )
    if detectable:
        print("\ndetectable server legs (diverging dimensions):")
        for entry in detectable:
            print(f"  {entry.product_key}: {', '.join(entry.detection_reasons)}")
    if args.export:
        with open(args.export, "w", encoding="utf-8") as handle:
            json.dump(prevalence.to_dict(), handle, indent=2)
        print(f"\nmimicry-prevalence study exported to {args.export}")
    if args.metrics_out:
        _emit_metrics(obs.snapshot(), args.metrics_out)
    return 0


def _run_store(args) -> int:
    from repro.measure.store import ReportStore, SegmentedStore, StoreError, scan_store
    from repro.obs.metrics import MetricsRegistry

    obs = MetricsRegistry()
    try:
        # Opened first, so a path that is no store is refused, not created.
        segments = SegmentedStore(args.dir)
        if args.store_command == "compact":
            store = ReportStore(args.dir)
            stats = store.compact()
            store.close()
        else:
            aggregator = scan_store(args.dir, registry=obs, heal=args.heal)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_segments = len(segments.segment_paths())
    if args.store_command == "compact":
        print(
            f"store {args.dir}: compacted {stats['rows_before']:,} rows to "
            f"{stats['rows_after']:,} across {n_segments} segments"
        )
        return 0
    torn = obs.counter("reports.rejected", reason="torn-segment").value
    print(
        f"store {args.dir}: {n_segments} segments, "
        f"{aggregator.total_measurements:,} measurements "
        f"({aggregator.mismatch_count:,} proxied, "
        f"{aggregator.distinct_proxied_ips():,} distinct proxied IPs)"
    )
    print(f"torn segments: {torn}" + (" (healed)" if args.heal and torn else ""))
    print(f"aggregate signature: {aggregator.aggregate_signature()}")
    return 0


def _run_keys(args) -> int:
    import time

    from repro.crypto.vault import KeyVault

    vault = KeyVault(args.vault)
    if args.keys_command == "stats":
        from repro.obs.export import write_json
        from repro.obs.metrics import MetricsRegistry
        from repro.reporting import render_table

        obs = MetricsRegistry()
        per_seed = vault.collect_stats(obs)
        total_entries = obs.gauge("vault.entries").value or 0
        total_bytes = obs.gauge("vault.bytes").value or 0
        print(
            f"vault {vault.path}: {total_entries} entries, "
            f"{total_bytes / 1024:.1f} KiB on disk"
        )
        if per_seed:
            body = [
                [str(seed), f"{entries:,}", f"{size / 1024:.1f}"]
                for seed, (entries, size) in sorted(
                    per_seed.items(), key=lambda item: str(item[0])
                )
            ]
            print(render_table(["Seed", "Entries", "KiB"], body))
        if args.metrics_out:
            write_json(obs.snapshot(), args.metrics_out)
            print(f"vault metrics written to {args.metrics_out}")
        return 0
    if args.keys_command == "gc":
        kept, removed = vault.gc(args.keep_seeds)
        seeds = ", ".join(str(seed) for seed in args.keep_seeds)
        print(
            f"vault {vault.path}: kept {kept} entries (seeds {seeds}), "
            f"removed {removed}"
        )
        return 0

    from repro.study import StudyConfig, StudyRunner

    start = time.perf_counter()
    generated = 0
    loaded = 0
    for study in (1, 2):
        runner = StudyRunner(
            StudyConfig(study=study, seed=args.seed, vault=args.vault)
        )
        runner.warm_keys()
        generated += runner.keystore.keys_generated
        loaded += runner.keystore.vault_hits
        print(
            f"study {study}: {runner.keystore.keys_generated} generated, "
            f"{runner.keystore.vault_hits} loaded"
        )
    if not args.skip_audit:
        from repro.audit.harness import AuditHarness
        from repro.data.products import catalog

        harness = AuditHarness(seed=args.seed, vault=args.vault)
        for spec in catalog():
            harness.warm_product(spec.profile)
        generated += harness.keystore.keys_generated
        loaded += harness.keystore.vault_hits
        print(
            f"audit:   {harness.keystore.keys_generated} generated, "
            f"{harness.keystore.vault_hits} loaded"
        )
    wall = time.perf_counter() - start
    print(
        f"vault {vault.path}: {len(vault)} entries "
        f"({generated} generated, {loaded} loaded, {wall:.1f}s)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "study1":
        return _run_study(1, args)
    if args.command == "study2":
        return _run_study(2, args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "scan":
        return _run_scan(args)
    if args.command == "ablation":
        return _run_ablation()
    if args.command == "whitelist":
        return _run_whitelist(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "mimicry-prevalence":
        return _run_mimicry_prevalence(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "keys":
        return _run_keys(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
