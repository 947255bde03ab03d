"""N1 — the §5.2 negligence findings over study 1."""

from conftest import emit

from repro.analysis import analyze_negligence


def test_negligence_study1(benchmark, study1, study2, scale, output_dir):
    report = benchmark(lambda: analyze_negligence(study1.database))

    frac = report.fraction
    lines = [
        f"mismatches analysed: {report.total_mismatches:,} "
        f"(paper: 11,764 at full scale)",
        "",
        f"{'finding':<34} {'measured':>12} {'paper':>12}",
        f"{'1024-bit substitute keys':<34} "
        f"{report.downgraded_1024:>7,} ({100 * frac(report.downgraded_1024):4.1f}%)"
        f" {'5,951 (50.6%)':>12}",
        f"{'512-bit substitute keys':<34} {report.downgraded_512:>12,} {'21':>12}",
        f"{'MD5-signed substitutes':<34} {report.md5_signed:>12,} {'23':>12}",
        f"{'MD5 and 512-bit':<34} {report.md5_and_512:>12,} {'21':>12}",
        f"{'2432-bit (stronger) keys':<34} {report.upgraded:>12,} {'7':>12}",
        f"{'SHA-256 signed':<34} {report.sha256_signed:>12,} {'5':>12}",
        f"{'falsified CA claims':<34} {report.false_ca_claims:>12,} {'49':>12}",
        f"{'subject mismatches':<34} {report.subject_mismatches:>12,} {'51+':>12}",
        "",
        f"key-size histogram: {report.key_size_histogram}",
        f"false CA organizations: {dict(report.false_ca_organizations)}",
        f"wrong-domain subjects: {dict(report.wrong_domain_subjects)}",
        "shared-key groups:",
    ]
    for group in report.shared_key_groups:
        lines.append(
            f"  {group.issuer}: one {group.key_bits}-bit key, "
            f"{group.connections} connections, {group.distinct_ips} IPs, "
            f"{group.distinct_countries} countries"
        )
    lines.append(
        "(paper: IopFailZeroAccessCreate — the same 512-bit key in every "
        "certificate, 14 countries)"
    )
    emit(output_dir, "negligence_study1", "\n".join(lines))

    # Shape assertions (scaled counts are noisy; ratios are stable).
    assert 0.40 < frac(report.downgraded_1024) < 0.60  # paper: 50.59%
    assert report.md5_signed >= report.md5_and_512
    if 49 * scale >= 4:  # expected DigiCert masquerades above noise
        assert report.false_ca_claims > 0
    if scale >= 0.2:
        # IopFail's shared 512-bit key becomes detectable with volume;
        # check over both studies (21 + 18 connections at full scale).
        from repro.faults.recovery import database_ops, deliver
        from repro.measure.database import ReportDatabase

        merged = ReportDatabase()
        for study in (study1, study2):
            deliver(database_ops(study.database), merged)
        combined = analyze_negligence(merged, shared_key_min_connections=3)
        assert any(g.key_bits == 512 for g in combined.shared_key_groups)
