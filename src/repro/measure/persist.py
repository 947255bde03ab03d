"""JSON codecs for measurement records.

The report store (:mod:`repro.measure.store`) keeps every mismatch at
full fidelity as one of these dicts per JSONL row — the on-disk form
of the dataset the paper promised to publish.
"""

from __future__ import annotations

from repro.measure.records import CertSummary, MeasurementRecord


def summary_to_dict(summary: CertSummary) -> dict:
    return {
        "subject_cn": summary.subject_cn,
        "subject_org": summary.subject_org,
        "issuer_cn": summary.issuer_cn,
        "issuer_org": summary.issuer_org,
        "issuer_ou": summary.issuer_ou,
        "serial_number": summary.serial_number,
        "key_bits": summary.key_bits,
        "signature_algorithm": summary.signature_algorithm,
        "fingerprint": summary.fingerprint,
        "public_key_fingerprint": summary.public_key_fingerprint,
        "dns_names": list(summary.dns_names),
        "is_ca": summary.is_ca,
    }


def summary_from_dict(data: dict) -> CertSummary:
    return CertSummary(
        subject_cn=data["subject_cn"],
        subject_org=data["subject_org"],
        issuer_cn=data["issuer_cn"],
        issuer_org=data["issuer_org"],
        issuer_ou=data["issuer_ou"],
        serial_number=data["serial_number"],
        key_bits=data["key_bits"],
        signature_algorithm=data["signature_algorithm"],
        fingerprint=data["fingerprint"],
        public_key_fingerprint=data["public_key_fingerprint"],
        dns_names=tuple(data["dns_names"]),
        is_ca=data["is_ca"],
    )


def record_to_dict(record: MeasurementRecord) -> dict:
    return {
        "study": record.study,
        "campaign": record.campaign,
        "client_ip": record.client_ip,
        "country": record.country,
        "hostname": record.hostname,
        "host_type": record.host_type,
        "mismatch": record.mismatch,
        "leaf": summary_to_dict(record.leaf),
        "chain": [summary_to_dict(c) for c in record.chain],
        "chain_valid": record.chain_valid,
        "via": record.via,
        "product_key": record.product_key,
    }


def record_from_dict(data: dict) -> MeasurementRecord:
    return MeasurementRecord(
        study=data["study"],
        campaign=data["campaign"],
        client_ip=data["client_ip"],
        country=data["country"],
        hostname=data["hostname"],
        host_type=data["host_type"],
        mismatch=data["mismatch"],
        leaf=summary_from_dict(data["leaf"]),
        chain=tuple(summary_from_dict(c) for c in data["chain"]),
        chain_valid=data["chain_valid"],
        via=data["via"],
        product_key=data.get("product_key"),
    )
