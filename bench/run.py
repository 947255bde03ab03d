"""The repository benchmark: one command, every end-to-end metric.

    python3 bench/run.py --workload wire --seed 42 --seconds 25 --trace 0

Each repetition is a fresh ``python -m bench.rep`` subprocess with no key
vault and an empty ``HOME``/``XDG_CACHE_HOME``, so it pays every
first-run cost.  The program runs at the three seeds pinned in
``expected.json``; repetition ``i`` of a run at ``--seed s`` takes pinned
seed ``(s + i) % 3``, so ``--seed`` picks the one that goes first.
Repetitions go round-robin over the chosen workloads (``--workload all``
runs the four) until ``--seconds`` per workload are spent, for at least
three rounds, so every run covers every pinned seed.  Cold RSA key
generation costs what the prime search at a seed happens to cost, up to
a third more at one seed than at another.  So every metric is the mean,
over the pinned seeds, of the median of that seed's untraced
repetitions, with times normalised by the host calibration.

``--trace 1`` makes the second round a traced rerun of the first
repetition's program seed and prints its per-layer metrics instead.
Outputs are checked on every repetition: the workload's own checks, the
digest pinned in ``expected.json`` for its program seed, and equal
digests for equal program seeds.  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.calib import hardware  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

REP_TIMEOUT_S = 150
EXPECTED = json.loads(
    (pathlib.Path(__file__).resolve().parent / "expected.json").read_text(encoding="utf-8")
)
PROGRAM_SEEDS = EXPECTED["program_seeds"]
MIN_ROUNDS = len(PROGRAM_SEEDS)
MAX_ROUNDS = 8


def metric_units(kind: str) -> dict[str, str]:
    """Name to unit of every ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def program_seed(seed: int, index: int) -> int:
    """The program seed of repetition ``index`` of a run at ``seed``."""
    return PROGRAM_SEEDS[(seed + index) % len(PROGRAM_SEEDS)]


def run_rep(name: str, seed: int, traced: bool, work: pathlib.Path) -> dict:
    """One cold subprocess repetition; returns its record or an error record."""
    rep_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    home = rep_dir / "home"
    home.mkdir()
    out = rep_dir / "result.json"
    env = dict(os.environ)
    env.pop("REPRO_KEY_VAULT", None)
    env.update(
        HOME=str(home),
        XDG_CACHE_HOME=str(home / ".cache"),
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    command = [
        sys.executable, "-m", "bench.rep",
        "--workload", name, "--seed", str(seed),
        "--workdir", str(rep_dir), "--out", str(out),
    ] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=REP_TIMEOUT_S,
        )
        if proc.returncode != 0 or not out.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-1:] or ["no output"]
            return {"seed": seed, "traced": traced, "error": f"exit {proc.returncode}: {tail[0]}"}
        return json.loads(out.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        return {"seed": seed, "traced": traced, "error": f"timed out after {REP_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def repeat(names: list[str], seed: int, seconds: float, trace: bool, work) -> dict:
    """Round-robin repetitions until the time budget is spent."""
    records: dict[str, list[dict]] = {name: [] for name in names}
    budget = seconds * len(names)
    start = time.monotonic()
    round_s: list[float] = []
    index = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        traced = trace and rounds == 2
        round_start = time.monotonic()
        for name in names:
            rep_seed = program_seed(seed, 0 if traced else index)
            records[name].append(run_rep(name, rep_seed, traced, work))
        index += not traced
        round_s.append(time.monotonic() - round_start)
        if any(record.get("error") for recs in records.values() for record in recs):
            break
        elapsed = time.monotonic() - start
        if rounds >= MIN_ROUNDS and elapsed + statistics.mean(round_s) > budget:
            break
    return records


def pinned_digests(name: str) -> dict[int, str]:
    """Pinned output digests of ``name`` by program seed (empty if unpinned).

    Raises ``ValueError`` when the pins were made for other workload
    parameters, so resizing a workload without re-pinning fails loudly.
    """
    entry = EXPECTED["workloads"].get(name)
    if entry is None:
        return {}
    if entry["params"] != WORKLOADS[name].params():
        raise ValueError(f"expected.json pins {name} for params {entry['params']}")
    return dict(zip(PROGRAM_SEEDS, entry["digests"], strict=True))


def check(name: str, records: list[dict]) -> list[str]:
    """Every problem with one workload's repetitions (empty when all hold)."""
    problems = [
        f"program seed {record['seed']}: {record['error']}"
        for record in records
        if record.get("error")
    ]
    try:
        pinned = pinned_digests(name)
    except ValueError as exc:
        return problems + [str(exc)]
    by_seed: dict[int, set[str]] = {}
    for record in records:
        if not record.get("error"):
            by_seed.setdefault(record["seed"], set()).add(record["digest"])
    for rep_seed, digests in sorted(by_seed.items()):
        if len(digests) > 1:
            problems.append(f"program seed {rep_seed}: repetitions disagree {sorted(digests)}")
        if rep_seed in pinned and digests != {pinned[rep_seed]}:
            problems.append(
                f"program seed {rep_seed}: digest {sorted(digests)} differs from "
                f"pinned {pinned[rep_seed]}"
            )
    return problems


def summarise(name: str, records: list[dict], trace: bool) -> dict:
    """Check one workload's repetitions and reduce them to its metrics."""
    problems = check(name, records)
    good = [record for record in records if not record.get("error")]
    untraced = [record for record in good if not record["traced"]]
    traced = [record for record in good if record["traced"]]
    if not untraced or (trace and not traced):
        problems.append("no successful repetition to measure")
    attempted = sum(record["attempted"] for record in good) or 1
    summary = {
        "problems": problems,
        "attempted": attempted,
        "failed": attempted if problems else sum(record["failed"] for record in good),
        "metrics": {},
        "info": "",
    }
    if problems:
        return summary

    by_seed: dict[int, list[dict]] = {}
    for record in untraced:
        by_seed.setdefault(record["seed"], []).append(record)

    def typical(value) -> float:
        """Mean over program seeds of the median of ``value(record)``."""
        return statistics.fmean(
            statistics.median(value(record) for record in seed_records)
            for seed_records in by_seed.values()
        )

    phases = ", ".join(
        f"{phase} {typical(lambda r: r['phases_s'][phase]):.4f} s"
        for phase in untraced[0]["phases_s"]
    )
    summary["info"] = (
        f"{len(untraced)} cold repetitions over {len(by_seed)} program seeds: "
        f"{typical(lambda r: r['ops']):g} {WORKLOADS[name].unit}, wall "
        f"{typical(lambda r: r['wall_s']):.4f} s ({phases}; raw "
        f"{typical(lambda r: r['wall_raw_s']):.4f} s), setup raw "
        f"{typical(lambda r: r['setup_raw_s']):.4f} s"
    )
    if trace:
        layers = dict(traced[0]["layers"])
        baseline = next(r for r in untraced if r["seed"] == traced[0]["seed"])
        layers["trace.overhead"] = traced[0]["wall_s"] / baseline["wall_s"] - 1
        summary["metrics"] = {
            key: (layers[key], unit) for key, unit in metric_units("per_layer").items()
        }
    else:
        summary["metrics"] = {
            key: (typical(lambda r: r[key]), unit)
            for key, unit in metric_units("end_to_end").items()
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark and print its metrics."
    )
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        records = repeat(names, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass

    print(f"hardware {json.dumps(hardware(), sort_keys=True)}")
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary = summarise(name, records[name], bool(args.trace))
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        for problem in summary["problems"]:
            result["correct"] = False
            print(f"{name} CHECK FAILED: {problem}")
        if summary["info"]:
            print(f"{name}: {summary['info']}")
        for key, (value, unit) in summary["metrics"].items():
            label = key if len(names) == 1 else f"{name}.{key}"
            print(f"{label} {value:.6g} {unit}")
            result["metrics"][label] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
