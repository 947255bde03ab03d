"""The repository benchmark: cold-process workloads, host calibration, layer trace.

Run it with ``python3 bench/run.py --workload NAME --seed N``; see
``bench/README.md``.
"""
