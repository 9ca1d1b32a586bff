"""The layer ledger: the repository's benchmark.

Four workloads drive the reordering library through its public entry points
and time every layer a request crosses.  ``python3 ledger/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>`` runs one of them; see
``ledger/BASELINE.md`` for the workloads, the metrics, which layer metric
should move which end-to-end metric, and the numbers measured at the
commit that added the ledger.
"""
