"""The repository benchmark: paper-shaped workloads run end to end through
``spmd_run``, with a separately traced run for the per-layer split.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. See
``perfbench/README.md`` for the workloads, metrics and how each metric maps to
the layers it measures.

Modules here import :mod:`repro` lazily (inside functions), so that a set-up
probe can time the imports themselves.
"""
