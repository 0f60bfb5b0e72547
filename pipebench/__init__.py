"""End-to-end and per-layer benchmark of the hybridabc pipeline.

Run ``python3 pipebench/run.py --workload <name>`` from the repository
root; ``run.py`` documents the workloads, the metrics and the output.
"""
