"""perfbench — the repository's one benchmark.

Seven workloads, five end-to-end metrics and a per-layer trace, all
measured from *outside* the program: every repeat runs in a fresh child
interpreter and only calls public ``repro`` surface.  ``BENCHMARK.json``
at the repository root names the workloads and metrics and fixes the
regression bounds; ``README.md`` in this directory explains why each
workload is here and how the numbers should move together.

Run ``python -m perfbench --help`` from the repository root.
"""
