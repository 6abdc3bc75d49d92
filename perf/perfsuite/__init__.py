"""The repo's whole-stack benchmark: workloads, oracles, tracer, statistics.

Everything here drives ``repro`` from outside, through its public front
end and public per-layer functions; nothing under ``src/`` knows about it.
See ``perf/README.md`` for the metric glossary.
"""
