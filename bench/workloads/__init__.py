"""The benchmark's workloads, one module each.

Each module defines ``setup(seed, catalog, tracer, workdir)``, which builds
the seeded inputs and returns one :class:`harness.Query` per catalog
entry.  A module may also define ``RSS_OF`` (whose ``ru_maxrss`` is the
peak memory) and ``probe(seconds)`` (extra per-layer metrics of a traced
run, timed with ``seconds(start, end)``).
"""
