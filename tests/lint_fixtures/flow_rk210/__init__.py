"""RK210 fixture package: wall-clock reads reaching simulated time.

``hosttime.py`` reads the host clock (legal there — it is outside the
``cluster`` region).  The rule fires when host-clock values *flow* into
simulated-time code, in either direction: a cluster function consuming
a helper's return value, or an outside caller passing a tainted
argument into cluster code.  Direct clock reads in cluster code and the
allowlisted ``cluster/engine.py`` are covered by the single-file
``simtime_*.py`` fixtures.
"""
