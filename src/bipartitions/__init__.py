"""Bipartite integer partitions: exact counting, Gibbs calibration,
asymptotic evaluation and local-limit diagnostics."""
