"""Queryable experiment results database with provenance.

The observability layer for *results*: every finished simulation —
whether an :class:`~repro.harness.runner.ExperimentRunner` ran it
in-process or over its process pool, or a ``repro.serve`` worker ran
it — lands as a row keyed by the harness
run key, stamped with git commit, config hash, host and wall time.
Reports and paper-figure tables then become cheap queries
(:mod:`repro.db.query`, :mod:`repro.db.report`) instead of
re-simulations, and historical run-cache entries backfill with
:mod:`repro.db.ingest`.
"""

from repro.db.ingest import ingest_runcache
from repro.db.provenance import config_hash, git_commit, host
from repro.db.report import render_report, write_report
from repro.db.store import ResultsDB

__all__ = [
    "ResultsDB",
    "ingest_runcache",
    "config_hash",
    "git_commit",
    "host",
    "render_report",
    "write_report",
]
