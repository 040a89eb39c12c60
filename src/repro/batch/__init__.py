"""Parallel batch checking with a persistent proof cache.

The scaling tier above the incremental engine: where PR 1 made one
process check one program fast and PR 2 generated corpora worth
checking, this package checks whole corpora — forked workers, one
long-lived engine per worker, merged statistics, and a
content-addressed verdict store that survives runs (so repeated
campaigns, watch modes and fuzz shards stop re-proving identical
queries).  The store is an append-only log of JSON segments: each
flush writes one new file, readers merge them all, and a compacting
flush folds them back into one.

Entry points: :func:`~repro.batch.pipeline.check_many` (the ``check
--jobs/--cache-dir`` CLI path) and
:class:`~repro.batch.cache.ProofCache` (attachable to any
:class:`~repro.logic.prove.Logic`).
"""

from .cache import ProofCache, env_digest
from .pipeline import (
    BatchReport,
    FileVerdict,
    WorkerPool,
    check_many,
    check_one,
    logic_config_key,
)

__all__ = [
    "BatchReport",
    "FileVerdict",
    "ProofCache",
    "WorkerPool",
    "check_many",
    "check_one",
    "env_digest",
    "logic_config_key",
]
