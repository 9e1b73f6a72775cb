"""The verification ENGINE: scheduling layer between analysis and
verification.

``verify_application`` routes every whole-application sweep through this
package.  The scheduler prunes pairs via the solver-free fast layers,
memoizes solved verdicts in a content-addressed on-disk cache
(``.noctua-cache/`` by default), dispatches the remainder across a
``multiprocessing`` worker pool, and reports what happened on
``VerificationReport.metrics``.  Every sweep runs under a trace span
(``repro.obs``) and the metrics are folded from that span tree, so the
numbers in the report and the spans in ``noctua trace`` can never
disagree.  See docs/ENGINE.md and docs/OBSERVABILITY.md.
"""

from .cache import CACHE_FORMAT, DEFAULT_CACHE_DIR, QUARANTINE_SUFFIX, ResultCache
from .chaos import EngineChaosPlan, EngineChaosReport, SweepAborted, run_engine_chaos
from .failures import (
    FAILURE_KINDS,
    PairFailure,
    RetryPolicy,
    WorkerCrash,
    default_deadline,
    unknown_verdict,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    FingerprintContext,
    fingerprint_config,
    fingerprint_path,
    fingerprint_schema,
)
from .metrics import fold_sweep
from .scheduler import run_pair_sweep

__all__ = [
    "CACHE_FORMAT",
    "DEFAULT_CACHE_DIR",
    "EngineChaosPlan",
    "EngineChaosReport",
    "FAILURE_KINDS",
    "FINGERPRINT_VERSION",
    "FingerprintContext",
    "PairFailure",
    "QUARANTINE_SUFFIX",
    "ResultCache",
    "RetryPolicy",
    "SweepAborted",
    "WorkerCrash",
    "default_deadline",
    "fingerprint_config",
    "fingerprint_path",
    "fingerprint_schema",
    "fold_sweep",
    "run_engine_chaos",
    "run_pair_sweep",
    "unknown_verdict",
]
