"""Analysis tooling: experiment statistics and the static-analysis pass.

Two halves share this package:

* presentation helpers for experiment output (``stats`` / ``tables`` /
  ``figures``), used by ``repro.experiments``;
* the invariant-aware static-analysis pass (``python -m repro.analysis``)
  that enforces HyperTap's trust boundary, event-coverage completeness,
  determinism, and auditor purity at commit time — see ``runner`` and
  the ``rules`` subpackage.
"""

from repro.analysis.findings import Finding
from repro.analysis.runner import Report, run_analysis
from repro.analysis.stats import mean, percentile, stdev
from repro.analysis.tables import format_table
from repro.analysis.figures import ascii_cdf

__all__ = [
    "mean",
    "stdev",
    "percentile",
    "format_table",
    "ascii_cdf",
    "Finding",
    "Report",
    "run_analysis",
]
