"""The paper's tables, figures and ablations, one runner each.

Each runner reruns one result at a chosen size and returns a result
object: the figures behind it plus ``render()``, the text report.
``tests/test_paper_results.py`` checks each result's shape against
the paper and pins its report to ``tests/data/golden_<name>.txt``.
Command-line use::

    python -m repro.experiments list
    python -m repro.experiments table2
    python -m repro.experiments fig4 --scale 2.0
    python -m repro.experiments all

``--scale`` multiplies trial counts and ``--full`` selects the
paper-scale grids; ``REPRO_JOBS`` changes wall time, never a report.
"""

from repro.experiments.runners import (
    EXPERIMENTS,
    run_detectors,
    run_experiment,
    run_fig4_fig5,
    run_fig7,
    run_ninja_curves,
    run_rhc,
    run_table2,
    run_table3,
    run_threshold,
    run_unified_ablation,
)

__all__ = [
    "EXPERIMENTS",
    "run_detectors",
    "run_experiment",
    "run_fig4_fig5",
    "run_fig7",
    "run_ninja_curves",
    "run_rhc",
    "run_table2",
    "run_table3",
    "run_threshold",
    "run_unified_ablation",
]
