"""Experiment harness: one entry point per paper figure, plus ablations.

- :mod:`repro.eval.runner` — run any allocator on a burst scenario and
  record per-window series,
- :mod:`repro.eval.experiments` — Fig. 5 (model accuracy), Fig. 6
  (training traces), Figs. 7–8 (algorithm comparisons) and the ablations,
  each with paper-scale and scaled-down parameter sets,
- :mod:`repro.eval.reporting` — ASCII tables/series in the shape the paper
  reports,
- :mod:`repro.eval.parallel` — process-parallel map over experiment cells
  with label-derived seeds (byte-identical to the serial runner).
"""

from repro.eval.runner import (
    EvalResult,
    StepRecord,
    evaluate_allocator,
    make_env,
    run_scenario_comparison,
)
from repro.eval.experiments import (
    Fig5Result,
    experiment_fig5_model_accuracy,
    experiment_fig6_training_trace,
    experiment_fig7_msd_comparison,
    experiment_fig8_ligo_comparison,
    ablation_refinement,
    ablation_exploration_noise,
    ablation_window_length,
)
from repro.eval.sample_efficiency import (
    SampleEfficiencyResult,
    sample_efficiency_curves,
)
from repro.eval.parallel import (
    ExperimentCell,
    default_cells,
    derive_cell_seed,
    results_to_json,
    run_cells,
    write_results,
)
from repro.eval.reporting import (
    format_comparison,
    format_series_table,
    format_table,
)

__all__ = [
    "EvalResult",
    "StepRecord",
    "make_env",
    "evaluate_allocator",
    "run_scenario_comparison",
    "Fig5Result",
    "experiment_fig5_model_accuracy",
    "experiment_fig6_training_trace",
    "experiment_fig7_msd_comparison",
    "experiment_fig8_ligo_comparison",
    "ablation_refinement",
    "ablation_exploration_noise",
    "ablation_window_length",
    "format_table",
    "format_series_table",
    "format_comparison",
    "SampleEfficiencyResult",
    "sample_efficiency_curves",
    "ExperimentCell",
    "default_cells",
    "derive_cell_seed",
    "results_to_json",
    "run_cells",
    "write_results",
]
