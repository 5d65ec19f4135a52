#!/usr/bin/env python3
"""Compare MIRAS against the paper's baselines on the MSD bursts (Fig. 7).

Trains MIRAS, a model-free DDPG agent with the same interaction budget,
identifies MONAD on the same dataset, and evaluates all of them plus DRS
("stream") and HEFT on the paper's three MSD burst conditions; the
per-window series is the first one's (300/200/300 requests of
Type1/2/3).

Run:  python examples/msd_burst_comparison.py          # scaled-down
      python examples/msd_burst_comparison.py --paper  # paper-scale (slow)
"""

import argparse

from repro.core import MirasConfig
from repro.eval.experiments import experiment_fig7_msd_comparison
from repro.eval.reporting import format_comparison, format_series_table
from repro.workload.bursts import MSD_BURSTS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="run the paper-scale schedule (12,000 interactions; slow)",
    )
    parser.add_argument("--steps", type=int, default=30,
                        help="evaluation windows per burst")
    args = parser.parse_args()

    config = MirasConfig.msd_paper() if args.paper else MirasConfig.msd_fast()
    print(
        f"Training budget: {config.steps_per_iteration} steps x "
        f"{config.iterations} iterations "
        f"(~{config.steps_per_iteration * config.iterations} real interactions)"
    )

    results = experiment_fig7_msd_comparison(
        steps=args.steps,
        config=config,
        seed=0,
    )

    print()
    print(format_comparison(results, "mean_response_time",
                            title="Mean response time (s) — lower is better"))
    print()
    print(format_comparison(results, "aggregated_reward",
                            title="Aggregated reward (Eq. 1) — higher is better"))
    print()

    scenario = MSD_BURSTS[0].name
    series = {
        name: result.response_time_series()
        for name, result in results[scenario].items()
    }
    print(format_series_table(
        series, title=f"Per-window response time (s) — {scenario} (Fig. 7a)"
    ))


if __name__ == "__main__":
    main()
