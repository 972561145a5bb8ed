"""How much does responding early shorten a storm?

Sweeps the tick at which the company halts the product and announces a
review, over a short paid campaign so the storm cannot simply outlast
every response.  Reports mean effective duration (onset to extinction,
or to the end of the run when the storm never settles) per response
tick, paired across the same seed list.

Usage: python3 scripts/response_timing_experiment.py [--seeds N] [--ticks 10 30 50]
"""

import argparse
import statistics
from dataclasses import replace

from firesim.analytics import run_outcome
from firesim.scenario import PolicySpec, build_from_seed, config_from_dict


def timed_config(trigger_tick: int, campaign_budget: int):
    cfg = config_from_dict({"attack": {"campaign_budget": campaign_budget}})
    playbook = (PolicySpec(kind="halt_product_and_review",
                           trigger_tick=trigger_tick),)
    return replace(cfg, defense=replace(cfg.defense, enabled=True,
                                        playbook=playbook))


def effective_duration(cfg, seed: int) -> int:
    sim = build_from_seed(cfg, seed)
    sim.run(cfg.run.ticks)
    return run_outcome(sim)["duration"] or 0  # None: no onset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=40)
    parser.add_argument("--ticks", type=int, nargs="+", default=[10, 30, 50],
                        help="response ticks to compare")
    parser.add_argument("--budget", type=int, default=24,
                        help="paid campaign length in ticks")
    args = parser.parse_args()

    print(f"{'respond@':>9} {'mean duration':>14} {'stdev':>8}")
    for trigger in args.ticks:
        cfg = timed_config(trigger, args.budget)
        durations = [effective_duration(cfg, seed) for seed in range(args.seeds)]
        print(f"{trigger:>9} {statistics.mean(durations):>14.1f} "
              f"{statistics.stdev(durations):>8.1f}")


if __name__ == "__main__":
    main()
