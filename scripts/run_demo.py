"""Run one default-scenario firestorm and narrate what happened.

Usage: python3 scripts/run_demo.py [--seed N] [--preset NAME] [--every K]
"""

import argparse

from firesim.analytics import run_outcome
from firesim.scenario import build_from_seed, default_config, expand_preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--preset", default=None)
    parser.add_argument("--every", type=int, default=6,
                        help="print one table row every K ticks")
    args = parser.parse_args()

    cfg = expand_preset(args.preset) if args.preset else default_config()
    sim = build_from_seed(cfg, args.seed)
    sim.run(cfg.run.ticks)
    h = sim.history

    print(f"seed={args.seed} topic={sim.topic.topic_id} "
          f"({sim.topic.failure_class}, severity {sim.topic.severity})")
    print(f"{'tick':>5} {'total':>6} {'organic':>8} {'bots':>5} {'stage':>10} "
          f"{'stress':>7} {'reputation':>11} {'value':>8}")
    for t in range(0, len(h.total_posts), args.every):
        print(f"{t:>5} {h.total_posts[t]:>6} {h.organic_posts[t]:>8} "
              f"{h.bot_posts[t]:>5} {h.stage[t]:>10} {h.mean_stress[t]:>7.3f} "
              f"{h.reputation[t]:>11.3f} {h.financial_value[t]:>8.2f}")

    print()
    if sim.plan is not None:
        print("plan stages:")
        for stage, tick in sim.plan.stage_entries:
            print(f"  {tick:>4}  {stage}")
    print("events:")
    for event in sim.events:
        extras = {k: v for k, v in event.items() if k not in ("tick", "kind")}
        print(f"  {event['tick']:>4}  {event['kind']}"
              + (f"  {extras}" if extras else ""))

    outcome = run_outcome(sim)
    print()
    print(f"fire point {outcome['fire_point']}, extinguished "
          f"{outcome['extinguished_tick']}, duration {outcome['duration']} ticks")
    print(f"peak volume {outcome['peak_total_posts']:.0f}, organic total "
          f"{outcome['total_organic_posts']}, final reputation "
          f"{outcome['final_reputation']:.3f}, minimum value "
          f"{outcome['min_financial_value']:.2f}")


if __name__ == "__main__":
    main()
