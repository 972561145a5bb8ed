"""Paired comparison: does retargeting bots at employees pay off?

Runs each seed twice -- once with the mid-campaign pivot toward employee
profiles, once with bots staying on the broad stream, both on the one world
the seed builds, as ``firesim compare`` runs a pair -- and reports how
roster stress and regulator visibility move.  The pivot is the point of
the focus stage: pressure on staff goes up while the storm's public
footprint goes down.

Usage: python3 scripts/worker_focus_experiment.py [--seeds N]
"""

import argparse
import statistics

from firesim.cli import TOGGLES, run_pair
from firesim.scenario import default_config


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args()

    enable, disable = TOGGLES["retarget_bots"]
    cfg_on, cfg_off = enable(default_config()), disable(default_config())

    stress_up = visibility_down = 0
    stress_deltas, visibility_deltas = [], []
    for seed in range(args.seeds):
        on, off = run_pair(cfg_on, cfg_off, seed)
        d_stress = on["end_mean_stress"] - off["end_mean_stress"]
        d_vis = on["mean_focus_visibility"] - off["mean_focus_visibility"]
        stress_deltas.append(d_stress)
        visibility_deltas.append(d_vis)
        stress_up += d_stress > 0
        visibility_down += d_vis < 0

    print(f"paired runs: {args.seeds}")
    print(f"roster stress higher with retargeting: {stress_up}/{args.seeds}"
          f" (mean delta {statistics.mean(stress_deltas):+.4f})")
    print(f"regulator visibility lower with retargeting: "
          f"{visibility_down}/{args.seeds}"
          f" (mean delta {statistics.mean(visibility_deltas):+.4f})")


if __name__ == "__main__":
    main()
