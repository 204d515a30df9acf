"""Small free-field demo: place a handful of sources, sweep a few angles.

Usage: python scripts/run_toy_freefield.py [--out DIR]
"""

import argparse

from sfsplace import ExperimentConfig, run_evaluate, run_place


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="toy_out")
    args = ap.parse_args()

    config = ExperimentConfig.from_dict(
        {
            "candidates": {"square": {"size": 3.0, "count": 40}},
            "region": {"center": [0.3, 0.1], "radius": 0.4},
            "prior": {"angle_min_deg": -30.0, "angle_max_deg": 30.0},
            "frequencies": [800.0],
            "n_select": 6,
            "baselines": ["regular_a", "regular_b"],
            "evaluation": {
                "angles_deg": {"start": -30, "stop": 30, "step": 10},
                "grid_spacing": 0.02,
            },
            "output_dir": args.out,
        }
    )
    info = run_place(config)
    print("greedy picks:", list(info["result"].indices))
    ev = run_evaluate(config, indices=info["result"].indices)
    print("angle_deg  freq_hz  sdr_db  method")
    for angle, f, s, name in ev["rows"]:
        print("%9.1f  %7.0f  %6.2f  %s" % (angle, f, s, name))
    print("artifacts in", info["out"])


if __name__ == "__main__":
    main()
