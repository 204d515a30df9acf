"""The benchmark's workloads: inputs, the timed operation and run sizes.

Import only after `checkout.use_checkout_source()` has put the checkout's
sfsplace on the path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from sfsplace import config as sconfig
from sfsplace import experiment, room, synthesis

PAPER_ANGLES = tuple(float(a) for a in range(-45, 46))
# freefield-n4000 evaluates this many of the 91 paper angles, picked by the seed
FREEFIELD_ANGLES = 13


@dataclass(frozen=True)
class Workload:
    name: str
    # (seed, output_dir, full_angles) -> ExperimentConfig; full_angles asks
    # for every paper angle, which the reference needs
    make_config: Callable
    evaluate: bool
    # metric groups expected to hold the largest self time
    dominant: tuple[str, ...]


def _paper_nb(seed, output_dir, full_angles=False):
    return experiment.paper_config(broadband=False, output_dir=output_dir)


def _paper_bb(seed, output_dir, full_angles=False):
    return experiment.paper_config(broadband=True, output_dir=output_dir)


def freefield_angles(seed) -> tuple[float, ...]:
    return tuple(sorted(random.Random(seed).sample(PAPER_ANGLES, FREEFIELD_ANGLES)))


def _freefield(seed, output_dir, full_angles=False, count=4000, n_select=100, hz=2000.0):
    angles = PAPER_ANGLES if full_angles else freefield_angles(seed)
    return sconfig.ExperimentConfig(
        candidates=sconfig.CandidateSpec(square_size=3.0, square_count=count),
        region_center=(0.5, 0.3),
        region_radius=0.5,
        prior=sconfig.PriorSpec(-45.0, 45.0, 1.0),
        frequencies=(hz,),
        n_select=n_select,
        lambda_select=1e-5,
        lambda_synth_scale=1e-3,
        method="wmm",
        baselines=("regular_a", "regular_b"),
        evaluation=sconfig.EvalSpec(angles_deg=angles, grid_spacing=0.01),
        output_dir=output_dir,
        sound_speed=343.0,
    )


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-nb",
            _paper_nb,
            evaluate=True,
            dominant=("room.transfer", "specfun.hankel"),
        ),
        Workload(
            "paper-bb-place",
            _paper_bb,
            evaluate=False,
            dominant=("synthesis.coeff_matrix", "room.image_table"),
        ),
        Workload(
            "freefield-n4000",
            _freefield,
            evaluate=True,
            dominant=("placement.greedy", "placement.state_build"),
        ),
    )
}


def _tiny_paper(broadband):
    def make(seed, output_dir, full_angles=False):
        cfg = experiment.paper_config(broadband=broadband, output_dir=output_dir)
        doc = cfg.to_dict()
        doc["candidates"] = {"square": {"size": 3.0, "count": 40}}
        doc["room"]["max_reflection_order"] = 2
        doc["n_select"] = 6
        doc["frequencies"] = [300.0, 1000.0, 1700.0] if broadband else [1000.0]
        doc.pop("gamma", None)
        doc["evaluation"]["angles_deg"] = [-45.0, -15.0, 0.0, 30.0]
        doc["evaluation"]["grid_spacing"] = 0.05
        return sconfig.ExperimentConfig.from_dict(doc)

    return make


# Same code paths at a size that runs in about a second; used by smoke.py.
SMOKE_WORKLOADS = {
    "paper-nb": _tiny_paper(False),
    "paper-bb-place": _tiny_paper(True),
    "freefield-n4000": lambda seed, output_dir, full_angles=False: _freefield(
        seed, output_dir, full_angles, count=200, n_select=40, hz=500.0
    ),
}


def run_op(workload: Workload, config, out_dir):
    """One operation as a user runs it: place, then evaluate the picks."""
    placed = experiment.run_place(config, out_dir=out_dir)
    evaluated = None
    if workload.evaluate:
        evaluated = experiment.run_evaluate(
            config, indices=placed["result"].indices, out_dir=out_dir
        )
    return placed, evaluated


def run_sizes(config, problems) -> dict:
    """Problem sizes of one run, for the run record."""
    model = config.room_model()
    images = None
    if model is not None and hasattr(room, "image_sources"):
        images = len(room.image_sources(model, config.candidate_positions()[0]))
    grid = synthesis.region_grid(config.region, spacing=config.evaluation.grid_spacing)
    return {
        "n_candidates": config.candidates.count,
        "n_select": config.n_select,
        "bins": len(config.frequencies),
        "k_per_bin": [int(p.coeff.shape[0]) for p in problems],
        "grid_points": int(len(grid)),
        "angles": len(config.evaluation.angles_deg),
        "images_per_source": images,
    }
