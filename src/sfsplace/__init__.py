"""Loudspeaker placement for least-squares 2D sound field synthesis.

Greedy secondary-source selection against a statistical prior of
desired fields, with free-field and rectangular-room (image source)
propagation, circular-region weighted mode matching, and equal-spacing
baselines for comparison.

The package root holds the runners, ExperimentConfig and load_config;
every other name is imported from its module (sfsplace.placement,
sfsplace.synthesis, ...).
"""

from .config import ExperimentConfig, load_config
from .experiment import run_evaluate, run_place, run_reproduce

__version__ = "0.1.0"

__all__ = ["ExperimentConfig", "load_config", "run_evaluate", "run_place", "run_reproduce"]
