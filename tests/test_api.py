"""The public surface: every exported name resolves, and deleted ones stay gone."""

import importlib
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import sfsplace
from sfsplace.experiment import read_placement_csv, read_sdr_csv
from sfsplace.placement import FieldPrior, SelectionState, placement_cost
from sfsplace.synthesis import solve_wmm

from oracles import one_bin

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the package root holds the names scripts/ import from it (the runners and
# the config); every other name is imported from its module
ROOT = ["ExperimentConfig", "load_config", "run_evaluate", "run_place", "run_reproduce"]

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(sfsplace.__path__) if not m.name.startswith("_")
)

# scalar twins and one-line wrappers of array functions, removed in favour
# of the array functions the pipeline uses; the separate J, Y and Hankel row
# generators, replaced by one [J; Y] row stream; reference computations no
# pipeline path calls, which live in tests/oracles.py; and the direct
# image-source transfer with its Y and Hankel order blocks, since the Graf
# expansion is the one propagation model (tests check it against the
# scipy-based oracles); the row-blocked update of the K x N greedy
# arrays, since the greedy state keeps two length-N forms instead; and the
# selftest checks of platform-independent algebra, which the tests assert,
# with the two oracles only they and the tests used (in tests/oracles.py);
# the one-bin twins of the bin-list weight and prior builders, the
# plane-wave and coefficient wrapper types, and the second record of a
# frequency bin, since FrequencyProblem is the one; and the one-bin greedy
# wrapper, since greedy_place_broadband takes a spec of any number of bins,
# with the exhaustive search only tests call (in tests/oracles.py)
DELETED = {
    "specfun": ("bessel_j", "bessel_y", "hankel1", "_scalar_series_j", "_check_order",
                "_check_scalar_x", "_recur_up", "_j_rows", "_y_rows", "_hankel_rows",
                "hankel1_orders", "bessel_y_orders"),
    "wavefield": ("green2d", "evaluate_expansion", "green2d_many", "_COINCIDENT_TOL",
                  "evaluate_expansion_many", "_planewave_matrix", "PlaneWave",
                  "ExpansionCoeffs"),
    "experiment": ("field_grids",),
    "placement": ("_subtract_outer", "UPDATE_BLOCK_BYTES", "_direction_range_priors",
                  "BroadbandBin", "greedy_place", "exhaustive_place", "_problem_arrays"),
    "room": ("room_transfer", "transfer_matrix", "_TRANSFER_BLOCK", "room_transfer_many",
             "image_sources", "ImageSource"),
    "synthesis": ("solve_mode_matching", "synthesize_field", "wmm_residual",
                  "build_pressure_matching", "weight_matrix_quadrature", "sdr",
                  "_circle_weights"),
    "cli": ("_check_weight_quadrature", "_check_greedy_vs_exhaustive",
            "_check_greedy_state_vs_direct", "_check_planewave_expansion",
            "_check_coefficient_sdr"),
}


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module("sfsplace." + name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_all_resolves_sorted_and_unique():
    exported = sfsplace.__all__
    assert list(exported) == sorted(set(exported))
    assert not [n for n in exported if not hasattr(sfsplace, n)]


@pytest.mark.parametrize("module_name", sorted(DELETED))
def test_deleted_names_are_gone(module_name):
    module = importlib.import_module("sfsplace." + module_name)
    for name in DELETED[module_name]:
        assert not hasattr(module, name), "sfsplace.%s.%s" % (module_name, name)
        assert not hasattr(sfsplace, name), "sfsplace.%s" % name
        assert name not in getattr(module, "__all__", ())


def test_package_root_exports_the_runners_and_the_config_only():
    assert sfsplace.__all__ == ROOT
    assert sfsplace.__version__ == "0.1.0"


def test_raw_array_weights_are_rejected():
    # only a WeightMatrix carries the Hermitian and PSD checks; a raw array
    # must raise rather than reach a cost or a solve
    rng = np.random.default_rng(4)
    c = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    raw, prior = np.eye(5), FieldPrior.fixed_field(b)
    with pytest.raises(AttributeError, match="entries"):
        placement_cost([0, 2], prior, c, raw, 1e-3)
    with pytest.raises(AttributeError, match="entries"):
        SelectionState.from_problem(one_bin(c, raw, prior), 1e-3)
    with pytest.raises(AttributeError, match="entries"):
        solve_wmm(c, raw, b, 1e-3)


def test_toy_script_runs_from_the_package_root(tmp_path):
    # scripts/ are the only code that imports names from the package root
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", "run_toy_freefield.py"),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    picks = read_placement_csv(tmp_path / "placement.csv")
    assert len(picks) == 6 and "greedy picks: %s" % list(picks) in proc.stdout
    rows = read_sdr_csv(tmp_path / "sdr.csv")
    assert sorted({r[3] for r in rows}) == ["proposed", "regular_a", "regular_b"]
    assert len(rows) == 21
