"""The public surface: every exported name resolves, deleted ones stay gone,
and malformed input to the checked entry points raises ValueError."""

import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sfsplace
from sfsplace.config import ExperimentConfig
from sfsplace.experiment import read_placement_csv, read_sdr_csv
from sfsplace.placement import FieldPrior, FrequencyProblem, SelectionState, placement_cost
from sfsplace.room import RoomModel
from sfsplace.specfun import bessel_j_orders
from sfsplace.synthesis import WeightMatrix, identity_weight, solve_wmm, source_coeff_matrix
from sfsplace.wavefield import CircularRegion, Frequency, expansion_for

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
# with the exhaustive search only tests call (in tests/oracles.py); and
# the second field-dump entry point, since evaluate_placements dumps fields;
# and the unchecked J block and scalar order check, since bessel_j_orders
# takes per-argument order limits
DELETED = {
    "specfun": ("bessel_j", "bessel_y", "hankel1", "_scalar_series_j", "_check_order",
                "_check_scalar_x", "_recur_up", "_j_rows", "_y_rows", "_hankel_rows",
                "hankel1_orders", "bessel_y_orders", "_j_block", "_as_order"),
    "wavefield": ("green2d", "evaluate_expansion", "green2d_many", "_COINCIDENT_TOL",
                  "evaluate_expansion_many", "_planewave_matrix", "PlaneWave",
                  "ExpansionCoeffs"),
    "experiment": ("field_grids", "write_field_set"),
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
    # must raise rather than reach a cost or a solve, and a bin built with
    # one is rejected where it is built
    rng = np.random.default_rng(4)
    c = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    raw, prior = np.eye(5), FieldPrior.fixed_field(b)
    with pytest.raises(ValueError, match="^bin: weight must be a WeightMatrix"):
        placement_cost(FrequencyProblem(c, raw, prior), [0, 2], 1e-3)
    with pytest.raises(ValueError, match="takes a FrequencyProblem"):
        placement_cost((c, identity_weight(5), prior), [0, 2], 1e-3)
    with pytest.raises(ValueError, match="^bin: weight must be a WeightMatrix"):
        one_bin(c, raw, prior)
    with pytest.raises(AttributeError, match="entries"):
        solve_wmm(c, raw, b, 1e-3)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _spoil(data, a):
    """a with one entry made NaN or +-inf."""
    a = np.array(a)
    a.flat[data.draw(st.integers(0, a.size - 1))] = data.draw(_NON_FINITE)
    return a


def _hermitian(data, size):
    """Random Hermitian matrices of one eigenbasis: a function of the
    eigenvalue the others (in [0.1, 1]) sit beside."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))[0]
    rest = rng.uniform(0.1, 1.0, size - 1)

    def with_low(low):
        a = (u * np.r_[low, rest]) @ u.conj().T
        return 0.5 * (a + a.conj().T)

    return with_low


def _bad_orders(data):
    x = np.array([1.0, 40.0])
    order = data.draw(st.one_of(
        st.booleans(),
        st.integers(max_value=-1),
        st.floats(0.0, 100.0).filter(lambda v: v != math.floor(v)),
        _NON_FINITE,
        st.text(max_size=2),
        st.none(),
        st.lists(st.integers(0, 5), min_size=3, max_size=4),
    ))
    return lambda: bessel_j_orders(order, x)


def _bad_arguments(data):
    x = data.draw(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        x = _spoil(data, x)
    else:
        x = np.r_[x, -data.draw(st.floats(1e-300, 1e3))]
    order = data.draw(st.integers(0, 8))
    return lambda: bessel_j_orders(order, x)


def _bad_weight(data):
    # non-finite, or 2 to 1000 times past the PSD tolerance 1e-10 tr(W)
    with_low = _hermitian(data, data.draw(st.integers(2, 5)))
    w = with_low(0.0)
    if data.draw(st.booleans()):
        return lambda: WeightMatrix(_spoil(data, w))
    dip = data.draw(st.floats(2.0, 1e3)) * 1e-10 * np.trace(w).real
    return lambda: WeightMatrix(with_low(-dip))


def _bad_prior(data):
    # non-finite moments, or a covariance 2 to 1000 times past the PSD
    # tolerance 1e-10 max(|Sigma|, |mu|^2)
    size = data.draw(st.integers(2, 5))
    mu = np.full(size, data.draw(st.floats(0.0, 3.0)) + 0j)
    with_low = _hermitian(data, size)
    sig = with_low(0.0)
    if data.draw(st.booleans()):
        return lambda: FieldPrior(_spoil(data, mu), sig)
    if data.draw(st.booleans()):
        return lambda: FieldPrior(mu, _spoil(data, sig))
    # the dip moves |Sigma| by far less than the margin
    dip = data.draw(st.floats(2.0, 1e3)) * 1e-10 * max(np.abs(sig).max(), np.abs(mu).max() ** 2)
    return lambda: FieldPrior(mu, with_low(-dip))


def _bad_cost(data):
    # a non-finite coefficient, or a regularizer that is not positive and finite
    k, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    c = np.ones((k, n)) + 1j * np.arange(n)
    w, prior, lam = identity_weight(k), FieldPrior.fixed_field(np.ones(k)), 1e-3
    if data.draw(st.booleans()):
        c = _spoil(data, c)
    else:
        lam = data.draw(st.one_of(_NON_FINITE, st.floats(-1e3, 0.0)))
    return lambda: placement_cost(FrequencyProblem(c, w, prior), [0], lam)


def _bad_position(data):
    # a loudspeaker on a wall (or a corner) of the room, or not finite:
    # for the image table's sources and for a config's candidates
    sx, sy = data.draw(st.floats(1.0, 8.0)), data.draw(st.floats(1.0, 8.0))
    room = RoomModel.uniform(sx, sy, 0.5)
    inside = [[0.45 * sx, 0.45 * sy], [-0.45 * sx, 0.45 * sy], [0.45 * sx, -0.45 * sy]]
    axis = data.draw(st.integers(0, 1))
    point = [data.draw(st.floats(-0.5, 0.5)) * sx, data.draw(st.floats(-0.5, 0.5)) * sy]
    point[axis] = data.draw(st.sampled_from([-0.5, 0.5])) * (sx, sy)[axis]
    if data.draw(st.booleans()):
        point = _spoil(data, point).tolist()
    if data.draw(st.booleans()):
        freq = Frequency(500.0)
        bins = [(expansion_for(CircularRegion((0.0, 0.0), 0.3), freq), freq)]
        return lambda: source_coeff_matrix(inside + [point], bins, room)
    doc = {
        "candidates": {"positions": inside + [point]},
        "region": {"center": [0.0, 0.0], "radius": 0.3},
        "prior": {"angle_min_deg": -45.0, "angle_max_deg": 45.0},
        "frequencies": [500.0],
        "n_select": 3,
        "room": {"size_x": sx, "size_y": sy, "reflection": [0.5] * 4},
    }
    return lambda: ExperimentConfig.from_dict(doc)


MALFORMED = {
    "order limits": _bad_orders,
    "Bessel arguments": _bad_arguments,
    "weight": _bad_weight,
    "prior": _bad_prior,
    "placement cost": _bad_cost,
    "loudspeaker position": _bad_position,
}


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_malformed_input_raises_value_error(data):
    # the order limits and arguments of bessel_j_orders, the Hermitian-PSD
    # check of WeightMatrix and FieldPrior, placement_cost's bin and the
    # room's containment rule: malformed input raises ValueError, never a
    # TypeError, an AttributeError or numpy's LinAlgError (itself a
    # ValueError) from deeper in
    case = data.draw(st.sampled_from(sorted(MALFORMED)))
    call = MALFORMED[case](data)
    with pytest.raises(ValueError) as info:
        call()
    assert not isinstance(info.value, np.linalg.LinAlgError), case


def test_selection_state_has_no_field_by_field_constructor():
    # SelectionState.from_problem, over checked bins, is the one way to
    # build a greedy state
    with pytest.raises(TypeError):
        SelectionState(coeff=[np.eye(2)], second_moment=[np.eye(2)], lam=1e-3, q=[np.eye(2)])


def _run_script(name, out):
    # scripts/ are the only code that imports names from the package root
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(REPO, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", name), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_toy_script_runs_from_the_package_root(tmp_path):
    proc = _run_script("run_toy_freefield.py", tmp_path)
    picks = read_placement_csv(tmp_path / "placement.csv")
    assert len(picks) == 6 and "greedy picks: %s" % list(picks) in proc.stdout
    rows = read_sdr_csv(tmp_path / "sdr.csv")
    assert sorted({r[3] for r in rows}) == ["proposed", "regular_a", "regular_b"]
    assert len(rows) == 21


def test_study_script_runs_end_to_end(tmp_path):
    # the bundled reverberant study, as sfsplace reproduce-paper runs it:
    # the JSON summary on stdout, the wall time and peak RSS on stderr
    proc = _run_script("reproduce_study.py", tmp_path)
    summary = json.loads(proc.stdout)
    assert sorted(summary) == ["broadband", "narrowband"]
    assert sorted(summary["narrowband"]) == ["proposed", "regular_a", "regular_b"]
    assert re.fullmatch(r"wall \d+\.\d\d s, peak RSS \d+\.\d MB\n", proc.stderr)
    assert (tmp_path / "summary.json").exists()
