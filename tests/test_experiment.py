"""Problem building against direct recomputation, bin by bin and end to end."""

import dataclasses
import math

import numpy as np
import pytest

from sfsplace import room as room_module
from sfsplace.config import ExperimentConfig
from sfsplace.experiment import baseline_indices, build_problems, paper_config, place_greedy
from sfsplace.room import transfer_matrix
from sfsplace.synthesis import region_grid, sdr, solve_wmm, synthesis_lambda
from sfsplace.wavefield import PlaneWave, planewave_coeffs

from oracles import graf_coeffs


def _tiny_paper(out, broadband, room=True):
    # the paper study at a size that runs in about a second: order-2 room,
    # 40 candidates, 6 picks, 3 bins (broadband) or 1 kHz, 4 angles
    doc = paper_config(broadband=broadband, output_dir=str(out)).to_dict()
    doc["candidates"] = {"square": {"size": 3.0, "count": 40}}
    doc["room"]["max_reflection_order"] = 2
    doc["n_select"] = 6
    doc["frequencies"] = [300.0, 1000.0, 1700.0] if broadband else [1000.0]
    doc.pop("gamma", None)
    doc["evaluation"]["angles_deg"] = [-45.0, -15.0, 0.0, 30.0]
    doc["evaluation"]["grid_spacing"] = 0.05
    if not room:
        doc.pop("room")
    return ExperimentConfig.from_dict(doc)


def _oracle_problems(config, problems):
    # the same problems with each bin's coefficients summed directly: image
    # geometry rebuilt per bin, scipy's Hankel function, arctan2 phases
    room = config.room_model()
    cand = config.candidate_positions()
    return tuple(
        dataclasses.replace(p, coeff=graf_coeffs(cand, p.cfg, p.freq, room)) for p in problems
    )


def test_build_problems_builds_the_image_table_once(tmp_path, monkeypatch):
    calls = []
    table = room_module._image_table

    def counted(room):
        calls.append(room)
        return table(room)

    monkeypatch.setattr(room_module, "_image_table", counted)
    problems = build_problems(_tiny_paper(tmp_path, broadband=True))
    assert len(problems) == 3
    assert len(calls) == 1


@pytest.mark.parametrize("room", [False, True], ids=["free-field", "room"])
def test_build_problems_matches_direct_graf_sum_in_every_bin(tmp_path, room):
    config = _tiny_paper(tmp_path, broadband=True, room=room)
    problems = build_problems(config)
    for got, want in zip(problems, _oracle_problems(config, problems)):
        err = np.linalg.norm(got.coeff - want.coeff, axis=0) / np.linalg.norm(want.coeff, axis=0)
        assert err.max() < 1e-12, got.freq.hz


def _direct_sdrs(config, problem, indices, grid):
    # drivers from the problem's coefficients, synthesized by the direct
    # image-source transfer: one SDR per configured angle
    freq, cfg = problem.freq, problem.cfg
    c = problem.coeff[:, list(indices)]
    lam = synthesis_lambda(c, problem.weight, scale=config.lambda_synth_scale)
    angles = [math.radians(a) for a in config.evaluation.angles_deg]
    targets = np.array([planewave_coeffs(PlaneWave(a), cfg, freq).values for a in angles]).T
    drivers = solve_wmm(c, problem.weight, targets, lam)
    sources = config.candidate_positions()[list(indices)]
    u_syn = transfer_matrix(grid, sources, freq, config.room_model()) @ drivers
    u_dir = np.array([np.cos(angles), np.sin(angles)])
    return sdr(np.exp(1j * freq.wavenumber * (grid @ u_dir)), u_syn)


@pytest.mark.parametrize("broadband", [False, True], ids=["narrowband", "broadband"])
def test_tiny_paper_study_matches_direct_coefficients(tmp_path, broadband):
    # the built problems against the per-bin direct Graf sums. Measured with
    # one shared geometry and one seed pass per Hankel argument: equal picks,
    # cost trace within 1.1e-15 relative, SDRs within 1.7e-13 dB (per-bin
    # geometry and two seed passes: 1.3e-15 and 2.0e-13 dB)
    config = _tiny_paper(tmp_path, broadband=broadband)
    problems = build_problems(config)
    oracle = _oracle_problems(config, problems)
    got, want = place_greedy(config, problems), place_greedy(config, oracle)
    assert got.indices == want.indices
    trace, ref = np.array(got.cost_trace), np.array(want.cost_trace)
    assert np.max(np.abs(trace - ref) / np.abs(ref)) < 1e-12
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    placements = [got.indices] + [baseline_indices(config, b) for b in config.baselines]
    for p_got, p_want in zip(problems, oracle):
        for indices in placements:
            delta = _direct_sdrs(config, p_got, indices, grid) - _direct_sdrs(
                config, p_want, indices, grid
            )
            assert np.max(np.abs(delta)) < 1e-9
