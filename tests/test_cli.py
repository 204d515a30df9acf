import json
import math
import os

import numpy as np
import pytest

from sfsplace.cli import main
from sfsplace.config import ExperimentConfig, square_loop
from sfsplace.experiment import (
    TRUNCATION_TOL,
    TruncationError,
    baseline_indices,
    build_problems,
    evaluate_placements,
    place_greedy,
    read_placement_csv,
    read_sdr_csv,
    run_evaluate,
    run_place,
)
from sfsplace.placement import prior_from_direction_range
from sfsplace.room import room_transfer_many
from sfsplace.synthesis import region_grid, sdr, solve_wmm, synthesis_lambda
from sfsplace.wavefield import Frequency, PlaneWave, expansion_for, planewave_coeffs


def _toy_doc(out, **over):
    doc = {
        "candidates": {"square": {"size": 2.0, "count": 8}},
        "region": {"center": [0.0, 0.0], "radius": 0.3},
        "prior": {"angle_min_deg": -45.0, "angle_max_deg": 45.0},
        "frequencies": [500.0],
        "n_select": 2,
        "baselines": ["regular_a", "regular_b"],
        "evaluation": {"angles_deg": [-15.0, 0.0, 15.0], "grid_spacing": 0.05},
        "output_dir": str(out),
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# place


def test_place_writes_expected_artifacts(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["place", "--config", cfg]) == 0
    indices = read_placement_csv(str(out / "placement.csv"))
    assert len(indices) == 2 and len(set(indices)) == 2
    trace = np.loadtxt(out / "cost_trace.csv", delimiter=",", skiprows=1)
    assert trace.shape == (3, 2)  # J(empty) plus one row per pick
    assert np.all(np.diff(trace[:, 1]) <= 0.0)
    assert (out / "placement_regular_a.csv").exists()
    assert (out / "placement_regular_b.csv").exists()
    echoed = ExperimentConfig.from_json((out / "config.json").read_text())
    assert echoed.n_select == 2


def test_placement_csv_round_trip(tmp_path):
    out = tmp_path / "run"
    config = ExperimentConfig.from_dict(_toy_doc(out))
    info = run_place(config)
    back = read_placement_csv(str(out / "placement.csv"))
    assert back == info["result"].indices
    rows = (out / "placement.csv").read_text().strip().splitlines()
    assert rows[0] == "rank,index,x,y"
    first = rows[1].split(",")
    pts = config.candidate_positions()
    assert int(first[0]) == 1
    assert float(first[2]) == pts[int(first[1]), 0]


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_from_placement_file(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["place", "--config", cfg]) == 0
    assert main(
        ["evaluate", "--config", cfg, "--placement", str(out / "placement.csv")]
    ) == 0
    rows = read_sdr_csv(str(out / "sdr.csv"))
    # 3 angles x 1 freq x (proposed + two baselines)
    assert len(rows) == 9
    methods = {r[3] for r in rows}
    assert methods == {"proposed", "regular_a", "regular_b"}
    assert all(math.isfinite(r[2]) for r in rows)
    header = (out / "sdr.csv").read_text().splitlines()[0]
    assert header == "angle_deg,freq_hz,sdr_db,method"


def test_evaluate_empty_angle_list_succeeds(tmp_path):
    out = tmp_path / "run"
    doc = _toy_doc(out, evaluation={"angles_deg": [], "grid_spacing": 0.05},
                   baselines=[])
    doc["evaluation"]["placement"] = [0, 7]
    cfg = _write(tmp_path, doc)
    assert main(["evaluate", "--config", cfg]) == 0
    text = (out / "sdr.csv").read_text()
    assert text == "angle_deg,freq_hz,sdr_db,method\n"


def test_evaluate_without_placement_fails(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["evaluate", "--config", cfg]) == 1
    assert "placement" in capsys.readouterr().err


def test_evaluate_rejects_bad_indices(tmp_path):
    out = tmp_path / "run"
    config = ExperimentConfig.from_dict(_toy_doc(out))
    with pytest.raises(ValueError):
        run_evaluate(config, indices=(0, 99))
    with pytest.raises(ValueError):
        run_evaluate(config, indices=(3, 3))


@pytest.mark.parametrize(
    "room",
    [None, {"size_x": 3.0, "size_y": 2.6, "reflection": 0.7, "max_reflection_order": 3}],
    ids=["free-field", "room"],
)
def test_exact_representability_hits_sdr_cap(tmp_path, room):
    # desired field = one selected source's own field; with a tiny ridge
    # the solver recovers it to numerical precision
    out = tmp_path / "run"
    pts = square_loop(2.0, 8)
    doc = _toy_doc(
        out,
        room=room,
        baselines=[],
        lambda_synth_scale=1e-12,
        evaluation={
            "angles_deg": [],
            "grid_spacing": 0.05,
            "desired": "point_source",
            "desired_position": [float(pts[7, 0]), float(pts[7, 1])],
        },
    )
    config = ExperimentConfig.from_dict(doc)
    info = run_evaluate(config, indices=(7, 0))
    rows = info["rows"]
    assert len(rows) == 1
    assert rows[0][0] is None and rows[0][2] >= 100.0
    text = (out / "sdr.csv").read_text().splitlines()
    assert text[1].startswith("nan,")


def test_evaluate_threaded_rows_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    doc1, doc2 = _toy_doc(out1), _toy_doc(out2)
    config1 = ExperimentConfig.from_dict(doc1)
    config2 = ExperimentConfig.from_dict(doc2)
    info1 = run_place(config1)
    info2 = run_place(config2)
    run_evaluate(config1, indices=info1["result"].indices, threads=1)
    run_evaluate(config2, indices=info2["result"].indices, threads=4)
    assert (out1 / "sdr.csv").read_bytes() == (out2 / "sdr.csv").read_bytes()
    assert (out1 / "placement.csv").read_bytes() == (out2 / "placement.csv").read_bytes()


def test_cli_out_and_seed_overrides(tmp_path):
    out = tmp_path / "orig"
    moved = tmp_path / "moved"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["place", "--config", cfg, "--out", str(moved)]) == 0
    assert not out.exists()
    echoed = json.loads((moved / "config.json").read_text())
    assert echoed["output_dir"] == str(moved)
    # nothing is random, so there is no seed to override
    with pytest.raises(SystemExit) as exc:
        main(["place", "--config", cfg, "--seed", "9"])
    assert exc.value.code == 2


def test_env_override_changes_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    monkeypatch.setenv("SFSPLACE_N_SELECT", "3")
    assert main(["place", "--config", cfg]) == 0
    assert len(read_placement_csv(str(out / "placement.csv"))) == 3


def test_field_dumps_with_sidecars(tmp_path):
    out = tmp_path / "run"
    doc = _toy_doc(
        out,
        baselines=[],
        evaluation={"angles_deg": [0.0], "grid_spacing": 0.05,
                    "write_fields": True, "placement": [0, 7]},
    )
    cfg = _write(tmp_path, doc)
    assert main(["evaluate", "--config", cfg]) == 0
    stem = out / "field_f500_a0_proposed_synthesized"
    assert stem.with_suffix(".csv").exists()
    meta = json.loads((out / "field_f500_a0_proposed_error.meta.json").read_text())
    assert meta["kind"] == "error" and meta["normalization"] > 0.0
    des = np.loadtxt(out / "field_f500_a0_desired.csv", delimiter=",", skiprows=1)
    grid_doc = des[:, 0] + 1j * 0
    # desired plane wave at 0 deg: unit modulus everywhere on the grid
    mag = np.hypot(des[:, 2], des[:, 3])
    np.testing.assert_allclose(mag, 1.0, atol=1e-12)
    # error grid is (syn - des) / rms(des)
    syn = np.loadtxt(stem.with_suffix(".csv"), delimiter=",", skiprows=1)
    err = np.loadtxt(out / "field_f500_a0_proposed_error.csv", delimiter=",", skiprows=1)
    diff = (syn[:, 2] + 1j * syn[:, 3]) - (des[:, 2] + 1j * des[:, 3])
    np.testing.assert_allclose(
        err[:, 2] + 1j * err[:, 3], diff / meta["normalization"], atol=1e-12
    )


def _room_doc(out, method):
    return _toy_doc(
        out,
        method=method,
        room={"size_x": 4.0, "size_y": 3.0, "reflection": [0.7, 0.6, 0.8, 0.5],
              "max_reflection_order": 4},
        evaluation={"angles_deg": [-30.0, 0.0, 20.0], "grid_spacing": 0.05},
    )


def _direct_sdrs(config, problem, indices, angles):
    """SDRs from the superposed image-source transfer on the grid, per angle."""
    room = config.room_model()
    cand = config.candidate_positions()
    freq = problem.freq
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    transfer = np.column_stack([room_transfer_many(room, grid, cand[i], freq) for i in indices])
    if problem.control_points is None:
        c = problem.coeff[:, list(indices)]
    else:
        ctrl = problem.control_points
        c = np.column_stack([room_transfer_many(room, ctrl, cand[i], freq) for i in indices])
    lam = synthesis_lambda(c, problem.weight, scale=config.lambda_synth_scale)
    out = []
    for angle in angles:
        phi = math.radians(angle)
        kvec = freq.wavenumber * np.array([math.cos(phi), math.sin(phi)])
        if problem.control_points is None:
            b = planewave_coeffs(PlaneWave(phi), problem.cfg, freq).values
        else:
            b = np.exp(1j * (problem.control_points @ kvec))
        d = solve_wmm(c, problem.weight, b, lam)
        out.append(sdr(np.exp(1j * (grid @ kvec)), transfer @ d))
    return out


@pytest.mark.parametrize("method", ["wmm", "pressure-matching"])
def test_expansion_evaluation_matches_direct_room_transfer(tmp_path, method):
    config = ExperimentConfig.from_dict(_room_doc(tmp_path / "run", method))
    problems = build_problems(config)
    placements = {"proposed": place_greedy(config, problems).indices}
    for name in config.baselines:
        placements[name] = baseline_indices(config, name)
    angles = config.evaluation.angles_deg
    rows, err = evaluate_placements(config, problems, placements)
    assert 0.0 < err <= TRUNCATION_TOL
    got = {(r[3], r[0]): r[2] for r in rows}
    assert len(got) == len(placements) * len(angles)
    for name, idx in placements.items():
        want = _direct_sdrs(config, problems[0], idx, angles)
        for angle, w in zip(angles, want):
            assert got[(name, angle)] == pytest.approx(w, abs=1e-4)


@pytest.mark.parametrize("method", ["wmm", "pressure-matching"])
def test_evaluation_builds_only_the_placements_columns(tmp_path, method):
    config = ExperimentConfig.from_dict(_room_doc(tmp_path / "run", method))
    full = build_problems(config)
    info = run_evaluate(config, indices=place_greedy(config, full).indices)
    union = sorted({i for idx in info["placements"].values() for i in idx})
    assert len(union) < config.candidates.count
    want = evaluate_placements(config, full, info["placements"]).rows
    assert [r[:2] + r[3:] for r in info["rows"]] == [r[:2] + r[3:] for r in want]
    np.testing.assert_allclose([r[2] for r in info["rows"]], [r[2] for r in want], atol=1e-9)
    part = build_problems(config, columns=union)
    got, ref = part[0].coeff, full[0].coeff[:, union]
    assert np.all(np.linalg.norm(got - ref, axis=0) <= 1e-12 * np.linalg.norm(ref, axis=0))
    with pytest.raises(ValueError, match="every candidate"):
        place_greedy(config, part)
    other = min(set(range(config.candidates.count)) - set(union))
    with pytest.raises(ValueError, match="not built for"):
        evaluate_placements(config, part, {"proposed": (union[0], other)})


def test_spot_check_rejects_source_at_the_rim(tmp_path):
    # a candidate at 1.02 R: the truncated expansion cannot represent it
    # on the grid, and evaluation must stop before writing any SDR table
    out = tmp_path / "run"
    doc = _toy_doc(
        out,
        candidates={"positions": [[0.306, 0.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]]},
        baselines=[],
    )
    doc["evaluation"]["placement"] = [1, 0]
    config = ExperimentConfig.from_dict(doc)
    with pytest.raises(TruncationError) as info:
        run_evaluate(config)
    msg = str(info.value)
    measured = float(msg.split("error ")[1].split()[0])
    assert measured > TRUNCATION_TOL
    assert ("tolerance %g" % TRUNCATION_TOL) in msg and "(0.306, 0)" in msg
    assert not (out / "sdr.csv").exists()
    assert main(["evaluate", "--config", _write(tmp_path, doc)]) == 1
    assert not (out / "sdr.csv").exists()


# ---------------------------------------------------------------------------
# other subcommands


def test_priors_subcommand_matches_library(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["priors", "--config", cfg]) == 0
    config = ExperimentConfig.from_dict(_toy_doc(out))
    freq = Frequency(500.0)
    cfgx = expansion_for(config.region, freq)
    prior = prior_from_direction_range(config.prior.to_range(), cfgx, freq)
    mu = np.loadtxt(out / "prior_mu_f500.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(mu[:, 1] + 1j * mu[:, 2], prior.mean, atol=1e-15)
    assert mu[0, 0] == -cfgx.max_order
    sig = np.loadtxt(out / "prior_sigma_f500.csv", delimiter=",", skiprows=1)
    assert sig.shape == (cfgx.size ** 2, 4)
    np.testing.assert_allclose(
        (sig[:, 2] + 1j * sig[:, 3]).reshape(cfgx.size, cfgx.size),
        prior.covariance,
        atol=1e-15,
    )


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_bad_config_path_fails(tmp_path, capsys):
    assert main(["place", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_reproduce_rejects_config_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["reproduce-paper", "--config", "x.json"])


# ---------------------------------------------------------------------------
# qualitative behavior of the pipeline


def test_greedy_picks_face_the_prior_directions(tmp_path):
    # prior propagates toward +x, so selected sources should sit on the
    # -x side of the region, upstream where they can launch those waves
    out = tmp_path / "run"
    doc = _toy_doc(out, candidates={"square": {"size": 3.0, "count": 40}},
                   n_select=6, baselines=[])
    config = ExperimentConfig.from_dict(doc)
    info = run_place(config)
    pts = config.candidate_positions()
    sel = pts[list(info["result"].indices)]
    assert np.mean(sel[:, 0]) < 0.0
    assert np.all(sel[:, 0] < 1.4)


def test_room_evaluation_uses_reverberant_transfer(tmp_path):
    # same geometry with and without walls must give different SDR rows
    out1, out2 = tmp_path / "free", tmp_path / "room"
    doc_free = _toy_doc(out1, baselines=[])
    doc_room = _toy_doc(out2, baselines=[],
                        room={"size_x": 4.0, "size_y": 3.0,
                              "reflection": [0.6] * 4,
                              "max_reflection_order": 3})
    c_free = ExperimentConfig.from_dict(doc_free)
    c_room = ExperimentConfig.from_dict(doc_room)
    r_free = run_evaluate(c_free, indices=(6, 7))
    r_room = run_evaluate(c_room, indices=(6, 7))
    s_free = [r[2] for r in r_free["rows"]]
    s_room = [r[2] for r in r_room["rows"]]
    assert not np.allclose(s_free, s_room, atol=0.1)
    for info in (r_free, r_room):
        assert 0.0 < info["truncation_error"] <= TRUNCATION_TOL


def test_baseline_indices_regular_b_spacing(tmp_path):
    config = ExperimentConfig.from_dict(_toy_doc(tmp_path / "x", n_select=4))
    assert baseline_indices(config, "regular_b") == (0, 2, 4, 6)
    # the +/-45 deg tangent arc of the octagon admits exactly the three
    # left-side candidates 6, 7, 0
    config3 = ExperimentConfig.from_dict(_toy_doc(tmp_path / "y", n_select=3))
    reg_a = baseline_indices(config3, "regular_a")
    assert sorted(reg_a) == [0, 6, 7]
    with pytest.raises(ValueError, match="admissible"):
        baseline_indices(config, "regular_a")
