import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from sfsplace import cli, experiment
from sfsplace.cli import main
from sfsplace.config import ExperimentConfig, square_loop
from sfsplace.experiment import (
    TRUNCATION_TOL,
    FrequencyProblem,
    TruncationError,
    baseline_indices,
    build_problems,
    evaluate_placements,
    place_greedy,
    pm_control_points,
    read_placement_csv,
    read_sdr_csv,
    run_evaluate,
    run_place,
    run_reproduce,
)
from sfsplace.placement import FieldPrior, greedy_place_broadband, prior_from_direction_range
from sfsplace.synthesis import (
    ConditioningError,
    WeightMatrix,
    region_grid,
    solve_wmm,
    synthesis_lambda,
)
from sfsplace.wavefield import (
    Frequency,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
)

from oracles import direct_transfer, one_bin, sdr


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
    # negative, repeated or out-of-range indices name their placement,
    # before anything is built or written
    out = tmp_path / "run"
    config = ExperimentConfig.from_dict(_toy_doc(out))
    assert config.candidates.count == 8
    for bad in ((0, 99), (-1, 3), (3, 3), (3, 8), (3, 12)):
        with pytest.raises(ValueError, match=r"placement 'proposed': .*distinct and in \[0, 8\)"):
            run_evaluate(config, indices=bad)
        with pytest.raises(ValueError, match="placement 'p'"):
            evaluate_placements(config, {"ok": (0, 7), "p": bad}, field_dir=str(out))
        with pytest.raises(ValueError, match="placement 'p'"):
            experiment.write_field_set(str(out), config, {"p": bad}, (0.0,))
    assert not list(out.glob("field_*")) and not (out / "sdr.csv").exists()


def test_evaluate_rejects_an_empty_placement(tmp_path, capsys):
    # a header-only placement CSV names the empty placement, before any
    # column is built or any table written
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    empty = tmp_path / "empty.csv"
    empty.write_text("rank,index,x,y\n")
    assert main(["evaluate", "--config", cfg, "--placement", str(empty)]) == 1
    assert "placement 'proposed' is empty" in capsys.readouterr().err
    config = ExperimentConfig.from_dict(_toy_doc(out))
    with pytest.raises(ValueError, match="placement 'proposed' is empty"):
        run_evaluate(config, indices=())
    assert not (out / "sdr.csv").exists()


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


def test_field_dumps_with_sidecars(tmp_path, monkeypatch):
    out = tmp_path / "run"
    doc = _toy_doc(
        out,
        frequencies=[500.0, 700.0],
        baselines=["regular_b"],
        evaluation={"angles_deg": [-15.0, 0.0, 15.0], "grid_spacing": 0.05,
                    "write_fields": True, "placement": [0, 7]},
    )
    cfg = _write(tmp_path, doc)
    builds = []
    init = experiment._GridEvaluation.__init__

    def counted(self, *args, **kwargs):
        builds.append(args[2].hz)
        init(self, *args, **kwargs)

    monkeypatch.setattr(experiment._GridEvaluation, "__init__", counted)
    assert main(["evaluate", "--config", cfg]) == 0
    # one evaluation per bin serves both the SDR table and the dumps
    assert builds == [500.0, 700.0]
    monkeypatch.undo()

    stem = out / "field_f500_a0_proposed_synthesized"
    assert stem.with_suffix(".csv").exists()
    meta = json.loads((out / "field_f500_a0_proposed_error.meta.json").read_text())
    assert meta["kind"] == "error" and meta["normalization"] > 0.0
    des = np.loadtxt(out / "field_f500_a0_desired.csv", delimiter=",", skiprows=1)
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

    # every angle's columns match a one-angle evaluation of that angle
    config = ExperimentConfig.from_dict(doc)
    placements = {"proposed": (0, 7), "regular_b": baseline_indices(config, "regular_b")}
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)

    def load(name):
        values = np.loadtxt(out / (name + ".csv"), delimiter=",", skiprows=1)
        np.testing.assert_array_equal(values[:, :2], grid)
        return values[:, 2] + 1j * values[:, 3]

    table = {(name, a, f): v for a, f, v, name in read_sdr_csv(str(out / "sdr.csv"))}
    for angle, tag in ((-15.0, "m15"), (0.0, "0"), (15.0, "15")):
        for name, idx in placements.items():
            for ev in experiment._evaluations(config, grid, (angle,), {name: idx}):
                freq = ev.freq
                stem = "field_f%g_a%s" % (freq.hz, tag)
                desired, basis = ev.grid_fields()
                coeffs = ev.coefficients(idx)
                want = (basis.T @ coeffs)[:, 0]
                rms = math.sqrt(float(np.mean(np.abs(desired[:, 0]) ** 2)))
                meta = json.loads((out / ("%s_%s_error.meta.json" % (stem, name))).read_text())
                assert meta["angle_deg"] == angle and meta["method"] == name
                assert meta["normalization"] == pytest.approx(rms, rel=1e-12)
                got = load("%s_%s_synthesized" % (stem, name))
                assert np.max(np.abs(got - want)) <= 1e-12 * rms
                # the table's SDR, taken from the coefficients, is the
                # grid SDR of the dumped fields
                row = table[(name, angle, freq.hz)]
                assert sdr(desired[:, 0], got) == pytest.approx(row, abs=1e-9)
                got = load("%s_%s_error" % (stem, name))
                assert np.max(np.abs(got - (want - desired[:, 0]) / rms)) <= 1e-12
    assert len(list(out.glob("field_*.csv"))) == 2 * 3 * (1 + 2 * 2)


def _room_doc(out, method):
    return _toy_doc(
        out,
        method=method,
        room={"size_x": 4.0, "size_y": 3.0, "reflection": [0.7, 0.6, 0.8, 0.5],
              "max_reflection_order": 4},
        evaluation={"angles_deg": [-30.0, 0.0, 20.0], "grid_spacing": 0.05},
    )


def _direct_sdrs(config, problem, indices, angles):
    """SDRs from the superposed image-source transfer on the grid, per angle.

    Pressure matching is solved directly over its control points (transfer
    to each point, weight cell * I, the plane wave sampled at the points),
    the other methods with their own coefficient-domain problem.
    """
    room = config.room_model()
    cand = config.candidate_positions()
    freq = problem.freq
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    transfer = direct_transfer(grid, cand[list(indices)], freq, room)
    pm = config.method == "pressure-matching"
    if pm:
        ctrl, cell = pm_control_points(config)
        c = direct_transfer(ctrl, cand[list(indices)], freq, room)
        weight = WeightMatrix(cell * np.eye(len(ctrl)))
    else:
        c, weight = problem.coeff[:, list(indices)], problem.weight
    lam = synthesis_lambda(c, weight, scale=config.lambda_synth_scale)
    out = []
    for angle in angles:
        phi = math.radians(angle)
        kvec = freq.wavenumber * np.array([math.cos(phi), math.sin(phi)])
        if pm:
            b = np.exp(1j * (ctrl @ kvec))
        else:
            b = planewave_coeffs(problem.cfg, freq, [phi])[:, 0]
        d = solve_wmm(c, weight, b, lam)
        out.append(sdr(np.exp(1j * (grid @ kvec)), transfer @ d))
    return out


@pytest.mark.parametrize("method", ["wmm", "mode-matching", "pressure-matching"])
def test_expansion_evaluation_matches_direct_room_transfer(tmp_path, method):
    config = ExperimentConfig.from_dict(_room_doc(tmp_path / "run", method))
    problems = build_problems(config)
    placements = {"proposed": place_greedy(config, problems).indices}
    for name in config.baselines:
        placements[name] = baseline_indices(config, name)
    angles = config.evaluation.angles_deg
    rows, err = evaluate_placements(config, placements)
    assert 0.0 < err <= TRUNCATION_TOL
    got = {(r[3], r[0]): r[2] for r in rows}
    assert len(got) == len(placements) * len(angles)
    for name, idx in placements.items():
        want = _direct_sdrs(config, problems[0], idx, angles)
        for angle, w in zip(angles, want):
            assert got[(name, angle)] == pytest.approx(w, abs=1e-4)


@pytest.mark.parametrize("method", ["wmm", "mode-matching", "pressure-matching"])
def test_evaluation_builds_only_the_placements_columns(tmp_path, method):
    config = ExperimentConfig.from_dict(_room_doc(tmp_path / "run", method))
    # evaluation's own columns (the middle K rows of one Graf build past M)
    # against the placement problem's columns of the same candidates, and
    # the table against an evaluation that solves with the problem's columns
    (full,) = build_problems(config)
    info = run_evaluate(config, indices=place_greedy(config, [full]).indices)
    placements = info["placements"]
    union = sorted({i for idx in placements.values() for i in idx})
    assert len(union) < config.candidates.count
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    angles = config.evaluation.angles_deg
    (ev,) = experiment._evaluations(config, grid, angles, placements)
    got, ref = ev.coeff, full.coeff[:, union]
    assert got.shape == ref.shape
    assert np.all(np.linalg.norm(got - ref, axis=0) <= 1e-12 * np.linalg.norm(ref, axis=0))
    np.testing.assert_array_equal(ev.weight.entries, full.weight.entries)
    ev.coeff = ref
    want = [
        (a, full.freq.hz, s, name)
        for name in sorted(placements)
        for a, s in zip(angles, ev.sdrs(ev.coefficients(placements[name])))
    ]
    assert [r[:2] + r[3:] for r in info["rows"]] == [r[:2] + r[3:] for r in want]
    np.testing.assert_allclose([r[2] for r in info["rows"]], [r[2] for r in want], atol=1e-9)


def test_pressure_matching_matches_dense_control_grid_problem(tmp_path):
    # pressure matching over 973 control points (about 36 x K), posed
    # directly: control-point transfer, weight cell * I and the prior
    # mapped onto the points; greedy must pick as the coefficient-domain
    # pipeline does, with the same cost at every step
    doc = _toy_doc(
        tmp_path / "run",
        method="pressure-matching",
        pm_control_spacing=0.017,
        candidates={"square": {"size": 2.0, "count": 24}},
        n_select=6,
        room={"size_x": 4.0, "size_y": 3.0, "reflection": [0.7, 0.6, 0.8, 0.5],
              "max_reflection_order": 2},
    )
    config = ExperimentConfig.from_dict(doc)
    (problem,) = build_problems(config)
    ctrl, cell = pm_control_points(config)
    assert len(ctrl) == 973 and len(ctrl) > 30 * problem.cfg.size
    freq = problem.freq
    cand = config.candidate_positions()
    c = direct_transfer(ctrl, cand, freq, config.room_model())
    basis = _basis_matrix(problem.cfg, ctrl, freq)
    mu = basis.T @ problem.prior.mean
    r = basis.T @ problem.prior.second_moment @ basis.conj()
    r = 0.5 * (r + r.conj().T)
    prior = FieldPrior(mu, r - np.outer(mu, mu.conj()), second_moment=r)
    direct = greedy_place_broadband(
        one_bin(c, WeightMatrix(cell * np.eye(len(ctrl))), prior), config.lambda_select,
        n_select=config.n_select,
    )
    got = place_greedy(config, (problem,))
    assert got.indices == direct.indices
    np.testing.assert_allclose(got.cost_trace, direct.cost_trace, rtol=1e-6)


def test_truncation_check_rejects_source_at_the_rim(tmp_path):
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


def test_truncation_check_names_the_failing_bin(tmp_path):
    # a candidate at 1.3 R: at fixed d/R the truncation error falls with
    # frequency, so of the bins 4000 Hz (estimate 7.0e-4) and 300 Hz
    # (2.9e-3) only the second exceeds the tolerance
    out = tmp_path / "run"
    doc = _toy_doc(
        out,
        candidates={"positions": [[0.39, 0.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, 1.0]]},
        frequencies=[4000.0, 300.0],
        baselines=[],
    )
    doc["evaluation"]["placement"] = [1, 0]
    with pytest.raises(TruncationError) as info:
        run_evaluate(ExperimentConfig.from_dict(doc))
    msg = str(info.value)
    assert float(msg.split("error ")[1].split()[0]) > TRUNCATION_TOL
    assert "at 300 Hz" in msg and "4000" not in msg and "(0.39, 0)" in msg
    assert not (out / "sdr.csv").exists()
    doc["frequencies"] = [4000.0]
    info = run_evaluate(ExperimentConfig.from_dict(doc))
    assert 0.0 < info["truncation_error"] <= TRUNCATION_TOL
    assert (out / "sdr.csv").exists()


# ---------------------------------------------------------------------------
# other subcommands


def test_priors_subcommand_matches_library(tmp_path):
    out = tmp_path / "run"
    cfg = _write(tmp_path, _toy_doc(out))
    assert main(["priors", "--config", cfg]) == 0
    config = ExperimentConfig.from_dict(_toy_doc(out))
    freq = Frequency(500.0)
    cfgx = expansion_for(config.region, freq)
    (prior,) = prior_from_direction_range(config.prior.to_range(), [(cfgx, freq)])
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


def test_priors_subcommand_writes_the_placement_priors(tmp_path):
    # an off-origin region over three bins: the dumped moments are
    # build_problems' priors bit for bit (repr round-trips a float)
    out = tmp_path / "run"
    doc = _toy_doc(out, frequencies=[300.0, 500.0, 800.0],
                   region={"center": [0.2, 0.1], "radius": 0.3})
    assert main(["priors", "--config", _write(tmp_path, doc)]) == 0
    problems = build_problems(ExperimentConfig.from_dict(doc))
    assert len(problems) == 3
    for p in problems:
        tag = "%g" % p.freq.hz
        mu = np.loadtxt(out / ("prior_mu_f%s.csv" % tag), delimiter=",", skiprows=1)
        sig = np.loadtxt(out / ("prior_sigma_f%s.csv" % tag), delimiter=",", skiprows=1)
        assert np.array_equal(mu[:, 1] + 1j * mu[:, 2], p.prior.mean)
        assert np.array_equal(
            (sig[:, 2] + 1j * sig[:, 3]).reshape(p.cfg.size, p.cfg.size), p.prior.covariance
        )


def test_conditioning_error_is_a_clean_cli_error(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ConditioningError("normal equations not positive definite: test")

    monkeypatch.setattr(cli, "run_evaluate", fail)
    cfg = _write(tmp_path, _toy_doc(tmp_path / "run"))
    assert main(["evaluate", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: normal equations not positive definite")
    assert "Traceback" not in err


def test_evaluation_has_no_threads_knob(tmp_path, monkeypatch, capsys):
    for fn in (evaluate_placements, run_evaluate, run_reproduce):
        assert "threads" not in inspect.signature(fn).parameters, fn.__name__

    def never(*args, **kwargs):
        raise AssertionError("evaluate ran despite an unknown --threads")

    monkeypatch.setattr(cli, "run_evaluate", never)
    cfg = _write(tmp_path, _toy_doc(tmp_path / "run"))
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--config", cfg, "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_evaluation_needs_no_placement_problems():
    # evaluation builds its own columns: no candidate subset knob on the
    # placement problems, and no problems argument to evaluation
    assert "columns" not in inspect.signature(build_problems).parameters
    assert "columns" not in {f.name for f in dataclasses.fields(FrequencyProblem)}
    params = inspect.signature(evaluate_placements).parameters
    assert list(params) == ["config", "placements", "field_dir"]
    params = inspect.signature(experiment.write_field_set).parameters
    assert list(params) == ["out_dir", "config", "placements", "angles", "tag"]


def test_runtime_does_not_import_scipy(tmp_path):
    # a fresh interpreter: pytest and the test oracles already import scipy,
    # and the pipeline and selftest must run without either
    script = textwrap.dedent(
        """
        import sys
        import sfsplace
        from sfsplace import cli

        config = cli._toy_config(sys.argv[1])
        info = cli.run_place(config)
        cli.run_evaluate(config, indices=info["result"].indices)
        assert cli.main(["selftest"]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy") or m == "oracles")
        assert not loaded, loaded
        """
    )
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "run")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "run" / "sdr.csv").exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS bessel-cross-product",
        "PASS j-upward-vs-miller",
        "PASS run-determinism",
        "PASS graf-vs-direct",
    ]


def test_bad_config_path_fails(tmp_path, capsys):
    assert main(["place", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_is_a_clean_cli_error(tmp_path, capsys):
    doc = _toy_doc(tmp_path / "out", prior={"angle_mn_deg": -45.0, "angle_max_deg": 45.0})
    assert main(["place", "--config", _write(tmp_path, doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "angle_mn_deg" in err
    assert not (tmp_path / "out").exists()


def test_reproduce_rejects_config_flag(tmp_path):
    with pytest.raises(SystemExit):
        main(["reproduce-paper", "--config", "x.json"])


def test_selftest_rejects_out_flag():
    with pytest.raises(SystemExit):
        main(["selftest", "--out", "x"])


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
