"""Problem building against direct recomputation, bin by bin and end to end."""

import dataclasses
import math

import numpy as np
import pytest

from sfsplace import cli, experiment, specfun
from sfsplace import room as room_module
from sfsplace.config import ExperimentConfig
from sfsplace.experiment import (
    GRID_ORDERS,
    _truncation_errors,
    baseline_indices,
    build_problems,
    evaluate_placements,
    paper_config,
    place_greedy,
)
from sfsplace.placement import broadband_cost
from sfsplace.synthesis import (
    _TRANSLATION_BLOCK_BYTES,
    region_grid,
    solve_wmm,
    source_coeff_matrix,
    synthesis_lambda,
)
from sfsplace.wavefield import (
    ExpansionConfig,
    Frequency,
    _basis_matrix,
    expansion_for,
    planewave_coeffs,
)

from oracles import column_errors, direct_transfer, graf_coeffs, sdr, traced_peak

# the truncation estimate may over-report the direct error by up to this
# factor (measured: 1.14-2.00 on the paper bins, 1.23-1.76 on the sweep)
ESTIMATE_OVER = 2.5


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


def test_paper_broadband_build_bessel_work(monkeypatch):
    # the 20-bin build takes the translation rows J_j(k delta) over the
    # candidates' distinct distances delta from the layout's midpoint (62 of
    # 200) in a few bessel_j_orders calls over runs of bins, each with an
    # array of per-argument order limits and each J block within
    # _TRANSLATION_BLOCK_BYTES unless one bin alone exceeds it, then every
    # bin's weight row J(kR) from one bessel_j_orders call and every prior
    # row J(k rho) from one more; the Graf streams run Miller's recurrence
    # to the argument's own limit only where some order reaches it (2665
    # columns: 2146 near images and 519 lattice arguments, each lattice
    # argument to its own bin's order; 3057 while every lattice argument
    # ran to the largest, 30258 while the direct stream served
    # x < 2 M + 20), and to the seeds' fixed order for each argument below
    # x = 17 (2608 near images and 8 lattice arguments)
    calls, miller, seeds = [], [], []
    inside = []

    def counted(fn):
        def call(max_order, x):
            if not inside:
                calls.append((np.ndim(max_order) > 0, int(np.max(max_order)), np.size(x)))
            inside.append(True)
            try:
                return fn(max_order, x)
            finally:
                inside.pop()

        return call

    fixed = specfun._j_fixed

    def counted_fixed(max_order, x):
        if not inside:  # the seeds' block has one scalar limit, the fixed block an array
            (seeds if np.ndim(max_order) == 0 else miller).append(x.size)
        return fixed(max_order, x)

    monkeypatch.setattr(specfun, "bessel_j_orders", counted(specfun.bessel_j_orders))
    monkeypatch.setattr(specfun, "_j_fixed", counted_fixed)
    config = paper_config(broadband=True)
    problems = build_problems(config)
    assert len(problems) == 20
    cand = config.candidate_positions()
    mid = 0.5 * (cand.min(axis=0) + cand.max(axis=0))
    distinct = np.unique(np.hypot(*(mid - cand).T)).size
    assert distinct == 62
    runs = [(top, size) for array, top, size in calls if array]
    assert [array for array, _, _ in calls] == [True] * len(runs) + [False, False]
    assert 1 < len(runs) < 20
    assert sum(size for _, size in runs) == 20 * distinct
    assert all(8 * (top + 1) * n <= _TRANSLATION_BLOCK_BYTES or n == distinct for top, n in runs)
    assert [size for array, _, size in calls if not array] == [20, 20]
    assert sum(miller) <= 2665
    assert seeds == [2608, 8]


def test_evaluation_weights_are_the_placement_weights(tmp_path, monkeypatch):
    # over several bins, evaluation's weights are build_problems' bit for bit
    config = _tiny_paper(tmp_path, broadband=True)
    problems = build_problems(config)
    seen = []
    init = experiment._GridEvaluation.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.append(self.weight.entries)

    monkeypatch.setattr(experiment._GridEvaluation, "__init__", spy)
    evaluate_placements(config, {"regular_b": baseline_indices(config, "regular_b")})
    assert len(seen) == len(problems) == 3
    for got, p in zip(seen, problems):
        assert np.array_equal(got, p.weight.entries)


def test_weights_and_priors_come_from_one_call_over_the_bin_list(tmp_path, monkeypatch):
    # each caller builds every bin's weight and prior in one call over the
    # whole bin list, so the weights and priors agree bit for bit across
    # callers
    config = _tiny_paper(tmp_path, broadband=True)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    calls = []

    def spy(name, module):
        fn = getattr(module, name)

        def call(first, bins):
            calls.append((name, tuple(freq.hz for _, freq in bins)))
            return fn(first, bins)

        monkeypatch.setattr(module, name, call)

    spy("weight_matrix_circle", experiment)
    spy("prior_from_direction_range", experiment)
    spy("prior_from_direction_range", cli)
    hz = tuple(config.frequencies)
    assert len(hz) == 3
    build_problems(config)
    assert sorted(calls) == [("prior_from_direction_range", hz), ("weight_matrix_circle", hz)]
    calls.clear()
    evaluate_placements(config, {"regular_b": baseline_indices(config, "regular_b")})
    assert calls == [("weight_matrix_circle", hz)]
    calls.clear()
    assert cli.main(["priors", "--config", str(path), "--out", str(tmp_path / "priors")]) == 0
    assert calls == [("prior_from_direction_range", hz)]


def test_evaluation_reads_every_rim_row_from_one_call(tmp_path, monkeypatch):
    # the truncation check's J(kR) rows of all 3 bins come from one
    # bessel_j_orders call, not one single-argument call per bin
    config = _tiny_paper(tmp_path, broadband=True)
    sizes = []
    block = experiment.bessel_j_orders

    def counted(max_order, x):
        sizes.append(np.size(x))
        return block(max_order, x)

    monkeypatch.setattr(experiment, "bessel_j_orders", counted)
    evaluate_placements(config, {"regular_b": baseline_indices(config, "regular_b")})
    assert sizes == [3]


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
    targets = planewave_coeffs(cfg, freq, angles)
    drivers = solve_wmm(c, problem.weight, targets, lam)
    sources = config.candidate_positions()[list(indices)]
    u_syn = direct_transfer(grid, sources, freq, config.room_model()) @ drivers
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


def _assert_same_placement(mapped, config):
    # identical picks, and traces within 1e-12 relative
    got, want = place_greedy(mapped), place_greedy(config)
    assert got.indices == want.indices
    trace, ref = np.array(got.cost_trace), np.array(want.cost_trace)
    assert np.max(np.abs(trace - ref) / np.abs(ref)) < 1e-12


def _asymmetric_paper_doc(broadband):
    # the paper problem with four different wall coefficients and an
    # asymmetric prior, so no wall or angle mix-up cancels
    doc = paper_config(broadband=broadband).to_dict()
    doc["room"]["reflection"] = [0.8, 0.7, 0.9, 0.6]
    doc["prior"].update(angle_min_deg=-30.0, angle_max_deg=40.0)
    return doc, ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("broadband", [False, True], ids=["narrowband", "broadband"])
def test_paper_placement_is_invariant_under_the_mirror_y_to_minus_y(broadband):
    # against the mirror image: candidates mirrored in their original order,
    # region center mirrored, bottom and top walls swapped, prior [lo, hi]
    # -> [-hi, -lo]. The image table, the lattice sums and their four-sign
    # fold, the translation rows, priors, weights and greedy must all
    # commute with the map (measured trace gaps 5.2e-15 narrowband, 1.1e-15
    # broadband)
    doc, config = _asymmetric_paper_doc(broadband)
    doc["candidates"] = {"positions": (config.candidate_positions() * [1.0, -1.0]).tolist()}
    doc["region"]["center"] = [0.5, -0.3]
    doc["room"]["reflection"] = [0.8, 0.7, 0.6, 0.9]
    doc["prior"].update(angle_min_deg=-40.0, angle_max_deg=30.0)
    _assert_same_placement(ExperimentConfig.from_dict(doc), config)


@pytest.mark.parametrize("broadband", [False, True], ids=["narrowband", "broadband"])
def test_paper_placement_is_invariant_under_the_rotation_by_90_degrees(broadband):
    # (x, y) -> (-y, x): candidates rotated in their original order, region
    # center rotated, room sizes swapped, walls (left, right, bottom, top)
    # -> (top, bottom, left, right), prior and angles +90 deg. Each bin's
    # coefficients turn by the diagonal unitary e^{-i m pi/2}, which the
    # WMM weight commutes with (measured trace gaps 4.8e-15 narrowband,
    # 1.1e-15 broadband; with the walls left unmapped the traces move by
    # 0.39 and 0.064)
    doc, config = _asymmetric_paper_doc(broadband)
    pts = config.candidate_positions()
    doc["candidates"] = {"positions": np.c_[-pts[:, 1], pts[:, 0]].tolist()}
    doc["region"]["center"] = [-0.3, 0.5]
    doc["room"].update(size_x=4.0, size_y=5.0, reflection=[0.6, 0.9, 0.8, 0.7])
    doc["prior"].update(angle_min_deg=60.0, angle_max_deg=130.0)
    doc["evaluation"]["angles_deg"] = [a + 90.0 for a in doc["evaluation"]["angles_deg"]]
    _assert_same_placement(ExperimentConfig.from_dict(doc), config)


@pytest.mark.parametrize("broadband", [False, True], ids=["narrowband", "broadband"])
def test_free_field_placement_is_invariant_under_a_translation(broadband):
    # region and candidates moved together by (0.7, -0.4) m: the Graf
    # columns see the same relative positions, and the prior's second
    # moment does not depend on the expansion center (measured trace gaps
    # 1.3e-14 narrowband, 6.4e-15 broadband)
    doc = paper_config(broadband=broadband).to_dict()
    doc.pop("room")
    config = ExperimentConfig.from_dict(doc)
    doc["candidates"] = {"positions": (config.candidate_positions() + [0.7, -0.4]).tolist()}
    doc["region"]["center"] = [1.2, -0.1]
    _assert_same_placement(ExperimentConfig.from_dict(doc), config)


def test_an_unplaceable_baseline_fails_before_anything_is_written(tmp_path, monkeypatch):
    # the paper arc facing [-45, 45] deg holds 91 of the 200 candidates, so
    # regular_a cannot place 150: place raises before greedy runs, and
    # place and evaluate before any file is written
    config = dataclasses.replace(paper_config(output_dir=str(tmp_path / "run")), n_select=150)

    def never(*args, **kwargs):
        raise AssertionError("greedy ran before the baselines were placed")

    monkeypatch.setattr(experiment, "place_greedy", never)
    message = "regular_a: n_select 150 exceeds the 91 candidates"
    with pytest.raises(ValueError, match=message):
        experiment.run_place(config)
    assert not (tmp_path / "run" / "placement.csv").exists()
    with pytest.raises(ValueError, match=message):
        experiment.run_evaluate(config, indices=range(150))
    assert not (tmp_path / "run").exists()


def _paper_placements(config, problems):
    greedy = place_greedy(config, problems).indices
    return [greedy] + [baseline_indices(config, b) for b in config.baselines]


def _assert_estimate_brackets_direct(config, sources, bins, room):
    # the Graf-tail estimate of every column against its error measured
    # with the direct image-source transfer: never under, at most
    # ESTIMATE_OVER times over
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    for cfg, freq, coeff in bins:
        top = cfg.max_order + experiment.TAIL_ORDERS
        wide = ExpansionConfig(top, cfg.center, cfg.valid_radius)
        (tail,) = source_coeff_matrix(sources, [(wide, freq)], room)
        rim = specfun.bessel_j_orders(top, freq.wavenumber * cfg.valid_radius)
        eps = _truncation_errors(tail, sources, cfg, rim)
        direct = column_errors(grid, config.region, sources, coeff, cfg, freq, room)
        ratio = eps / direct
        assert np.all((ratio >= 1.0) & (ratio <= ESTIMATE_OVER)), (freq.hz, ratio)


def test_truncation_estimate_brackets_direct_error_in_every_paper_bin():
    config = paper_config(broadband=True)
    problems = build_problems(config)
    union = sorted({i for p in _paper_placements(config, problems) for i in p})
    bins = [(p.cfg, p.freq, p.coeff[:, union]) for p in problems]
    sources = config.candidate_positions()[union]
    _assert_estimate_brackets_direct(config, sources, bins, config.room_model())


@pytest.mark.parametrize("room", [False, True], ids=["free-field", "room"])
def test_truncation_estimate_brackets_direct_error_near_the_region(room):
    # sources at 1.02, 1.1, 1.3 and 2 R in four directions, from a
    # truncation error near 0.2 down to 1e-6
    config = paper_config()
    room = config.room_model() if room else None
    center, radius = np.array(config.region.center), config.region.radius
    angle = np.radians([10.0, 100.0, 190.0, 280.0])
    sources = np.concatenate([
        center + f * radius * np.c_[np.cos(angle), np.sin(angle)] for f in (1.02, 1.1, 1.3, 2.0)
    ])
    bins = []
    for hz in (300.0, 1000.0, 2000.0, 4000.0):
        freq = Frequency(hz, sound_speed=config.sound_speed)
        cfg = expansion_for(config.region, freq)
        bins.append((cfg, freq, source_coeff_matrix(sources, [(cfg, freq)], room)[0]))
    _assert_estimate_brackets_direct(config, sources, bins, room)


def _assert_paper_evaluation_work_is_bounded(tmp_path, monkeypatch, desired=None):
    # run_evaluate builds no placement problem: per bin one Graf build of
    # the selected sources only, order M + 6 for both the solve and the
    # truncation check (54 sources x 221 images = 11,934 Hankel arguments),
    # not a transfer at grid points (1.5M arguments). A point-source target is one more column of that build,
    # then taken to order M + 12 to project it (12,155 arguments); a
    # plane-wave target adds no column
    config = paper_config(output_dir=str(tmp_path))
    if desired is not None:
        doc = config.to_dict()
        doc["evaluation"].update(desired="point_source", desired_position=list(desired))
        config = ExperimentConfig.from_dict(doc)
    proposed = place_greedy(config).indices
    arguments, builds = [], []
    seeds, graf = specfun._seeds, source_coeff_matrix

    def counted_seeds(x, *args, **kwargs):
        arguments.append(np.size(x))
        return seeds(x, *args, **kwargs)

    def counted_graf(positions, bins, *args, **kwargs):
        builds.append((np.array(positions), [(cfg.max_order, freq.hz) for cfg, freq in bins]))
        return graf(positions, bins, *args, **kwargs)

    def no_problems(*args, **kwargs):
        raise AssertionError("evaluation built placement problems")

    monkeypatch.setattr(specfun, "_seeds", counted_seeds)
    monkeypatch.setattr(experiment, "source_coeff_matrix", counted_graf)
    monkeypatch.setattr(experiment, "build_problems", no_problems)
    info = experiment.run_evaluate(config, indices=proposed)
    assert len(info["rows"]) == 3 * len(experiment._eval_angles(config))
    assert info["truncation_error"] > 0.0
    union = sorted({i for idx in info["placements"].values() for i in idx})
    assert len(union) == 54
    ((positions, bins),) = builds
    ((cfg, freq),) = experiment._bins(config)
    extra = experiment.TAIL_ORDERS if desired is None else experiment.GRID_ORDERS
    assert bins == [(cfg.max_order + extra, 1000.0)]
    want = config.candidate_positions()[union]
    if desired is not None:
        want = np.vstack([want, [desired]])
    np.testing.assert_array_equal(positions, want)
    assert sum(arguments) < 15_000


def test_paper_evaluation_work_is_bounded(tmp_path, monkeypatch):
    _assert_paper_evaluation_work_is_bounded(tmp_path, monkeypatch)


def test_point_source_evaluation_work_is_bounded(tmp_path, monkeypatch):
    # the desired field once came from a direct transfer at the 7845 grid
    # points (7845 x 221 = 1.7M Hankel arguments)
    _assert_paper_evaluation_work_is_bounded(tmp_path, monkeypatch, desired=(-1.2, -0.7))


def test_point_source_evaluation_makes_one_graf_build(tmp_path, monkeypatch):
    # one build over the bin list; the desired source is one more column
    # of the union's build, taken to the grid basis' order M + GRID_ORDERS;
    # its middle K rows match a separate order-M build of the source alone
    doc = _tiny_paper(tmp_path, broadband=True).to_dict()
    doc["evaluation"] = {"desired": "point_source", "desired_position": [-1.2, -0.7],
                         "grid_spacing": 0.05}
    config = ExperimentConfig.from_dict(doc)
    proposed = place_greedy(config).indices
    builds = []
    graf = source_coeff_matrix

    def counted_graf(positions, bins, *args, **kwargs):
        builds.append((np.array(positions), [freq.hz for _, freq in bins]))
        return graf(positions, bins, *args, **kwargs)

    monkeypatch.setattr(experiment, "source_coeff_matrix", counted_graf)
    info = experiment.run_evaluate(config, indices=proposed)
    assert [hz for _, hz in builds] == [list(config.frequencies)]
    union = sorted({i for idx in info["placements"].values() for i in idx})
    want = np.vstack([config.candidate_positions()[union], [[-1.2, -0.7]]])
    ((positions, _),) = builds
    np.testing.assert_array_equal(positions, want)
    grid = region_grid(config.region, spacing=0.05)
    room = config.room_model()
    for ev in experiment._evaluations(config, grid, info["placements"]):
        (alone,) = graf([[-1.2, -0.7]], [(ev.cfg, ev.freq)], room)
        assert np.max(np.abs(ev.targets - alone)) <= 1e-12 * np.linalg.norm(alone)


@pytest.mark.parametrize("desired", [None, (-1.2, -0.7)])
def test_grid_evaluation_matches_the_whole_basis(tmp_path, monkeypatch, desired):
    # each bin's gram, cross and energy, from the lattice's D4 wedge,
    # against the products of the whole basis B_x (order M + GRID_ORDERS)
    # with its middle K rows B: P = conj(B) B_x^T, Gm its middle K columns,
    # X = P t_x, and the energy of the grid field B_x^T t_x (plane waves:
    # the point count G). Grid points per bin: 1961; the top bin's wide
    # basis takes two 2 MB blocks in a point-source dump
    doc = _tiny_paper(tmp_path, broadband=True).to_dict()
    doc["evaluation"]["grid_spacing"] = 0.02
    if desired is not None:
        doc["evaluation"] = {"desired": "point_source", "desired_position": list(desired),
                             "grid_spacing": 0.02}
    config = ExperimentConfig.from_dict(doc)
    placements = {"regular_b": baseline_indices(config, "regular_b")}
    seen = []
    init = experiment._GridEvaluation.__init__

    def spy(self, *args):
        init(self, *args)
        seen.append((self, args))

    monkeypatch.setattr(experiment._GridEvaluation, "__init__", spy)
    evaluate_placements(config, placements)
    assert len(seen) == 3
    for ev, (_, cfg, freq, grid, angles, column, cols, _, _) in seen:
        wide = ExpansionConfig(cfg.max_order + GRID_ORDERS, cfg.center, cfg.valid_radius)
        whole = _basis_matrix(wide, grid, freq)
        proj = whole[GRID_ORDERS : GRID_ORDERS + cfg.size].conj() @ whole.T
        if desired is None:
            wave = planewave_coeffs(wide, freq, np.radians(angles))
            energy = np.full(len(angles), float(len(grid)))
        else:
            wave = cols[:, len(column) :]
            field = whole.T @ wave
            energy = np.sum(np.abs(field) ** 2, axis=0)
            # the dumps' desired field, formed in blocks of the wide basis
            assert np.max(np.abs(ev.grid_fields()[0] - field)) <= 1e-13 * np.max(np.abs(field))
        want = (proj[:, GRID_ORDERS : GRID_ORDERS + cfg.size], proj @ wave, energy)
        for got, w in zip((ev.gram, ev.cross, ev.energy), want):
            assert np.max(np.abs(got - w)) <= 1e-13 * np.max(np.abs(w))


def _placements(config, problems):
    return dict(zip(("proposed", *config.baselines), _paper_placements(config, problems)))


def _exact_desired(config, grid, freq, angles):
    # the desired field sampled on the grid: plane waves, or the point
    # source's direct image-source transfer
    ev = config.evaluation
    if ev.desired == "point_source":
        return direct_transfer(grid, [ev.desired_position], freq, config.room_model())
    return experiment._plane_waves(grid, freq, angles)


def _assert_coefficient_sdrs_match_grid(config, placements):
    # every row of the table against oracles.sdr on the grid fields (the
    # exact desired field and the order-M expansion of each placement),
    # within 1e-9 dB
    rows, _ = evaluate_placements(config, placements)
    got = {(r[3], r[1], r[0]): r[2] for r in rows}
    angles = experiment._eval_angles(config)
    bins = experiment._bins(config)
    assert len(got) == len(rows) == len(placements) * len(bins) * len(angles)
    grid = region_grid(config.region, spacing=config.evaluation.grid_spacing)
    for ev in experiment._evaluations(config, grid, placements):
        basis = ev.grid_fields()[1]
        desired = _exact_desired(config, grid, ev.freq, angles)
        for name, idx in placements.items():
            want = np.atleast_1d(sdr(desired, basis.T @ ev.coefficients(idx)))
            have = [got[(name, ev.freq.hz, a)] for a in angles]
            assert np.max(np.abs(np.array(have) - want)) <= 1e-9, (name, ev.freq.hz)


def test_coefficient_sdrs_match_grid_sdrs_on_the_paper_narrowband_problem():
    # 3 placements x 91 angles; measured max difference 1.6e-12 dB
    config = paper_config()
    _assert_coefficient_sdrs_match_grid(config, _placements(config, build_problems(config)))


def _assert_point_source_sdrs_match_grid(room):
    # a point-source desired field is projected from its own Graf column to
    # order M + GRID_ORDERS, and its energy taken from that expansion on
    # the grid; the SDRs hold against the exact sampled field (measured max
    # difference 7.8e-12 dB in free field, 2.7e-13 dB in the room)
    doc = _tiny_paper("unused", broadband=True, room=room).to_dict()
    doc["evaluation"] = {"desired": "point_source", "desired_position": [-1.2, -0.7],
                         "grid_spacing": 0.02}
    config = ExperimentConfig.from_dict(doc)
    _assert_coefficient_sdrs_match_grid(config, _placements(config, build_problems(config)))


def test_coefficient_sdrs_match_grid_sdrs_for_a_point_source_in_a_room():
    _assert_point_source_sdrs_match_grid(room=True)


def test_coefficient_sdrs_match_grid_sdrs_for_a_point_source_in_free_field():
    _assert_point_source_sdrs_match_grid(room=False)


@pytest.mark.parametrize("factor, fails", [(1.1, True), (2.0, False)])
def test_truncation_check_covers_the_desired_source(tmp_path, factor, fails):
    # a desired source at 1.1 R: its order-M targets misrepresent it on the
    # rim (estimate 0.024 at 1 kHz), so evaluation stops and names it; at
    # 2 R its column passes and the run completes
    config = _tiny_paper(tmp_path, broadband=False)
    (cx, cy), radius = config.region_center, config.region_radius
    position = [cx - factor * radius, cy]
    doc = config.to_dict()
    doc["evaluation"] = {"desired": "point_source", "desired_position": position,
                         "grid_spacing": 0.05}
    config = ExperimentConfig.from_dict(doc)
    proposed = place_greedy(config).indices
    if not fails:
        assert experiment.run_evaluate(config, indices=proposed)["truncation_error"] < 1e-5
        return
    with pytest.raises(experiment.TruncationError) as info:
        experiment.run_evaluate(config, indices=proposed)
    msg = str(info.value)
    assert float(msg.split("error ")[1].split()[0]) > experiment.TRUNCATION_TOL
    assert "desired source at (%.6g, %.6g)" % tuple(position) in msg
    assert not (tmp_path / "sdr.csv").exists()


def test_paper_evaluation_memory_is_bounded():
    # the grid enters only through K-sized products, and its basis only
    # over the lattice's D4 wedge (1024 of 7845 points): no grid field per
    # placement and angle (7845 x 91, 45.4 MB) and no whole-grid basis (the
    # basis 12 orders past M, 8.2 MB at 1 kHz and 10.4 MB at 2 kHz, K = 59).
    # Traced peak measured 2.30 MB at 1 kHz and 2.79 MB at 2 kHz; with the
    # whole basis at once it was 11.3 and 14.1 MB.
    for hz in (1000.0, 2000.0):
        config = dataclasses.replace(paper_config(), frequencies=(hz,))
        placements = _placements(config, build_problems(config))
        (rows, _), peak = traced_peak(evaluate_placements, config, placements)
        assert len(rows) == 3 * len(config.evaluation.angles_deg)
        assert peak < 4e6, hz


def test_greedy_beats_the_regular_placements_under_every_method():
    # the paper's generality claim: one cost serves pressure matching, mode
    # matching and weighted mode matching. On the 1 kHz paper problem, under
    # each method's own weight, greedy's placement P has the lowest J and the
    # highest angle-mean SDR, then A, then B (measured J 0.01261, 9.351,
    # 0.01090 for P against 0.02273, 12.06, 0.01914 for A and 0.03041,
    # 21.49, 0.02472 for B)
    failures = []
    for method in ("wmm", "mode-matching", "pressure-matching"):
        config = dataclasses.replace(paper_config(), method=method)
        problems = build_problems(config)
        placements = _placements(config, problems)
        spec = experiment.to_broadband_spec(problems)
        j = {n: broadband_cost(spec, idx, config.lambda_select) for n, idx in placements.items()}
        rows = evaluate_placements(config, placements).rows
        mean = {n: float(np.mean([r[2] for r in rows if r[3] == n])) for n in placements}
        p, a, b = (mean[n] for n in ("proposed", "regular_a", "regular_b"))
        print("%s: angle-mean SDR P/A/B %.2f/%.2f/%.2f dB (P - A %.2f, A - B %.2f); "
              "J P/A/B %.4g/%.4g/%.4g" % (method, p, a, b, p - a, a - b, j["proposed"],
                                         j["regular_a"], j["regular_b"]))
        if not (p > a > b and j["proposed"] < min(j["regular_a"], j["regular_b"])):
            failures.append(method)
    assert not failures, failures
