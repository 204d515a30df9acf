import json
import math

import numpy as np
import pytest

from sfsplace.config import (
    CandidateSpec,
    EvalSpec,
    ExperimentConfig,
    PriorSpec,
    RoomSpec,
    apply_env_overrides,
    load_config,
    square_loop,
)
from sfsplace.experiment import paper_config


def _toy_doc(**over):
    doc = {
        "candidates": {"square": {"size": 2.0, "count": 12}},
        "region": {"center": [0.0, 0.0], "radius": 0.3},
        "prior": {"angle_min_deg": -45.0, "angle_max_deg": 45.0},
        "frequencies": [500.0],
        "n_select": 3,
    }
    doc.update(over)
    return doc


# ---------------------------------------------------------------------------
# candidate generator


def test_square_loop_octagon_positions():
    pts = square_loop(2.0, 8)
    want = [
        (-1, -1), (0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
    ]
    np.testing.assert_allclose(pts, want, atol=1e-12)


def test_square_loop_matches_per_side_construction():
    t = 0.06 * np.arange(50)
    want = np.vstack(
        [
            np.c_[t - 1.5, np.full(50, -1.5)],
            np.c_[np.full(50, 1.5), t - 1.5],
            np.c_[1.5 - t, np.full(50, 1.5)],
            np.c_[np.full(50, -1.5), 1.5 - t],
        ]
    )
    np.testing.assert_allclose(square_loop(3.0, 200), want, atol=1e-12)


def test_square_loop_uniform_arclength_and_center():
    pts = square_loop(1.0, 10, center=(2.0, -1.0))
    gaps = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
    # closing the loop: total perimeter 4, count 10 -> every gap 0.4
    # except where the path turns a corner mid-step
    assert np.all(gaps <= 0.4 + 1e-12)
    assert math.isclose(float(gaps.sum()), 4.0, rel_tol=0, abs_tol=0.3)
    np.testing.assert_allclose(pts.mean(axis=0), [2.0, -1.0], atol=0.15)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_toy():
    config = ExperimentConfig.from_dict(_toy_doc())
    again = ExperimentConfig.from_json(config.to_json())
    assert again == config
    assert json.loads(again.to_json()) == json.loads(config.to_json())


def test_round_trip_full_featured():
    doc = _toy_doc(
        room={"size_x": 4.0, "size_y": 3.0, "reflection": [0.5, 0.6, 0.7, 0.8],
              "max_reflection_order": 4},
        gamma=[2.0],
        min_decrease=1e-4,
        method="pressure-matching",
        pm_control_spacing=0.1,
        baselines=["regular_a", "regular_b"],
        evaluation={"angles_deg": [0.0, 10.0], "grid_spacing": 0.02,
                    "write_fields": True, "desired": "point_source",
                    "desired_position": [-1.0, 0.0], "placement": [0, 3, 5]},
        lambda_select=3e-4,
        sound_speed=340.0,
        output_dir="elsewhere",
    )
    config = ExperimentConfig.from_dict(doc)
    assert ExperimentConfig.from_json(config.to_json()) == config


def test_round_trip_paper_config():
    config = paper_config()
    assert ExperimentConfig.from_json(config.to_json()) == config
    assert len(config.frequencies) == 1
    bb = paper_config(broadband=True)
    assert bb.frequencies == tuple(float(f) for f in range(100, 2001, 100))
    assert bb.gamma == (1.0,) * 20


def test_sweep_shorthand_resolution():
    doc = _toy_doc(frequencies={"start": 100, "stop": 2000, "step": 100})
    config = ExperimentConfig.from_dict(doc)
    assert config.frequencies == tuple(float(f) for f in range(100, 2001, 100))
    doc = _toy_doc(evaluation={"angles_deg": {"start": -45, "stop": 45, "step": 1}})
    config = ExperimentConfig.from_dict(doc)
    assert config.evaluation.angles_deg == tuple(float(a) for a in range(-45, 46))
    # resolved form re-emits as an explicit list
    assert json.loads(config.to_json())["evaluation"]["angles_deg"][0] == -45.0


def test_gamma_scalar_broadcast():
    doc = _toy_doc(frequencies=[500.0, 800.0], gamma=3.0)
    assert ExperimentConfig.from_dict(doc).gamma == (3.0, 3.0)


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize(
    "mutate",
    [
        {"n_select": 0},
        {"n_select": 13},
        {"method": "magic"},
        {"baselines": ["regular_c"]},
        {"frequencies": []},
        {"frequencies": [0.0]},
        {"gamma": [1.0, 2.0]},
        {"lambda_select": 0.0},
        {"sound_speed": -1.0},
        {"region": {"center": [0.0, 0.0], "radius": -0.3}},
        {"bogus_key": 1},
        {"pm_control_spacing": 0.0},
        {"evaluation": {"desired": "point_source"}},
        {"evaluation": {"desired": "plane_wave", "desired_position": [0.0, 0.0]}},
        {"prior": {"angle_min_deg": 45.0, "angle_max_deg": -45.0}},
    ],
)
def test_invalid_documents_raise(mutate):
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(_toy_doc(**mutate))


@pytest.mark.parametrize("position", [(0.5, 0.3), (0.9, 0.3), (0.5, 0.8)],
                         ids=["center", "interior", "rim"])
def test_point_source_inside_or_on_the_region_is_rejected_at_load(position):
    # the Graf builder would reject it only at evaluation
    doc = paper_config().to_dict()
    doc["evaluation"].update(desired="point_source", desired_position=list(position))
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(doc)
    msg = str(err.value)
    assert "evaluation.desired_position" in msg
    assert "(%g, %g)" % position in msg and "center (0.5, 0.3), radius 0.5" in msg


@pytest.mark.parametrize("position", [(2.0, 0.0), (1.5, 0.0), (0.0, -1.3)],
                         ids=["outside", "on-side-wall", "on-bottom-wall"])
def test_point_source_outside_the_room_is_rejected_at_load(position):
    # the Graf builder would reject it only at evaluation, under a column
    # index the user never gave
    room = {"size_x": 3.0, "size_y": 2.6, "reflection": 0.5}
    doc = _toy_doc(room=room, evaluation={"desired": "point_source",
                                          "desired_position": list(position)})
    with pytest.raises(ValueError) as err:
        ExperimentConfig.from_dict(doc)
    msg = str(err.value)
    assert "evaluation.desired_position" in msg and "(%g, %g)" % position in msg
    assert "room" in msg
    doc["evaluation"]["desired_position"] = [1.4, 0.0]
    assert ExperimentConfig.from_dict(doc).evaluation.desired_position == (1.4, 0.0)


@pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_negative_or_non_finite_min_decrease_is_rejected_at_load(value, tmp_path):
    # neither would ever stop greedy: place would select every candidate
    with pytest.raises(ValueError, match="min_decrease"):
        ExperimentConfig.from_dict(_toy_doc(min_decrease=value))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_toy_doc()))
    with pytest.raises(ValueError, match="min_decrease"):
        load_config(str(path), environ={"SFSPLACE_MIN_DECREASE": repr(value)})


def test_zero_min_decrease_loads():
    assert ExperimentConfig.from_dict(_toy_doc(min_decrease=0.0)).min_decrease == 0.0


def test_point_source_outside_the_region_loads():
    doc = paper_config().to_dict()
    doc["evaluation"].update(desired="point_source", desired_position=[1.5, 0.3])
    assert ExperimentConfig.from_dict(doc).evaluation.desired_position == (1.5, 0.3)


_ROOM = {"size_x": 4.0, "size_y": 3.0, "reflection": 0.5}


@pytest.mark.parametrize(
    "mutate, key",
    [
        ({"prior": {"angle_mn_deg": -45.0, "angle_max_deg": 45.0}}, "angle_mn_deg"),
        ({"prior": {"angle_min_deg": -45.0}}, "angle_max_deg"),
        ({"prior": [-45.0, 45.0]}, "prior"),
        ({"room": dict(_ROOM, max_order=2)}, "max_order"),
        ({"room": {"size_x": 4.0, "reflection": 0.5}}, "size_y"),
        ({"evaluation": {"angles": [0.0]}}, "angles"),
        ({"region": {"center": [0.0, 0.0]}}, "radius"),
        ({"region": {"center": [0.0, 0.0], "radius": 0.3, "radus": 0.2}}, "radus"),
        ({"candidates": {"square": {"count": 12}}}, "size"),
        ({"candidates": {"square": {"size": 2.0, "count": 12, "centre": [0, 0]}}}, "centre"),
        ({"candidates": {"positions": [[1.5, 0.0]], "extra": 1}}, "extra"),
        ({"frequencies": {"start": 100.0, "stop": 200.0}}, "step"),
        ({"frequencies": 500.0}, "frequencies"),
        ({"evaluation": {"angles_deg": {"start": 0.0, "step": 1.0}}}, "stop"),
    ],
)
def test_malformed_nested_keys_name_the_key(mutate, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(_toy_doc(**mutate))


@pytest.mark.parametrize(
    "mutate, key",
    [
        ({"n_select": 2.7}, "n_select"),
        ({"n_select": True}, "n_select"),
        ({"n_select": "3"}, "n_select"),
        ({"candidates": {"square": {"size": 2.0, "count": 10.5}}}, "count"),
        ({"candidates": {"square": {"size": 2.0, "count": True}}}, "count"),
        ({"room": dict(_ROOM, max_reflection_order=2.5)}, "max_reflection_order"),
        ({"room": dict(_ROOM, max_reflection_order=False)}, "max_reflection_order"),
        ({"evaluation": {"placement": [0, 1.5]}}, "placement"),
        ({"evaluation": {"placement": [0, True]}}, "placement"),
        ({"evaluation": {"write_fields": "no"}}, "write_fields"),
        ({"evaluation": {"write_fields": 1}}, "write_fields"),
        ({"sound_speed": True}, "sound_speed"),
        ({"frequencies": [True]}, "frequencies"),
        ({"room": dict(_ROOM, reflection=True)}, "room.reflection"),
        ({"lambda_select": "1e-3"}, "lambda_select"),
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": None}, "output_dir"),
    ],
)
def test_integer_and_boolean_fields_are_not_truncated(mutate, key):
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(_toy_doc(**mutate))


def test_integral_floats_are_accepted_as_integers():
    config = ExperimentConfig.from_dict(
        _toy_doc(
            n_select=3.0,
            room=dict(_ROOM, max_reflection_order=2.0),
            evaluation={"placement": [0.0, 4.0], "write_fields": False},
        )
    )
    assert config.n_select == 3 and isinstance(config.n_select, int)
    assert config.room.max_reflection_order == 2
    assert config.evaluation.placement == (0, 4)


def test_geometry_must_fit_the_room():
    room = {"size_x": 4.0, "size_y": 3.0, "reflection": [0.5] * 4}
    ExperimentConfig.from_dict(_toy_doc(room=room))  # fits
    with pytest.raises(ValueError, match="region"):
        ExperimentConfig.from_dict(
            _toy_doc(room=room, region={"center": [1.8, 0.0], "radius": 0.3})
        )
    with pytest.raises(ValueError, match="outside the room"):
        ExperimentConfig.from_dict(
            _toy_doc(room={"size_x": 1.5, "size_y": 3.0, "reflection": [0.5] * 4},
                     region={"center": [0.0, 0.0], "radius": 0.2})
        )


def test_candidates_may_not_touch_the_region():
    # nearest candidate of the 12-point loop sits 1.054 m from the origin
    with pytest.raises(ValueError, match="intersects"):
        ExperimentConfig.from_dict(
            _toy_doc(region={"center": [0.0, 0.0], "radius": 1.2})
        )


def test_candidate_spec_exclusive_forms():
    with pytest.raises(ValueError):
        CandidateSpec()
    with pytest.raises(ValueError):
        CandidateSpec(square_size=1.0, square_count=8, positions=((0.0, 0.0),))
    explicit = CandidateSpec(positions=((1.0, 0.0), (0.0, 1.0)))
    assert explicit.count == 2
    np.testing.assert_array_equal(explicit.resolve(), [[1.0, 0.0], [0.0, 1.0]])


def test_room_scalar_reflection_broadcasts():
    spec = RoomSpec(4.0, 3.0, 0.5)
    assert spec.reflection == (0.5, 0.5, 0.5, 0.5)
    model = spec.to_model()
    assert model.reflection == (0.5, 0.5, 0.5, 0.5)


# ---------------------------------------------------------------------------
# environment overrides


def test_env_overrides_scalars():
    doc = _toy_doc(lambda_select=1e-5)
    out = apply_env_overrides(
        doc,
        environ={
            "SFSPLACE_LAMBDA_SELECT": "7e-4",
            "SFSPLACE_N_SELECT": "2",
            "SFSPLACE_PRIOR__ANGLE_MIN_DEG": "-30.0",
            "UNRELATED": "1",
        },
    )
    assert out["lambda_select"] == 7e-4
    assert out["n_select"] == 2
    assert out["prior"]["angle_min_deg"] == -30.0
    assert doc.get("lambda_select") == 1e-5  # original untouched
    config = ExperimentConfig.from_dict(out)
    assert config.lambda_select == 7e-4 and config.prior.angle_min_deg == -30.0


def test_env_override_strings_pass_through():
    out = apply_env_overrides(
        _toy_doc(method="wmm", output_dir="x"),
        environ={"SFSPLACE_METHOD": "mode-matching", "SFSPLACE_OUTPUT_DIR": "y"},
    )
    assert out["method"] == "mode-matching"
    assert out["output_dir"] == "y"


def test_env_override_unknown_key_raises():
    with pytest.raises(ValueError, match="SFSPLACE_TYPO"):
        apply_env_overrides(_toy_doc(), environ={"SFSPLACE_TYPO": "1"})
    # list-valued keys are not scalar, so they are not overridable
    with pytest.raises(ValueError):
        apply_env_overrides(_toy_doc(), environ={"SFSPLACE_FREQUENCIES": "[1.0]"})


@pytest.mark.parametrize(
    "name, raw",
    [
        ("SFSPLACE_N_SELECT", "2.7"),
        ("SFSPLACE_N_SELECT", "true"),
        ("SFSPLACE_CANDIDATES__SQUARE__COUNT", "10.5"),
        ("SFSPLACE_EVALUATION__WRITE_FIELDS", "no"),
        ("SFSPLACE_LAMBDA_SELECT", "true"),
        ("SFSPLACE_SOUND_SPEED", '"343"'),
        ("SFSPLACE_METHOD", "null"),
    ],
)
def test_env_overrides_pass_the_same_checks(tmp_path, name, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_toy_doc()))
    with pytest.raises(ValueError, match=name[len("SFSPLACE_"):].split("__")[-1].lower()):
        load_config(str(path), environ={name: raw})


@pytest.mark.parametrize("raw", ["5", "true", "null"])
def test_string_env_overrides_take_the_raw_value(tmp_path, raw):
    # a string-typed key is never parsed as JSON: 5, true and null stay strings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_toy_doc()))
    assert load_config(str(path), environ={"SFSPLACE_OUTPUT_DIR": raw}).output_dir == raw
    doc = _toy_doc(method="wmm")
    assert apply_env_overrides(doc, environ={"SFSPLACE_METHOD": raw})["method"] == raw
    with pytest.raises(ValueError, match="method must be one of"):
        load_config(str(path), environ={"SFSPLACE_METHOD": raw})


def test_load_config_applies_environment(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_toy_doc()))
    config = load_config(str(path), environ={"SFSPLACE_LAMBDA_SELECT": "3e-4"})
    assert config.lambda_select == 3e-4
    assert load_config(str(path), environ={}).lambda_select == 1e-5


def test_env_overrides_set_optional_keys_the_file_omits(tmp_path):
    # min_decrease and pm_control_spacing default to None and are left out
    # of the resolved document, yet stay overridable
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_toy_doc()))
    assert "min_decrease" not in load_config(str(path), environ={}).to_dict()
    config = load_config(
        str(path),
        environ={"SFSPLACE_MIN_DECREASE": "1e-4", "SFSPLACE_PM_CONTROL_SPACING": "0.05"},
    )
    assert config.min_decrease == 1e-4
    assert config.pm_control_spacing == 0.05
