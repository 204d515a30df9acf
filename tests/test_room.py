import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from sfsplace import specfun
from sfsplace.config import ExperimentConfig, square_loop
from sfsplace.room import RoomModel, _image_table, _images
from sfsplace.synthesis import source_coeff_matrix
from sfsplace.wavefield import CircularRegion, Frequency, Point2, _basis_matrix, expansion_for

import oracles
from oracles import direct_transfer

F1K = Frequency(1000.0)
# asymmetric everything so axis/wall mixups cannot cancel
ROOM = RoomModel(2.0, 2.0, (0.5, 0.6, 0.7, 0.8), max_reflection_order=2)
STUDY_ROOM = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=3)
PAPER_ROOM = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=10)


def _image_list(room, source):
    # (x, y, gain, reflection count) of each image of one source, direct first
    pos, gains = _images([source], room)
    return list(zip(*pos[0].T.tolist(), gains.tolist(), _image_table(room).order.tolist()))


def _green(points, source, freq):
    # free-field (i/4) H_0^(1)(k d) from scipy at each point
    d = np.hypot(*(np.asarray(points, dtype=float) - source).T)
    return 0.25j * scipy.special.hankel1(0, freq.wavenumber * d)


def _unfold_images(room, source, max_order):
    # oracle: grow the image set by literally mirroring across each wall,
    # keeping the first (minimal reflection count) arrival at a position
    walls = [
        (0, -0.5 * room.size_x, room.reflection[0]),
        (0, 0.5 * room.size_x, room.reflection[1]),
        (1, -0.5 * room.size_y, room.reflection[2]),
        (1, 0.5 * room.size_y, room.reflection[3]),
    ]

    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    seen = {key(source)}
    out = [(source[0], source[1], 1.0, 0)]
    frontier = [(tuple(source), 1.0)]
    for count in range(1, max_order + 1):
        grown = []
        for pos, gain in frontier:
            for axis, wall, beta in walls:
                mirrored = list(pos)
                mirrored[axis] = 2.0 * wall - pos[axis]
                mirrored = tuple(mirrored)
                if key(mirrored) in seen:
                    continue
                seen.add(key(mirrored))
                grown.append((mirrored, gain * beta))
                if gain * beta != 0.0:
                    out.append((mirrored[0], mirrored[1], gain * beta, count))
        frontier = grown
    return out


def _as_multiset(items):
    return sorted((round(x, 9), round(y, 9), round(g, 12), c) for (x, y, g, c) in items)


def test_order_zero_is_free_field():
    room = RoomModel.uniform(5.0, 4.0, 0.9, max_reflection_order=0)
    src = (1.0, -0.5)
    assert _image_list(room, src) == [(1.0, -0.5, 1.0, 0)]
    rcv = (-0.7, 0.4)
    assert direct_transfer([rcv], [src], F1K, room)[0, 0] == pytest.approx(
        direct_transfer([rcv], [src], F1K)[0, 0]
    )


def test_hand_enumerated_two_by_two_room():
    # 2 x 2 room, source (0.3, -0.4), all images with at most two bounces
    imgs = _image_list(ROOM, (0.3, -0.4))
    expected = [
        (0.3, -0.4, 1.0, 0),
        # one bounce
        (-2.3, -0.4, 0.5, 1),   # left
        (1.7, -0.4, 0.6, 1),    # right
        (0.3, -1.6, 0.7, 1),    # bottom
        (0.3, 2.4, 0.8, 1),     # top
        # two bounces, same axis
        (4.3, -0.4, 0.30, 2),   # left+right, shifted right
        (-3.7, -0.4, 0.30, 2),  # left+right, shifted left
        (0.3, 3.6, 0.56, 2),    # bottom+top, shifted up
        (0.3, -4.4, 0.56, 2),   # bottom+top, shifted down
        # two bounces, one per axis
        (-2.3, -1.6, 0.35, 2),
        (-2.3, 2.4, 0.40, 2),
        (1.7, -1.6, 0.42, 2),
        (1.7, 2.4, 0.48, 2),
    ]
    assert _as_multiset(imgs) == _as_multiset(expected)


@pytest.mark.parametrize(
    "seed,order",
    [pytest.param(seed, 5, id=str(seed)) for seed in range(3)]
    + [pytest.param(seed, 10, id="%d-order10" % seed) for seed in range(3)],
)
def test_images_match_unfolding_oracle(seed, order):
    # order 10 is the study's reflection order
    rng = np.random.default_rng(seed)
    room = RoomModel(
        float(rng.uniform(1.5, 6.0)),
        float(rng.uniform(1.5, 6.0)),
        tuple(rng.uniform(0.05, 1.0, 4)),
        max_reflection_order=order,
    )
    src = (
        float(rng.uniform(-0.45, 0.45) * room.size_x),
        float(rng.uniform(-0.45, 0.45) * room.size_y),
    )
    got = _image_list(room, src)
    assert _as_multiset(got) == _as_multiset(_unfold_images(room, src, order))


@pytest.mark.parametrize("order,count", [(0, 1), (1, 5), (2, 13), (10, 221)])
def test_image_count_by_order(order, count):
    # shell t >= 1 holds 4t images, so 1 + 4 * order(order+1)/2 in total
    room = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=order)
    assert len(_image_list(room, (0.5, 0.3))) == count


def test_direct_source_first_and_orders_sorted():
    imgs = _image_list(STUDY_ROOM, (-1.5, -1.5))
    assert imgs[0] == (-1.5, -1.5, 1.0, 0)
    orders = [im[3] for im in imgs]
    assert orders == sorted(orders)


def test_zero_reflection_walls_prune_images():
    dead = RoomModel.uniform(4.0, 3.0, 0.0, max_reflection_order=10)
    assert len(_image_list(dead, (1.0, 1.0))) == 1
    # only the left wall reflects: the sole surviving image is one bounce off it
    one_wall = RoomModel(4.0, 3.0, (0.5, 0.0, 0.0, 0.0), max_reflection_order=10)
    imgs = _image_list(one_wall, (1.0, 1.0))
    assert len(imgs) == 2
    assert imgs[1] == (-5.0, 1.0, 0.5, 1)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_image_positions_distinct_and_exterior(seed):
    rng = np.random.default_rng(seed)
    room = RoomModel(
        float(rng.uniform(1.0, 8.0)),
        float(rng.uniform(1.0, 8.0)),
        tuple(rng.uniform(0.1, 1.0, 4)),
        max_reflection_order=4,
    )
    src = (
        float(rng.uniform(-0.49, 0.49) * room.size_x),
        float(rng.uniform(-0.49, 0.49) * room.size_y),
    )
    imgs = _image_list(room, src)
    keys = {(round(x, 9), round(y, 9)) for x, y, _, _ in imgs}
    assert len(keys) == len(imgs)
    assert not room.contains([(x, y) for x, y, _, _ in imgs[1:]]).any()
    for x, y, gain, order in imgs[1:]:
        assert 0.0 < gain <= max(room.reflection) ** order


def test_a_candidate_on_each_wall_is_rejected_by_both_callers():
    # contains is the one containment rule: a point on a wall is outside,
    # for the image table's sources and for the config's candidates alike
    walls = [(2.0, 0.3), (-2.0, 0.3), (0.4, 1.5), (0.4, -1.5)]
    room = RoomModel.uniform(4.0, 3.0, 0.5)
    inside = [(1.0, 1.0), (-1.0, 1.0), (1.0, -1.0)]
    assert room.contains(inside).all()
    assert not room.contains(walls).any()
    assert room.contains(np.nextafter(walls, 0.0)).all()
    for wall in walls:
        with pytest.raises(ValueError, match="source 3 at .* strictly inside the room"):
            _images(inside + [wall], room)
        doc = {
            "candidates": {"positions": [list(p) for p in inside + [wall]]},
            "region": {"center": [0.0, 0.0], "radius": 0.3},
            "prior": {"angle_min_deg": -45.0, "angle_max_deg": 45.0},
            "frequencies": [500.0],
            "n_select": 3,
            "room": {"size_x": 4.0, "size_y": 3.0, "reflection": [0.5] * 4},
        }
        with pytest.raises(ValueError, match=r"candidate \(.*\) lies outside the room"):
            ExperimentConfig.from_dict(doc)


def test_room_transfer_is_gain_weighted_image_sum():
    # the reverberant Graf column is the gain-weighted sum of the free-field
    # columns of the source's images, coefficient by coefficient
    src = (-1.5, -1.5)
    cfg = expansion_for(CircularRegion(Point2(0.5, 0.3), 0.5), F1K)
    (got,) = source_coeff_matrix([src], [(cfg, F1K)], STUDY_ROOM)
    imgs = _image_list(STUDY_ROOM, src)
    (free,) = source_coeff_matrix([im[:2] for im in imgs], [(cfg, F1K)])
    np.testing.assert_allclose(got[:, 0], free @ [im[2] for im in imgs], rtol=1e-12)


def test_room_transfer_mirror_symmetry():
    # physics check: flipping the room left-right (swapping those wall
    # coefficients) and negating all x coordinates must preserve the field
    room = RoomModel(3.0, 2.5, (0.3, 0.9, 0.6, 0.4), max_reflection_order=6)
    flipped = RoomModel(3.0, 2.5, (0.9, 0.3, 0.6, 0.4), max_reflection_order=6)
    src, rcv = (0.7, -0.3), (-0.4, 0.8)
    a = direct_transfer([rcv], [src], F1K, room)[0, 0]
    b = direct_transfer([(-rcv[0], rcv[1])], [(-src[0], src[1])], F1K, flipped)[0, 0]
    assert a == pytest.approx(b, rel=1e-12)


def test_room_transfer_many_matches_scalar():
    src = (0.6, 0.4)
    pts = np.array([[0.0, 0.0], [-0.5, 0.7], [0.3, -0.9]])
    vals = direct_transfer(pts, [src], F1K, ROOM)[:, 0]
    imgs = _image_list(ROOM, src)
    for p, v in zip(pts, vals):
        want = sum(g * _green([p], (x, y), F1K)[0] for x, y, g, _ in imgs)
        assert v == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("room", [None, STUDY_ROOM])
def test_transfer_matrix_columns_are_image_sums(monkeypatch, room):
    # the direct transfer oracle; a tiny block size forces several source
    # blocks per call
    monkeypatch.setattr(oracles, "_TRANSFER_BLOCK", 8)
    srcs = np.array([[-1.5, -1.5], [1.2, 0.9], [0.4, -1.7], [-2.0, 1.1], [1.9, -0.3]])
    pts = np.array([[0.5, 0.3], [0.0, 0.0], [0.9, -0.2], [-0.3, 0.6]])
    got = direct_transfer(pts, srcs, F1K, room)
    assert got.shape == (4, 5)
    for j, s in enumerate(srcs):
        imgs = [(*s, 1.0, 0)] if room is None else _image_list(room, s)
        for i, p in enumerate(pts):
            want = sum(g * _green([p], (x, y), F1K)[0] for x, y, g, _ in imgs)
            assert got[i, j] == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("room", [None, PAPER_ROOM], ids=["free-field", "room-order10"])
def test_transfer_matrix_matches_scipy_direct_transfer(room):
    # sfsplace's order-0 Hankel row against scipy's j0 + i y0, summed over
    # the same images: 100 points in the paper region, 12 sources on the
    # candidate loop, low to high paper frequencies
    rng = np.random.default_rng(11)
    r = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, 100))
    th = rng.uniform(0.0, 2.0 * np.pi, 100)
    pts = np.c_[0.5 + r * np.cos(th), 0.3 + r * np.sin(th)]
    srcs = square_loop(3.0, 200)[::17]
    for hz in (100.0, 1000.0, 2000.0):
        freq = Frequency(hz, sound_speed=343.0)
        pos, gains = _images(srcs, room)
        kd = freq.wavenumber * np.hypot(pts[:, 0, None, None] - pos[..., 0],
                                        pts[:, 1, None, None] - pos[..., 1])
        ((j0, y0),) = specfun.hankel1_rows(0, kd.ravel())
        got = 0.25j * (j0 + 1j * y0).reshape(kd.shape) @ gains
        want = direct_transfer(pts, srcs, freq, room)
        err = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() < 1e-12, (hz, err.max())


def test_room_transfer_coeffs_reproduce_interior_field():
    # expansion of the reverberant field vs the direct image sum, sampled
    # inside the region (order rule leaves an ~1e-6 tail at the very rim)
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    cfg = expansion_for(region, F1K)
    src = (-1.5, -1.5)
    (coeffs,) = source_coeff_matrix([src], [(cfg, F1K)], STUDY_ROOM)
    rng = np.random.default_rng(7)
    r = region.radius * 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 50))
    th = rng.uniform(0.0, 2.0 * np.pi, 50)
    pts = np.c_[region.center.x + r * np.cos(th), region.center.y + r * np.sin(th)]
    approx = _basis_matrix(cfg, pts, F1K).T @ coeffs[:, 0]
    exact = direct_transfer(pts, [src], F1K, STUDY_ROOM)[:, 0]
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(approx - exact)) / scale < 1e-5


def test_room_transfer_coeffs_order_zero_matches_point_source():
    region = CircularRegion(Point2(0.5, 0.3), 0.5)
    cfg = expansion_for(region, F1K)
    room = RoomModel.uniform(5.0, 4.0, 0.8, max_reflection_order=0)
    src = (-1.5, -1.5)
    got = source_coeff_matrix([src], [(cfg, F1K)], room)[0]
    want = source_coeff_matrix([src], [(cfg, F1K)])[0]
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_source_on_or_outside_walls_rejected():
    with pytest.raises(ValueError):
        _images([(2.5, 0.0)], STUDY_ROOM)  # on the right wall
    with pytest.raises(ValueError):
        _images([(0.0, 7.0)], STUDY_ROOM)
    # only a later source is bad: the whole array is checked
    cfg = expansion_for(CircularRegion(Point2(0.5, 0.3), 0.5), F1K)
    for bad in ([2.5, 0.0], [0.0, -2.0], [0.0, 7.0]):
        srcs = np.array([[-1.5, -1.5], [1.2, 0.9], bad])
        with pytest.raises(ValueError, match="source 2 "):
            _images(srcs, STUDY_ROOM)
        with pytest.raises(ValueError, match="source 2 "):
            source_coeff_matrix(srcs, [(cfg, F1K)], STUDY_ROOM)[0]


def test_image_inside_validity_disc_rejected():
    room = RoomModel.uniform(2.0, 2.0, 0.8, max_reflection_order=2)
    region = CircularRegion(Point2(1.1, 0.0), 0.3)
    cfg = expansion_for(region, F1K)
    # (0.75, 0) is 0.35 from the center, outside the disc; its right-wall
    # image lands at (1.25, 0), 0.15 from the center
    source_coeff_matrix([(0.75, 0.0)], [(cfg, F1K)])[0]
    with pytest.raises(ValueError, match=r"\(1\.25, 0\)"):
        source_coeff_matrix([(0.75, 0.0)], [(cfg, F1K)], room)[0]


def test_room_model_validation():
    with pytest.raises(ValueError):
        RoomModel(-1.0, 2.0, (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        RoomModel(2.0, 2.0, (0.5, 0.5, 0.5, 1.5))
    with pytest.raises(ValueError):
        RoomModel(2.0, 2.0, (0.5, 0.5, 0.5, 0.5), max_reflection_order=-1)
    with pytest.raises(ValueError):
        RoomModel(2.0, 2.0, (0.5, 0.5, 0.5))
