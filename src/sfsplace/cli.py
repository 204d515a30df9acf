"""Command line interface.

Subcommands:
  place            greedy placement from a config file
  evaluate         SDR sweep for a stored or configured placement
  reproduce-paper  built-in reverberant study (narrowband + broadband)
  priors           dump the per-frequency prior moments as CSV
  selftest         platform checks (Bessel values, Graf sums, determinism)

place, evaluate and priors take --config FILE and --out DIR (overrides the
configured output directory); evaluate also takes --placement CSV;
reproduce-paper takes only --out DIR. SFSPLACE_* environment variables
override any scalar config key.
"""

from __future__ import annotations

import argparse
import filecmp
import math
import os
import sys
import tempfile

import numpy as np

from .config import ExperimentConfig, load_config
from .experiment import (
    TRUNCATION_TOL,
    _bins,
    read_placement_csv,
    run_evaluate,
    run_place,
    run_reproduce,
    write_csv,
)
from .placement import prior_from_direction_range
from .wavefield import Frequency, expansion_for


def _add_common(p):
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--out", help="output directory (overrides config)")


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    doc = config.to_dict()
    if args.out is not None:
        doc["output_dir"] = args.out
    return ExperimentConfig.from_dict(doc)


def cmd_place(args) -> int:
    config = _load(args)
    info = run_place(config)
    result = info["result"]
    print("selected %d sources: %s" % (len(result.indices), list(result.indices)))
    print("cost %.6g -> %.6g" % (result.cost_trace[0], result.cost_trace[-1]))
    print("wrote %s" % os.path.join(info["out"], "placement.csv"))
    return 0


def cmd_evaluate(args) -> int:
    config = _load(args)
    indices = None
    if args.placement is not None:
        indices = read_placement_csv(args.placement)
    info = run_evaluate(config, indices=indices)
    print("wrote %s (%d rows)" % (os.path.join(info["out"], "sdr.csv"), len(info["rows"])))
    print(
        "expansion truncation error %.2e, Graf-tail estimate (tolerance %g)"
        % (info["truncation_error"], TRUNCATION_TOL)
    )
    return 0


def cmd_reproduce(args) -> int:
    summary = run_reproduce(out_dir=args.out)
    for name, stats in sorted(summary["narrowband"].items()):
        print(
            "narrowband %-10s mean %.2f dB, 0 deg %.2f dB"
            % (name, stats["mean_sdr_db"], stats["sdr_at_0deg_db"])
        )
    print("wrote %s" % os.path.join(args.out, "summary.json"))
    return 0


def cmd_priors(args) -> int:
    config = _load(args)
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    bins = _bins(config)
    for (cfg, freq), prior in zip(bins, prior_from_direction_range(config.prior.to_range(), bins)):
        tag = "%g" % freq.hz
        write_csv(
            os.path.join(out, "prior_mu_f%s.csv" % tag),
            ("m", "re", "im"),
            [
                (str(int(m)), repr(float(v.real)), repr(float(v.imag)))
                for m, v in zip(cfg.orders, prior.mean)
            ],
        )
        rows = []
        for i, m in enumerate(cfg.orders):
            for j, n in enumerate(cfg.orders):
                v = prior.covariance[i, j]
                rows.append(
                    (str(int(m)), str(int(n)), repr(float(v.real)), repr(float(v.imag)))
                )
        write_csv(
            os.path.join(out, "prior_sigma_f%s.csv" % tag), ("m", "n", "re", "im"), rows
        )
    print("wrote prior moments for %d frequencies to %s" % (len(config.frequencies), out))
    return 0


# ---------------------------------------------------------------------------
# selftest: checks whose result can change with the platform's libm or
# BLAS; the platform-independent algebra is left to the tests


def _check_cross_product_identity():
    from . import specfun

    # J and Y of orders 0..21 from one [J_m; Y_m] row stream
    x = np.linspace(0.5, 60.0, 400)
    rows = np.array([row.copy() for row in specfun.hankel1_rows(21, x)])
    j, y = rows[:, 0], rows[:, 1]
    lhs = j[1:] * y[:-1] - j[:-1] * y[1:]
    worst = float(np.max(np.abs(lhs - 2.0 / (math.pi * x))))
    assert worst < 1e-8, "identity residual %g" % worst


def _check_j_upward_vs_miller():
    from . import specfun

    # where every order is below the argument the J block recurs upward
    # from the seeds; Miller's recurrence, started past the largest
    # argument, is the reference (measured worst 3.6e-14)
    for top in (3, 12, 29, 40):
        x = np.linspace(top + 1.0, 2.0 * top + 20.0, 200)
        assert specfun._j_seeded(top, x).all(), "order %d: not all upward" % top
        got = specfun.bessel_j_orders(top, x)
        ref = specfun._j_orders_miller(top, x)
        err = float(np.max(np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)))
        assert err <= 1e-12, "order %d: upward J off Miller's by %g" % (top, err)


def _check_graf_vs_direct():
    from . import specfun
    from .room import RoomModel, _images
    from .synthesis import source_coeff_matrix
    from .wavefield import CircularRegion, Point2

    # six sources around an off-origin region, reflection order 2; the
    # direct sum takes each order's phase from its own exponential and the
    # negative orders from H_{-m} = (-1)^m H_m
    room = RoomModel(5.0, 4.0, (0.8, 0.7, 0.9, 0.6), max_reflection_order=2)
    cx, cy = 0.3, -0.2
    region = CircularRegion(Point2(cx, cy), 0.4)
    freq = Frequency(1500.0)
    cfg = expansion_for(region, freq)
    top = cfg.max_order
    assert top >= 12, "order %d too low to exercise the recurrence" % top
    th = 0.3 + 2.0 * math.pi * np.arange(6) / 6.0
    srcs = np.c_[cx + 1.5 * np.cos(th), cy + 1.5 * np.sin(th)]
    got = source_coeff_matrix(srcs, [(cfg, freq)], room)[0]
    pos, gains = _images(srcs, room)
    dx, dy = pos[..., 0] - cx, pos[..., 1] - cy
    kd = freq.wavenumber * np.hypot(dx, dy)
    h = np.array([j + 1j * y for j, y in specfun.hankel1_rows(top, kd.ravel())])
    h = h.reshape((top + 1,) + kd.shape)
    phi = np.arctan2(dy, dx)
    want = np.empty_like(got)
    for m in range(-top, top + 1):
        hm = h[m] if m >= 0 else (-1) ** m * h[-m]
        want[top + m] = 0.25j * np.sum(gains * hm * np.exp(-1j * m * phi), axis=1)
    err = np.max(np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0))
    assert err < 1e-12, "Graf coefficients off the direct sum by %g" % err


def _toy_config(out):
    return ExperimentConfig.from_dict(
        {
            "candidates": {"square": {"size": 2.0, "count": 10}},
            "region": {"center": [0.0, 0.0], "radius": 0.3},
            "prior": {"angle_min_deg": -45.0, "angle_max_deg": 45.0},
            "frequencies": [500.0],
            "n_select": 2,
            "evaluation": {"angles_deg": [0.0, 15.0], "grid_spacing": 0.05},
            "output_dir": out,
        }
    )


def _check_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        out1, out2 = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        for out in (out1, out2):
            config = _toy_config(out)
            info = run_place(config)
            run_evaluate(config, indices=info["result"].indices)
        # config.json is excluded: it echoes the differing output_dir
        for name in ("placement.csv", "cost_trace.csv", "sdr.csv"):
            same = filecmp.cmp(
                os.path.join(out1, name), os.path.join(out2, name), shallow=False
            )
            assert same, "%s differs between identical runs" % name


def cmd_selftest(args) -> int:
    checks = [
        ("bessel-cross-product", _check_cross_product_identity),
        ("j-upward-vs-miller", _check_j_upward_vs_miller),
        ("run-determinism", _check_determinism),
        ("graf-vs-direct", _check_graf_vs_direct),
    ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failed += 1
            print("FAIL %s: %s" % (name, exc))
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sfsplace",
        description="Loudspeaker placement for least-squares sound field synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("place", help="run greedy placement")
    _add_common(p)
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser("evaluate", help="evaluate a placement over an angle sweep")
    _add_common(p)
    p.add_argument("--placement", help="placement CSV (defaults to config placement)")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("reproduce-paper", help="run the built-in reverberant study")
    p.add_argument("--out", default="paper_out", help="output directory")
    p.set_defaults(fn=cmd_reproduce)

    p = sub.add_parser("priors", help="dump prior moments per frequency")
    _add_common(p)
    p.set_defaults(fn=cmd_priors)

    p = sub.add_parser("selftest", help="run the platform checks")
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
