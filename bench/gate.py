"""Correctness gate: one operation's outputs against a recorded reference.

Runs after each operation, outside the timed region. A reference holds
the picks of every placement, the directly recomputed cost J of each pick
set, the greedy trace's final value and the SDR table over all paper
angles, recorded by record_reference.py.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from sfsplace import experiment, placement

# A correct change may re-order sums (J moves in the last digits) or pick
# differently on exact ties; anything beyond this is a wrong placement.
COST_RTOL = 1e-6
# Evaluating through the truncated expansion moves SDR by about 4e-7 dB;
# a wrong transfer, solve or SDR moves it by far more than this.
SDR_ATOL_DB = 1e-3

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(name: str) -> str:
    return os.path.join(REFERENCE_DIR, name + ".json")


def load_reference(name: str) -> dict:
    with open(reference_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def direct_costs(config, problems, placements) -> dict:
    """J of each pick set, recomputed by direct inversion on the run's problems."""
    spec = experiment.to_broadband_spec(problems)
    return {
        name: float(placement.broadband_cost(spec, idx, config.lambda_select))
        for name, idx in sorted(placements.items())
    }


def make_reference(name, config, placed, evaluated) -> dict:
    """Reference record of one operation's outputs."""
    placements = {k: [int(i) for i in v] for k, v in sorted(placed["placements"].items())}
    rows = [] if evaluated is None else evaluated["rows"]
    return {
        "workload": name,
        "picks": placements,
        "cost": direct_costs(config, placed["problems"], placed["placements"]),
        "cost_trace_final": float(placed["result"].cost_trace[-1]),
        "sdr": [[m, f, a, s] for a, f, s, m in rows],
    }


@dataclass
class GateResult:
    failures: list = field(default_factory=list)
    picks_changed: int = 0
    trace_drift_rel: float = 0.0
    sdr_err_db: float = 0.0
    sdr_rows_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _picks_changed(ref, run) -> int:
    ref, run = set(ref), set(run)
    return max(len(ref - run), len(run - ref))


def check(config, placed, evaluated, out_dir, reference) -> GateResult:
    """Every check of one operation; failures are listed, not raised."""
    res = GateResult()
    fail = res.failures.append
    result = placed["result"]
    picks = {k: tuple(int(i) for i in v) for k, v in placed["placements"].items()}
    ref_picks = {k: tuple(v) for k, v in reference["picks"].items()}
    if sorted(picks) != sorted(ref_picks):
        fail("placements %s, reference has %s" % (sorted(picks), sorted(ref_picks)))
        return res
    for name in sorted(picks):
        if name != "proposed" and picks[name] != ref_picks[name]:
            fail("baseline %s picks differ from the reference" % name)
    res.picks_changed = _picks_changed(ref_picks["proposed"], picks["proposed"])
    proposed_same = res.picks_changed == 0 and len(picks["proposed"]) == len(ref_picks["proposed"])

    costs = direct_costs(config, placed["problems"], picks)
    for name, j in costs.items():
        j_ref = reference["cost"][name]
        if not math.isfinite(j):
            fail("J(%s) is not finite" % name)
        elif j > j_ref * (1.0 + COST_RTOL):
            fail("J(%s) = %r is worse than the reference %r" % (name, j, j_ref))
        elif (name != "proposed" or proposed_same) and abs(j - j_ref) > COST_RTOL * j_ref:
            fail("J(%s) = %r differs from the reference %r for the same picks" % (name, j, j_ref))
    j_run = costs["proposed"]
    res.trace_drift_rel = abs(float(result.cost_trace[-1]) - j_run) / j_run

    if evaluated is not None:
        expected = {
            (m, float(f), float(a))
            for m in picks
            for f in config.frequencies
            for a in config.evaluation.angles_deg
        }
        _check_sdr(res, evaluated["rows"], reference["sdr"], expected, proposed_same)
    _check_files(res, out_dir, picks, evaluated)
    return res


def _check_sdr(res, rows, ref_rows, expected, proposed_same):
    ref = {(m, f, a): s for m, f, a, s in ref_rows}
    seen = set()
    for a, f, s, m in rows:
        key = (m, f, a)
        if key in seen:
            res.failures.append("duplicate SDR row %r" % (key,))
            continue
        seen.add(key)
        if not math.isfinite(s):
            res.failures.append("SDR %r is not finite" % (key,))
            continue
        if key not in ref:
            res.failures.append("SDR row %r is not in the reference" % (key,))
            continue
        if m == "proposed" and not proposed_same:
            continue
        err = abs(s - ref[key])
        res.sdr_err_db = max(res.sdr_err_db, err)
        res.sdr_rows_checked += 1
        if err > SDR_ATOL_DB:
            res.failures.append(
                "SDR %r = %.6f dB, reference %.6f dB" % (key, s, ref[key])
            )
    if seen != expected:
        res.failures.append(
            "SDR table has %d rows, expected %d (method, freq, angle) rows"
            % (len(seen), len(expected))
        )


def _check_files(res, out_dir, picks, evaluated):
    for name, idx in sorted(picks.items()):
        fname = "placement.csv" if name == "proposed" else "placement_%s.csv" % name
        try:
            got = experiment.read_placement_csv(os.path.join(out_dir, fname))
        except (OSError, ValueError) as exc:
            res.failures.append("%s does not parse: %s" % (fname, exc))
            continue
        if tuple(got) != idx:
            res.failures.append("%s does not hold the %s picks" % (fname, name))
    if evaluated is None:
        return
    try:
        got = experiment.read_sdr_csv(os.path.join(out_dir, "sdr.csv"))
    except (OSError, ValueError) as exc:
        res.failures.append("sdr.csv does not parse: %s" % exc)
        return
    want = [(float(a), float(f), float(s), m) for a, f, s, m in evaluated["rows"]]
    if got != want:
        res.failures.append("sdr.csv does not hold the returned SDR rows")
