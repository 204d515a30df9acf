"""Tiny-size self-check of the harness, the layer wrappers and the gate.

    python3 bench/smoke.py

For each workload at smoke size (same code paths, about a second each):
an untraced operation gives an in-memory reference that the gate must
pass; a traced operation must find every wrapped target, record spans in
the layers the workload uses and print exactly the metric names that
BENCHMARK.json lists. Deliberately wrong references and outputs must
then fail the gate, and a target missing from the code must be reported
as absent without a crash. Exits 1 if any expectation is broken.
"""

import contextlib
import copy
import io
import json
import os
import sys

import checkout


class Smoke:
    def __init__(self):
        self.failures = []
        self.passed = 0

    def expect(self, cond, what):
        if cond:
            self.passed += 1
        else:
            self.failures.append(what)
            print("FAIL %s" % what)


def main() -> int:
    checkout.use_checkout_source()
    import gate
    import run
    import speed
    import tracer as tracing
    import workloads

    with open(checkout.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    want_e2e = {m["name"] for m in bench["end_to_end"]}
    want_layer = {m["name"] for m in bench["per_layer"]}
    s = Smoke()

    for name, make in workloads.SMOKE_WORKLOADS.items():
        workload = workloads.WORKLOADS[name]
        out_dir = str(checkout.OUT / "smoke" / name)
        config = make(3, out_dir)
        placed, evaluated = workloads.run_op(workload, config, out_dir)
        reference = gate.make_reference(name, config, placed, evaluated)

        first = run.run_one(workloads, gate, workload, config, reference, out_dir)
        s.expect(first.ok, "%s: gate passes against its own reference" % name)

        tr = tracing.Tracer()
        traced = run.run_one(workloads, gate, workload, config, reference, out_dir, tr)
        s.expect(traced.ok, "%s: traced operation passes the gate" % name)
        s.expect(not tr.absent, "%s: every target found (absent: %s)" % (name, tr.absent))
        layers = tracing.summarize(traced.spans)
        used = ["specfun.hankel_values", "synthesis.coeff_matrix_s", "placement.greedy_steps",
                "experiment.write_s"]
        if workload.evaluate:
            used += ["synthesis.solves", "synthesis.sdr_s", "experiment.evaluate_s"]
        if config.room is not None:
            used += ["room.image_table_calls"]
        s.expect(all(layers[k] > 0 for k in used), "%s: spans recorded in %s" % (name, used))
        s.expect(
            abs(sum(v for k, v in layers.items() if k.startswith("layer."))
                - layers["experiment.run_s"]) < 1e-6,
            "%s: layer self times add up to the operation" % name,
        )
        with contextlib.redirect_stdout(io.StringIO()):  # tiny sizes: shares are meaningless
            metrics = run.per_layer(workload, [traced], [first], tracing.summarize([]))
        s.expect(set(metrics) == want_layer,
                 "%s: per-layer names match BENCHMARK.json (%s)"
                 % (name, sorted(set(metrics) ^ want_layer)))
        s.expect(all(m["unit"] == u for m, u in zip(
            (metrics[x["name"]] for x in bench["per_layer"]),
            (x["unit"] for x in bench["per_layer"]))),
            "%s: per-layer units match BENCHMARK.json" % name)

        # deliberately wrong references and outputs
        def fails(ref, what, out=out_dir):
            res = gate.check(config, placed, evaluated, out, ref)
            s.expect(not res.ok, "%s: gate fails on %s" % (name, what))

        bad = copy.deepcopy(reference)
        bad["cost"]["proposed"] *= 0.99
        fails(bad, "a reference J 1% better than the run")
        bad = copy.deepcopy(reference)
        bad["picks"]["regular_b"][0] += 1
        fails(bad, "a changed baseline pick")
        if evaluated is not None:
            bad = copy.deepcopy(reference)
            row = next(r for r in bad["sdr"] if r[0] != "proposed")
            row[3] += 1.0
            fails(bad, "a baseline SDR 1 dB off")
            bad = copy.deepcopy(reference)
            bad["sdr"] = [r for r in bad["sdr"] if r[0] != "proposed"] + [
                [r[0], r[1], r[2], r[3] + 1.0] for r in bad["sdr"] if r[0] == "proposed"]
            fails(bad, "a proposed SDR 1 dB off with the same picks")
        bad = copy.deepcopy(reference)
        other = next(i for i in range(config.candidates.count)
                     if i not in bad["picks"]["proposed"])
        bad["picks"]["proposed"][-1] = other
        res = gate.check(config, placed, evaluated, out_dir, bad)
        s.expect(res.ok and res.picks_changed == 1,
                 "%s: a changed proposed pick is counted, not failed" % name)
        with open(os.path.join(out_dir, "placement.csv"), "a", encoding="utf-8") as fh:
            fh.write("99,%d,0.0,0.0\n" % other)
        fails(reference, "a placement.csv that does not hold the picks")

    # a target that a later change deletes reads as absent
    gone = tracing.Target("gone", "placement", "candidate_deltas_removed")
    tr = tracing.Tracer(tracing.TARGETS + (gone,))
    tr.install()
    tr.uninstall()
    s.expect(tr.absent == ["gone"], "a missing target is reported absent")

    with speed.Calibrator() as calibrate:
        calibrate()
        setup = run.measure_setup("paper-nb", 0, 1, calibrate)
    with contextlib.redirect_stdout(io.StringIO()):
        e2e = run.end_to_end([first], setup, calibrate.times)
    s.expect(set(e2e) == want_e2e, "end-to-end names match BENCHMARK.json")
    s.expect(all(m["value"] > 0 for m in e2e.values()), "end-to-end metrics are nonzero")

    print("smoke: %d passed, %d failed" % (s.passed, len(s.failures)))
    return 1 if s.failures else 0


if __name__ == "__main__":
    sys.exit(main())
