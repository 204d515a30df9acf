"""Record the gate's reference outputs from the current source tree.

    python3 bench/record_reference.py [workload ...]

Runs each workload once at full size (freefield-n4000 on all 91 paper
angles) and writes bench/reference/<workload>.json. Re-record only when
a change is meant to alter the placements or SDR tables, and say so.
"""

import json
import statistics
import sys

import checkout


def main(argv) -> int:
    checkout.use_checkout_source()
    import gate
    import workloads

    for name in argv or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        out_dir = str(checkout.OUT / "reference" / name)
        config = workload.make_config(0, out_dir, full_angles=True)
        placed, evaluated = workloads.run_op(workload, config, out_dir)
        ref = gate.make_reference(name, config, placed, evaluated)
        with open(gate.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        means = {}
        for method, _, _, value in ref["sdr"]:
            means.setdefault(method, []).append(value)
        print("%s: J %s; mean SDR %s" % (
            name,
            {k: "%.6g" % v for k, v in ref["cost"].items()},
            {k: "%.2f dB" % statistics.mean(v) for k, v in sorted(means.items())},
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
