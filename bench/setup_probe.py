"""Child process timed by run.py for setup_s.

Imports sfsplace from the checkout, builds the workload's config, then
writes one line so the parent can stop its clock; the parent's span from
spawning this process to that line is one setup_s sample.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import checkout


def main(argv) -> int:
    name, seed = argv[0], int(argv[1])
    checkout.use_checkout_source()
    import workloads

    workloads.WORKLOADS[name].make_config(seed, str(checkout.OUT / name))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
