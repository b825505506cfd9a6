"""`python3 -m padr.cli ARGS`, timing the speed probe as it runs.

    python3 perfbench/sampled_cli.py TIMELINE ARGS...

worker.py runs the gauss ops this way when it samples, so that their
time is measured against the speed of the CPU they ran on, not that of
the worker waiting for them.  The probe timeline (speed.py) is written
to TIMELINE as JSON when padr exits.
"""

import json
import sys

import speed


def main(out_path, args):
    sampler = speed.Sampler()
    sampler.start()
    try:
        from padr import cli
        cli.main(args, prog_name="padr")
    finally:
        sampler.stop()
        sampler.sample()
        with open(out_path, "w") as fh:
            json.dump(sampler.timeline, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
