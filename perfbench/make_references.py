"""Regenerate references/interp_arch.json from the padr in ./src.

The table holds the archimedean fields of `padr interp` (E_inf, m_Q,
Gamma_VQ, criticality, ggp, warnings) for every weight pair the
interp queries of cli-stream can draw: k weakly increasing in [-3, 3]^3 and k'
weakly increasing in [-3, 3]^2.  These fields depend on the weights only.
It was made at the seed commit of the benchmark; rerun it only on a
commit whose interp output is trusted:

    python3 perfbench/make_references.py
"""

import contextlib
import io
import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ARCH_FIELDS = ("E_inf", "m_Q", "Gamma_VQ", "criticality", "ggp")


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from padr import cli
    table = {}
    weights = list(itertools.combinations_with_replacement(range(-3, 4), 3))
    kps = list(itertools.combinations_with_replacement(range(-3, 4), 2))
    for k, kp in itertools.product(weights, kps):
        ws, kps_ = ",".join(map(str, k)), ",".join(map(str, kp))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main.main(["interp", "--p", "2", "--weights", ws, "--kp", kps_],
                          standalone_mode=False)
        report = json.loads(buf.getvalue())
        entry = {f: report[f] for f in ARCH_FIELDS}
        entry["warnings"] = bool(report.get("warnings"))
        table[f"{ws}|{kps_}"] = entry
    path = os.path.join(HERE, "references", "interp_arch.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table)} entries to {path}")


if __name__ == "__main__":
    main()
