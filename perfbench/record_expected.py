#!/usr/bin/env python3
"""Write perfbench/expected.json: the reference outputs the oracles compare to.

    python3 perfbench/record_expected.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It records what does not depend on the seed: the q_dims of each
model_sweep shape, the E1 page and decalage levels of each filtered path, and
the sha256 of every fixed CLI output (exit code and stdout).
"""

import json
import os
import shutil
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import hodgepath as hp
    import hodgepath.cli  # noqa: F401

    anything = defaultdict(lambda: None)
    placeholder = {"model_sweep": {"q_dims": anything},
                   "filtered_pages": anything,
                   "cli_fixtures": {"digests": anything}}
    out = {"model_sweep": {"q_dims": {}}, "filtered_pages": {},
           "cli_fixtures": {"digests": {}}}
    work = os.path.join(os.getcwd(), run.OUT_DIR, "record")
    try:
        for op in workloads._model_ops(hp, 0, placeholder):
            _, groups = op.run()
            out["model_sweep"]["q_dims"][op.op_id.split(":")[1]] = {
                str(k): v for k, v in groups["dims"].items()}
        for b in workloads.RPATH_BUDGETS:
            ops = {op.op_id: op for op in workloads._rpath_ops(hp, b, 1, anything)}
            tag = f"rpath:b{b}"
            dec = ops[f"{tag}:decalage"].run()
            out["filtered_pages"][tag] = {
                "page": ops[f"{tag}:page"].run(),
                "decalage_levels": {str(n): sorted(dec.levels[n]) for n in sorted(dec.levels)}}
        for op in workloads._cli_ops(hp, 0, placeholder, work, run.run_cli):
            if op.op_id.startswith("cli:minimal-model:cache"):
                continue
            out["cli_fixtures"]["digests"][op.op_id] = workloads.sha256(
                workloads.cli_canon(op.run()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
