"""Record bench/goldens.json from the default-seed items of every workload.

    python3 bench/goldens.py        (from the root of a checkout)

Run it only when an output change is intended, and say why in the commit.
Each verify item's stdout is stored as its sha256, keyed by the algebra
file name; each oracle item's result is stored whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

from run import BENCH, WORKLOADS, Bench, item_command


def main() -> int:
    goldens = {"verify_stdout_sha256": {}, "oracle": {}}
    for workload in sorted(WORKLOADS):
        bench = Bench(os.getcwd(), workload, 0, goldens)
        items, _, _ = bench.setup()
        for item in items:
            res = bench.child(item_command(item))
            if res["code"] != 0:
                print(f"{item['id']}: exit code {res['code']}", file=sys.stderr)
                return 1
            if item["kind"] == "oracle":
                goldens["oracle"][item["id"]] = json.loads(res["stdout"])
            else:
                digest = hashlib.sha256(res["stdout"]).hexdigest()
                goldens["verify_stdout_sha256"][item["id"]] = digest
            print(item["id"], "recorded")
    with open(os.path.join(BENCH, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
