"""Calibration repeat: a fixed Python process whose cost follows the machine's speed.

Usage: python3 calibrate.py TIMINGS.json

Imports what ``fuzzysoft.cli`` imports from outside the package (numpy,
argparse, dataclasses) and builds dataclasses as its modules do, then runs
a fixed mix of Python object, JSON and numpy work, and writes
``{"setup_s": ..., "call_s": ...}`` to TIMINGS.json.  It uses nothing from
fuzzysoft, so its cost changes only when the machine's speed does.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    out_path = sys.argv[1]
    start = perf_counter()
    # What importing fuzzysoft.cli costs besides numpy: argparse, dataclasses
    # and building a couple of dozen frozen dataclasses.
    import argparse  # noqa: F401
    import dataclasses

    import numpy as np
    for i in range(25):
        fields = {"a": int, "b": float, "c": str, "d": tuple}
        dataclasses.dataclass(frozen=True, order=True)(
            type(f"Record{i}", (), {"__annotations__": fields}))
    imported = perf_counter()
    # Python objects and JSON, like apply's per-tag work ...
    rng = np.random.default_rng(0)
    rows = rng.random((400, 8)).tolist()
    doc = {f"t{i}": {f"u{k}": v for k, v in enumerate(row)} for i, row in enumerate(rows)}
    for _ in range(4):
        back = json.loads(json.dumps(doc, indent=2))
        [tuple(float(x) for x in np.maximum(list(r.values()), 0.5)) for r in back.values()]
    # ... and broadcast array work with a violation search, like check's cube.
    g = np.arange(129) / 128
    x, y, z = g[:, None, None], g[None, :, None], g[None, None, :]
    lhs = np.maximum(x + np.maximum(y + z - 1.0, 0.0) - 1.0, 0.0)
    rhs = np.maximum(np.maximum(x + y - 1.0, 0.0) + z - 1.0, 0.0)
    ii, jj, kk = np.nonzero(np.abs(lhs - rhs.transpose(1, 0, 2) * z) > 1e-9)
    np.lexsort((g[kk], g[jj], g[ii]))
    done = perf_counter()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"setup_s": imported - start, "call_s": done - imported}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
