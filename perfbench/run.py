"""Benchmark of the fuzzysoft command line on seeded workloads.

    python3 perfbench/run.py --workload apply-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seconds 10      # every workload, untraced then traced

Run from the repository root; the package is imported from ``src``.  Each
repeat is a fresh ``fuzzysoft`` process, one at a time, so every repeat
pays the same start-up costs.  Repeats run until ``--seconds`` have
passed (at least three), and every metric is a median over repeats.

The machine this was written on switches between speeds that differ by up
to 2x for tens of seconds at a time, so a raw median moves with the
moment it was taken.  An untraced repeat therefore follows a run of the
fixed calibration process ``calibrate.py``, and its times are reported at
the reference speed (``REFERENCE``).  Raw medians and minima are printed
beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced repeats with traced ones (``traced.py``) and reports the
per-layer metrics; it also writes every span to
``perfbench/_work/spans-<workload>.json``.  A readable report goes to
stderr; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every repeat's output is
checked by an oracle that does not use fuzzysoft (``workloads.py``); a
repeat fails on an unexpected exit code, a wrong output or a timeout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import check_nesting, layer_metrics
from workloads import WORKLOADS, Workload, make_case

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: name -> (unit, better); what a user of the CLI sees
END_TO_END = {
    "setup_s": ("s", "lower"),          # import of fuzzysoft.cli in the CLI process
    "call_s": ("s", "lower"),           # run_cli(argv): the work asked for
    "wall_s": ("s", "lower"),           # CLI process from spawn to exit
    "items_per_s": ("1/s", "higher"),   # values computed or axiom points checked per call_s
    "peak_rss_mb": ("MiB", "lower"),    # peak resident memory of the CLI process
}

#: name -> (unit, better); one layer each, from the traced run
PER_LAYER = {
    "fileio.read_s": ("s", "lower"),
    "fileio.decode_s": ("s", "lower"),
    "fileio.validate_s": ("s", "lower"),
    "fileio.save_s": ("s", "lower"),
    "fileio.to_document_s": ("s", "lower"),
    "fileio.bytes_in": ("B", "lower"),
    "fileio.bytes_out": ("B", "lower"),
    "fileio.values_in": ("count", "lower"),
    "sets.apply_s": ("s", "lower"),
    "sets.self_s": ("s", "lower"),
    "sets.pairs": ("count", "lower"),
    "sets.result_tags": ("count", "lower"),
    "sets.collisions": ("count", "lower"),
    "sets.values": ("count", "lower"),
    "tags.combine_s": ("s", "lower"),
    "tags.combines": ("count", "lower"),
    "connectives.kernel_s": ("s", "lower"),
    "connectives.kernel_cube_s": ("s", "lower"),
    "connectives.kernel_grid_s": ("s", "lower"),
    "connectives.kernel_samples_s": ("s", "lower"),
    "connectives.kernel_calls": ("count", "lower"),
    "connectives.kernel_values": ("count", "lower"),
    "analysis.check_s": ("s", "lower"),
    "analysis.self_s": ("s", "lower"),
    "analysis.points": ("count", "lower"),
    "analysis.failed_axioms": ("count", "lower"),
    "expr.parse_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

MIN_REPEATS = 3
REPEAT_TIMEOUT_S = 60.0

#: What the calibration process (calibrate.py) costs at the reference speed,
#: about a quiet moment of the 2-core Intel Xeon VM the benchmark was written
#: on.  Each untraced repeat follows a calibration run, and its times are
#: scaled by reference / calibration: setup_s by the import, call_s by the
#: work, wall_s by the whole process.
REFERENCE = {"setup_s": 0.15, "call_s": 0.12, "wall_s": 0.36}


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def spawn(script: str, args: list[str], workdir: Path):
    """Run one child to exit; return (exit code, stdout, stderr, wall seconds)."""
    # Bytecode is cached next to the sources, as for an installed package.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC)
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / script), *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        # A blocking wait, so the wall time is not rounded to a polling interval.
        timer = threading.Timer(REPEAT_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - start
    return code, (workdir / "stdout").read_bytes(), (workdir / "stderr").read_bytes(), wall


def repeat(case, workdir: Path, run: int, traced: bool) -> tuple[dict | None, str | None]:
    """One checked repeat: (sample, None) on success, (None, reason) on failure."""
    side = workdir / "side.json"
    side.unlink(missing_ok=True)
    if traced:
        code, stdout, stderr, wall = spawn("traced.py", [str(run), str(side), *case.argv],
                                           workdir)
    else:
        code, stdout, stderr, wall = spawn("launch.py", [str(side), *case.argv], workdir)
    if code < 0:
        return None, f"killed by signal {-code} (the timeout is {REPEAT_TIMEOUT_S:g} s)"
    failure, out_digest = case.verify(code, stdout)
    if failure is None and not side.is_file():
        failure = "no timings from the child"
    if failure is not None:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return None, failure + (f" ({tail[0]})" if tail else "")
    sample = json.loads(side.read_text(encoding="utf-8"))
    sample.update(wall_s=wall, digest=out_digest)
    if traced:
        try:
            check_nesting(sample["spans"])
        except ValueError as err:
            return None, f"inconsistent spans: {err}"
    return sample, None


def calibrate(workdir: Path) -> dict[str, float]:
    """Costs of one calibration process (``calibrate.py``): import, work, wall."""
    side = workdir / "calibration.json"
    code, _, stderr, wall = spawn("calibrate.py", [str(side)], workdir)
    if code != 0:
        raise RuntimeError(f"calibration failed: {stderr.decode('utf-8', 'replace')[-500:]}")
    return dict(json.loads(side.read_text(encoding="utf-8")), wall_s=wall)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object (see the module docstring)."""
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        case = make_case(workload, seed, workdir)
        plain, traced, failures = [], [], Counter()
        attempted = 0

        def once(run: int, traced_mode: bool) -> None:
            nonlocal attempted
            speed = None if trace else calibrate(workdir)
            sample, failure = repeat(case, workdir, run, traced_mode)
            attempted += 1
            if failure is not None:
                failures[failure] += 1
            elif traced_mode:
                traced.append(sample)
            else:
                plain.append(dict(sample, speed=speed))

        # Warm-up: fills the bytecode cache.  Its output is checked; its time is not used.
        once(0, False)
        plain.clear()
        run, start = 0, perf_counter()
        while True:
            run += 1
            once(run, False)
            if trace:
                once(run, True)
            if run >= MIN_REPEATS and perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain or (trace and not traced):
        raise RuntimeError(f"{workload.name}: no repeat succeeded: {dict(failures)}")
    # The same inputs must give the same bytes every time.
    digests = Counter(s["digest"] for s in plain + traced)
    odd = sum(digests.values()) - digests.most_common(1)[0][1]
    if odd:
        failures["output differs from the other repeats' output"] += odd
    failed = sum(failures.values())
    median = statistics.median
    report = [f"# {workload.name}: seed {seed}, {seconds:g} s, trace {int(trace)}, "
              f"medians of {len(traced if trace else plain)} repeats; {workload.why}"]
    if trace:
        layers = per_key(median, [layer_metrics(s["spans"], s["counts"], s["root"])
                                  for s in traced])
        layers["trace.overhead_s"] = layers.pop("trace.total_s") - median(
            s["call_s"] for s in plain)
        values = {name: layers.get(name, 0) for name in PER_LAYER}
        units = PER_LAYER
        write_spans(workload, seed, traced)
    else:
        raw = per_key(median, [{k: s[k] for k in REFERENCE} for s in plain])
        fastest = per_key(min, [{k: s[k] for k in REFERENCE} for s in plain])
        speed = per_key(median, [s["speed"] for s in plain])
        scaled = per_key(median, [{k: s[k] * REFERENCE[k] / s["speed"][k] for k in REFERENCE}
                                  for s in plain])
        values = dict(scaled, items_per_s=case.items / scaled["call_s"],
                      peak_rss_mb=median(s["peak_rss_kib"] for s in plain) / 1024)
        units = END_TO_END
        report.append("# raw seconds, median (fastest): " + ", ".join(
            f"{k} {raw[k]:.6g} ({fastest[k]:.6g})" for k in REFERENCE))
        report.append("# calibration seconds, median: " + ", ".join(
            f"{k} {speed[k]:.6g} (reference {REFERENCE[k]:g})" for k in REFERENCE))
    report += [f"{workload.name:<11} {name:<29} {values[name]:>12.6g} {units[name][0]}"
               for name in units]
    report.append(f"{workload.name:<11} {'failed_frac':<29} {failed / attempted:>12.6g} "
                  f"({failed} of {attempted} repeats)")
    report += [f"# failure x{n}: {reason}" for reason, n in failures.items()]
    report.append(f"# output digests: {sorted(digests)}")
    print("\n".join(report), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units}}


def per_key(statistic, rows: list[dict]) -> dict:
    return {key: statistic([row[key] for row in rows]) for key in rows[0]}


def write_spans(workload: Workload, seed: int, traced: list[dict]) -> None:
    path = WORK / f"spans-{workload.name}.json"
    fields = ["id", "parent", "name", "start", "end", "run"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": seed, "machine": machine(),
                   "fields": fields, "spans": [span for s in traced for span in s["spans"]]},
                  handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all of them, untraced and traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running child is killed and reaped and the inputs removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "fuzzysoft" / "cli.py").is_file():
        print(f"error: no fuzzysoft sources under {SRC}", file=sys.stderr)
        return 2
    print("# machine: " + json.dumps(machine()), file=sys.stderr)
    if args.workload:
        runs = [(WORKLOADS[args.workload], bool(args.trace))]
    else:
        runs = [(w, t) for w in WORKLOADS.values() for t in (False, True)]
    try:
        for workload, trace in runs:
            print(json.dumps(run_workload(workload, args.seed, args.seconds, trace)), flush=True)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
