"""One benchmark sample: a fresh process that runs a workload's scenarios.

Usage: python3 child.py SPEC.json   (with the package's ``src`` on
PYTHONPATH).  The spec names the scenario files, their output directories,
whether to trace, and where to write the sample's result.  Timing covers
the ``ggkdv.scenario`` import (setup), each ``run_scenario`` call, and the
reference computation of ``calibrate.py`` before each call and after the
last; the output checks and artifact hashes run after the last timed call.
"""

import time

T0 = time.perf_counter()
from ggkdv import scenario  # noqa: E402

SETUP_S = time.perf_counter() - T0

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

from calibrate import reference_s  # noqa: E402


def _trajectory_ok(path, grid):
    """(N+2)(M+1) data rows of four finite floats.

    Every value is written with ``%.16e``, so a row is finite exactly when
    it holds no ``nan`` or ``inf``; a text scan checks that without parsing
    a million floats.
    """
    with open(path, "rb") as fh:
        body = fh.read().split(b"\n", 1)[1]
    want = (grid["N"] + 2) * (grid["M"] + 1)
    rows, commas = body.count(b"\n"), body.count(b",")
    if rows != want or commas != 3 * want or not body.endswith(b"\n"):
        return False, f"{rows} rows, {commas} commas; expected {want} rows of 4"
    if b"nan" in body or b"inf" in body:
        return False, "non-finite values"
    return True, f"{want} finite rows"


def check(sc, result, out_dir):
    """(ok, detail) for one scenario run, by the command's own criterion."""
    if result.exit_code != 0:
        return False, f"exit code {result.exit_code}: {result.message}"
    cmd, s = sc["command"], result.summary
    if cmd == "control":
        err = s["terminal_relative_error"]
        return err <= sc["tol"], f"terminal_relative_error {err:.3e} <= {sc['tol']}"
    if cmd == "nonlinear-control":
        err, hist = s["terminal_relative_error"], s["outer_history"]
        falling = all(b < a for a, b in zip(hist, hist[1:]))
        return (err <= 2e-2 and falling,
                f"terminal_relative_error {err:.3e} <= 2e-2, outer_history "
                f"strictly decreasing: {falling} ({len(hist)} sweeps)")
    if cmd in ("simulate", "adjoint"):
        return _trajectory_ok(os.path.join(out_dir, "trajectory.csv"), sc["grid"])
    if cmd == "observe":
        want = sc["observe"]["samples"]
        return s["sample_count"] == want, f"sample_count {s['sample_count']} == {want}"
    if cmd == "ucp-sweep":
        return s["inconclusive"] == 0, f"inconclusive {s['inconclusive']} == 0"
    if cmd == "r0-check":
        return s["certified"] is True, f"certified {s['certified']}"
    raise ValueError(f"no check for command {cmd!r}")


def _hashes(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runs, reference = [], []
    for item in spec["scenarios"]:
        reference.append(reference_s())
        t = time.perf_counter()
        result = scenario.run_scenario(item["path"], output_dir=item["out_dir"])
        runs.append((item, result, time.perf_counter() - t))
    reference.append(reference_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {"setup_s": SETUP_S, "peak_rss_mb": peak_rss_mb, "runs": [],
              "reference_s": reference,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    for item, result, seconds in runs:
        with open(item["path"], encoding="utf-8") as fh:
            sc = yaml.safe_load(fh)
        ok, detail = check(sc, result, item["out_dir"])
        report["runs"].append({
            "command": item["command"], "seconds": seconds, "ok": bool(ok),
            "check": detail,
            "sha256": _hashes(item["out_dir"]) if result.exit_code == 0 else {},
        })
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        tracer.write(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(sys.argv[1])
