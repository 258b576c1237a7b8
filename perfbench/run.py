"""ggkdv benchmark: wall time of the CLI's scenario runs, and a layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload control --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --smoke

Each sample is one fresh child process (perfbench/child.py) that imports
``ggkdv.scenario`` and runs the workload's scenarios one after another
through ``run_scenario``, the CLI's own entry point.  After one untimed
warm-up child on tiny grids, samples run one at a time (a closed loop with
one client) while the next one would end within ``--seconds``.  Every
``ggkdv run`` is a new process, so nothing cached in one sample can help
the next.

With ``--trace 0`` the last output line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` traced and untraced samples alternate
and it reports the per-layer metrics.  Human-readable lines before it list
every metric with its unit and every output check.  A result file with the
machine record goes to .perfbench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import scenarios  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 150
# One BLAS/OpenMP thread per child.  With two, OpenBLAS spins its second
# thread through the many small products of a CGLS sweep: the control
# scenario burns twice its wall time in CPU time, runs slower, and its
# timing follows the load on both cores of a 2-core machine.
CHILD_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Per-layer counts that must repeat exactly between samples of one seed.
EXACT_COUNTS = ("trace.spans", "pde.lu_solves", "pde.march.count", "pde.transpose.count",
                "pde.factorize.count", "pde.picard.sweeps",
                "fdops.assemble.count", "hum.cgls.iterations",
                "hum.gramian.apply.count", "hum.gramian.apply_star.count",
                "hum.outer.iterations", "hum.observe.samples",
                "tracenorm.riesz.count", "spectral.roots.count",
                "spectral.r0.count", "scenario.bytes_written")


def _median(values):
    """Median; of whole numbers, the lower middle one, so counts stay whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _wall(sample):
    return sum(r["seconds"] for r in sample["runs"])


def _wall_rel(sample):
    """Scenario time over the time of the reference computation around it."""
    return _wall(sample) / sum(sample["reference_s"])


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken child)."""


def _git_commit():
    """HEAD of the checkout, read from .git without starting git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as fh:
            return fh.read().strip()
    return f"unknown ({ref[5:]} is packed)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _metric_specs():
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


class Run:
    """The samples of one workload, seed and trace setting."""

    def __init__(self, workload, seed, trace, tiny=False):
        src = os.path.join(ROOT, "src", "ggkdv", "scenario.py")
        if not os.path.isfile(src):
            raise BenchError(f"no ggkdv sources at {os.path.dirname(src)}")
        self.workload, self.seed, self.trace = workload, seed, trace
        tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-smoke" if tiny else "")
        self.dir = os.path.join(OUT, tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.result_path = os.path.join(OUT, f"result-{tag}.json")
        self.items = self._write_items("", tiny)
        self.warmup_items = [] if tiny else self._write_items("warmup-", True)
        self.samples, self.warmups = [], []
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                        **CHILD_THREADS)

    def _write_items(self, prefix, tiny):
        items = []
        for cmd, text in scenarios.workload_scenarios(self.workload, self.seed, tiny):
            path = os.path.join(self.dir, f"{prefix}{cmd}.yaml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            items.append({"command": cmd, "path": path,
                          "out_dir": os.path.join(self.dir, f"{prefix}out-{cmd}")})
        return items

    def sample(self, traced, items, name):
        """Run one child on ``items`` to completion and return its report."""
        for item in items:
            shutil.rmtree(item["out_dir"], ignore_errors=True)
        spec = {"scenarios": items, "trace": traced,
                "result_path": os.path.join(self.dir, f"{name}.json"),
                "spans_path": os.path.join(self.dir, f"spans-{name}.json")}
        spec_path = os.path.join(self.dir, f"spec-{name}.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=self.env, cwd=self.dir, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{name} exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"{name} exited with {proc.returncode}:\n{err}")
        with open(spec["result_path"], encoding="utf-8") as fh:
            report = json.load(fh)
        report["traced"] = traced
        return report

    def measure(self, seconds):
        """Warm up, then take samples while the next one would end within ``seconds``.

        The warm-up is one untimed child on the tiny grids: it pulls the
        interpreter, numpy and scipy into the file cache, which the first
        timed sample of a run would otherwise pay for alone.  Its outputs are
        checked like any other.  A traced run alternates traced and untraced
        samples, so that it can report the tracing overhead, and takes at
        least one of each.
        """
        start = time.perf_counter()
        if self.warmup_items:
            self.warmups.append(self.sample(False, self.warmup_items, "warmup"))
        minimum = 2 if self.trace else 1
        took = []
        while (len(took) < minimum or time.perf_counter() - start
               + statistics.median(took) <= seconds):
            t = time.perf_counter()
            traced = self.trace and len(took) % 2 == 0
            self.samples.append(self.sample(traced, self.items, f"sample-{len(took)}"))
            took.append(time.perf_counter() - t)

    # -- aggregation ------------------------------------------------------

    def consistency(self):
        """(name, ok, detail) checks across the samples of this seed."""
        out = []
        for i, item in enumerate(self.items):
            digests = {json.dumps(s["runs"][i]["sha256"], sort_keys=True)
                       for s in self.samples if s["runs"][i]["ok"]}
            out.append((f"{item['command']}: identical artifact bytes",
                        len(digests) <= 1,
                        f"{len(digests)} distinct artifact sets"))
        traced = [s["layers"] for s in self.samples if s["traced"]]
        for name in EXACT_COUNTS if traced else ():
            values = sorted({layers[name] for layers in traced})
            out.append((f"exact count {name} repeats", len(values) == 1,
                        f"values {values}"))
        return out

    def end_to_end(self):
        plain = [s for s in self.samples if not s["traced"]]
        per_cmd = {item["command"]: _median(s["runs"][i]["seconds"] for s in plain)
                   for i, item in enumerate(self.items)}
        raw = {"wall_s": _median(_wall(s) for s in plain),
               "reference_s": _median(sum(s["reference_s"]) for s in plain)}
        return {
            "setup_s": _median(s["setup_s"] for s in plain),
            "wall_rel": _median(_wall_rel(s) for s in plain),
            "peak_rss_mb": _median(s["peak_rss_mb"] for s in plain),
        }, raw, per_cmd

    def per_layer(self):
        traced = [s for s in self.samples if s["traced"]]
        plain = [s for s in self.samples if not s["traced"]]
        out = {k: _median(s["layers"][k] for s in traced)
               for k in traced[0]["layers"]}
        for cmd in scenarios.COMMANDS:
            pos = [i for i, item in enumerate(self.items) if item["command"] == cmd]
            out[f"command.{cmd}.s"] = _median(
                s["runs"][pos[0]]["seconds"] for s in traced) if pos else 0.0
        out["trace.wall_s"] = _median(_wall(s) for s in traced)
        out["trace.overhead_s"] = out["trace.wall_s"] - _median(_wall(s) for s in plain)
        return out

    def unattributed_s(self):
        """Largest traced wall_s not covered by span self times."""
        return max(abs(_wall(s) - s["layers"]["trace.self_sum_s"])
                   for s in self.samples if s["traced"])


def _machine(seed):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "child_thread_env": CHILD_THREADS,
        "git_commit": _git_commit(),
        "seed": seed,
        "concurrency": "one child process at a time (closed loop, one client)",
    }


def run_workload(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; returns the result dict (also written to disk)."""
    e2e_units, layer_units = _metric_specs()
    run = Run(workload, seed, trace, tiny)
    run.measure(seconds)
    checked = [(f"warm-up {k}", s) for k, s in enumerate(run.warmups)]
    checked += [(f"sample {k}", s) for k, s in enumerate(run.samples)]
    attempted = sum(len(s["runs"]) for _, s in checked)
    failed = sum(not r["ok"] for _, s in checked for r in s["runs"])
    checks = [(f"{tag} {r['command']}", r["ok"], r["check"])
              for tag, s in checked for r in s["runs"]]
    checks += run.consistency()
    e2e, raw, per_cmd = run.end_to_end()
    if trace:
        values, units = run.per_layer(), layer_units
        gap = run.unattributed_s()
        checks.append(("traced self times add up to traced wall_s",
                       gap <= abs(values["trace.overhead_s"]) + 1e-3,
                       f"gap {gap:.6f} s, tracing overhead "
                       f"{values['trace.overhead_s']:.6f} s"))
    else:
        values, units = e2e, e2e_units
    mismatch = set(units) ^ set(values)
    if mismatch:
        raise BenchError(f"metric names differ from BENCHMARK.json: {sorted(mismatch)}")
    correct = all(ok for _, ok, _ in checks)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=workload, trace=bool(trace),
                  samples=len(run.samples), warmup_samples=len(run.warmups),
                  traced_samples=sum(s["traced"] for s in run.samples),
                  failed_frac=failed / attempted,
                  untraced_end_to_end=e2e, untraced_seconds=raw,
                  command_medians_s=per_cmd,
                  checks=[{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
                  artifact_sha256={item["command"]: run.samples[0]["runs"][i]["sha256"]
                                   for i, item in enumerate(run.items)},
                  machine=dict(_machine(seed), versions=run.samples[0]["versions"]))
    with open(run.result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def _print_human(record):
    print(f"# workload {record['workload']} seed {record['machine']['seed']} "
          f"trace {int(record['trace'])}: {record['samples']} samples "
          f"({record['traced_samples']} traced), failed "
          f"{record['failed']}/{record['attempted']} scenario runs")
    for name, m in record["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, v in record["untraced_seconds"].items():
        print(f"untraced median {name} = {v:.6g} s")
    for cmd, v in record["command_medians_s"].items():
        print(f"command {cmd} median {v:.6g} s (untraced)")
    for c in record["checks"]:
        print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")


def _reference_problems():
    """Where reference.json, BENCHMARK.json and scenarios.py disagree."""
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    ref = _load(os.path.join(HERE, "reference.json"))
    e2e, layers = _metric_specs()
    workloads = {w["name"] for w in bench["workloads"]}
    out = []
    if not workloads == set(ref["workloads"]) == set(scenarios.WORKLOADS):
        out.append("workload names differ")
    for entry in ref["layer_map"]:
        out += [f"unknown per-layer metric {n}" for n in entry["layer_metrics"]
                if n not in layers]
        out += [f"unknown end-to-end metric {n}" for n in entry["should_move"]
                if n not in e2e]
        out += [f"unknown workload {w}" for w in [entry["on"]]
                + entry["should_not_move_on"] if w not in workloads]
    return out


def smoke():
    """Each workload once on tiny grids, traced and not; names must match."""
    problems = _reference_problems()
    for p in problems:
        print(f"check FAIL reference.json: {p}")
    ok = not problems
    for workload in scenarios.WORKLOADS:
        for trace in (0, 1):
            record = run_workload(workload, 1, 0, trace, tiny=True)
            _print_human(record)
            ok = ok and record["correct"] and record["failed"] == 0
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(scenarios.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once on tiny grids")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds
        if seconds is None:
            seconds = _load(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
        record = run_workload(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _print_human(record)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
