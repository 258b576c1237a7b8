"""Outside-in tracing of the ggkdv layers for the traced benchmark run.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each traced function by a wrapper at the place its caller looks it up: a
class attribute for methods, and every module global that binds the
function (``hum`` imports ``riesz_map`` by name, ``ucp_sweep`` calls the
module global ``spectral.ucp_certificate``, ...).  Spans are kept in memory
as ``[name, start, end, parent]`` and written out once the sample ends.
"""

import functools
import json
import time

from ggkdv import fdops, hum, pde, scenario, spectral, tracenorm

_DERIVATIVES = ("first_derivative_matrix", "second_derivative_matrix",
                "third_derivative_matrix")
_NORMS = {"riesz_map": "tracenorm.riesz",
          "sobolev_norms_batch": "tracenorm.norms_batch",
          "sobolev_trace_norm": "tracenorm.trace_norm",
          "sobolev_inner": "tracenorm.inner"}


def _steps(tr, args, out):
    tr.count("pde.lu_solves", args[0].g.M)


def _cgls(tr, args, out):
    tr.count("hum.cgls.iterations", out[1])


def _outer(tr, args, out):
    tr.count("hum.outer.iterations", out.iterations)


def _picard(tr, args, out):
    tr.count("pde.picard.sweeps", len(out[0].picard_history))


def _observe(tr, args, out):
    tr.count("hum.observe.samples", out.sample_count)


def _ucp(tr, args, out):
    tr.count("spectral.ucp.certificates", 1)
    if out.verdict is spectral.Verdict.OBSTRUCTION_CONFIRMED:
        tr.count("spectral.ucp.confirmed", 1)


def _written(tr, args, out):
    # isascii() is a flag lookup, so the common all-ASCII artifact is not
    # re-encoded (tens of MB for a trajectory) inside the timed call.
    tr.count("scenario.bytes_written", sum(
        len(text) if text.isascii() else len(text.encode("utf-8"))
        for text in out.artifacts.values()))


def _targets():
    """(owner, attribute, span name, counter hook) for every traced call."""
    out = [
        (pde.Stepper, "__init__", "pde.factorize", None),
        (pde.Stepper, "run", "pde.march", _steps),
        (pde.Stepper, "input_transpose", "pde.transpose", _steps),
        (pde.Stepper, "readout_transpose", "pde.transpose", _steps),
        (hum.GramianOperator, "apply", "hum.gramian.apply", None),
        (hum.GramianOperator, "apply_star", "hum.gramian.apply_star", None),
        (hum, "_cgls", "hum.cgls", _cgls),
        (hum, "solve_control", "hum.solve_control", None),
        (hum, "solve_nonlinear_control", "hum.outer", _outer),
        (hum, "estimate_observability", "hum.observe", _observe),
        (hum, "solve_nonlinear", "pde.picard", _picard),
        (pde, "solve_nonlinear", "pde.picard", _picard),
        (spectral, "roots_P", "spectral.roots", None),
        (spectral, "ucp_sweep", "spectral.ucp", None),
        (spectral, "ucp_certificate", "spectral.ucp", _ucp),
        (spectral, "r0_eigencheck", "spectral.r0", None),
        (scenario, "run_scenario", "scenario", _written),
    ]
    for module in (fdops, pde, hum):
        out += [(module, name, "fdops.assemble", None)
                for name in _DERIVATIVES if hasattr(module, name)]
    for module in (tracenorm, hum):
        out += [(module, name, span, None)
                for name, span in _NORMS.items() if hasattr(module, name)]
    return out


class Tracer:
    """Span and counter recorder for one benchmark sample."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def count(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def install(self):
        for owner, attr, name, hook in _targets():
            setattr(owner, attr, self._wrap(owner.__dict__[attr], name, hook))

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """The per-layer metrics of this sample, by BENCHMARK.json name."""
        own = self.self_times()
        n, s = {}, {}
        for (name, *_), t in zip(self.spans, own):
            n[name] = n.get(name, 0) + 1
            s[name] = s.get(name, 0.0) + t
        c = self.counts.get
        applies = n.get("hum.gramian.apply", 0) + n.get("hum.gramian.apply_star", 0)
        iters = c("hum.cgls.iterations", 0)
        certs = c("spectral.ucp.certificates", 0)
        return {
            "pde.factorize.count": n.get("pde.factorize", 0),
            "pde.factorize.s": s.get("pde.factorize", 0.0),
            "pde.march.count": n.get("pde.march", 0),
            "pde.march.s": s.get("pde.march", 0.0),
            "pde.transpose.count": n.get("pde.transpose", 0),
            "pde.transpose.s": s.get("pde.transpose", 0.0),
            "pde.lu_solves": c("pde.lu_solves", 0),
            "pde.picard.sweeps": c("pde.picard.sweeps", 0),
            "pde.picard.self_s": s.get("pde.picard", 0.0),
            "fdops.assemble.count": n.get("fdops.assemble", 0),
            "fdops.assemble.s": s.get("fdops.assemble", 0.0),
            "hum.cgls.iterations": iters,
            "hum.cgls.self_s": s.get("hum.cgls", 0.0),
            "hum.gramian.apply.count": n.get("hum.gramian.apply", 0),
            "hum.gramian.apply_star.count": n.get("hum.gramian.apply_star", 0),
            "hum.cgls.applies_per_iteration": applies / iters if iters else 0.0,
            "hum.outer.iterations": c("hum.outer.iterations", 0),
            "hum.observe.samples": c("hum.observe.samples", 0),
            "hum.observe.self_s": s.get("hum.observe", 0.0),
            "tracenorm.riesz.count": n.get("tracenorm.riesz", 0),
            "tracenorm.s": sum(t for k, t in s.items() if k.startswith("tracenorm.")),
            "spectral.roots.count": n.get("spectral.roots", 0),
            "spectral.roots.s": s.get("spectral.roots", 0.0),
            "spectral.ucp.self_s": s.get("spectral.ucp", 0.0),
            "spectral.ucp.confirmed_ratio":
                c("spectral.ucp.confirmed", 0) / certs if certs else 0.0,
            "spectral.r0.count": n.get("spectral.r0", 0),
            "spectral.r0.s": s.get("spectral.r0", 0.0),
            "scenario.self_s": s.get("scenario", 0.0),
            "scenario.bytes_written": c("scenario.bytes_written", 0),
            "trace.spans": len(self.spans),
            "trace.self_sum_s": sum(own),
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
