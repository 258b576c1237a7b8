"""Scenario files: parse, validate, dispatch, and artifact emission.

A scenario is a YAML mapping with a ``command`` plus the sections that
command needs.  Unknown keys anywhere are hard errors.  Artifacts (CSV and
run.json) are formatted chunk by chunk, straight into one temp file each,
and renamed only once every artifact is written, so a failure while
formatting or writing leaves no output.  Float formatting is fixed at 17
significant digits for reproducibility.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from . import hum, pde, spectral
from .core import (
    SIGNAL_NAMES,
    ControlConfig,
    ControlKind,
    Grid,
    Parameters,
    StatePair,
    validate_params,
    x_norm,
)
from .errors import (
    ConstraintViolation,
    ExpressionError,
    FeasibilityError,
    NonConvergence,
    NumericalError,
    ScenarioError,
)
from .expr import compile_expression

__all__ = ["Scenario", "parse_scenario", "parse_scenario_text",
           "serialize_scenario", "run_scenario", "RunResult"]

COMMANDS = ("simulate", "adjoint", "control", "nonlinear-control",
            "observe", "ucp-sweep", "r0-check")

_FLOAT_FMT = "%.16e"

_SCHEMA = {
    "command": None,
    "seed": None,
    "output_dir": None,
    "params": {"a", "b", "c", "r", "a1", "a2"},
    "grid": {"L", "N", "T", "M"},
    "scheme": {"theta", "picard_tol", "picard_max"},
    "config": None,
    "initial": {"u", "v", "file"},
    "final": {"u", "v", "file"},
    "target": {"u", "v", "file"},
    "bc": set(SIGNAL_NAMES),
    "tol": None,
    "delta": None,
    "observe": {"samples"},
    "ucp": {"samples", "L_min", "L_max", "p_min", "p_max", "tol"},
    "r0": {"re", "im", "lengths", "tol"},
}

_REQUIRED = {
    "simulate": ("params", "grid"),
    "adjoint": ("params", "grid", "final"),
    "control": ("params", "grid", "config", "target"),
    "nonlinear-control": ("params", "grid", "config", "target"),
    "observe": ("params", "grid", "config"),
    "ucp-sweep": ("params",),
    "r0-check": (),
}


def _real(value, field: str, positive: bool = True) -> float:
    """``value`` as a finite float, positive unless ``positive`` is False."""
    try:
        num = float(value)
    except (TypeError, ValueError, OverflowError):
        num = math.nan
    if isinstance(value, bool) or not math.isfinite(num) or (positive and num <= 0):
        kind = "positive finite" if positive else "finite"
        raise ScenarioError(f"expected a {kind} number, got {value!r}", field=field)
    return num


def _integer(value, field: str, minimum: int = None) -> int:
    """``value`` as an int of at least ``minimum``; 2.7 is an error, not 2."""
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        num = int(value)
    except (TypeError, ValueError):
        num = None
    if num is None or (minimum is not None and num < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ScenarioError(f"expected an integer{bound}, got {value!r}", field=field)
    return num


def _axis(value, field: str) -> tuple:
    """An r0 sampling axis [lo, hi, points]."""
    if not isinstance(value, list) or len(value) != 3:
        raise ScenarioError(f"expected [lo, hi, points], got {value!r}", field=field)
    return (_real(value[0], field, False), _real(value[1], field, False),
            _integer(value[2], field, 1))


def _lengths(value, field: str) -> list:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"expected a nonempty list, got {value!r}", field=field)
    return [_real(v, field) for v in value]


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; ``raw`` preserves the file's exact content.

    Runners read values only through the accessors, which check type and
    range; parsing calls them all, so ``validate`` rejects what ``run`` would.
    """

    raw: dict

    def _get(self, path: str, default, check, *args):
        """The value at ``path`` ("tol", "ucp.samples"), passed through ``check``."""
        section, _, key = path.rpartition(".")
        d = (self.raw.get(section) or {}) if section else self.raw
        return check(d.get(key, default), path, *args)

    @property
    def command(self) -> str:
        return self.raw["command"]

    @property
    def seed(self) -> int:
        return self._get("seed", 0, _integer, 0)

    @property
    def tol(self) -> float:
        return self._get("tol", 1e-3, _real)

    @property
    def delta(self) -> float:
        return self._get("delta", 0.1, _real)

    @property
    def observe_samples(self) -> int:
        return self._get("observe.samples", 20, _integer, 1)

    def ucp(self) -> dict:
        """Keyword arguments of ``spectral.ucp_sweep``."""
        def real(key, default):
            return self._get(f"ucp.{key}", default, _real)

        def span(name, lo, hi):
            bounds = (real(f"{name}_min", lo), real(f"{name}_max", hi))
            if bounds[0] > bounds[1]:
                raise ScenarioError(f"{name}_min {bounds[0]!r} exceeds {name}_max "
                                    f"{bounds[1]!r}", field=f"ucp.{name}_min")
            return bounds
        return {"nsamples": self._get("ucp.samples", 200, _integer, 1),
                "L_range": span("L", 0.05, 10.0),
                "p_radius": span("p", 0.3, 3.0),
                "tol": real("tol", 1e-6)}

    def r0(self) -> tuple:
        """(re axis, im axis, lengths, tol) of the r = 0 eigencheck grid."""
        return (self._get("r0.re", [-10.0, 10.0, 9], _axis),
                self._get("r0.im", [-10.0, 10.0, 9], _axis),
                self._get("r0.lengths", [0.5, 1.0, float(np.pi), 5.0], _lengths),
                self._get("r0.tol", 1e-8, _real))

    def params(self) -> Parameters:
        d = self.raw["params"]
        return Parameters(
            a=float(d["a"]), b=float(d["b"]), c=float(d["c"]), r=float(d["r"]),
            a1=float(d.get("a1", 0.0)), a2=float(d.get("a2", 0.0)),
        )

    def grid(self) -> Grid:
        d = self.raw["grid"]
        return Grid(L=float(d["L"]), N=_integer(d["N"], "grid.N"), T=float(d["T"]),
                    M=_integer(d["M"], "grid.M"))

    def scheme(self) -> pde.SchemeConfig:
        d = self.raw.get("scheme") or {}
        return pde.SchemeConfig(
            theta=float(d.get("theta", 0.5)),
            picard_tol=float(d.get("picard_tol", 1e-8)),
            picard_max=self._get("scheme.picard_max", 40, _integer),
        )

    def config(self) -> ControlConfig:
        spec = self.raw["config"]
        if isinstance(spec, str):
            try:
                return ControlConfig.of(spec)
            except ValueError:
                raise ScenarioError(f"unknown configuration {spec!r}", field="config")
        if isinstance(spec, dict) and "mask" in spec and len(spec) == 1:
            mask = spec["mask"]
            # bool("false") and bool(0.5) are both True: take booleans only
            if (not isinstance(mask, list) or len(mask) != 6
                    or not all(isinstance(m, bool) for m in mask) or not any(mask)):
                raise ScenarioError("mask must be 6 booleans with at least one "
                                    f"true, got {mask!r}", field="config.mask")
            return ControlConfig(kind=ControlKind.CUSTOM, mask=tuple(mask))
        raise ScenarioError("config must be a name or {mask: [6 booleans]}",
                            field="config")


def _check_keys(raw: dict):
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a mapping")
    for key, val in raw.items():
        if key not in _SCHEMA:
            raise ScenarioError("unknown key", field=key)
        sub = _SCHEMA[key]
        if sub is None or val is None:
            continue
        if not isinstance(val, dict):
            raise ScenarioError("must be a mapping", field=key)
        for k2 in val:
            if k2 not in sub:
                raise ScenarioError("unknown key", field=f"{key}.{k2}")


def parse_scenario_text(text: str) -> Scenario:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"YAML parse failure: {exc}")
    if raw is None:
        raise ScenarioError("empty scenario")
    _check_keys(raw)
    command = raw.get("command")
    if command not in COMMANDS:
        raise ScenarioError(
            f"command must be one of {', '.join(COMMANDS)}", field="command"
        )
    for section in _REQUIRED[command]:
        if section not in raw:
            raise ScenarioError("required section missing", field=section)
    sc = Scenario(raw=raw)
    # eagerly validate the typed sections the command will use, so bad
    # values surface as validation errors (exit 2), not runtime failures
    builders = (
        ("params", lambda: validate_params(sc.params())),
        ("grid", sc.grid),
        ("config", sc.config),
        ("scheme", sc.scheme),
        ("seed", lambda: sc.seed),
        ("tol", lambda: sc.tol),
        ("delta", lambda: sc.delta),
        ("observe", lambda: sc.observe_samples),
        ("ucp", sc.ucp),
        ("r0", sc.r0),
        ("initial", lambda: _expressions(sc, "initial")),
        ("final", lambda: _expressions(sc, "final")),
        ("target", lambda: _expressions(sc, "target")),
        ("bc", lambda: _expressions(sc, "bc")),
    )
    for section, build in builders:
        if section not in raw:
            continue
        try:
            build()
        except ScenarioError:
            raise
        except KeyError as exc:
            raise ScenarioError(f"missing key {exc}", field=section)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(str(exc), field=section)
    return sc


def parse_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    return parse_scenario_text(text)


def serialize_scenario(sc: Scenario) -> str:
    return yaml.safe_dump(sc.raw, sort_keys=True)


# -- data construction -------------------------------------------------------


def _state_from_section(sc: Scenario, section: str, g: Grid) -> StatePair:
    spec = sc.raw.get(section)
    if spec is None:
        return StatePair.zeros(g)
    if "file" in spec:
        return _state_from_file(spec["file"], g, section)
    fns = _expressions(sc, section)
    return StatePair(*(_sample(fns[var], g.x, section) for var in "uv"))


def _expressions(sc: Scenario, section: str) -> dict:
    """The compiled expressions of a state or ``bc`` section by key, "0"
    where one is missing.  A state read from ``file`` has none."""
    spec = sc.raw.get(section) or {}
    if "file" in spec:
        if "u" in spec or "v" in spec:
            raise ScenarioError("give either file or u/v expressions, not both",
                                field=section)
        return {}
    bc, fns = section == "bc", {}
    for key in (SIGNAL_NAMES if bc else "uv"):
        try:
            fns[key] = compile_expression(str(spec.get(key, "0")))
        except ExpressionError as exc:
            raise ScenarioError(str(exc), field=f"bc.{key}" if bc else section)
    return fns


def _sample(fn, points: np.ndarray, field: str) -> np.ndarray:
    """The compiled expression ``fn`` evaluated at ``points``."""
    try:
        return np.array([fn(v) for v in points])
    except ExpressionError as exc:
        raise ScenarioError(str(exc), field=field)


def _state_from_file(path: str, g: Grid, section: str) -> StatePair:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ScenarioError(f"cannot read state file: {exc}", field=section)
    except ValueError as exc:
        raise ScenarioError(f"bad state file: {exc}", field=section)
    if rows.shape != (g.nx, 2):
        raise ScenarioError(
            f"state file must have {g.nx} rows and columns u,v", field=section
        )
    return StatePair(rows[:, 0].copy(), rows[:, 1].copy())


def _bc_from_section(sc: Scenario, g: Grid) -> pde.BoundarySignals:
    if sc.raw.get("bc") is None:
        return pde.BoundarySignals.zeros(g)
    fns = _expressions(sc, "bc")
    return pde.BoundarySignals(*(_sample(fns[name], g.t, f"bc.{name}")
                                 for name in SIGNAL_NAMES))


# -- CSV helpers --------------------------------------------------------------


def _csv(header: list, cols: list):
    """Chunks of the CSV text of equal-length columns: the header, then the
    rows.

    Numeric columns are written with ``%.16e``, string columns as they are;
    the rows are formatted by one ``%`` operation.
    """
    yield ",".join(header) + "\n"
    cols = [np.asarray(c) for c in cols]
    row = ",".join("%s" if c.dtype.kind == "U" else _FLOAT_FMT for c in cols)
    values = itertools.chain.from_iterable(zip(*(c.tolist() for c in cols)))
    yield (row + "\n") * len(cols[0]) % tuple(values)


def _trajectory_csv(traj: pde.Trajectory):
    """Chunks of trajectory.csv, one per time level.

    Each ``x`` is formatted once, into the row tail ``,<x>,%.16e,%.16e``, and
    each ``t`` once per level, so a level is one ``%`` operation over its
    interleaved (u, v) values.
    """
    g = traj.grid
    yield "t,x,u,v\n"
    tails = [",%s,%s,%s\n" % (_FLOAT_FMT % x, _FLOAT_FMT, _FLOAT_FMT)
             for x in g.x.tolist()]
    # level n as rows (u_i, v_i), i.e. z[n] with its two halves interleaved
    uv = traj.z.reshape(g.nt, 2, g.nx).transpose(0, 2, 1)
    for t, level in zip(g.t.tolist(), uv):
        ts = _FLOAT_FMT % t
        yield (ts + ts.join(tails)) % tuple(level.ravel().tolist())


def _trajectory_artifacts(traj: pde.Trajectory, traces: pde.TraceBundle) -> dict:
    """trajectory.csv and traces.csv, as chunk generators."""
    return {"trajectory.csv": _trajectory_csv(traj),
            "traces.csv": _csv(["t"] + traces.column_names(),
                               [traj.grid.t] + traces.columns())}


def _controls_csv(signals: pde.BoundarySignals, g: Grid):
    return _csv(["t"] + list(SIGNAL_NAMES), [g.t, *signals.as_array()])


# -- command runners ----------------------------------------------------------


def _run_simulate(sc: Scenario):
    p, g = sc.params(), sc.grid()
    init = _state_from_section(sc, "initial", g)
    bc = _bc_from_section(sc, g)
    traj, traces = pde.solve_linear_forward(p, g, init, bc, scheme=sc.scheme())
    summary = {
        "terminal_x_norm": x_norm(traj.final_state, p, g),
        "initial_x_norm": x_norm(init, p, g),
    }
    return summary, _trajectory_artifacts(traj, traces)


def _run_adjoint(sc: Scenario):
    p, g = sc.params(), sc.grid()
    final = _state_from_section(sc, "final", g)
    traj, traces = pde.solve_adjoint_backward(p, g, final, scheme=sc.scheme())
    summary = {
        "final_x_norm": x_norm(final, p, g),
        "initial_x_norm": x_norm(traj.initial_state, p, g),
    }
    return summary, _trajectory_artifacts(traj, traces)


def _run_control(sc: Scenario):
    p, g = sc.params(), sc.grid()
    cfg = sc.config()
    init = _state_from_section(sc, "initial", g)
    target = _state_from_section(sc, "target", g)
    res = hum.solve_control(cfg, init, target, sc.tol, p, g, scheme=sc.scheme())
    err = x_norm(StatePair(res.achieved.u - target.u, res.achieved.v - target.v), p, g)
    tnorm = max(x_norm(target, p, g), 1e-30)
    summary = {
        "iterations": res.iterations,
        "cg_residual": res.residuals[-1],
        "terminal_relative_error": err / tnorm,
        "control_norms": {k: float(v) for k, v in res.controls.norms.items()},
    }
    return summary, {"controls.csv": _controls_csv(res.controls.signals, g)}


def _run_nonlinear_control(sc: Scenario):
    p, g = sc.params(), sc.grid()
    cfg = sc.config()
    init = _state_from_section(sc, "initial", g)
    target = _state_from_section(sc, "target", g)
    res = hum.solve_nonlinear_control(init, target, cfg, sc.delta, p, g,
                                      scheme=sc.scheme(), tol=sc.tol)
    summary = {
        "outer_iterations": res.iterations,
        "terminal_relative_error": res.terminal_error,
        "outer_history": [float(v) for v in res.history],
        "control_norms": {k: float(v) for k, v in res.controls.norms.items()},
    }
    return summary, {"controls.csv": _controls_csv(res.controls.signals, g)}


def _run_observe(sc: Scenario):
    p, g = sc.params(), sc.grid()
    cfg = sc.config()
    rep = hum.estimate_observability(cfg, sc.observe_samples, p, g, seed=sc.seed,
                                     scheme=sc.scheme())
    summary = rep.as_json_dict()
    if cfg.is_three_control:
        summary["feasible_three_control"] = rep.feasible_three_control(p)
    index = [str(i) for i in range(len(rep.quotients))]
    return summary, {"observability.csv": _csv(["sample", "quotient"],
                                               [index, rep.quotients])}


def _run_ucp_sweep(sc: Scenario):
    verdicts = spectral.ucp_sweep(params=sc.params(), seed=sc.seed, **sc.ucp())
    n = len(verdicts)
    inconclusive = sum(v.verdict is spectral.Verdict.INCONCLUSIVE for v in verdicts)
    summary = {
        "samples": n,
        "inconclusive": int(inconclusive),
        "confirmed": int(n - inconclusive),
    }
    header = ["L", "re_p", "im_p", "case_tag", "dispersion", "verdict"]
    body = _csv(header, [
        [v.L for v in verdicts],
        [v.p.real for v in verdicts],
        [v.p.imag for v in verdicts],
        [str(v.case_tag.value) for v in verdicts],
        [v.dispersion if np.isfinite(v.dispersion) else 1e308 for v in verdicts],
        [str(v.verdict.value) for v in verdicts],
    ])
    return summary, {"ucp.csv": body}


def _run_r0_check(sc: Scenario):
    (re_lo, re_hi, re_n), (im_lo, im_hi, im_n), lengths, tol = sc.r0()
    L, re, im = (axis.ravel() for axis in np.meshgrid(
        lengths, np.linspace(re_lo, re_hi, re_n), np.linspace(im_lo, im_hi, im_n),
        indexing="ij"))
    s = np.empty(L.size, dtype=complex)
    s.real, s.imag = re, im
    rep = spectral.r0_eigencheck(L, s, tol=tol)
    smin_all = float(np.min(rep.sigma_min))
    summary = {"sigma_min": smin_all, "certified": bool(smin_all > tol),
               "points": int(L.size)}
    return summary, {"r0.csv": _csv(["re_s", "im_s", "L", "sigma_min"],
                                    [re, im, L, rep.sigma_min])}


_RUNNERS = {
    "simulate": _run_simulate,
    "adjoint": _run_adjoint,
    "control": _run_control,
    "nonlinear-control": _run_nonlinear_control,
    "observe": _run_observe,
    "ucp-sweep": _run_ucp_sweep,
    "r0-check": _run_r0_check,
}


@dataclass
class RunResult:
    exit_code: int
    summary: dict
    artifacts: dict
    message: str = ""


def _atomic_write(directory: str, artifacts: dict) -> dict:
    """Stream every artifact's chunks into its own temp file, then rename
    them all; returns name -> the text written.

    Any exception before the renames unlinks every temp file, so a failure
    while formatting or writing leaves nothing behind.  A failed rename
    leaves the artifacts renamed before it in place.
    """
    os.makedirs(directory, exist_ok=True)
    pending, texts = [], {}
    try:
        for name, chunks in artifacts.items():
            # os.open applies the umask to 0o666, as open() does; mkstemp
            # would force mode 0600 on every artifact
            tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}")
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            pending.append((tmp, os.path.join(directory, name)))
            parts = []
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    parts.append(chunk)
            texts[name] = "".join(parts)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in pending:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise
    return texts


def run_scenario(path: str, output_dir: str = None, seed: int = None) -> RunResult:
    """Run one scenario file; returns the exit code and artifact map.

    Exit codes: 0 success, 2 parse/validation error or unwritable output
    directory, 3 numerical failure, 4 three-control feasibility failure.
    Every runner finishes its numerical work before it returns; its
    artifacts are chunk generators that only format, consumed by the write.
    ``RunResult.artifacts`` maps each artifact name to the text written.
    """
    try:
        sc = parse_scenario(path)
        if seed is not None:
            raw = dict(sc.raw)
            raw["seed"] = int(seed)
            sc = Scenario(raw=raw)
        summary, artifacts = _RUNNERS[sc.command](sc)
    except (ScenarioError, ExpressionError) as exc:
        return RunResult(2, {}, {}, message=str(exc))
    except FeasibilityError as exc:
        return RunResult(4, {}, {}, message=str(exc))
    except (NumericalError, NonConvergence, ConstraintViolation) as exc:
        return RunResult(3, {}, {}, message=str(exc))

    run_json = {
        "command": sc.command,
        "seed": sc.seed,
        "scenario": sc.raw,
        "summary": summary,
    }
    artifacts = dict(artifacts)
    artifacts["run.json"] = [json.dumps(run_json, sort_keys=True, indent=2) + "\n"]
    out_dir = output_dir or sc.raw.get("output_dir") or "."
    try:
        texts = _atomic_write(out_dir, artifacts)
    except OSError as exc:
        return RunResult(2, {}, {}, message=f"cannot write artifacts: {exc}")
    return RunResult(0, summary, texts)
