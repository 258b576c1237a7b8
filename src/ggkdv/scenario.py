"""Scenario files: parse, validate, dispatch, and artifact emission.

A scenario is a YAML mapping with a ``command`` plus the sections that
command needs, all declared in one table (``_TABLE``).  Unknown keys
anywhere are hard errors.  ``validate`` and ``run`` share one parse, which
checks every value and samples the state and ``bc`` expressions on the
grid, so ``validate`` rejects every input that ``run`` would.  Artifacts (CSV and
run.json) are formatted chunk by chunk, straight into one temp file each,
and renamed only once every artifact is written, so a failure while
formatting or writing leaves no output.  Every float is written as Python's
``%.16e`` would write it (17 significant digits), by the array kernel of
``emit``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, make_dataclass
from functools import partial

import numpy as np
import yaml

from . import emit, hum, pde, spectral, tracenorm
from .core import (
    SIGNAL_NAMES,
    ControlConfig,
    ControlKind,
    Grid,
    Parameters,
    StatePair,
    x_norm,
)
from .errors import ExpressionError, GGKdVError, ScenarioError
from .expr import compile_expression

__all__ = ["Scenario", "parse_scenario", "parse_scenario_text", "run_scenario",
           "RunResult"]

# values formatted per CSV chunk, 15 trajectory time levels at N=256: fixed
# numpy call costs dominate smaller chunks.  simulate-certify's peak was
# 144.1 MiB at 2,048, 144.6 at 4,096, 143.6 at 8,192 and 145.8 at 16,384
_CHUNK = 8192


# -- the scenario schema ------------------------------------------------------


def _number(value, field: str, integral=False, minimum=None, positive=False):
    """``value`` as a finite float, or an int if ``integral``, at least
    ``minimum`` and above 0 if ``positive``.

    The one rule for numbers: a YAML int or float, or a string that
    ``float`` reads (PyYAML reads ``1e-3`` as one), but never a boolean.
    An integer field takes 3 or 3.0, not 2.7.
    """
    try:
        if isinstance(value, bool):
            raise ValueError
        num = float(value)
        if integral:
            if not num.is_integer():
                raise ValueError
            num = value if isinstance(value, int) else int(num)
    except (TypeError, ValueError, OverflowError):
        num = math.nan
    if (not math.isfinite(num) or (positive and num <= 0)
            or (minimum is not None and num < minimum)):
        kind = ("an integer" if integral else
                "a positive finite number" if positive else "a finite number")
        bound = "" if minimum is None else f" >= {minimum}"
        raise ScenarioError(f"expected {kind}{bound}, got {value!r}", field=field)
    return num


_POSITIVE = partial(_number, positive=True)
_INTEGER = partial(_number, integral=True)
_COUNT = partial(_number, integral=True, minimum=1)


def _items(value, field: str, checks) -> tuple:
    """``value``, a nonempty list, as the tuple of its checked items: item i
    through ``checks[i]``, or every item through ``checks`` if it is one
    check."""
    count = len(checks) if isinstance(checks, tuple) else None
    if not isinstance(value, list) or not value or count not in (None, len(value)):
        raise ScenarioError(f"expected a list of {count or 'one or more'} numbers, "
                            f"got {value!r}", field=field)
    each = checks if count else (checks,) * len(value)
    return tuple(check(item, field) for check, item in zip(each, value))


_LINSPACE = partial(_items, checks=(_number, _number, _COUNT))  # [lo, hi, points]


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"expected a string, got {value!r}", field=field)
    return value


def _command(value, field: str) -> str:
    if value not in COMMANDS:
        raise ScenarioError(f"must be one of {', '.join(COMMANDS)}", field=field)
    return value


def _expression(value, field: str):
    try:
        return compile_expression(str(value))
    except ExpressionError as exc:
        raise ScenarioError(str(exc), field=field)


def _config(value, field: str) -> ControlConfig:
    """A configuration name, or ``{mask: [...]}`` of six booleans."""
    if isinstance(value, str):
        try:
            return ControlConfig.of(value)
        except ValueError:
            raise ScenarioError(f"unknown configuration {value!r}", field=field)
    mask = value.get("mask") if isinstance(value, dict) and len(value) == 1 else None
    # bool("false") and bool(0.5) are both True: take booleans only
    if (not isinstance(mask, list) or len(mask) != 6
            or not all(isinstance(m, bool) for m in mask) or not any(mask)):
        raise ScenarioError("expected a configuration name or {mask: [6 booleans, "
                            f"at least one true]}}, got {value!r}", field=field)
    return ControlConfig(kind=ControlKind.CUSTOM, mask=tuple(mask))


def _checked(field: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; the ValueError of a type's own domain
    check becomes a ScenarioError of ``field``."""
    try:
        return build(*args, **kwargs)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), field=field)


def _sample(fn, points: np.ndarray, field: str) -> np.ndarray:
    """The compiled expression ``fn`` at each of ``points``, one point at a
    time (numpy's sin and exp may round differently); zeros if ``fn`` is
    None."""
    if fn is None:
        return np.zeros(len(points))
    try:
        return np.array([fn(v) for v in points])
    except ExpressionError as exc:
        raise ScenarioError(str(exc), field=field)


def _state_from_file(path: str, g: Grid, field: str) -> StatePair:
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ScenarioError(f"cannot read state file: {exc}", field=field)
    except ValueError as exc:
        raise ScenarioError(f"bad state file: {exc}", field=field)
    if rows.shape != (g.nx, 2):
        raise ScenarioError(f"state file must have {g.nx} rows and columns u,v",
                            field=field)
    return StatePair(rows[:, 0].copy(), rows[:, 1].copy())


def _state(u, v, file):
    """The sampler (grid, field, base) -> StatePair of a state section; a
    relative ``file`` is read from the directory ``base``."""
    if file is not None and (u is not None or v is not None):
        raise ValueError("give either file or u/v expressions, not both")

    def sample(g: Grid, field: str, base: str) -> StatePair:
        if file is not None:
            state = _state_from_file(os.path.join(base, file), g, field)
        else:
            state = StatePair(_sample(u, g.x, f"{field}.u"), _sample(v, g.x, f"{field}.v"))
        state.check(g)
        return state
    return sample


def _signals(**fns):
    """The sampler (grid, field, base) -> BoundarySignals of the ``bc``
    section; ``base`` is unused."""
    return lambda g, field, base: pde.BoundarySignals(
        *(_sample(fns[name], g.t, f"{field}.{name}") for name in SIGNAL_NAMES))


def _ucp(samples, L_min, L_max, p_min, p_max, tol) -> dict:
    """Keyword arguments of ``spectral.ucp_sweep``."""
    for name, lo, hi in (("L", L_min, L_max), ("p", p_min, p_max)):
        if lo > hi:
            raise ValueError(f"{name}_min {lo!r} exceeds {name}_max {hi!r}")
    return {"nsamples": samples, "L_range": (L_min, L_max),
            "p_radius": (p_min, p_max), "tol": tol}


def _r0(re, im, lengths, tol) -> tuple:
    """The (re axis, im axis, lengths, tol) of ``r0-check``; an axis's span
    hi - lo must be finite for np.linspace to sample it."""
    for name, (lo, hi, _) in (("re", re), ("im", im)):
        if not math.isfinite(hi - lo):
            raise ValueError(f"{name} axis span {hi!r} - {lo!r} is not finite")
    return re, im, lengths, tol


class _Section:
    """A mapping of its own keys, each a (check, default) row like the
    table's; the checked values build ``build(**values)``, which keeps its
    domain checks."""

    def __init__(self, build, **fields):
        self.build, self.fields = build, fields


@dataclass(frozen=True)
class _NeededBy:
    """The default of a key that has none: the commands that need it given,
    or None for every scenario."""

    commands: tuple = None


_MUST = _NeededBy()
# the commands that take a control configuration and trace norms
_TRACED = ("control", "nonlinear-control", "observe")
_GRIDDED = ("simulate", "adjoint") + _TRACED
_STATE = {"u": (_expression, None), "v": (_expression, None), "file": (_string, None)}

# The scenario schema: each top-level key's check and default.  A missing or
# null key takes its default, which passes through the check; None is no
# value, and _NeededBy is an error for the commands it names (no value for the
# others).  A _Section checks its keys the same way, then builds its type.
_TABLE = {
    "command": (_command, _MUST),
    "seed": (partial(_number, integral=True, minimum=0), 0),
    "output_dir": (_string, None),
    "tol": (_POSITIVE, 1e-3),
    "delta": (_POSITIVE, 0.1),
    "config": (_config, _NeededBy(_TRACED)),
    "params": (_Section(Parameters, a=(_number, _MUST), b=(_number, _MUST),
                        c=(_number, _MUST), r=(_number, _MUST), a1=(_number, 0.0),
                        a2=(_number, 0.0)),
               _NeededBy(_GRIDDED + ("ucp-sweep",))),
    "grid": (_Section(Grid, L=(_number, _MUST), N=(_INTEGER, _MUST),
                      T=(_number, _MUST), M=(_INTEGER, _MUST)),
             _NeededBy(_GRIDDED)),
    "scheme": (_Section(pde.SchemeConfig, theta=(_number, 0.5),
                        picard_tol=(_number, 1e-8), picard_max=(_INTEGER, 40)), {}),
    "initial": (_Section(_state, **_STATE), {}),
    "final": (_Section(_state, **_STATE), _NeededBy(("adjoint",))),
    "target": (_Section(_state, **_STATE), _NeededBy(("control", "nonlinear-control"))),
    "bc": (_Section(_signals, **{name: (_expression, None) for name in SIGNAL_NAMES}), {}),
    "observe": (_Section(lambda samples: samples, samples=(_COUNT, 20)), {}),
    "ucp": (_Section(_ucp, samples=(_COUNT, 200), L_min=(_POSITIVE, 0.05),
                     L_max=(_POSITIVE, 10.0), p_min=(_POSITIVE, 0.3),
                     p_max=(_POSITIVE, 3.0), tol=(_POSITIVE, 1e-6)), {}),
    "r0": (_Section(_r0, re=(_LINSPACE, [-10, 10, 9]), im=(_LINSPACE, [-10, 10, 9]),
                    lengths=(partial(_items, checks=_POSITIVE), [0.5, 1.0, math.pi, 5.0]),
                    tol=(_POSITIVE, 1e-8)), {}),
}


def _fields(mapping, table: dict, command, section: str = None) -> dict:
    """The checked value of every key of ``table`` in ``mapping``: one pass
    over keys, types, ranges and required keys, sections built in turn."""
    if not isinstance(mapping, dict):
        raise ScenarioError("must be a mapping", field=section or "scenario")
    prefix = f"{section}." if section else ""
    for key in mapping:
        if key not in table:
            raise ScenarioError("unknown key", field=f"{prefix}{key}")
    values = {}
    for key, (check, default) in table.items():
        field, value = prefix + key, mapping.get(key)
        if value is None and isinstance(default, _NeededBy):
            if default.commands is None or command in default.commands:
                raise ScenarioError("required key missing", field=field)
            default = None
        value = default if value is None else value
        if value is None:
            values[key] = None
        elif isinstance(check, _Section):
            values[key] = _checked(field, check.build,
                                   **_fields(value, check.fields, command, field))
        else:
            values[key] = check(value, field)
    return values


Scenario = make_dataclass("Scenario", ["raw", *_TABLE], frozen=True, eq=False, namespace={
    "__module__": __name__,
    "__doc__": """A checked scenario, one typed attribute per key of the schema table.

    ``raw`` is the file's mapping verbatim (run.json echoes it), and two
    scenarios are equal when their ``raw`` are.  ``params``, ``grid`` and
    ``config`` are None when not given.  ``initial``, ``final``, ``target``
    and ``bc`` are sampled on the grid, zeros where not given, and are None
    without a grid (``final`` and ``target`` also when not given).
    ``observe`` is the sample count, ``ucp`` the keyword arguments of
    ``spectral.ucp_sweep`` and ``r0`` the tuple (re axis, im axis, lengths,
    tol), each axis (lo, hi, points).
    """,
    "__eq__": lambda self, other: isinstance(other, Scenario) and self.raw == other.raw,
})


def _scenario(raw, base: str = "") -> Scenario:
    """The Scenario of a loaded mapping, checked against the table and
    sampled on its grid, state files read relative to the directory
    ``base``; every input error is a ScenarioError."""
    values = _fields(raw, _TABLE, raw.get("command") if isinstance(raw, dict) else None)
    g = values["grid"]
    if (values["command"] in _TRACED and g is not None
            and g.nt < tracenorm.MIN_SAMPLES):
        raise ScenarioError(f"{values['command']} needs at least "
                            f"{tracenorm.MIN_SAMPLES - 1} time steps for its trace "
                            f"norms, got {g.M}", field="grid.M")
    try:
        for key in ("initial", "final", "target", "bc"):
            values[key] = (None if g is None or values[key] is None
                           else _checked(key, values[key], g, key, base))
    except MemoryError as exc:  # an allocation numpy refused
        raise ScenarioError(f"too large to sample: {exc}", field="grid")
    if values["command"] == "nonlinear-control":  # the solver's own input check
        _checked("delta", hum.check_data_size, values["initial"], values["target"],
                 values["delta"], values["params"], g)
    return Scenario(raw=raw, **values)


def _load(path: str):
    """The YAML mapping of the scenario file at ``path``, unchecked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}")
    return _load_text(text)


def _load_text(text: str):
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"YAML parse failure: {exc}")
    except RecursionError:  # PyYAML composes nested nodes recursively
        raise ScenarioError("YAML parse failure: nested too deeply")
    if raw is None:
        raise ScenarioError("empty scenario")
    return raw


def parse_scenario_text(text: str) -> Scenario:
    """The Scenario of YAML text; state files are read relative to the
    working directory."""
    return _scenario(_load_text(text))


def parse_scenario(path: str) -> Scenario:
    """The Scenario of the file at ``path``; state files are read relative
    to its directory."""
    return _scenario(_load(path), os.path.dirname(path))


# -- CSV helpers --------------------------------------------------------------


def _cells(cols: list) -> list:
    """The fields of equal-shape columns: strings as they are, and every
    numeric column in one ``%.16e`` call (its fixed costs are per call)."""
    nums = iter(emit.format_e16(np.stack([c for c in cols if c.dtype.kind not in "US"])))
    return [emit.string_cells(c) if c.dtype.kind in "US" else next(nums) for c in cols]


def _csv(header: list, cols: list):
    """Chunks of the CSV text of columns that broadcast to one table shape,
    each with its number of axes (t as (M+1, 1) and x as (1, N+2) of a
    trajectory): the header, then a row per index in C order.  A broadcast
    column is formatted once, the others about ``_CHUNK`` values a chunk."""
    yield ",".join(header) + "\n"
    cols = [np.asarray(c) for c in cols]
    shape = np.broadcast_shapes(*(c.shape for c in cols))
    once = [None if c.shape == shape else _cells([c])[0] for c in cols]
    step = max(1, _CHUNK // (math.prod(shape[1:]) * sum(x is None for x in once)))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        fresh = iter(_cells([c[rows] for c, x in zip(cols, once) if x is None]))
        part = [next(fresh) if x is None else x[rows] if len(x) > 1 else x for x in once]
        yield emit.csv_rows((min(step, shape[0] - start),) + shape[1:], part)


def _trajectory_artifacts(traj: pde.Trajectory, traces: dict) -> dict:
    """trajectory.csv and traces.csv, as chunk generators."""
    g, z = traj.grid, traj.z
    return {"trajectory.csv": _csv(["t", "x", "u", "v"], [g.t[:, None], g.x[None, :],
                                                        z[:, :g.nx], z[:, g.nx:]]),
            "traces.csv": _csv(["t"] + pde.TRACE_NAMES, [g.t, *traces.values()])}


def _controls_csv(signals: pde.BoundarySignals, g: Grid):
    return _csv(["t"] + list(SIGNAL_NAMES), [g.t, *signals.as_array()])


# -- command runners ----------------------------------------------------------


def _run_simulate(sc: Scenario):
    p, g = sc.params, sc.grid
    traj, traces = pde.solve_linear_forward(p, g, sc.initial, sc.bc, scheme=sc.scheme)
    summary = {
        "terminal_x_norm": x_norm(traj.z[-1], p, g),
        "initial_x_norm": x_norm(sc.initial, p, g),
    }
    return summary, _trajectory_artifacts(traj, traces)


def _run_adjoint(sc: Scenario):
    p, g = sc.params, sc.grid
    traj, traces = pde.solve_adjoint_backward(p, g, sc.final, scheme=sc.scheme)
    summary = {
        "final_x_norm": x_norm(sc.final, p, g),
        "initial_x_norm": x_norm(traj.z[0], p, g),
    }
    return summary, _trajectory_artifacts(traj, traces)


def _run_control(sc: Scenario):
    res = hum.solve_control(sc.config, sc.initial, sc.target, sc.tol, sc.params,
                            sc.grid, scheme=sc.scheme)
    summary = {
        "iterations": res.iterations,
        "cg_residual": res.residuals[-1],
        "terminal_relative_error": res.terminal_error,
        "control_norms": {k: float(v) for k, v in res.controls.norms.items()},
    }
    return summary, {"controls.csv": _controls_csv(res.controls.signals, sc.grid)}


def _run_nonlinear_control(sc: Scenario):
    res = hum.solve_nonlinear_control(sc.initial, sc.target, sc.config, sc.delta,
                                      sc.params, sc.grid, scheme=sc.scheme, tol=sc.tol)
    summary = {
        "outer_iterations": res.iterations,
        "terminal_relative_error": res.terminal_error,
        "outer_history": [float(v) for v in res.history],
        "control_norms": {k: float(v) for k, v in res.controls.norms.items()},
    }
    return summary, {"controls.csv": _controls_csv(res.controls.signals, sc.grid)}


def _run_observe(sc: Scenario):
    rep = hum.estimate_observability(sc.config, sc.observe, sc.params, sc.grid,
                                     seed=sc.seed, scheme=sc.scheme)
    summary = {
        "config": rep.config.kind.value,
        "L": rep.L,
        "T": rep.T,
        "quotient_min": float(rep.quotient_min),
        "sample_count": int(rep.sample_count),
        "c_hidden": [float(v) for v in rep.c_hidden],
        "c1_squared": rep.c1_squared,
        # no sample is ever rejected; the key stays until ROADMAP item 3
        # changes the schema
        "rejected": 0,
    }
    if sc.config.is_three_control:
        summary["feasible_three_control"] = rep.feasible_three_control(sc.params)
    index = [str(i) for i in range(len(rep.quotients))]
    return summary, {"observability.csv": _csv(["sample", "quotient"],
                                               [index, rep.quotients])}


_CASE_NAMES = np.array([tag.value for tag in spectral.CASE_TAGS])


def _run_ucp_sweep(sc: Scenario):
    sweep = spectral.ucp_sweep(params=sc.params, seed=sc.seed, **sc.ucp)
    n = len(sweep)
    confirmed = int(np.count_nonzero(sweep.confirmed))
    summary = {"samples": n, "inconclusive": n - confirmed, "confirmed": confirmed}
    header = ["L", "re_p", "im_p", "case_tag", "dispersion", "verdict"]
    body = _csv(header, [
        sweep.L, sweep.p.real, sweep.p.imag, _CASE_NAMES[sweep.case_tag],
        np.where(np.isfinite(sweep.dispersion), sweep.dispersion, 1e308),
        np.where(sweep.confirmed, spectral.Verdict.OBSTRUCTION_CONFIRMED.value,
                 spectral.Verdict.INCONCLUSIVE.value),
    ])
    return summary, {"ucp.csv": body}


def _run_r0_check(sc: Scenario):
    (re_lo, re_hi, re_n), (im_lo, im_hi, im_n), lengths, tol = sc.r0
    L, re, im = (axis.ravel() for axis in np.meshgrid(
        lengths, np.linspace(re_lo, re_hi, re_n), np.linspace(im_lo, im_hi, im_n),
        indexing="ij"))
    s = np.empty(L.size, dtype=complex)
    s.real, s.imag = re, im
    rep = spectral.r0_eigencheck(L, s, tol=tol)
    summary = {"sigma_min": float(np.min(rep.sigma_min)),
               "certified": bool(np.all(rep.certified)), "points": int(L.size)}
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
COMMANDS = tuple(_RUNNERS)


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
            # ``text`` is the only reference to the text so far, which
            # CPython extends in place: the text is held once, where a
            # list of chunks and their join would hold it twice
            text = ""
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    text += chunk
            texts[name] = text
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

    Exit codes: 0 success, else the ``exit_code`` of the GGKdVError raised
    (2 input, 3 numerical, 4 three-control feasibility), 3 for a refused
    allocation and 2 for an unwritable output directory.
    Every runner finishes its numerical work before it returns; its
    artifacts are chunk generators that only format, consumed by the write.
    ``RunResult.artifacts`` maps each artifact name to the text written.
    """
    try:
        raw = _load(path)
        if seed is not None and isinstance(raw, dict):
            raw = dict(raw, seed=seed)
        sc = _scenario(raw, os.path.dirname(path))
        summary, artifacts = _RUNNERS[sc.command](sc)
    except GGKdVError as exc:
        return RunResult(exc.exit_code, {}, {}, message=str(exc))
    except MemoryError as exc:
        return RunResult(3, {}, {}, message=f"out of memory: {exc}")

    run_json = {
        "command": sc.command,
        "seed": sc.seed,
        "scenario": sc.raw,
        "summary": summary,
    }
    try:  # strict JSON: a non-finite number is a numerical failure
        text = json.dumps(run_json, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        return RunResult(3, {}, {}, message=f"run.json would not be strict JSON: {exc}")
    out_dir = output_dir or sc.output_dir or "."
    try:
        texts = _atomic_write(out_dir, dict(artifacts, **{"run.json": [text]}))
    except OSError as exc:
        return RunResult(2, {}, {}, message=f"cannot write artifacts: {exc}")
    return RunResult(0, summary, texts)
