"""Generated scenarios against the CLI's exit-code contract.

Keys are drawn from the schema table itself, with valid values mixed with
wrong-typed ones (booleans, strings, lists, null).  Grid sizes and sample
counts are capped here, in the generator, so that every run is small.
"""

import contextlib
import dataclasses
import io
import os
import random
import shutil
import tempfile

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkdv.cli import main as cli_main
from ggkdv.scenario import _RUNNERS, _TABLE, COMMANDS, Scenario, _NeededBy, _Section

# A valid value of each field, capped so that every run is small.  The u, v
# and bc fields take EXPRESSIONS; ``file`` is left null (not given).
GOOD = {
    "command": st.sampled_from(COMMANDS),
    "seed": st.integers(0, 9),
    "output_dir": st.just("elsewhere"),
    "tol": st.sampled_from([1e-3, "1e-3", 0.05]),
    "delta": st.sampled_from([0.1, 1.0]),
    "config": st.sampled_from(["FOUR_I", "THREE_V",
                               {"mask": [True, False, False, False, False, True]}]),
    "params.a": st.sampled_from([0.2, -0.3]),
    "params.b": st.sampled_from([1.0, 0.5]),
    "params.c": st.sampled_from([1.0, 2.0]),
    "params.r": st.sampled_from([1.0, 0.0]),
    "params.a1": st.sampled_from([0.0, 0.3]),
    "params.a2": st.sampled_from([0.0, 0.2]),
    "grid.L": st.sampled_from([1.0, 2.0]),
    "grid.N": st.integers(8, 12),
    "grid.T": st.sampled_from([0.25, 0.5]),
    "grid.M": st.integers(2, 12),
    "scheme.theta": st.sampled_from([0.5, 1.0]),
    "scheme.picard_tol": st.sampled_from([1e-8, 1e-4]),
    "scheme.picard_max": st.sampled_from([40, 2]),
    "observe.samples": st.integers(1, 3),
    "ucp.samples": st.integers(1, 8),
    "ucp.L_min": st.sampled_from([0.5, 1.0]),
    "ucp.L_max": st.sampled_from([1.0, 3.0]),
    "ucp.p_min": st.sampled_from([0.5, 1.0]),
    "ucp.p_max": st.sampled_from([2.0]),
    "ucp.tol": st.sampled_from([1e-6]),
    "r0.re": st.sampled_from([[-1, 1, 2], [0, 1, 1]]),
    "r0.im": st.sampled_from([[-1, 1, 2], [2, 1, 1]]),
    "r0.lengths": st.sampled_from([[1.0], [0.5, 2.0]]),
    "r0.tol": st.sampled_from([1e-8]),
}
EXPRESSIONS = st.sampled_from(["0", "1e-3*sin(x)", "1e-2*gaussian(0.5,0.1)", 0, 0.5])
# Well-typed values that a domain check, or sampling on the grid, rejects.
EDGE = {
    "config": "FOUR_X", "params.a": 2.0, "grid.N": 6, "grid.T": 1.0e+309,
    "scheme.theta": 0.3, "observe.samples": 0, "ucp.L_min": 20.0,
    "r0.lengths": [], "file": "nope.csv",
}
BAD_EXPRESSIONS = st.sampled_from(["1/(x-x)", "exp(1000)", "1e308*10", "sin(",
                                   "(" * 200 + "x" + ")" * 200,
                                   "+".join(["x"] * 1501), "-" * 2000 + "x"])
UNKNOWN = ["zz", 1, True]  # keys that are not in the table
# Wrong-typed values: booleans, null, strings, lists, integers.
WRONG = st.one_of(st.booleans(), st.none(), st.integers(-3, 3),
                  st.sampled_from(["", "abc", "nan", "1e-3"]),
                  st.lists(st.integers(-2, 2), max_size=3))


def value(draw, rnd, path):
    """A valid value of ``path``, or now and then an edge or wrong one."""
    name = path.rpartition(".")[2]
    kind = rnd.random()
    if kind < 0.02:
        return draw(WRONG)
    if kind < 0.04:
        if path in EDGE or name in EDGE:
            return EDGE.get(path, EDGE.get(name))
        return draw(BAD_EXPRESSIONS if path not in GOOD else WRONG)
    if name == "file":
        return None
    return draw(GOOD.get(path, EXPRESSIONS))


def given_often(rnd, default, command):
    """Whether to give a key: most of the time if ``command`` needs it,
    less often if not."""
    needed = isinstance(default, _NeededBy) and (
        default.commands is None or command in default.commands)
    return rnd.random() < (0.98 if needed else 0.3)


@st.composite
def scenarios(draw):
    # which keys to give, and whether a value is wrong, is decided by a
    # seeded Random: hypothesis's own draws favour the ends of their ranges,
    # which would make nearly every scenario invalid
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    command = value(draw, rnd, "command")
    raw = {"command": command}
    for key, (check, default) in _TABLE.items():
        if key == "command" or not given_often(rnd, default, command):
            continue
        if not isinstance(check, _Section):
            raw[key] = value(draw, rnd, key)
        elif rnd.random() < 0.02:
            raw[key] = draw(WRONG)
        else:
            raw[key] = {k: value(draw, rnd, f"{key}.{k}")
                        for k, (_, d) in check.fields.items()
                        if given_often(rnd, d, command)}
            if rnd.random() < 0.03:
                raw[key][rnd.choice(UNKNOWN)] = 1
    if rnd.random() < 0.03:
        raw[rnd.choice(UNKNOWN)] = 1
    return raw


def cli(*args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(args))
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scenarios())
def test_generated_scenarios_keep_the_exit_code_contract(raw):
    root = tempfile.mkdtemp()
    try:
        path, out = os.path.join(root, "scen.yaml"), os.path.join(root, "out")
        with open(path, "w") as fh:
            yaml.safe_dump(raw, fh, sort_keys=False)
        checked, check_err = cli("validate", path)
        code, run_err = cli("run", path, "--output-dir", out)
        assert checked in (0, 2)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in check_err + run_err
        if code != 0:
            assert not os.path.exists(out) or not os.listdir(out)
        # validate rejects exactly what run rejects as input (the output
        # directory here is always writable)
        assert (checked == 2) == (code == 2), (check_err, run_err)
    finally:
        shutil.rmtree(root)


@pytest.mark.parametrize("command", ["control", "nonlinear-control", "observe",
                                     "simulate", "adjoint"])
def test_trace_norm_commands_reject_two_time_steps(tmp_path, command):
    # M = 2 gives 3 time levels; the trace norms need 4
    raw = {"command": command, "params": {"a": 0.2, "b": 1.0, "c": 1.0, "r": 1.0},
           "grid": {"L": 1.0, "N": 8, "T": 0.25, "M": 2}, "config": "FOUR_I",
           "target": {"u": "1e-3*sin(x)"}, "final": {"u": "1e-3*sin(x)"}}
    path, out = tmp_path / "scen.yaml", tmp_path / "out"
    path.write_text(yaml.safe_dump(raw))
    checked, check_err = cli("validate", str(path))
    code, run_err = cli("run", str(path), "--output-dir", str(out))
    assert "Traceback" not in check_err + run_err
    if command in ("simulate", "adjoint"):
        assert checked == code == 0
    else:
        assert checked == code == 2
        assert "grid.M" in check_err and "grid.M" in run_err
        assert not out.exists()


def test_scenario_fields_and_commands_come_from_the_table_and_runners():
    assert [f.name for f in dataclasses.fields(Scenario)] == ["raw", *_TABLE]
    assert COMMANDS == tuple(_RUNNERS)
    raw = {"command": "r0-check"}
    sc = Scenario(raw=raw, **{key: None for key in _TABLE})
    assert sc == Scenario(raw=dict(raw), **{key: 0 for key in _TABLE})
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.seed = 1
