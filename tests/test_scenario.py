import json
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml

import ggkdv
from ggkdv import hum, scenario, spectral
from ggkdv.cli import main as cli_main
from ggkdv.core import Grid
from ggkdv.errors import (ConstraintViolation, ExpressionError, FeasibilityError,
                          GGKdVError, NonConvergence, NumericalError, ScenarioError)
from ggkdv.scenario import parse_scenario_text, run_scenario
from ggkdv.tracenorm import sobolev_trace_norm

MINIMAL_SIMULATE = """
command: simulate
seed: 3
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 16, T: 0.25, M: 16}
"""

CONTROL_SCENARIO = """
command: control
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 128, T: 1.0, M: 512}
config: FOUR_I
target: {u: "1e-2*gaussian(0.5,0.1)", v: "0"}
tol: 1.0e-3
"""


def write(tmp_path, text, name="scen.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_roundtrip():
    sc = parse_scenario_text(MINIMAL_SIMULATE)
    assert parse_scenario_text(yaml.safe_dump(sc.raw, sort_keys=True)) == sc


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError, match="paramss"):
        parse_scenario_text(MINIMAL_SIMULATE.replace("params:", "paramss:"))


def test_unknown_nested_key_rejected():
    bad = MINIMAL_SIMULATE.replace("a: 0.2", "a: 0.2, zz: 1")
    with pytest.raises(ScenarioError, match="params.zz"):
        parse_scenario_text(bad)


def test_missing_required_section():
    with pytest.raises(ScenarioError, match="grid"):
        parse_scenario_text("command: simulate\nparams: {a: 0, b: 1, c: 1, r: 0}\n")


def test_bad_command():
    with pytest.raises(ScenarioError, match="command"):
        parse_scenario_text("command: fly\n")


def test_minimal_simulate_artifacts(tmp_path):
    path = write(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 0
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    # header + (N+2)(M+1) rows
    assert len(rows) == 1 + 18 * 17
    assert rows[0] == "t,x,u,v"
    traces = (out / "traces.csv").read_text().strip().splitlines()
    assert len(traces) == 1 + 17
    assert len(traces[0].split(",")) == 13
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "simulate"
    assert run["summary"]["terminal_x_norm"] == 0.0


def test_parse_error_exit_code(tmp_path):
    path = write(tmp_path, MINIMAL_SIMULATE.replace("params:", "paramss:"))
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 2
    assert not (tmp_path / "out").exists()


def test_determinism_bitwise(tmp_path):
    path = write(
        tmp_path,
        """
command: observe
seed: 5
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 24, T: 0.5, M: 32}
config: FOUR_I
observe: {samples: 3}
""",
    )
    outs = []
    for d in ("o1", "o2"):
        out = tmp_path / d
        assert run_scenario(path, output_dir=str(out)).exit_code == 0
        outs.append((out / "observability.csv").read_bytes())
    assert outs[0] == outs[1]


def test_error_paths_write_nothing(tmp_path):
    # numerical failure: Picard cannot contract at huge amplitude
    path = write(
        tmp_path,
        """
command: nonlinear-control
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.5, a2: 0.5}
grid: {L: 1.0, N: 16, T: 0.5, M: 16}
config: FOUR_I
target: {u: "40*gaussian(0.5,0.1)", v: "0"}
delta: 1000.0
scheme: {picard_max: 8}
""",
    )
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 3
    assert not out.exists()


def test_feasibility_exit_code(tmp_path):
    path = write(
        tmp_path,
        """
command: control
params: {a: 0.1, b: 0.1, c: 0.05, r: 1.0}
grid: {L: 1.0, N: 24, T: 1.0, M: 96}
config: THREE_V
target: {u: "1e-3*gaussian(0.5,0.1)", v: "0"}
""",
    )
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 4
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mask", ["[true, true, false, true, false, false]",
                                  "[true, false, false, true, true, false]"])
def test_custom_three_control_mask_takes_the_feasibility_gate(tmp_path, mask):
    # a custom mask equal to THREE_V or THREE_VI is a three-control run
    path = write(
        tmp_path,
        f"""
command: control
params: {{a: 0.9, b: 1.2, c: 0.05, r: 1.0}}
grid: {{L: 1, N: 24, T: 1, M: 64}}
config: {{mask: {mask}}}
target: {{u: "1e-3*gaussian(0.5,0.1)", v: "0"}}
""",
    )
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 4
    assert not (tmp_path / "out").exists()


def test_ucp_sweep_command(tmp_path):
    path = write(
        tmp_path,
        """
command: ucp-sweep
seed: 1
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
ucp: {samples: 24}
""",
    )
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 0
    assert result.summary["inconclusive"] == 0
    rows = (out / "ucp.csv").read_text().strip().splitlines()
    assert len(rows) == 25
    assert rows[0] == "L,re_p,im_p,case_tag,dispersion,verdict"


def test_r0_check_command(tmp_path):
    path = write(
        tmp_path,
        """
command: r0-check
r0: {re: [-4, 4, 3], im: [-4, 4, 3], lengths: [1.0]}
""",
    )
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 0
    assert result.summary["certified"]


def test_adjoint_command(tmp_path):
    path = write(
        tmp_path,
        """
command: adjoint
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 16, T: 0.25, M: 16}
final: {u: "sin(3.141592653589793*x)", v: "0"}
""",
    )
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=str(out)).exit_code == 0
    assert (out / "traces.csv").exists()


def test_state_file_input(tmp_path):
    g_nx = 18
    lines = ["u,v"] + [f"{0.1 * i},{0.2 * i}" for i in range(g_nx)]
    state = tmp_path / "state.csv"
    state.write_text("\n".join(lines) + "\n")
    path = write(
        tmp_path,
        f"""
command: simulate
params: {{a: 0.2, b: 1.0, c: 1.0, r: 1.0}}
grid: {{L: 1.0, N: 16, T: 0.25, M: 16}}
initial: {{file: "{state}"}}
""",
    )
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 0
    assert result.summary["initial_x_norm"] > 0


def test_state_file_is_read_beside_the_scenario(tmp_path, capsys, monkeypatch):
    scen_dir, elsewhere = tmp_path / "dir", tmp_path / "elsewhere"
    scen_dir.mkdir()
    elsewhere.mkdir()
    (scen_dir / "state.csv").write_text("u,v\n" + "0.5,0.25\n" * 18)
    text = MINIMAL_SIMULATE + "initial: {file: state.csv}\n"
    path = write(scen_dir, text)
    monkeypatch.chdir(elsewhere)
    assert cli_main(["validate", path]) == 0
    assert cli_main(["run", path, "--output-dir", "out"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (elsewhere / "out" / "trajectory.csv").exists()
    # text has no directory of its own: its files are read from the cwd
    with pytest.raises(ScenarioError, match="cannot read state file"):
        parse_scenario_text(text)
    monkeypatch.chdir(scen_dir)
    assert parse_scenario_text(text).initial.u[0] == 0.5


@pytest.mark.parametrize("both", ['u: "sin(x)"', 'v: "0"'])
def test_state_file_excludes_expressions(tmp_path, capsys, both):
    state = tmp_path / "state.csv"
    state.write_text("u,v\n" + "0.0,0.0\n" * 18)
    path = write(tmp_path, MINIMAL_SIMULATE + f'initial: {{{both}, file: "{state}"}}\n')
    out = tmp_path / "out"
    assert cli_main(["validate", path]) == 2
    assert cli_main(["run", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("not both") == 2
    assert not out.exists() or not any(out.iterdir())


def test_cli_validate_and_run(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_SIMULATE)
    assert cli_main(["validate", path]) == 0
    bad = write(tmp_path, "command: fly\n", name="bad.yaml")
    assert cli_main(["validate", bad]) == 2
    out = tmp_path / "cli-out"
    assert cli_main(["run", path, "--output-dir", str(out)]) == 0
    assert (out / "run.json").exists()


@pytest.mark.slow
def test_control_scenario_end_to_end(tmp_path):
    path = write(tmp_path, CONTROL_SCENARIO)
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 0
    rows = (out / "controls.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 513  # header + M+1 rows
    run = json.loads((out / "run.json").read_text())
    assert run["summary"]["terminal_relative_error"] <= 1e-2


@pytest.mark.parametrize("amp", ["1e-14", "1e-100"])
@pytest.mark.parametrize("command", ["control", "nonlinear-control"])
def test_tiny_targets_are_steered(tmp_path, command, amp):
    # CGLS is scale-free, so a tiny nonzero target is solved like any other:
    # controls and a terminal error at the CG tolerance, not zero controls
    # and an error of 1 or a denominator floor
    path = write(tmp_path, f"""
command: {command}
params: {{a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.4, a2: 0.3}}
grid: {{L: 1.0, N: 48, T: 1.0, M: 192}}
config: FOUR_I
target: {{u: "{amp}*gaussian(0.5,0.1)", v: "0"}}
tol: 1.0e-3
""")
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    err = result.summary["terminal_relative_error"]
    assert 1e-4 <= err <= 1e-2
    if command == "control":
        assert result.summary["iterations"] > 0
        assert err == pytest.approx(result.summary["cg_residual"], rel=1e-6)
    else:
        assert result.summary["outer_iterations"] == 1


def test_underflowing_targets_are_the_scaled_run(tmp_path):
    # a target 2^-560 times the benchmark's: its squared X-norm (about
    # 1e-341) underflows, which stalled CGLS at a NaN residual.  CGLS and
    # every ratio over ||target||_X run on data scaled by a power of two,
    # which is exact, so the run is the 1e-2 run scaled, bit for bit.  Its
    # nonlinear terms underflow to zero, so nonlinear-control is that run too.
    runs = {}
    for command, scale in (("control", ""), ("control", "2^-560*"),
                           ("nonlinear-control", "2^-560*")):
        path = write(tmp_path, f"""
command: {command}
params: {{a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.4, a2: 0.3}}
grid: {{L: 1.0, N: 32, T: 1.0, M: 128}}
config: FOUR_I
target: {{u: "1e-2*{scale}gaussian(0.5,0.1)", v: "0"}}
tol: 5.0e-2
""")
        out = tmp_path / f"{command}{scale}"
        result = run_scenario(path, output_dir=str(out))
        assert result.exit_code == 0
        controls = np.loadtxt(out / "controls.csv", delimiter=",", skiprows=1)
        runs[command, scale] = result.summary, controls[:, 1:]
    (big, cbig), (tiny, ctiny) = runs["control", ""], runs["control", "2^-560*"]
    assert big["iterations"] == tiny["iterations"] == 26
    assert 0 < big["terminal_relative_error"] <= 5e-2
    for key in ("cg_residual", "terminal_relative_error"):
        assert tiny[key] == big[key]
    assert np.any(cbig) and np.array_equal(ctiny, np.ldexp(cbig, -560))
    assert tiny["control_norms"] == {k: np.ldexp(v, -560)
                                     for k, v in big["control_norms"].items()}
    assert big["control_norms"]["h0"] > 0
    nonlinear, cnonlinear = runs["nonlinear-control", "2^-560*"]
    assert nonlinear["outer_iterations"] == 1
    assert nonlinear["outer_history"] == [0.0]
    assert nonlinear["terminal_relative_error"] == big["terminal_relative_error"]
    assert nonlinear["control_norms"] == tiny["control_norms"]
    assert np.array_equal(cnonlinear, ctiny)


def test_emitted_csv_files_parse_back(tmp_path):
    path = write(
        tmp_path,
        """
command: simulate
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 16, T: 0.25, M: 16}
initial: {u: "sin(3.141592653589793*x)", v: "0"}
bc: {h1: "0.1*sin(6.28*x)"}
""",
    )
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=str(out)).exit_code == 0
    traj = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert traj.shape == (18 * 17, 4)
    traces = np.loadtxt(out / "traces.csv", delimiter=",", skiprows=1)
    assert traces.shape == (17, 13)
    assert np.all(np.isfinite(traj)) and np.all(np.isfinite(traces))


def test_cli_seed_override(tmp_path):
    text = """
command: observe
seed: 5
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 24, T: 0.5, M: 32}
config: FOUR_I
observe: {samples: 2}
"""
    path = write(tmp_path, text, name="obs.yaml")
    outs = {}
    for label, args in (
        ("default", ["run", path, "--output-dir"]),
        ("seed9", ["run", path, "--seed", "9", "--output-dir"]),
    ):
        out = tmp_path / label
        assert cli_main(args + [str(out)]) == 0
        outs[label] = json.loads((out / "run.json").read_text())
    assert outs["default"]["seed"] == 5
    assert outs["seed9"]["seed"] == 9
    q1 = outs["default"]["summary"]["quotient_min"]
    q2 = outs["seed9"]["summary"]["quotient_min"]
    assert q1 != q2


def test_observe_three_control_reports_feasibility(tmp_path):
    path = write(
        tmp_path,
        """
command: observe
params: {a: 0.9, b: 1.2, c: 1.5, r: 1.0}
grid: {L: 1.0, N: 32, T: 1.0, M: 128}
config: THREE_V
observe: {samples: 4}
""",
    )
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    assert "feasible_three_control" in result.summary
    assert isinstance(result.summary["feasible_three_control"], bool)


def test_invalid_section_values_exit_2(tmp_path):
    cases = [
        # missing parameter key
        "command: simulate\nparams: {a: 0.2, b: 1.0, c: 1.0}\n"
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}\n",
        # grid too coarse
        "command: simulate\nparams: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\n"
        "grid: {L: 1.0, N: 4, T: 0.25, M: 16}\n",
        # coefficient constraint violated
        "command: simulate\nparams: {a: 2.0, b: 1.0, c: 1.0, r: 1.0}\n"
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}\n",
        # unknown configuration name
        "command: observe\nparams: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\n"
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}\nconfig: FOUR_X\n",
    ]
    for i, text in enumerate(cases):
        path = write(tmp_path, text, name=f"bad{i}.yaml")
        result = run_scenario(path, output_dir=str(tmp_path / f"o{i}"))
        assert result.exit_code == 2, (i, result.message)


UCP_BASE = "command: ucp-sweep\nparams: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\n"

OBSERVE_BASE = """
command: observe
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: 16, T: 0.25, M: 16}
config: FOUR_I
"""


# ||target|| = 1.77 in the X-norm, far above delta
NONLINEAR_OVERSIZED = """
command: nonlinear-control
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.4, a2: 0.3}
grid: {L: 1.0, N: 16, T: 1.0, M: 32}
config: FOUR_I
target: {u: "5*gaussian(0.5,0.1)", v: "0"}
delta: 0.1
"""


@pytest.mark.parametrize(
    "text",
    [
        "command: r0-check\nr0: {re: [1, 2]}\n",
        OBSERVE_BASE + "observe: {samples: 0}\n",
        CONTROL_SCENARIO.replace("tol: 1.0e-3", "tol: abc"),
        OBSERVE_BASE + "seed: -3\n",
        MINIMAL_SIMULATE + "initial: [1, 2]\n",
        "command: ucp-sweep\nparams: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\n"
        "ucp: {samples: -1}\n",
        MINIMAL_SIMULATE + "scheme: {picard_max: 2.7}\n",
        MINIMAL_SIMULATE + 'bc: {h0: "sin("}\n',
        MINIMAL_SIMULATE + 'initial: {u: "exp(", v: "0"}\n',
        UCP_BASE + "ucp: {samples: 8, L_min: 5, L_max: 1}\n",
        UCP_BASE + "ucp: {samples: 8, p_min: 5, p_max: 1}\n",
        OBSERVE_BASE.replace("config: FOUR_I", "config: {mask: [false, false, "
                             "false, false, false, false]}"),
        OBSERVE_BASE.replace("config: FOUR_I", 'config: {mask: ["false", '
                             '"false", 0, 0, 0, 1]}'),
        MINIMAL_SIMULATE.replace("L: 1.0", "L: true"),
        MINIMAL_SIMULATE.replace("r: 1.0", "r: true"),
        MINIMAL_SIMULATE + "scheme: {picard_tol: true}\n",
        MINIMAL_SIMULATE + "output_dir: 5\n",
        MINIMAL_SIMULATE + 'initial: {u: "1/(x-x)"}\n',
        MINIMAL_SIMULATE + 'initial: {u: "exp(1000)"}\n',
        MINIMAL_SIMULATE + "initial: {file: nope.csv}\n",
        MINIMAL_SIMULATE + 'initial: {u: "%sx%s"}\n' % ("(" * 200, ")" * 200),
        MINIMAL_SIMULATE + 'initial: {u: "%s"}\n' % "+".join(["x"] * 1501),
        MINIMAL_SIMULATE + 'initial: {u: "%sx"}\n' % ("-" * 2000),
        "command: simulate\nparams: " + "[" * 10000 + "]" * 10000 + "\n",
        MINIMAL_SIMULATE.replace("a: 0.2", "a: 1.0e200"),
        MINIMAL_SIMULATE.replace("c: 1.0", "c: 1.0e-320"),
        NONLINEAR_OVERSIZED,
        MINIMAL_SIMULATE + 'initial: {u: "x^-1"}\n',
        "command: r0-check\nr0: {re: [-1.0e308, 1.0e308, 3], im: [0, 0, 1], lengths: [1.0]}\n",
        "command: r0-check\nr0: {re: [0, 0, 1], im: [-1.0e308, 1.0e308, 3], lengths: [1.0]}\n",
    ],
    ids=["r0-axis", "observe-samples", "tol", "seed", "initial-list",
         "ucp-samples", "picard-max", "bc-syntax", "initial-syntax",
         "ucp-L-range", "ucp-p-range", "mask-all-false", "mask-not-booleans",
         "grid-bool", "params-bool", "scheme-bool", "output-dir-int",
         "initial-div-zero", "initial-overflow", "initial-missing-file",
         "initial-deep-parens", "initial-long-sum", "initial-deep-signs",
         "yaml-deep", "params-a-overflow", "params-b-over-c-overflow",
         "nonlinear-delta", "initial-zero-negative-power", "r0-re-span-overflow",
         "r0-im-span-overflow"],
)
def test_validate_rejects_what_run_rejects(tmp_path, capsys, text):
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli_main(["validate", path]) == 2
    assert cli_main(["run", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("invalid scenario") == 1 and err.count("error:") == 1
    assert not out.exists() or not any(out.iterdir())


# README's exit code of each error type
EXIT_CODES = {GGKdVError: 3, ConstraintViolation: 3, NumericalError: 3,
              NonConvergence: 3, FeasibilityError: 4, ExpressionError: 2,
              ScenarioError: 2}


def test_every_error_type_carries_its_exit_code():
    types = (GGKdVError, *GGKdVError.__subclasses__())
    assert {cls: cls.exit_code for cls in types} == EXIT_CODES


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda cls: cls.__name__)
def test_run_exits_with_the_exit_code_of_the_error_raised(tmp_path, capsys,
                                                          monkeypatch, cls):
    def fail(sc):
        raise cls("boom")

    monkeypatch.setitem(scenario._RUNNERS, "simulate", fail)
    path = write(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    assert run_scenario(path, output_dir=str(out)).exit_code == EXIT_CODES[cls]
    assert cli_main(["run", path, "--output-dir", str(out)]) == EXIT_CODES[cls]
    assert capsys.readouterr().err == "error: boom\n"
    assert not out.exists()


def raise_memory_error(*args, **kwargs):
    # stands in for an allocation numpy refuses; no test asks for the real one,
    # which a host that overcommits memory may grant
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


def test_grid_too_large_to_sample_is_a_grid_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Grid, "x", property(raise_memory_error))
    with pytest.raises(ScenarioError, match="^grid: too large to sample: Unable"):
        parse_scenario_text(MINIMAL_SIMULATE)
    path = write(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    assert cli_main(["validate", path]) == 2
    assert cli_main(["run", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("grid: too large to sample") == 2
    assert not out.exists()


def test_runner_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spectral, "_ucp_draws", raise_memory_error)
    path = write(tmp_path, UCP_BASE + "ucp: {samples: 8}\n")
    out = tmp_path / "out"
    assert cli_main(["validate", path]) == 0
    assert cli_main(["run", path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert not out.exists()


def test_oversized_nonlinear_data_is_a_delta_error():
    # the scenario names the field; the solver keeps its own check
    with pytest.raises(ScenarioError, match=r"delta: data too large: .* = 1\.77 > "
                       r"delta = 0\.1"):
        parse_scenario_text(NONLINEAR_OVERSIZED)
    sc = parse_scenario_text(NONLINEAR_OVERSIZED.replace("delta: 0.1", "delta: 2.0"))
    with pytest.raises(ConstraintViolation, match="data too large"):
        hum.solve_nonlinear_control(sc.initial, sc.target, sc.config, 0.1,
                                    sc.params, sc.grid)


def test_scenario_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "scen.yaml"
    path.write_bytes(b"\xff\xfecommand: simulate\n")
    out = tmp_path / "out"
    assert cli_main(["validate", str(path)]) == 2
    assert cli_main(["run", str(path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("cannot read scenario") == 2
    assert not out.exists()


def test_numeric_string_is_a_number():
    # PyYAML reads 1e-3 (no dot) as a string; numeric fields still take it
    assert yaml.safe_load("tol: 1e-3") == {"tol": "1e-3"}
    assert parse_scenario_text(MINIMAL_SIMULATE + "tol: 1e-3\n").tol == 0.001


def test_seed_override_is_checked_like_the_file_seed(tmp_path, capsys):
    # simulate never reads the seed, but run.json echoes it
    path = write(tmp_path, MINIMAL_SIMULATE.replace("seed: 3\n", ""))
    out = tmp_path / "out"
    assert cli_main(["run", path, "--seed", "-3", "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: seed: ")
    assert not out.exists()


def test_seed_override_parses_once(tmp_path, monkeypatch):
    calls = []
    parse = scenario._scenario
    monkeypatch.setattr(scenario, "_scenario",
                        lambda raw, base: calls.append(raw) or parse(raw, base))
    path = write(tmp_path, MINIMAL_SIMULATE)
    result = run_scenario(path, output_dir=str(tmp_path / "out"), seed=9)
    assert result.exit_code == 0
    assert len(calls) == 1 and calls[0]["seed"] == 9
    assert json.loads((tmp_path / "out" / "run.json").read_text())["seed"] == 9


def test_integer_output_dir_exits_2_without_override(tmp_path, capsys, monkeypatch):
    # the output directory comes from the scenario itself
    monkeypatch.chdir(tmp_path)
    path = write(tmp_path, MINIMAL_SIMULATE + "output_dir: 5\n")
    assert cli_main(["run", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("error: output_dir: ")
    assert sorted(os.listdir(tmp_path)) == ["scen.yaml"]


def test_equal_ucp_bounds_are_valid(tmp_path):
    path = write(tmp_path, UCP_BASE + "ucp: {samples: 8, L_min: 2, L_max: 2, "
                                      "p_min: 1, p_max: 1}\n")
    assert run_scenario(path, output_dir=str(tmp_path / "out")).exit_code == 0


@pytest.mark.parametrize(
    "text",
    [
        UCP_BASE + "ucp: {samples: 16, p_min: 1.0e+200, p_max: 1.0e+201}\n",
        UCP_BASE + "seed: 5\nucp: {samples: 160, L_min: 300.0, L_max: 3000.0}\n",
        "command: r0-check\nr0: {re: [-10, 10, 3], im: [-10, 10, 3], "
        "lengths: [1000.0]}\n",
        "command: r0-check\nr0: {re: [1.0e+300, 1.0e+301, 2], im: [-10, 10, 3]}\n",
    ],
    ids=["ucp-p-overflow", "ucp-w-overflow", "r0-long-interval", "r0-huge-s"],
)
def test_non_finite_spectral_matrices_exit_3(tmp_path, capsys, text):
    path = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli_main(["validate", path]) == 0
    assert cli_main(["run", path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1 and "finite" in err and "L = " in err
    assert not out.exists() or not any(out.iterdir())


def test_root_polish_overflow_exits_3_without_warning(tmp_path):
    # r = 1e150 overflows the Newton polish of two roots to NaN; the NaN
    # residual must fail the refinement check, with no numpy warning
    path = write(tmp_path, UCP_BASE.replace("r: 1.0", "r: 1.0e150")
                 + "ucp: {samples: 16}\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ggkdv.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ggkdv.cli", "run", path, "--output-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.count("error:") == 1 and "root refinement failed" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_artifacts_honour_umask(tmp_path, umask):
    path = write(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert run_scenario(path, output_dir=str(out)).exit_code == 0
        with open(out / "plain.txt", "w") as fh:
            fh.write("x")
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(out / "plain.txt").st_mode)
    assert want == 0o666 & ~umask
    for name in ("run.json", "trajectory.csv", "traces.csv"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == want, name
    # the write-then-rename leaves no temporary files behind
    assert sorted(os.listdir(out)) == ["plain.txt", "run.json", "traces.csv",
                                       "trajectory.csv"]


def test_custom_mask_of_booleans_parses():
    sc = parse_scenario_text(OBSERVE_BASE.replace(
        "config: FOUR_I", "config: {mask: [true, false, false, false, false, true]}"))
    assert sc.config.mask == (True, False, False, False, False, True)


def test_observe_at_tiny_horizon_finishes(tmp_path):
    # without the cap at N + 1 modes, T = 1e-300 asks for ~1e100 sampled
    # modes and never returns; a subprocess bounds the wait
    path = write(tmp_path, OBSERVE_BASE.replace(
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}",
        "grid: {L: 1.0, N: 16, M: 32, T: 1.0e-300}"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ggkdv.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ggkdv.cli", "run", path,
         "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr


def test_observe_with_non_finite_estimates_exits_3(tmp_path, capsys):
    # T = 1e-300 overflows the trace norms: exit 3, no files, no traceback
    path = write(tmp_path, OBSERVE_BASE.replace(
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}",
        "grid: {L: 1.0, N: 16, M: 32, T: 1.0e-300}") + "observe: {samples: 3}\n")
    out = tmp_path / "out"
    assert cli_main(["run", path, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error:") == 1 and "finite" in err
    assert not out.exists() or not any(out.iterdir())


TINY_DOMAIN = "grid: {L: 1.0e-30, N: 16, T: 1.0, M: 32}"


def test_observe_on_a_tiny_domain_exits_0(tmp_path):
    # the X-norm of a sample scales with sqrt(L), about 1e-15 here; any
    # positive finite norm normalizes
    path = write(tmp_path, OBSERVE_BASE.replace(
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}", TINY_DOMAIN) + "observe: {samples: 3}\n")
    result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0, result.message
    assert len(result.artifacts["observability.csv"].splitlines()) == 4
    assert result.summary["sample_count"] == 3


def test_three_control_gate_on_a_tiny_domain_exits_4(tmp_path):
    path = write(tmp_path, f"""
command: control
params: {{a: 0.2, b: 1.0, c: 1.0, r: 1.0}}
{TINY_DOMAIN}
config: THREE_V
target: {{u: "1e-3", v: "0"}}
""")
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 4, result.message
    assert "three-control condition failed" in result.message
    assert not out.exists()


def test_unusable_output_dir_exits_2(tmp_path, capsys):
    path = write(tmp_path, MINIMAL_SIMULATE)
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    assert cli_main(["run", path, "--output-dir", str(afile / "out")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("error: cannot write artifacts:") == 1
    assert afile.read_text() == "not a directory"
    assert sorted(os.listdir(tmp_path)) == ["afile", "scen.yaml"]


@pytest.mark.parametrize("squatted", ["trajectory.csv", "run.json"])
def test_failed_rename_leaves_no_temp_files(tmp_path, capsys, squatted):
    # a directory squatting on an artifact's name fails its rename, after
    # every temp file was written; the artifacts renamed before it stay
    path = write(tmp_path, MINIMAL_SIMULATE)
    out = tmp_path / "out"
    (out / squatted).mkdir(parents=True)
    assert cli_main(["run", path, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "cannot write artifacts" in err
    order = ["trajectory.csv", "traces.csv", "run.json"]
    assert sorted(os.listdir(out)) == sorted(order[:order.index(squatted) + 1])
    assert not any((out / squatted).iterdir())


def test_grid_whose_stencil_weights_overflow_exits_3(tmp_path):
    # at L = 1e-300 Fornberg's products overflow, so D1, D3 and the boundary
    # stencils hold inf or NaN; the step matrix is refused before its LU
    path = write(tmp_path, MINIMAL_SIMULATE.replace(
        "grid: {L: 1.0, N: 16, T: 0.25, M: 16}", "grid: {L: 1.0e-300, N: 16, T: 1.0, M: 8}"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 3, result.message
    assert result.message == "step matrix is not finite (time level 0)"
    assert not out.exists()


def extreme(command, T, extra=""):
    """A ``command`` scenario at N=16/M=32 and horizon ``T``."""
    params = "{a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.4, a2: 0.3}"
    data = {
        "simulate": 'initial: {u: "1e-3", v: "0"}\n',
        "adjoint": 'final: {u: "1e-3", v: "0"}\n',
        "control": 'config: FOUR_I\ntarget: {u: "1e-3*gaussian(0.5,0.1)", v: "0"}\n',
        "nonlinear-control":
            'config: FOUR_I\ntarget: {u: "1e-3*gaussian(0.5,0.1)", v: "0"}\n',
        "observe": "config: FOUR_I\nobserve: {samples: 3}\n",
    }[command]
    return (f"command: {command}\nparams: {params}\n"
            f"grid: {{L: 1.0, N: 16, T: {T}, M: 32}}\n{data}{extra}")


def strict_json(text):
    def reject(name):
        raise ValueError(f"run.json holds {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("T", ["1.0e-300", "1.0e-120", "1.0e+300"])
@pytest.mark.parametrize("command", ["simulate", "adjoint", "control",
                                     "nonlinear-control", "observe"])
def test_extreme_horizons_exit_cleanly_without_warning(tmp_path, command, T):
    # the Riesz weights overflow at T = 1e-300 and the CGLS inner products
    # at T = 1e-120: each run finishes or fails with one message, unwarned
    path = write(tmp_path, extreme(command, T))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(path, output_dir=str(out))
    assert result.exit_code in (0, 3, 4), result.message
    if result.exit_code:
        assert result.message and not out.exists()
    else:
        strict_json(result.artifacts["run.json"])


@pytest.mark.parametrize("command, keys", [
    ("simulate", ("initial_x_norm", "terminal_x_norm")),
    ("adjoint", ("final_x_norm", "initial_x_norm"))])
def test_tiny_horizon_reports_finite_norms(tmp_path, command, keys):
    # the march grows the 1e-3 state past 1e154, whose squares overflow
    path = write(tmp_path, extreme(command, "1.0e-300"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(path, output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0, result.message
    summary = strict_json(result.artifacts["run.json"])["summary"]
    assert all(0.0 < summary[key] < np.inf for key in keys)
    assert max(summary[key] for key in keys) > 1e154


@pytest.mark.parametrize("T, iterations", [("1.0e-160", 2), ("1.0e-200", 36)],
                         ids=["1.0e-160", "1.0e-200"])
def test_h0_control_at_a_tiny_horizon_has_finite_norms(tmp_path, T, iterations):
    # h0 alone keeps G finite, but no iterate lowers the residual below the
    # 1 of no control: a zero control is refused, not returned.  The H^{1/3}
    # norm of a control weighs frequencies near 1/T, whose (1 + w^2)^{1/3}
    # is taken as w^{2/3}
    path = write(tmp_path, extreme("control", T).replace(
        "config: FOUR_I", "config: {mask: [true, false, false, false, false, false]}")
        + "tol: 0.5\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_scenario(path, output_dir=str(out))
        norm = sobolev_trace_norm(np.sin(np.linspace(0.0, 3.0, 33)), 1.0 / 3.0, float(T))
    assert result.exit_code == 3
    assert result.message == ("control CG stalled at relative residual 1.000e+00 "
                              f"(target 5.0e-01, {iterations} iterations)")
    assert not out.exists()
    assert 0.0 < norm < np.inf


def test_norm_past_the_double_range_exits_3(tmp_path):
    # ||(1e306, 0)||_X over L = 1e6 is about 1.4e309: run.json would hold
    # Infinity, which is not JSON
    path = write(tmp_path, extreme("simulate", "1.0").replace(
        "L: 1.0,", "L: 1.0e6,").replace('u: "1e-3"', 'u: "1.0e306"'))
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == 3
    assert result.message.startswith("run.json would not be strict JSON")
    assert not out.exists()


def test_nonlinear_control_names_a_capped_picard_loop(tmp_path):
    # one Picard sweep cannot reach 1e-8: the message names the cap, not a
    # divergence
    path = write(tmp_path, extreme("nonlinear-control", "1.0")
                 + "tol: 0.05\nscheme: {picard_max: 1}\n")
    out = tmp_path / "out"
    result = run_scenario(path, output_dir=str(out))
    assert result.exit_code == NonConvergence.exit_code == 3
    assert result.message.startswith("nonlinear resimulation failed: Picard iteration "
                                     "did not reach 1.0e-08 in 1 sweeps")
    assert result.message.endswith("; outer history []")
    assert "diverged" not in result.message
    assert not out.exists()
