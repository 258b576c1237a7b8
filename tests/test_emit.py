"""Byte equality of the chunked CSV emitter against a row-by-row oracle,
and the streamed artifact write."""

import io
import os

import numpy as np
import pytest

from ggkdv import scenario, spectral
from ggkdv.core import SIGNAL_NAMES, ControlConfig, Grid, Parameters, StatePair
from ggkdv.hum import estimate_observability
from ggkdv.pde import BoundarySignals, solve_linear_forward

P = Parameters(a=0.2, b=1.0, c=1.0, r=1.0)
G = Grid(L=1.0, N=10, T=0.5, M=12)


def oracle_csv(header, rows):
    """One row at a time, one ``%.16e`` per float: the reference format."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(
            v if isinstance(v, str) else "%.16e" % v for v in row
        ) + "\n")
    return buf.getvalue()


def small_run():
    x = G.x
    init = StatePair(np.sin(np.pi * x) * 1e-2, -np.cos(2 * np.pi * x) * 3e-3)
    t = G.t
    bc = BoundarySignals(1e-3 * np.sin(6 * t), 5e-4 * t, np.zeros(G.nt),
                         -1e-3 * np.sin(6 * t), np.zeros(G.nt), 2e-4 * t * t)
    traj, traces = solve_linear_forward(P, G, init, bc)
    # signed zeros and extreme magnitudes must format like the oracle
    traj.z[3, 2], traj.z[4, G.nx + 1] = -0.0, 1e308
    return traj, traces, bc


def test_trajectory_and_traces_csv_match_oracle():
    traj, traces, _ = small_run()
    g = traj.grid
    got = {name: "".join(chunks)
           for name, chunks in scenario._trajectory_artifacts(traj, traces).items()}
    rows = ((g.t[n], g.x[i], traj.z[n, i], traj.z[n, g.nx + i])
            for n in range(g.nt) for i in range(g.nx))
    assert got["trajectory.csv"] == oracle_csv(["t", "x", "u", "v"], rows)
    cols = traces.columns()
    rows = ((g.t[n], *(c[n] for c in cols)) for n in range(g.nt))
    assert got["traces.csv"] == oracle_csv(["t"] + traces.column_names(), rows)


def test_controls_csv_matches_oracle():
    _, _, bc = small_run()
    g = G
    arr = bc.as_array()
    rows = ((g.t[n], *(arr[i, n] for i in range(6))) for n in range(g.nt))
    want = oracle_csv(["t"] + list(SIGNAL_NAMES), rows)
    assert "".join(scenario._controls_csv(bc, g)) == want


def test_observability_csv_matches_oracle():
    rep = estimate_observability(ControlConfig.of("FOUR_I"), 3, P, G, seed=4)
    rows = ((str(i), q) for i, q in enumerate(rep.quotients))
    want = oracle_csv(["sample", "quotient"], rows)
    index = [str(i) for i in range(len(rep.quotients))]
    assert "".join(scenario._csv(["sample", "quotient"], [index, rep.quotients])) == want


def test_mixed_string_and_float_columns_match_oracle():
    rows = [(0.5, -0.0, 1e308, "axis", 1e-300, "confirmed"),
            (3, 2.5e-17, -1e308, "generic", float("inf"), "inconclusive")]
    header = ["a", "b", "c", "tag", "d", "verdict"]
    got = "".join(scenario._csv(header, [list(c) for c in zip(*rows)]))
    assert got == oracle_csv(header, rows)
    assert "-0.0000000000000000e+00" in got


def test_ucp_csv_matches_oracle(tmp_path):
    path = tmp_path / "ucp.yaml"
    path.write_text("command: ucp-sweep\nseed: 3\n"
                    "params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\nucp: {samples: 24}\n")
    result = scenario.run_scenario(str(path), output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    verdicts = spectral.ucp_sweep(24, P, seed=3)
    rows = ((v.L, v.p.real, v.p.imag, str(v.case_tag.value),
             v.dispersion if np.isfinite(v.dispersion) else 1e308,
             str(v.verdict.value)) for v in verdicts)
    header = ["L", "re_p", "im_p", "case_tag", "dispersion", "verdict"]
    assert result.artifacts["ucp.csv"] == oracle_csv(header, rows)


def test_failing_chunk_stream_leaves_no_files(tmp_path):
    def chunks():
        yield "a,b\n"
        raise RuntimeError("formatting failed")

    out = tmp_path / "out"
    artifacts = {"first.csv": iter(["x\n", "1\n"]), "second.csv": chunks(),
                 "third.csv": iter(["never\n"])}
    with pytest.raises(RuntimeError, match="formatting failed"):
        scenario._atomic_write(str(out), artifacts)
    assert os.listdir(out) == []


SIMULATE = """command: simulate
params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}
grid: {L: 1.0, N: %d, T: 1.0, M: %d}
initial: {u: "1e-2*gaussian(0.5,0.1)", v: "0"}
"""


def test_artifacts_are_the_written_bytes(tmp_path):
    path = tmp_path / "sim.yaml"
    path.write_text(SIMULATE % (12, 16))
    out = tmp_path / "out"
    result = scenario.run_scenario(str(path), output_dir=str(out))
    assert result.exit_code == 0
    assert sorted(result.artifacts) == sorted(os.listdir(out))
    assert sorted(result.artifacts) == ["run.json", "traces.csv", "trajectory.csv"]
    for name in result.artifacts:
        assert result.artifacts[name].encode("utf-8") == (out / name).read_bytes()
