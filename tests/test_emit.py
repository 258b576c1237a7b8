"""Byte equality of the chunked CSV emitter against a row-by-row oracle, at
the default chunk size and across chunk seams; ``emit.csv_rows`` against a
pure-Python join; and the streamed artifact write."""

import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggkdv import emit, pde, scenario, spectral
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


# Each case builds (chunk stream, oracle text) pairs; the tests below check
# them at the default chunk size and across chunk seams.


def trajectory_cases():
    traj, traces, _ = small_run()
    g = traj.grid
    arts = scenario._trajectory_artifacts(traj, traces)
    rows = ((g.t[n], g.x[i], traj.z[n, i], traj.z[n, g.nx + i])
            for n in range(g.nt) for i in range(g.nx))
    cols = traces.values()
    trace_rows = ((g.t[n], *(c[n] for c in cols)) for n in range(g.nt))
    return [(arts["trajectory.csv"], oracle_csv(["t", "x", "u", "v"], rows)),
            (arts["traces.csv"],
             oracle_csv(["t"] + pde.TRACE_NAMES, trace_rows))]


def controls_cases():
    _, _, bc = small_run()
    arr = bc.as_array()
    rows = ((G.t[n], *(arr[i, n] for i in range(6))) for n in range(G.nt))
    return [(scenario._controls_csv(bc, G), oracle_csv(["t"] + list(SIGNAL_NAMES), rows))]


def observability_cases(samples=3):
    rep = estimate_observability(ControlConfig.of("FOUR_I"), samples, P, G, seed=4)
    rows = ((str(i), q) for i, q in enumerate(rep.quotients))
    index = [str(i) for i in range(len(rep.quotients))]
    return [(scenario._csv(["sample", "quotient"], [index, rep.quotients]),
             oracle_csv(["sample", "quotient"], rows))]


def mixed_cases(repeat=1):
    rows = [(0.5, -0.0, 1e308, "axis", 1e-300, "confirmed"),
            (3, 2.5e-17, -1e308, "generic", float("inf"), "inconclusive")] * repeat
    header = ["a", "b", "c", "tag", "d", "verdict"]
    return [(scenario._csv(header, [list(c) for c in zip(*rows)]),
             oracle_csv(header, rows))]


UCP = ("command: ucp-sweep\nseed: 3\n"
       "params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\nucp: {samples: %d}\n")


def ucp_oracle(samples):
    sweep = spectral.ucp_sweep(samples, P, seed=3)
    verdicts = (sweep.verdict(k) for k in range(len(sweep)))
    rows = ((v.L, v.p.real, v.p.imag, str(v.case_tag.value),
             v.dispersion if np.isfinite(v.dispersion) else 1e308,
             str(v.verdict.value)) for v in verdicts)
    header = ["L", "re_p", "im_p", "case_tag", "dispersion", "verdict"]
    return oracle_csv(header, rows)


def ucp_cases(samples=24):
    _, arts = scenario._RUNNERS["ucp-sweep"](scenario.parse_scenario_text(UCP % samples))
    return [(arts["ucp.csv"], ucp_oracle(samples))]


def test_trajectory_and_traces_csv_match_oracle():
    for chunks, want in trajectory_cases():
        assert "".join(chunks) == want


def test_controls_csv_matches_oracle():
    for chunks, want in controls_cases():
        assert "".join(chunks) == want


def test_observability_csv_matches_oracle():
    for chunks, want in observability_cases():
        assert "".join(chunks) == want


def test_mixed_string_and_float_columns_match_oracle():
    for chunks, want in mixed_cases():
        got = "".join(chunks)
        assert got == want
        assert "-0.0000000000000000e+00" in got


@pytest.mark.parametrize("samples", [13, 24])
def test_ucp_csv_matches_verdict_rows(samples):
    # 13 draws end on a kind-4 draw, 24 on a kind-7 (p = 0) draw
    for chunks, want in ucp_cases(samples):
        assert "".join(chunks) == want


def test_ucp_csv_matches_oracle(tmp_path):
    path = tmp_path / "ucp.yaml"
    path.write_text(UCP % 24)
    result = scenario.run_scenario(str(path), output_dir=str(tmp_path / "out"))
    assert result.exit_code == 0
    assert result.artifacts["ucp.csv"] == ucp_oracle(24)


# 48 values a chunk: 2 of the 13 trajectory levels (24 values each), 3
# traces rows (13 columns) and 6 controls rows (7 columns); the observability,
# mixed and ucp cases get enough rows for three chunks
SEAM_CHUNK = 48


@pytest.mark.parametrize("cases", [
    trajectory_cases, controls_cases, lambda: observability_cases(50),
    lambda: mixed_cases(9), lambda: ucp_cases(20),
], ids=["trajectory-traces", "controls", "observability", "mixed", "ucp"])
def test_chunk_seams_match_oracle(monkeypatch, cases):
    monkeypatch.setattr(scenario, "_CHUNK", SEAM_CHUNK)
    for chunks, want in cases():
        header, *body = list(chunks)
        # at least 3 chunks, the last one ragged
        assert len(body) >= 3
        assert body[-1].count("\n") < body[0].count("\n")
        assert header + "".join(body) == want


@st.composite
def row_layouts(draw):
    """A row shape of 1 or 2 axes, and NUL-padded uint8 fields for it: each
    of the full shape, one per row (broadcast along the second axis) or
    one per column (broadcast along the first), 1 to 6 bytes wide, with
    0 to ``width`` non-NUL ASCII bytes before the padding."""
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))
    fields = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 6))
        field_shape = draw(st.sampled_from(
            [shape, shape[:1] + (1,) * (len(shape) - 1), shape[1:]]))
        count = int(np.prod(field_shape))
        cells = draw(st.lists(st.lists(st.integers(1, 127), max_size=width),
                              min_size=count, max_size=count))
        fields.append(np.array([c + [0] * (width - len(c)) for c in cells], dtype=np.uint8)
                      .reshape(field_shape + (width,)))
    return shape, fields


@settings(max_examples=300, deadline=None)
@given(row_layouts())
def test_csv_rows_is_a_join_without_the_nuls(layout):
    shape, fields = layout
    full = [np.broadcast_to(f, shape + f.shape[-1:]) for f in fields]
    want = "".join(
        ",".join(bytes(f[index]).replace(b"\0", b"").decode("ascii") for f in full) + "\n"
        for index in np.ndindex(*shape))
    assert emit.csv_rows(shape, fields) == want


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


def test_atomic_write_holds_each_text_once(tmp_path):
    # the returned text is built in place as its chunks are written: the
    # traced peak stays near one text (a chunk list and its join hold two)
    def chunks():
        for k in range(32):
            yield f"{k:07d}" * 8192 + "\n"

    tracemalloc.start()
    try:
        texts = scenario._atomic_write(str(tmp_path / "out"), {"big.csv": chunks()})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = len(texts["big.csv"])
    assert size == 32 * (7 * 8192 + 1)
    assert texts["big.csv"].encode("ascii") == (tmp_path / "out" / "big.csv").read_bytes()
    assert peak < 1.25 * size, (peak, size)


PARAMS = "params: {a: 0.2, b: 1.0, c: 1.0, r: 1.0}\n"
GRID = "grid: {L: 1.0, N: 16, T: 1.0, M: 32}\n"
TARGET = 'config: FOUR_I\ntarget: {u: "1e-2*gaussian(0.5,0.147)", v: "0"}\n'
# one small scenario per command, and the artifacts each writes
COMMAND_RUNS = {
    "simulate": ("command: simulate\n" + PARAMS + "grid: {L: 1.0, N: 12, T: 1.0, M: 16}\n"
                 + 'initial: {u: "1e-2*gaussian(0.5,0.1)", v: "0"}\n',
                 ["traces.csv", "trajectory.csv"]),
    "adjoint": ("command: adjoint\n" + PARAMS + GRID + 'final: {u: "sin(3*x)", v: "0"}\n',
                ["traces.csv", "trajectory.csv"]),
    "control": ("command: control\n" + PARAMS + GRID + TARGET + "tol: 5.0e-2\n",
                ["controls.csv"]),
    "nonlinear-control": (
        "command: nonlinear-control\nparams: {a: 0.2, b: 1.0, c: 1.0, r: 1.0, a1: 0.4, "
        "a2: 0.3}\n" + GRID + TARGET + "tol: 5.0e-2\ndelta: 0.1\n", ["controls.csv"]),
    "observe": ("command: observe\nseed: 3\n" + PARAMS + GRID
                + "config: FOUR_I\nobserve: {samples: 7}\n", ["observability.csv"]),
    "ucp-sweep": ("command: ucp-sweep\nseed: 5\n" + PARAMS + "ucp: {samples: 13}\n",
                  ["ucp.csv"]),
    "r0-check": ("command: r0-check\nr0: {re: [-1, 1, 3], im: [-1, 1, 3], lengths: [1.0]}\n",
                 ["r0.csv"]),
}


@pytest.mark.parametrize("command", scenario.COMMANDS)
def test_artifacts_are_the_written_bytes(tmp_path, command):
    text, names = COMMAND_RUNS[command]
    path = tmp_path / "scen.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    result = scenario.run_scenario(str(path), output_dir=str(out))
    assert result.exit_code == 0, result.message
    assert sorted(result.artifacts) == sorted(os.listdir(out))
    assert sorted(result.artifacts) == sorted(names + ["run.json"])
    for name in result.artifacts:
        assert result.artifacts[name].encode("utf-8") == (out / name).read_bytes()
