"""Scenario files for each benchmark workload, generated from a seed.

The seed draws the Gaussian centres and widths of the targets and initial
states, and the ``observe`` and ``ucp`` seeds.  The ranges are narrow on
purpose: the seed varies the data, not the amount of work, so runs with
different seeds measure the same computation.  The program under test only
ever sees the YAML text built here.
"""

import math
import random

import yaml

PARAMS = {"a": 0.2, "b": 1.0, "c": 1.0, "r": 1.0}
NONLINEAR_PARAMS = dict(PARAMS, a1=0.4, a2=0.3)

# Grid per scenario at full size, and the tiny one the smoke mode uses.
GRIDS = {
    "control": ((128, 512), (32, 128)),
    "nonlinear-control": ((64, 256), (32, 128)),
    "simulate": ((256, 1024), (16, 32)),
    "adjoint": ((256, 1024), (16, 32)),
    "observe": ((128, 512), (16, 32)),
}

# Coarse grids stall CGLS above 1e-3, so the smoke mode asks less of them.
CONTROL_TOL = (1e-3, 5e-2)
OBSERVE_SAMPLES = (20, 3)
UCP_DRAWS = (6000, 40)
R0_POINTS = (81, 5)
R0_LENGTHS = ([0.5, 1.0, math.pi, 5.0], [1.0])

COMMANDS = ("control", "nonlinear-control", "simulate", "adjoint", "observe",
            "ucp-sweep", "r0-check")
# Two workloads, so that each run can be long on a noisy shared machine.
# Only "control" runs CGLS; only "simulate-certify" runs spectral and emits
# whole trajectories.  So every hot layer has a workload that bypasses it.
WORKLOADS = {
    "control": ("control", "nonlinear-control"),
    "simulate-certify": ("simulate", "adjoint", "observe", "ucp-sweep", "r0-check"),
}


def _gaussian(rng, amp, centre=(0.45, 0.55), width=(0.09, 0.11)):
    c = round(rng.uniform(*centre), 6)
    w = round(rng.uniform(*width), 6)
    return f"{amp}*gaussian({c},{w})"


def _grid(command, tiny):
    n, m = GRIDS[command][tiny]
    return {"L": 1.0, "N": n, "T": 1.0, "M": m}


def build(command, rng, tiny=False):
    """Scenario mapping for ``command``, drawing its data from ``rng``."""
    sc = {"command": command}
    if command == "control":
        sc.update(params=PARAMS, grid=_grid(command, tiny), config="FOUR_I",
                  target={"u": _gaussian(rng, 1e-2, (0.47, 0.53), (0.10, 0.12)),
                          "v": "0"},
                  tol=CONTROL_TOL[tiny])
    elif command == "nonlinear-control":
        sc.update(params=NONLINEAR_PARAMS, grid=_grid(command, tiny),
                  scheme={"picard_tol": 1e-6}, config="FOUR_I",
                  target={"u": _gaussian(rng, 1e-2, (0.49, 0.51), (0.145, 0.15)),
                          "v": "0"},
                  tol=1e-3, delta=0.1)
    elif command == "simulate":
        sc.update(params=PARAMS, grid=_grid(command, tiny),
                  initial={"u": _gaussian(rng, 1e-2), "v": _gaussian(rng, 5e-3)},
                  bc={"h0": "1e-3*sin(6.283185307179586*x)",
                      "g0": "-1e-3*sin(6.283185307179586*x)",
                      "h1": "5e-4*x*(1-x)"})
    elif command == "adjoint":
        sc.update(params=PARAMS, grid=_grid(command, tiny),
                  final={"u": _gaussian(rng, 1e-2), "v": _gaussian(rng, 1e-2)})
    elif command == "observe":
        sc.update(params=PARAMS, grid=_grid(command, tiny), config="FOUR_I",
                  seed=rng.randrange(2**31),
                  observe={"samples": OBSERVE_SAMPLES[tiny]})
    elif command == "ucp-sweep":
        sc.update(params=PARAMS, seed=rng.randrange(2**31),
                  ucp={"samples": UCP_DRAWS[tiny]})
    elif command == "r0-check":
        n = R0_POINTS[tiny]
        sc.update(r0={"re": [-10.0, 10.0, n], "im": [-10.0, 10.0, n],
                      "lengths": R0_LENGTHS[tiny]})
    else:
        raise ValueError(f"no scenario for command {command!r}")
    return sc


def workload_scenarios(workload, seed, tiny=False):
    """The ordered ``(command, yaml_text)`` pairs of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    return [(cmd, yaml.safe_dump(build(cmd, rng, tiny), sort_keys=True))
            for cmd in WORKLOADS[workload]]
