"""Boundary control and spectral analysis for the Gear-Grimshaw coupled
KdV system on a bounded interval: linear/adjoint/nonlinear solvers, HUM
control synthesis through the duality Gramian, observability estimation,
and numerical unique-continuation certificates.  The top level holds the
README's quick-start names; import everything else from its submodule."""

from .core import ControlConfig, Grid, Parameters, StatePair, x_norm
from .errors import FeasibilityError
from .hum import solve_control

__version__ = "0.1.0"
