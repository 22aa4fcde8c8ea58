"""Reconstruction of Robin boundary coefficients from partial boundary data.

The package solves an inverse problem: a Robin coefficient on an
inaccessible piece of the boundary is identified from noisy measurements
of the state on the accessible piece, for a stationary diffusion problem
and its implicit Euler time-dependent counterpart.  The iteration is a
Levenberg-Marquardt loop whose regularization weight tracks the squared
data residual and whose per-step subproblem is minimized in closed form.
"""

from .elliptic import EllipticProblem, solve_forward
from .experiments import (
    EXAMPLE_IDS,
    ExperimentResult,
    ExperimentSpec,
    add_noise,
    make_example,
    relative_error,
    run_experiment,
)
from .lm import LmConfig, LmState, run
from .mesh import Mesh, SegmentTag, build_rect_mesh, classify_boundary
from .parabolic import ParabolicProblem, solve_forward_parabolic

__version__ = "0.1.0"

__all__ = [
    "EXAMPLE_IDS",
    "EllipticProblem",
    "ExperimentResult",
    "ExperimentSpec",
    "LmConfig",
    "LmState",
    "Mesh",
    "ParabolicProblem",
    "SegmentTag",
    "add_noise",
    "build_rect_mesh",
    "classify_boundary",
    "make_example",
    "relative_error",
    "run",
    "run_experiment",
    "solve_forward",
    "solve_forward_parabolic",
    "__version__",
]
