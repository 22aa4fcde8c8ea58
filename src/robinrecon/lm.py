"""Outer Levenberg-Marquardt loop for the boundary coefficient.

Each iteration measures the data misfit r = z - u on the accessible
segment, sets the regularization weight beta to its squared norm, solves
one adjoint problem loaded by r, and updates the coefficient by the
closed-form minimizer of a quadratic surrogate: delta = u * w / (A +
beta) on the inaccessible segment, followed by nodal clamping to the
problem's admissible box [gamma_min, gamma_max], the same box its
operator accepts.

Both problem kinds run the same code through the problem protocol of
EllipticProblem and ParabolicProblem (operator, forward, adjoint, inner,
integrate); only those methods and the problem's levels know whether a
trace is one segment field or a time series.  Every trace the loop is
given passes the problem's one check of a trace (fem.RobinProblem.trace)
before any solve: gamma0 once in run, gamma_star and the data z in each
step before its operator is built, so that a step called directly checks
them too.  The inner products and norms that give the residual and the
stopping rule check their fields with the same fem.boundary_field.  The
loop sees traces only: forward gives the accessible and inaccessible
traces, adjoint the inaccessible trace of the adjoint state.  A step
builds the operator once, a fem.Operator that completes the factor of
the problem's cached gamma-free base with the Robin mass of the iterate,
and passes it to both the forward and the adjoint solve; _quantities
returns that operator and the forward traces next to the residual, beta
and update direction, so that a check of the step
(experiments.oracle_optimality_check) reuses them.  A march solves each
level with a direct block solve plus one residual check against
fem.SOLVE_TOL; a stationary step solves on the Robin edge alone, after
the problem condensed its interior once in the run's first step.

Exactness notes.  The residual norm is computed first, as the square root
of the misfit inner product, and beta is literally residual * residual,
so the squared relation holds bit for bit in the history for both kinds.
The update is the exact minimizer of the surrogate quadratic in the
segment inner product, whatever SPD weighting that inner product carries,
because both terms of the quadratic use the same one; the tests probe
the claim with the quadratic itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import elliptic as ell
from . import fem
from . import parabolic as par
from .mesh import SegmentTag, require_finite, require_positive_int


@dataclass(frozen=True)
class LmConfig:
    """Knobs of the outer loop.

    eps is the relative-change stopping tolerance, A the surrogate
    majorization constant, max_iters the iteration cap, a positive
    integer.  residual_floor, when set, stops the run once the measured
    residual norm drops below it (the computable half of a noise-level
    stopping rule).  eps, A and residual_floor are positive and finite:
    an infinite one would end every run after its first step (eps,
    residual_floor) or make every step zero (A).  The admissible box of
    gamma is the problem's own (gamma_min, gamma_max), and every solve is
    checked against fem.SOLVE_TOL.
    """

    eps: float
    A: float = 1.0
    max_iters: int = 100
    residual_floor: float | None = None

    def __post_init__(self):
        require_finite(self.eps, "eps")
        require_finite(self.A, "A")
        if self.residual_floor is not None:
            require_finite(self.residual_floor, "residual_floor")
        require_positive_int(self.max_iters, "max_iters")


@dataclass(frozen=True)
class HistoryRow:
    """One completed step.

    residual and beta are measured at the iterate the step started from;
    rel_change compares the new iterate against it and rel_error (when
    the exact coefficient is known) grades the new iterate.  n_clamped
    counts nodes where the box projection actually moved the update.
    """

    k: int
    residual: float
    beta: float
    rel_change: float
    rel_error: float | None
    n_clamped: int


@dataclass(frozen=True)
class LmState:
    """Iterate k, the history of the steps that led to it and, once the
    run ends, why it stopped; error is the message of a failed step ("" if
    none).  The latest measured residual is history[-1].residual."""

    k: int
    gamma: np.ndarray
    history: list[HistoryRow] = field(default_factory=list)
    stop_reason: str | None = None
    error: str = ""


def _quantities(prob, gamma: np.ndarray, z: np.ndarray):
    """Residual norm, beta and the raw update direction on the segment,
    then the operator of gamma and the traces (u_a, u_i) of its forward
    state.

    z is the accessible trace the forward solve is compared with: one
    segment field for a stationary problem, one per time level for a
    march, checked by the problem's trace before any solve.  The misfit
    r = z - u_a is the adjoint's weight, level 0 of a march included: no
    march reads it.
    """
    z = prob.trace(SegmentTag.ACCESSIBLE, z, "data z")
    op = prob.operator(gamma)
    u_a, u_i = prob.forward(op)
    r = z - u_a
    residual_norm = float(np.sqrt(prob.inner(SegmentTag.ACCESSIBLE, r, r)))
    beta = residual_norm * residual_norm
    w_i = prob.adjoint(r, op)
    grad = prob.integrate(u_i * w_i)
    return residual_norm, beta, grad, op, u_a, u_i


def _advance(prob, state: LmState, residual_norm: float, beta: float,
             grad: np.ndarray, cfg: LmConfig,
             gamma_star: np.ndarray | None) -> LmState:
    mesh = prob.mesh
    raw = state.gamma + grad / (cfg.A + beta)
    new_gamma = np.clip(raw, prob.gamma_min, prob.gamma_max)
    n_clamped = int(np.count_nonzero(new_gamma != raw))
    tag = SegmentTag.INACCESSIBLE
    rel_change = fem.boundary_norm(mesh, tag, new_gamma - state.gamma) / \
        fem.boundary_norm(mesh, tag, state.gamma)
    rel_error = None
    if gamma_star is not None:
        rel_error = fem.boundary_norm(mesh, tag, new_gamma - gamma_star) / \
            fem.boundary_norm(mesh, tag, gamma_star)
    row = HistoryRow(k=state.k + 1, residual=residual_norm, beta=beta,
                     rel_change=rel_change, rel_error=rel_error,
                     n_clamped=n_clamped)
    return LmState(k=state.k + 1, gamma=new_gamma,
                   history=[*state.history, row])


def _step(prob, state: LmState, z: np.ndarray, cfg: LmConfig,
          gamma_star: np.ndarray | None) -> LmState:
    """One step of either kind; gamma_star, when given, passes the
    problem's trace before _quantities builds an operator."""
    if gamma_star is not None:
        gamma_star = prob.trace(SegmentTag.INACCESSIBLE, gamma_star,
                                "gamma_star", ())
    residual_norm, beta, grad, *_ = _quantities(prob, state.gamma, z)
    return _advance(prob, state, residual_norm, beta, grad, cfg, gamma_star)


def lm_step_elliptic(
    prob: ell.EllipticProblem,
    state: LmState,
    z: np.ndarray,
    cfg: LmConfig,
    gamma_star: np.ndarray | None = None,
) -> LmState:
    """One elliptic iteration: forward, adjoint, closed-form update, clamp."""
    return _step(prob, state, z, cfg, gamma_star)


def lm_step_parabolic(
    prob: par.ParabolicProblem,
    state: LmState,
    z: np.ndarray,
    cfg: LmConfig,
    gamma_star: np.ndarray | None = None,
) -> LmState:
    """One parabolic iteration; z holds data at every time level."""
    return _step(prob, state, z, cfg, gamma_star)


def _step_function(prob):
    if isinstance(prob, ell.EllipticProblem):
        return lm_step_elliptic
    if isinstance(prob, par.ParabolicProblem):
        return lm_step_parabolic
    raise TypeError(f"unsupported problem type {type(prob).__name__}")


def run(
    prob,
    gamma0: np.ndarray,
    z: np.ndarray,
    cfg: LmConfig,
    gamma_star: np.ndarray | None = None,
) -> LmState:
    """Iterate from gamma0 until one of the stopping rules fires.

    Stops on relative change <= eps ("rel_change"), on the measured
    residual dropping below cfg.residual_floor when one is configured
    ("residual_floor"), or on the iteration cap ("max_iters"); the final
    state's stop_reason records which.  A step whose solve fails
    (fem.LinearSolveError) ends the run at the last completed state, with
    stop_reason "error" and error "iteration k failed: <message>".
    gamma0 is a field on the inaccessible segment, checked by the
    problem's trace before the first step, and must lie in the problem's
    box; the run keeps a copy of it.  gamma_star, when given, is checked
    by each step (_step), the data z by each step's _quantities.
    """
    step = _step_function(prob)
    gamma0 = prob.trace(SegmentTag.INACCESSIBLE,
                        np.array(gamma0, dtype=float), "gamma0", ())
    fem.require_in_box(gamma0, prob.gamma_min, prob.gamma_max, name="gamma0")
    state = LmState(k=0, gamma=gamma0)
    reason = "max_iters"
    for _ in range(cfg.max_iters):
        try:
            state = step(prob, state, z, cfg, gamma_star=gamma_star)
        except fem.LinearSolveError as exc:
            return replace(state, stop_reason="error",
                           error=f"iteration {state.k + 1} failed: {exc}")
        if state.history[-1].rel_change <= cfg.eps:
            reason = "rel_change"
            break
        if (cfg.residual_floor is not None
                and state.history[-1].residual < cfg.residual_floor):
            reason = "residual_floor"
            break
    return replace(state, stop_reason=reason)

