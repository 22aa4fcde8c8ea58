"""Manufactured test problems, noise model, metrics and verification checks.

The registry holds four reconstruction setups on the rectangle
(0, 1) x (0, 2): two stationary ones built around the exact state
u = x^2 + cos(pi y) and two time-dependent ones around u = (x^2 +
cos(pi y)) t, each with its own exact coefficient on the right edge.
Sources and boundary data are reverse-engineered so the exact pair
satisfies the equations; the flux data on the accessible sides is zero
because the exact state has zero normal derivative there.

Observations are traces of the discrete forward solution at the nodal
interpolant of the exact coefficient, perturbed multiplicatively by
uniform noise.  Committing the same discretization for data generation
and inversion keeps acceptance bands free of modeling error; real
measurements would of course not be this kind.

The second half of the module is a verification battery shared by the
command line and the test suite: adjoint identity probes, derivative
finite-difference decay, a dense Gauss-Newton oracle on a tiny mesh, and
manufactured-solution convergence ratios.  The probes take no settings:
their meshes, seed, steps and noise level are module constants next to
the thresholds they are held to.  The probes run on the traces of the
problem protocol, the same checked solves as the reconstruction; data
generation and the convergence ratios take the full forward field
(field), so the data do not depend on the stationary condensation.

The jobs of a sweep differ only in their noise: prepare builds the rest
of a job (a Setup), its example, exact coefficient and noise-free data,
and shared_setup lets all of them take one.  The oracle builds its
example with prepare too.  What a problem builds in its first L-M step,
the stationary condensation, is no part of a setup: each process builds
it there once.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
# loaded with the module, not on the first noise draw, so that the forked
# workers of a sweep share it with their parent
import numpy.random  # noqa: F401

from . import elliptic as ell
from . import fem
from . import lm
from . import parabolic as par
from .mesh import (Mesh, SegmentTag, build_rect_mesh, classify_boundary,
                   require_finite, require_positive_int)

LX = 1.0
LY = 2.0
FINAL_TIME = 2.0
DEFAULT_EPS = {"elliptic": 2e-3, "parabolic": 5e-3}

# Thresholds of the verification battery, shared with the test suite.
ADJOINT_TOL = 1e-12
FD_ORDER_BAND = (0.7, 1.3)
ELLIPTIC_RATIO_MIN = 3.5
PARABOLIC_RATIO_MIN = 1.8

# Settings of the verification probes: the (nx, ny, nt) of the adjoint
# and derivative probes, and the (nx, ny), noise level and majorization
# constant of the oracle.
PROBE_MESH = (8, 16, 16)
ADJOINT_TRIALS = 20
ADJOINT_SEED = 2024
FD_STEPS = (1e-2, 1e-3, 1e-4)
ORACLE_MESH = (4, 8)
ORACLE_DELTA = 0.02
ORACLE_A = 1.0


def _gamma_51(y):
    return 3.0 - np.sin(0.5 * np.pi * y)


def _gamma_52(y):
    y = np.asarray(y, dtype=float)
    return np.where(y <= 1.0, (y - 1.0) ** 2 + 2.0, 2.0 - (y - 1.0) ** 2)


def _gamma_53(y):
    return 2.0 - (np.asarray(y, dtype=float) - 1.0) ** 2


def _gamma_54(y):
    y = np.asarray(y, dtype=float)
    return 0.5 * (np.sin(0.5 * np.pi * y) + y ** 0.25) + 1.0


def _u_elliptic(x, y):
    return x ** 2 + np.cos(np.pi * y)


def _f_elliptic(x, y):
    return (np.pi ** 2 + 1.0) * np.cos(np.pi * y) + x ** 2 - 2.0


def _make_g_elliptic(gamma_star):
    return lambda x, y: 2.0 + (np.cos(np.pi * y) + 1.0) * gamma_star(y)


def _u_parabolic(x, y, t):
    return (x ** 2 + np.cos(np.pi * y)) * t


def _f_parabolic(x, y, t):
    return np.cos(np.pi * y) + x ** 2 + (np.pi ** 2 * np.cos(np.pi * y) - 2.0) * t


def _make_g_parabolic(gamma_star):
    return lambda x, y, t: (2.0 + (np.cos(np.pi * y) + 1.0) * gamma_star(y)) * t


_REGISTRY = {
    "5.1": ("elliptic", _gamma_51),
    "5.2": ("elliptic", _gamma_52),
    "5.3": ("parabolic", _gamma_53),
    "5.4": ("parabolic", _gamma_54),
}

EXAMPLE_IDS = tuple(sorted(_REGISTRY))


def _registered(example_id: str):
    """The (kind, gamma_star) entry of a registered example id; raises
    ValueError naming the known ids for any other."""
    if example_id not in _REGISTRY:
        known = ", ".join(EXAMPLE_IDS)
        raise ValueError(f"unknown example id {example_id!r}; known ids: {known}")
    return _REGISTRY[example_id]


def _require_kink_node(example_id: str, ny: int) -> None:
    # The exact coefficient of 5.2 has a kink at y = 1; an odd ny would
    # smear it across an element.
    if example_id == "5.2" and ny % 2 != 0:
        raise ValueError("example 5.2 needs an even ny so y = 1 is a node")


@dataclass(frozen=True)
class Example:
    """A registered setup: problem data, exact coefficient, exact state."""

    example_id: str
    kind: str
    problem: object
    gamma_star: object
    u_exact: object


@dataclass(frozen=True)
class ExperimentSpec:
    """One reconstruction job, fully determined and cheap to pickle."""

    example_id: str
    nx: int = 16
    ny: int = 32
    nt: int = 64
    delta: float = 0.02
    seed: int = 0
    gamma0: float | str = 2.0
    eps: float | None = None  # None: the kind's DEFAULT_EPS, set on creation
    A: float = 1.0
    max_iters: int = 100

    def __post_init__(self):
        _registered(self.example_id)
        require_positive_int(self.nx, "cell count nx")
        require_positive_int(self.ny, "cell count ny")
        _require_kink_node(self.example_id, self.ny)
        require_positive_int(self.nt, "step count nt")
        _require_noise_setting(self.delta, self.seed)
        if not isinstance(self.gamma0, str):
            require_finite(self.gamma0, "gamma0")
        elif self.gamma0 != "exact":
            raise ValueError(
                f"gamma0 must be a number or 'exact', got {self.gamma0!r}")
        if self.eps is None:
            object.__setattr__(self, "eps", DEFAULT_EPS[self.kind])
        self.lm_config()  # LmConfig alone checks eps, A and max_iters

    @property
    def kind(self) -> str:
        return _REGISTRY[self.example_id][0]

    def lm_config(self) -> lm.LmConfig:
        return lm.LmConfig(eps=self.eps, A=self.A, max_iters=self.max_iters)


def make_example(
    example_id: str,
    nx: int = ExperimentSpec.nx,
    ny: int = ExperimentSpec.ny,
    nt: int = ExperimentSpec.nt,
) -> Example:
    """Build one registered example on an nx-by-ny mesh."""
    kind, gamma_star = _registered(example_id)
    _require_kink_node(example_id, ny)
    mesh = classify_boundary(build_rect_mesh(nx, ny, LX, LY))
    if kind == "elliptic":
        problem = ell.EllipticProblem(
            mesh=mesh, a=1.0, c=1.0,
            f=_f_elliptic, g=_make_g_elliptic(gamma_star), h=0.0,
        )
        return Example(example_id, kind, problem, gamma_star, _u_elliptic)
    problem = par.ParabolicProblem(
        mesh=mesh, a=1.0,
        f=_f_parabolic, g=_make_g_parabolic(gamma_star), h=0.0,
        u0=0.0, T=FINAL_TIME, nt=nt,
    )
    return Example(example_id, kind, problem, gamma_star, _u_parabolic)


def interpolate_gamma(mesh: Mesh, gamma_star) -> np.ndarray:
    """Nodal values of a coefficient, a callable of the arc coordinate y,
    on the inaccessible segment."""
    seg = mesh.segment_nodes(SegmentTag.INACCESSIBLE)
    vals = np.asarray(gamma_star(mesh.nodes[seg, 1]), dtype=float)
    return vals * np.ones(seg.size)


def exact_observation(example: Example) -> np.ndarray:
    """Noise-free data: accessible trace of the discrete forward solution,
    taken from the full field (a full solve, or the march).

    Elliptic examples give one segment field, parabolic ones a
    (nt + 1, segment nodes) series.
    """
    prob = example.problem
    gamma = interpolate_gamma(prob.mesh, example.gamma_star)
    # The cached data load first: assembled after the base factor, its
    # transient would stack on the held pivots and raise the peak memory.
    prob.load
    u = prob.field(prob.operator(gamma))
    return u[..., prob.mesh.segment_nodes(SegmentTag.ACCESSIBLE)]


def _require_noise_setting(delta: float, seed: int) -> None:
    require_finite(delta, "noise level delta", positive=False)
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or seed < 0):
        raise ValueError(
            f"noise seed must be a non-negative integer, got {seed!r}")


def add_noise(z: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """Multiplicative uniform noise: each entry scaled by (1 + delta * R).

    R is drawn i.i.d. uniform on [-1, 1] from numpy's seeded default
    generator (PCG64), so the same seed always gives the same data.
    """
    _require_noise_setting(delta, seed)
    z = np.asarray(z, dtype=float)
    rng = np.random.default_rng(seed)
    return z * (1.0 + delta * rng.uniform(-1.0, 1.0, size=z.shape))


@dataclass(frozen=True)
class ExperimentResult:
    """Everything the reporting layer needs from one job.

    A run that failed in the L-M loop is a result too: stop_reason is
    "error", error its message ("" for a finished run), and the rest
    describes its last completed iterate (final_error is NaN when no
    iteration completed).
    """

    spec: ExperimentSpec
    y: np.ndarray
    gamma_exact: np.ndarray
    gamma_reconstructed: np.ndarray
    history: list[lm.HistoryRow] = field(repr=False)
    iterations: int = 0
    stop_reason: str = ""
    final_error: float = float("nan")
    wall_time: float = 0.0
    error: str = ""


@dataclass(frozen=True)
class Setup:
    """The part of a job that its noise does not touch: the example,
    whose problem caches its base, base factor and data loads, and the
    read-only exact coefficient, initial guess and noise-free data."""

    example: Example
    gamma_exact: np.ndarray
    gamma0: np.ndarray
    z_exact: np.ndarray


def prepare(spec: ExperimentSpec) -> Setup:
    """Build the setup of a spec; its delta and seed play no part.

    gamma0 is checked against the box before the data generation, which
    is a whole forward solve.
    """
    example = make_example(spec.example_id, nx=spec.nx, ny=spec.ny,
                           nt=spec.nt)
    prob = example.problem
    gamma_exact = interpolate_gamma(prob.mesh, example.gamma_star)
    if isinstance(spec.gamma0, str):
        gamma0 = gamma_exact.copy()
    else:
        gamma0 = np.full(gamma_exact.size, float(spec.gamma0))
    fem.require_in_box(gamma0, prob.gamma_min, prob.gamma_max, name="gamma0")
    z_exact = exact_observation(example)
    for array in (gamma_exact, gamma0, z_exact):
        array.flags.writeable = False
    return Setup(example, gamma_exact, gamma0, z_exact)


def _setup_key(spec: ExperimentSpec) -> tuple:
    """What a spec's setup depends on: all of it but the noise and the
    L-M settings."""
    return spec.example_id, spec.nx, spec.ny, spec.nt, spec.gamma0


# Setups that run_experiment takes instead of building its own, by key.
_SHARED: dict[tuple, Setup] = {}


@contextlib.contextmanager
def shared_setup(spec: ExperimentSpec):
    """Within the block, every run_experiment of a spec that differs from
    spec only in delta, seed or the L-M settings takes one setup, built
    here, and so do the processes forked within it; others build their
    own.  Whatever a problem builds in its first L-M step (the stationary
    condensation) is built there, once per process.  Yields the setup."""
    setup = prepare(spec)
    key = _setup_key(spec)
    _SHARED[key] = setup
    try:
        yield setup
    finally:
        del _SHARED[key]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run the reconstruction a spec describes and collect the results.

    The setup is the one shared_setup holds for the spec, or built here.
    The result is that of the state lm.run ends at, a failed step's
    included (stop_reason "error"); anything before the loop raises.
    """
    setup = _SHARED.get(_setup_key(spec))
    if setup is None:
        setup = prepare(spec)
    mesh = setup.example.problem.mesh
    z = add_noise(setup.z_exact, spec.delta, spec.seed)
    start = time.perf_counter()
    state = lm.run(setup.example.problem, setup.gamma0, z, spec.lm_config(),
                   gamma_star=setup.gamma_exact)
    wall = time.perf_counter() - start
    return ExperimentResult(
        spec=spec,
        y=mesh.nodes[mesh.segment_nodes(SegmentTag.INACCESSIBLE), 1].copy(),
        gamma_exact=setup.gamma_exact,
        gamma_reconstructed=state.gamma,
        history=state.history,
        iterations=state.k,
        stop_reason=state.stop_reason,
        final_error=(state.history[-1].rel_error if state.history
                     else float("nan")),
        wall_time=wall,
        error=state.error,
    )


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    """Relative gaps of the adjoint identity over random probe pairs."""

    errors: np.ndarray

    @property
    def worst(self) -> float:
        return float(self.errors.max())


# Example each verification probe runs on, by problem kind.
_PROBE_EXAMPLES = {"elliptic": "5.1", "parabolic": "5.3"}


def _probe_setup(kind: str, nx: int, ny: int, nt: int):
    """Probe example at its exact coefficient, with its operator."""
    if kind not in _PROBE_EXAMPLES:
        raise ValueError(f"unknown problem kind {kind!r}")
    example = make_example(_PROBE_EXAMPLES[kind], nx=nx, ny=ny, nt=nt)
    prob = example.problem
    gamma = interpolate_gamma(prob.mesh, example.gamma_star)
    return example, gamma, prob.operator(gamma)


def adjoint_identity_errors(kind: str) -> IdentityCheck:
    """Probe the derivative/adjoint duality with random direction pairs.

    For each of ADJOINT_TRIALS trials on the PROBE_MESH, a random segment
    direction d and accessible weight q are drawn; the check compares the
    accessible pairing <J d, q> of the derivative trace against the inaccessible pairing <u_i d, w_i> of the
    adjoint trace for the weight q.
    Both sides hinge only on transposition of one matrix, so the gap is
    bounded by the accuracy of the solves, far below ADJOINT_TOL.
    """
    example, gamma, op = _probe_setup(kind, *PROBE_MESH)
    prob = example.problem
    u_a, u_i = prob.forward(op)
    rng = np.random.default_rng(ADJOINT_SEED)
    errors = np.empty(ADJOINT_TRIALS)
    for i in range(ADJOINT_TRIALS):
        d = rng.uniform(-1.0, 1.0, u_i.shape[-1])
        q = rng.uniform(-1.0, 1.0, u_a.shape)
        w_a = prob.derivative(u_i, d, op)
        ws_i = prob.adjoint(q, op)
        lhs = prob.inner(SegmentTag.ACCESSIBLE, w_a, q)
        rhs = prob.inner(SegmentTag.INACCESSIBLE, u_i * d, ws_i)
        errors[i] = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
    return IdentityCheck(errors=errors)


@dataclass(frozen=True)
class FdCheck:
    """Finite-difference errors of the derivative solver, one per FD_STEPS."""

    errors: np.ndarray
    order: float


def derivative_fd_check(kind: str) -> FdCheck:
    """Forward-difference decay of the linearization error on the data
    trace, on the PROBE_MESH with the steps FD_STEPS.

    The probe direction is constant one.  For a constant direction the
    quadrature of the coefficient-weighted boundary mass commutes with
    the nodal perturbation, so the measured gap is the pure second-order
    remainder and decays linearly in the step, which is what the fitted
    order asserts.
    """
    example, gamma, op = _probe_setup(kind, *PROBE_MESH)
    prob = example.problem
    u_a, u_i = prob.forward(op)
    d = np.ones(u_i.shape[-1])
    w_a = prob.derivative(u_i, d, op)

    def norm(x: np.ndarray) -> float:
        return np.sqrt(prob.inner(SegmentTag.ACCESSIBLE, x, x))

    ref = norm(w_a)
    errors = np.empty(len(FD_STEPS))
    for i, eps in enumerate(FD_STEPS):
        gamma_eps = gamma + eps * d
        u_eps_a, _ = prob.forward(prob.operator(gamma_eps))
        errors[i] = norm((u_eps_a - u_a) / eps - w_a) / ref
    slope = np.polyfit(np.log(np.asarray(FD_STEPS)), np.log(errors), 1)[0]
    return FdCheck(errors=errors, order=float(slope))


@dataclass(frozen=True)
class OracleReport:
    """Dense Gauss-Newton subproblem versus the closed-form update."""

    beta: float
    residual_norm: float
    j_at_iterate: float
    j_surrogate: float
    j_gauss_newton: float
    opt_residual_surrogate: float
    opt_residual_gn: float
    gn_step_in_box: bool
    surrogate_step_norm: float
    gn_step_norm: float


def oracle_optimality_check(
    prob: ell.EllipticProblem,
    gamma_k: np.ndarray,
    z: np.ndarray,
    beta_override: float | None = None,
) -> OracleReport:
    """Compare one surrogate step, of majorization constant ORACLE_A,
    against the dense linearized subproblem.

    Builds the derivative operator from one derivative solve with a
    column per segment basis direction, on the operator and forward
    state of the step's own quantities, forms the normal equations of the
    beta-regularized linear least squares problem with the proper segment
    mass weights, and solves them densely.  Reports the quadratic model
    value at the current iterate, at the surrogate step and at the dense
    minimizer, plus the normal-equation residual at both candidate steps.
    Intended for meshes small enough that the dense build is trivial.
    beta_override replaces the measured regularization weight in both
    subproblems; tests use it to probe the strong-regularization limit.
    """
    if not isinstance(prob, ell.EllipticProblem):
        raise TypeError("the oracle is implemented for the stationary problem")
    mesh = prob.mesh
    gamma_k = np.asarray(gamma_k, dtype=float)
    z = np.asarray(z, dtype=float)

    residual_norm, beta, grad, op, u_a, u_i = lm._quantities(prob, gamma_k, z)
    if beta_override is not None:
        beta = float(beta_override)
    s_surrogate = grad / (ORACLE_A + beta)

    r = z - u_a
    m = grad.size
    D = prob.derivative(u_i, np.eye(m), op).T
    Ma = mesh.segments[SegmentTag.ACCESSIBLE].mass
    Mi = mesh.segments[SegmentTag.INACCESSIBLE].mass
    H = D.T @ Ma @ D + beta * Mi
    rhs = D.T @ (Ma @ r)
    s_gn = np.linalg.solve(H, rhs)

    def model(s: np.ndarray) -> float:
        e = D @ s - r
        return float(e @ (Ma @ e) + beta * (s @ (Mi @ s)))

    def opt_residual(s: np.ndarray) -> float:
        return float(np.linalg.norm(H @ s - rhs))

    in_box = bool(
        np.all(gamma_k + s_gn >= prob.gamma_min)
        and np.all(gamma_k + s_gn <= prob.gamma_max)
    )
    tag = SegmentTag.INACCESSIBLE
    return OracleReport(
        beta=beta,
        residual_norm=residual_norm,
        j_at_iterate=model(np.zeros(m)),
        j_surrogate=model(s_surrogate),
        j_gauss_newton=model(s_gn),
        opt_residual_surrogate=opt_residual(s_surrogate),
        opt_residual_gn=opt_residual(s_gn),
        gn_step_in_box=in_box,
        surrogate_step_norm=fem.boundary_norm(mesh, tag, s_surrogate),
        gn_step_norm=fem.boundary_norm(mesh, tag, s_gn),
    )


def run_oracle_check(seed: int = 0) -> OracleReport:
    """Oracle comparison of 5.1 on the ORACLE_MESH, with the noise and a
    random iterate near exact drawn from seed."""
    setup = prepare(ExperimentSpec("5.1", *ORACLE_MESH))
    z = add_noise(setup.z_exact, ORACLE_DELTA, seed)
    rng = np.random.default_rng(seed + 1)
    gamma_exact = setup.gamma_exact
    gamma_k = gamma_exact + rng.uniform(-0.2, 0.2, gamma_exact.size)
    return oracle_optimality_check(setup.example.problem, gamma_k, z)


def domain_l2_error(mesh: Mesh, u: np.ndarray, exact) -> float:
    """L2(domain) distance between a nodal field and an exact function.

    Edge-midpoint quadrature per triangle; the linear interpolant is
    integrated exactly, the exact solution up to the usual O(h^2) rule
    error, plenty for convergence ratios.
    """
    mid, area = fem._edge_midpoints(mesh)
    u_mid = u[mesh.triangles] @ fem._MID_PHI.T
    e_mid = u_mid - exact(mid[:, :, 0], mid[:, :, 1])
    return float(np.sqrt(np.sum(area / 3.0 * np.sum(e_mid ** 2, axis=1))))


@dataclass(frozen=True)
class ConvergenceCheck:
    """Discretization errors on two refinement levels and their ratio."""

    coarse_error: float
    fine_error: float

    @property
    def ratio(self) -> float:
        return self.coarse_error / self.fine_error


def fem_convergence_check(kind: str) -> ConvergenceCheck:
    """Manufactured-solution errors under one refinement step.

    The elliptic solve halves h only, so its L2 error should drop about
    fourfold.  The parabolic solve halves h and dt together; implicit
    Euler's first-order time error dominates, so a factor near two is the
    honest expectation.
    """
    errors = []
    for nx, ny, nt in ((8, 16, 8), (16, 32, 16)):
        example, _, op = _probe_setup(kind, nx, ny, nt)
        prob = example.problem
        u, exact = prob.field(op), example.u_exact
        if u.ndim == 2:  # a march: compare at the final time
            u, exact = u[-1], functools.partial(exact, t=prob.T)
        errors.append(domain_l2_error(prob.mesh, u, exact))
    return ConvergenceCheck(coarse_error=errors[0], fine_error=errors[1])


@dataclass(frozen=True)
class CheckResult:
    """One verification battery entry with a human-readable detail line."""

    name: str
    passed: bool
    details: str


def _check_adjoint(kind: str) -> CheckResult:
    report = adjoint_identity_errors(kind)
    return CheckResult(
        name=f"adjoint-{kind}",
        passed=report.worst <= ADJOINT_TOL,
        details=(f"worst relative identity gap {report.worst:.3e} "
                 f"over {report.errors.size} probe pairs (tol {ADJOINT_TOL:.0e})"),
    )


def _check_derivative(kind: str) -> CheckResult:
    report = derivative_fd_check(kind)
    lo, hi = FD_ORDER_BAND
    errs = ", ".join(f"{e:.3e}" for e in report.errors)
    return CheckResult(
        name=f"derivative-{kind}",
        passed=lo <= report.order <= hi,
        details=(f"fd errors [{errs}] for steps {FD_STEPS}, "
                 f"fitted order {report.order:.3f} (band [{lo}, {hi}])"),
    )


def _check_oracle() -> CheckResult:
    report = run_oracle_check()
    slack = 1e-10 * max(report.j_at_iterate, 1.0)
    ordered = (report.j_gauss_newton <= report.j_surrogate + slack
               and report.j_surrogate <= report.j_at_iterate + slack)
    decreased = (report.residual_norm <= 1e-10
                 or report.j_surrogate < report.j_at_iterate)
    return CheckResult(
        name="oracle",
        passed=ordered and decreased and report.gn_step_in_box,
        details=(f"J at iterate {report.j_at_iterate:.6e}, "
                 f"surrogate {report.j_surrogate:.6e}, "
                 f"dense minimizer {report.j_gauss_newton:.6e}; "
                 f"normal-equation residual at surrogate "
                 f"{report.opt_residual_surrogate:.3e}, "
                 f"at dense minimizer {report.opt_residual_gn:.3e}"),
    )


def _check_fem(kind: str) -> CheckResult:
    report = fem_convergence_check(kind)
    minimum = ELLIPTIC_RATIO_MIN if kind == "elliptic" else PARABOLIC_RATIO_MIN
    return CheckResult(
        name=f"fem-{kind}",
        passed=report.ratio >= minimum,
        details=(f"errors {report.coarse_error:.6e} -> {report.fine_error:.6e}, "
                 f"ratio {report.ratio:.2f} (minimum {minimum})"),
    )


_BATTERY = (
    ("adjoint-elliptic", lambda: _check_adjoint("elliptic")),
    ("adjoint-parabolic", lambda: _check_adjoint("parabolic")),
    ("derivative-elliptic", lambda: _check_derivative("elliptic")),
    ("derivative-parabolic", lambda: _check_derivative("parabolic")),
    ("oracle", _check_oracle),
    ("fem-elliptic", lambda: _check_fem("elliptic")),
    ("fem-parabolic", lambda: _check_fem("parabolic")),
)


def verification_battery(only: str | None = None) -> list[CheckResult]:
    """Run the named checks, or all of them; substring filter via `only`."""
    selected = [(name, fn) for name, fn in _BATTERY
                if only is None or only in name]
    if not selected:
        names = ", ".join(name for name, _ in _BATTERY)
        raise ValueError(f"no check matches {only!r}; available: {names}")
    return [fn() for _, fn in selected]
