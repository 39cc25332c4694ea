"""Stability/consensus margins and certified sampling/delay budgets.

Each budget routine reports the largest total lag s = h + tau (or
h + tau + tau_in) for which the corresponding margin condition admits
positive witness parameters (alpha, beta, gamma, eta).

The inner maximization of the margin over (alpha, beta) has an exact
closed form obtained from coordinate-wise stationarity:

    inf over alpha of  omega (1 + 1/alpha) + (1 + alpha) sigma_A^2 s^2
        = (sqrt(omega) + sigma_A s)^2        at alpha* = sqrt(omega)/(sigma_A s)

and the analogous step in beta collapses the whole expression to

    e^{2 lambda_As s} (sqrt(omega) + (sigma_A + sqrt(7/3) c) s)^2,

where c is the coupling constant (sigma_G sigma_K, or lambda_n sigma_BK).
The test suite cross-checks this against a grid-seeded numeric optimizer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .design import GainDesign, design_constants, theorem4_sigma, verify_lyapunov_family
from .graphs import GraphAlgebra, is_connected
from .matan import LtiModel, expm, lemma1_bounds, max_singular_value

SEVEN_THIRDS = 7.0 / 3.0
# Clamps for witness parameters whose exact optimum is a limit (0 or infinity).
PARAM_FLOOR = 1e-9
PARAM_CEIL = 1e9
MARGINAL_TOL = 1e-8      # an eigenvalue with |Re| this small is on the imaginary axis
NORM_SAMPLES = 10001     # sample instants of the e^{As} norm maxima


class InfeasibleError(RuntimeError):
    """A precondition of the budget computation fails outright."""


class SetMembershipError(ValueError):
    """Search parameters violate the feasibility set; lists failed conditions."""


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of the abstract stability condition."""

    mu: float
    eps: float
    omega: float = 0.0
    lambda_As: float = 0.0
    sigma_A: float = 0.0
    sigma_G: float = 0.0
    sigma_K: float = 0.0
    h: float = 0.0
    tau: float = 0.0
    tau_in: float = 0.0

    def __post_init__(self):
        # the budget search takes c >= 0 and omega >= 0; NaN fails each check
        values = asdict(self)
        if not all(math.isfinite(v) for v in values.values()):
            raise ValueError("every query value must be finite")
        if not (self.mu > 0 and self.eps > 0):
            raise ValueError("mu and eps must be positive")
        if min(v for k, v in values.items() if k != "lambda_As") < 0:
            raise ValueError("every query value but lambda_As must be nonnegative")


@dataclass(frozen=True)
class SearchParams:
    alpha: float
    beta: float
    gamma: float = 1.0
    eta: float = 1.0
    theta: float = 1.0 + 1e-9

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma, self.eta) <= 0:
            raise ValueError("alpha, beta, gamma, eta must be positive")
        if self.theta <= 1.0:
            raise ValueError("theta must exceed 1")


@dataclass(frozen=True)
class BoundReport:
    feasible: bool
    margin: float
    budget: float
    witness: SearchParams | None
    diagnostics: str
    unbounded: bool = False
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        w = None if self.witness is None else asdict(self.witness)
        return {"feasible": self.feasible, "budget": self.budget,
                "witness": w, "margin": self.margin,
                "unbounded": self.unbounded, "diagnostics": self.diagnostics,
                "details": dict(self.details)}


def theorem1_margin(q: BoundQuery, p: SearchParams) -> float:
    """Margin of the abstract stability condition at total lag h + tau;
    positive means the condition holds at (alpha, beta)."""
    return _margin_at(q.mu, q.eps, q.omega, q.lambda_As, q.sigma_A,
                      q.sigma_G * q.sigma_K, q.h + q.tau, p.alpha, p.beta)


def _margin_at(mu, eps, omega, lam_As, sigma_A, coupling, s, alpha, beta):
    E = math.exp(2.0 * lam_As * s)
    err_term = omega * (1.0 + 1.0 / alpha) * (1.0 + 1.0 / beta) * E
    drift = ((1.0 + alpha) * (1.0 + 1.0 / beta) * sigma_A**2
             + (1.0 + beta) * SEVEN_THIRDS * coupling**2)
    return mu - eps * err_term - eps * drift * s * s * E


def _clamp(x: float) -> float:
    return float(min(max(x, PARAM_FLOOR), PARAM_CEIL))


def _best_witness(omega, sigma_A, coupling, s):
    """Closed-form maximizer (alpha*, beta*) of the margin at total lag s.

    Limit optima (alpha or beta tending to 0 or infinity) are clamped; the
    margin is flat to within ~1e-9 relative at the clamps.
    """
    sa = sigma_A * s
    if omega > 0 and sa > 0:
        alpha = omega**0.5 / sa
    elif omega > 0:
        alpha = PARAM_CEIL
    else:
        alpha = PARAM_FLOOR
    u = (omega**0.5 + sa) ** 2
    v = SEVEN_THIRDS * (coupling * s) ** 2
    if u > 0 and v > 0:
        beta = (u / v) ** 0.5
    elif u > 0:
        beta = PARAM_CEIL
    else:
        beta = PARAM_FLOOR
    return _clamp(alpha), _clamp(beta)


def _best_margin(mu, eps, omega, lam_As, sigma_A, coupling, s):
    """sup over (alpha, beta) of the margin at total lag s (exact)."""
    E = np.exp(2.0 * lam_As * s)
    g = omega**0.5 + (sigma_A + SEVEN_THIRDS**0.5 * coupling) * s
    return mu - eps * E * g * g


@np.errstate(over="ignore")     # a margin beyond the float range is -inf
def _find_budget(mu, eps, omega, lam_As, sigma_A, coupling):
    """Largest lag s with positive best margin f(s) = mu - eps P(s), where
    P(s) = e^{2 lam_As s} g(s)^2, g(s) = sqrt(omega) + c s and
    c = sigma_A + sqrt(7/3) coupling; 0 when f(0) <= 0.

    Returns (budget, lag), with lag the lag at which f is smallest. There is
    no scan; P has one of three shapes:
      * it rises without bound (lam_As >= 0 and c > 0, or c = 0 with
        lam_As > 0 and omega > 0): the root is bracketed by doubling from 1;
      * it peaks at s* = max(0, (-c/lam_As - sqrt(omega))/c) (lam_As < 0,
        c > 0): the budget is unbounded if f(s*) > 0, else the root is in
        [0, s*];
      * it never rises (c = 0 otherwise): the budget is unbounded.
    An unbounded budget is math.inf at lag s* (0 for the third shape); a
    bracketed root is bisected to adjacent floats and the budget is its
    lower end, so f(budget) > 0.
    """
    fm = lambda s: _best_margin(mu, eps, omega, lam_As, sigma_A, coupling, s)
    c = sigma_A + SEVEN_THIRDS**0.5 * coupling
    if lam_As < 0 and c > 0:
        peak = max((-c / lam_As - math.sqrt(omega)) / c, 0.0)
    elif c > 0 or (lam_As > 0 and omega > 0):
        peak = math.inf
    else:
        peak = 0.0
    if peak < math.inf and fm(peak) > 0:
        return math.inf, peak
    lo, hi = 0.0, peak if peak < math.inf else 1.0
    while fm(hi) > 0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, lo
        if fm(mid) > 0:
            lo = mid
        else:
            hi = mid


def _budget_report(mu_eff, eps, omega, lam_As, sigma_A, coupling,
                   gamma=1.0, extra_details=None):
    if mu_eff <= eps * omega:
        return BoundReport(
            feasible=False, margin=mu_eff - eps * omega, budget=0.0,
            witness=None, unbounded=False,
            diagnostics="infeasible: eps * omega >= available margin "
                        "(stability cannot be certified for any h, tau)",
            details=dict(extra_details or {}))
    budget, lag = _find_budget(mu_eff, eps, omega, lam_As, sigma_A, coupling)
    unbounded = budget == math.inf

    def certified(s):
        """(margin, alpha, beta) of the closed-form witness at lag s."""
        alpha, beta = _best_witness(omega, sigma_A, coupling, max(s, 1e-12))
        return (_margin_at(mu_eff, eps, omega, lam_As, sigma_A, coupling,
                           s, alpha, beta), alpha, beta)

    margin, alpha, beta = certified(lag)
    if not unbounded and margin <= 0 and budget > 0:
        # The clamped witness can lose a little margin against the exact
        # optimum near the root. Step down from the root, doubling the step,
        # to a lag the witness certifies; then bisect to adjacent floats
        # between it and the last lag it does not certify.
        hi, step = budget, 1e-7
        while (lo := budget * max(1.0 - step, 0.0)) > 0 and certified(lo)[0] <= 0:
            hi, step = lo, 2.0 * step
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if certified(mid)[0] > 0:
                lo = mid
            else:
                hi = mid
        budget = lo
        margin, alpha, beta = certified(lo)
    witness = SearchParams(alpha=alpha, beta=beta, gamma=gamma)
    diag = (f"unbounded: the margin stays positive for every lag; it is "
            f"smallest at lag {lag:.6g}, where the witness is given") \
        if unbounded else f"certified total lag budget {budget:.6g}"
    return BoundReport(feasible=True, margin=float(margin), budget=budget,
                       witness=witness, unbounded=unbounded, diagnostics=diag,
                       details=dict(extra_details or {}))


def theorem1_budget(q: BoundQuery) -> BoundReport:
    """Maximum total lag h + tau under the abstract stability condition."""
    return _budget_report(q.mu, q.eps, q.omega, q.lambda_As, q.sigma_A,
                          q.sigma_G * q.sigma_K)


def _gamma_sup(a, b, c):
    """sup over gamma of (a - b/gamma) / (b*gamma + c) subject to a positive
    numerator and a positive denominator.

    a is the decay constant, b = sigma/2 and c the denominator offset.
    Returns (sup, gamma_star, unbounded); unbounded marks the case where the
    denominator can be made nonpositive while the numerator stays positive.
    The stationarity condition is the quadratic
    a*gamma^2 - 2*b*gamma - c = 0.
    """
    if b <= 0:
        # No quadratic-form penalty: the ratio is a/c for all gamma.
        if c <= 0:
            return math.inf, 1.0, True
        return a / c, 1.0, False
    if b * b / a + c <= 0:
        # There is a gamma with positive decay and nonpositive penalty
        # coefficient: the dissipation argument closes for any lag.
        return math.inf, b / a * (1.0 + 1e-6), True
    gamma_star = (b + math.sqrt(b * b + a * c)) / a
    sup = (a - b / gamma_star) / (b * gamma_star + c)
    return sup, gamma_star, False


def theorem2_budget(model: LtiModel, design: GainDesign, algebra: GraphAlgebra,
                    omega: float) -> BoundReport:
    """Maximum h + tau certifying average consensus under the relative-edge
    sampling protocol with gain K and Lyapunov matrix P."""
    if not is_connected(algebra.graph):
        raise InfeasibleError("interaction graph must be connected")
    spectrum = algebra.spectrum[1:]
    if not verify_lyapunov_family(design, model, spectrum):
        raise InfeasibleError("Lyapunov inequality family fails for the design")
    consts = design_constants(design, model, algebra)
    c = model.constants
    lam_n = algebra.lambda_n
    a, b = design.mu, consts.sigma_edge / 2.0
    coff = lam_n * consts.lambda_PBK_s - design.mu
    sup, gamma_star, any_period = _gamma_sup(a, b, coff)
    details = {"sigma": consts.sigma_edge, "lambda_PBK_s": consts.lambda_PBK_s,
               "sigma_BK": consts.sigma_BK, "gamma_star": gamma_star,
               "gamma_sup": sup}
    if any_period:
        return BoundReport(
            feasible=True, margin=math.inf, budget=math.inf,
            witness=SearchParams(alpha=1.0, beta=1.0, gamma=gamma_star),
            unbounded=True, details=details,
            diagnostics="unbounded: the dissipation inequality is strict for "
                        "any sampling period (nonpositive penalty coefficient)")
    return _budget_report(sup, 1.0, omega, c.lambda_As, c.sigma_A,
                          lam_n * consts.sigma_BK,
                          gamma=gamma_star, extra_details=details)


def theorem3_budget(algebra: GraphAlgebra, gain: float = 1.0) -> BoundReport:
    """Maximum h + tau for single-integrator broadcast consensus with gain
    BK = gain > 0: x' = -k L x_hat is the unit-gain system in time k t, so
    the unit-gain budget and synchronous constant are divided by k."""
    if not (gain > 0 and math.isfinite(gain)):
        raise InfeasibleError(f"theorem 3 needs a positive finite gain, not {gain!r}")
    if algebra.graph.n < 2:
        raise InfeasibleError("theorem 3 needs at least two agents")
    if not is_connected(algebra.graph):
        raise InfeasibleError("interaction graph must be connected")
    lam2, lam_n = algebra.lambda_2, algebra.lambda_n
    sigma = max(2.0 * lam2, lam_n - 2.0 * lam2)
    sup, gamma_star, any_period = _gamma_sup(lam2, sigma / 2.0, lam_n - lam2)
    # sup is infinite, and so is the budget, when any period is certified
    budget = math.sqrt(3.0 / (7.0 * lam_n**2) * sup) / gain
    sync = 2.0 / lam_n / gain
    if math.isinf(sync) or math.isinf(budget) != any_period:     # a gain near 0
        raise ValueError(f"theorem 3's budget at gain {gain!r} is beyond the float range")
    details = {"sigma": sigma, "gamma_star": gamma_star, "objective": sup,
               "synchronous_necessary_sufficient": sync}
    sync_label = "2/lambda_n" if gain == 1.0 else "2/(k lambda_n)"
    return BoundReport(
        feasible=True, margin=sup, budget=budget,
        witness=SearchParams(alpha=1.0, beta=1.0, gamma=gamma_star),
        unbounded=any_period, details=details,
        diagnostics=f"single-integrator budget {budget:.6g} "
                    f"(gamma* = {gamma_star:.6g}, objective = {sup:.6g}); "
                    f"synchronous comparison constant {sync_label} = {sync:.6g}")


def marginally_stable(A) -> bool:
    """All eigenvalues in the closed left half-plane, with those on the
    imaginary axis semisimple (so e^{At} stays bounded)."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    eig = np.linalg.eigvals(A)
    if np.any(eig.real > MARGINAL_TOL):
        return False
    axis = eig[np.abs(eig.real) <= MARGINAL_TOL]
    for lam in axis:
        alg = int(np.sum(np.abs(eig - lam) <= 1e-7 * max(1.0, np.abs(lam))))
        geo = n - np.linalg.matrix_rank(A - lam * np.eye(n), tol=1e-9 * max(1.0, np.linalg.norm(A)))
        if geo < alg:
            return False
    return True


def max_expm_norms(A) -> tuple[float, float]:
    """Sampled sup over s >= 0 of ||e^{As}||_2 and of the maximum row sum
    norm ||e^{As}||_inf, for marginally stable A.

    The sampling window covers one period of the slowest oscillatory mode
    and ten time constants of the slowest decaying mode; the returned values
    are sample maxima (a documented approximation). All samples come from
    one batched expm, one batched svd and one row sum.

    A diagonal A with nonpositive entries needs no samples: e^{As} is
    diag(e^{a_i s}), so both norms are max_i e^{a_i s} <= 1, with equality
    at s = 0, and the sup is exactly (1, 1).
    """
    A = np.asarray(A, dtype=float)
    d = np.diagonal(A)
    if np.array_equal(A, np.diag(d)) and np.all(d <= 0):
        return 1.0, 1.0
    eig = np.linalg.eigvals(A)
    T = 1.0
    freqs = np.abs(eig.imag)
    freqs = freqs[freqs > 1e-9]
    if freqs.size:
        T = max(T, 2.0 * math.pi / freqs.min())
    decays = -eig.real[eig.real < -1e-9]
    if decays.size:
        T = max(T, 10.0 / decays.min())
    E = expm(A, np.linspace(0.0, T, NORM_SAMPLES))
    best2 = float(np.linalg.svd(E, compute_uv=False)[:, 0].max())
    bestinf = float(np.abs(E).sum(axis=2).max())
    return best2, bestinf


def delta_kappa(model: LtiModel, x0_sum, n: int, h: float, max_norm2: float) -> float:
    """Bound on the held-vs-true consensus-trajectory mismatch induced by
    sampling the drifting average with period at most h; max_norm2 is the
    largest ||e^{As}||_2 (max_expm_norms)."""
    growth = lemma1_bounds(model.constants, h)[1]     # bounds ||e^{Ah} - I||_2
    return (1.0 / math.sqrt(n)) * float(np.linalg.norm(x0_sum)) * max_norm2 * growth


def _theorem4(model: LtiModel, design: GainDesign, algebra: GraphAlgebra,
              h: float, tau: float, delta_e: float | None, x0_sum, p: SearchParams):
    """(error bound, Delta(h), delta_kappa) of theorem 4 at the search
    parameters p. The e^{As} norm constants enter no feasibility condition,
    so they are sampled once, after every condition holds. delta_e is None
    for an error with no additive bound, which is refused (ValueError) once
    the conditions hold: an infeasible query is reported as such first."""
    if not marginally_stable(model.A):
        raise InfeasibleError("A must be marginally stable for the broadcast bound")
    consts = design_constants(design, model, algebra)
    n = algebra.graph.n
    c = model.constants
    lam_n = algebra.lambda_n
    mu, lam_P = design.mu, design.lambda_P

    sigma = theorem4_sigma(design, model, algebra, p.eta)
    decay = mu - lam_P / (2.0 * p.eta) - sigma / (2.0 * p.gamma)
    C = p.gamma * sigma / 2.0 - mu + lam_P / (2.0 * p.eta) + lam_n * consts.sigma_PB**2
    s = h + tau
    drift = ((1.0 + 1.0 / p.beta) * c.sigma_A**2
             + (1.0 + p.beta) * SEVEN_THIRDS * lam_n**2 * consts.sigma_BBtP**2)
    gamma_big = decay - C * (1.0 + p.alpha) * drift * s * s * math.exp(2.0 * c.lambda_As * s)

    failures = []
    if decay <= 0:
        failures.append("mu - lambda_P/(2 eta) - sigma/(2 gamma) > 0")
    if C < 0:
        failures.append("gamma sigma/2 - mu + lambda_P/(2 eta) + lambda_n sigma_PB^2 >= 0")
    if gamma_big <= 0:
        failures.append("Gamma(h, tau, alpha, beta, gamma, eta) > 0")
    if failures:
        raise SetMembershipError("parameters outside feasibility set: "
                                 + "; ".join(failures))
    if delta_e is None:
        raise ValueError("theorem 4 bounds additive errors |e| <= delta_e, and this "
                         "error model has no such bound: give bound_params delta_e")

    max2, maxinf = max_expm_norms(model.A)
    dk = delta_kappa(model, x0_sum, n, h, max2)
    delta = lam_n * consts.sigma_BK * (dk + delta_e)
    dbar = (C * (1.0 + 1.0 / p.alpha) * maxinf**2 * n * s * s * delta**2
            + 0.5 * lam_P * p.eta * delta**2)
    return p.theta * dbar / gamma_big, delta, dk


def _opt_beta(model: LtiModel, design: GainDesign, algebra: GraphAlgebra,
              alpha, gamma, eta, theta) -> SearchParams:
    """Theorem 4's search parameters with beta at its closed-form optimum."""
    sigma_BBtP = max_singular_value(model.B @ model.B.T @ design.P)
    denom = SEVEN_THIRDS**0.5 * algebra.lambda_n * sigma_BBtP
    beta = _clamp(model.constants.sigma_A / denom) if denom > 0 else PARAM_CEIL
    return SearchParams(alpha=alpha, beta=beta, gamma=gamma, eta=eta, theta=theta)


def theorem4_error_bound(model: LtiModel, design: GainDesign,
                         algebra: GraphAlgebra, h: float, tau: float,
                         delta_e: float, x0_sum, p: SearchParams) -> float:
    """Ultimate consensus-error bound theta * Dbar / Gamma for broadcast
    protocols on marginally stable dynamics with additive errors <= delta_e.

    Raises SetMembershipError when (alpha, beta, gamma, eta) lies outside the
    feasibility set, listing the failed conditions.
    """
    return _theorem4(model, design, algebra, h, tau, delta_e, x0_sum, p)[0]


def theorem4_bound_opt_beta(model: LtiModel, design: GainDesign,
                            algebra: GraphAlgebra, h: float, tau: float,
                            delta_e: float, x0_sum, alpha: float, gamma: float,
                            eta: float, theta: float = SearchParams.theta):
    """Error bound with beta at its closed-form optimum (the other search
    parameters fixed); returns (bound, beta)."""
    p = _opt_beta(model, design, algebra, alpha, gamma, eta, theta)
    return _theorem4(model, design, algebra, h, tau, delta_e, x0_sum, p)[0], p.beta


def theorem4_report(model: LtiModel, design: GainDesign, algebra: GraphAlgebra,
                    h: float, tau: float, delta_e: float | None, x0_sum, alpha: float = 0.5,
                    gamma: float = 3.188, eta: float = 1.6,
                    theta: float = SearchParams.theta) -> dict:
    """Theorem-4 error bound at the optimal beta, with the error level
    Delta(h) and the mismatch bound delta_kappa it rests on. The defaults
    are the search parameters of the paper's broadcast example."""
    p = _opt_beta(model, design, algebra, alpha, gamma, eta, theta)
    bound, delta_h, dk = _theorem4(model, design, algebra, h, tau, delta_e, x0_sum, p)
    return {"feasible": True, "error_bound": bound, "delta_h": delta_h,
            "delta_kappa": dk, "witness": asdict(p)}


def corollary1_budget(*args, quant_level: float):
    """Budget with a logarithmic quantizer of the given level in place of the
    multiplicative-error bound: omega = (quant_level - 1)^2.

    Accepts either a BoundQuery (abstract condition) or the
    (model, design, algebra) triple of the relative-edge pipeline.
    """
    if quant_level <= 1.0:
        raise ValueError("quantizing level must exceed 1")
    omega = (quant_level - 1.0) ** 2
    if len(args) == 1 and isinstance(args[0], BoundQuery):
        return theorem1_budget(replace(args[0], omega=omega))
    model, design, algebra = args
    return theorem2_budget(model, design, algebra, omega=omega)


def corollary2_budget(q: BoundQuery) -> BoundReport:
    """Maximum dwell time for event-triggered updates without delays; same
    formula as the abstract budget with tau forced to zero, so the reported
    budget is the dwell time h itself (theorem1_budget reads no h or tau)."""
    report = theorem1_budget(q)
    return replace(report, diagnostics="max dwell time h (tau = 0): "
                                       + report.diagnostics)


def theorem5_budget(q: BoundQuery) -> BoundReport:
    """Budget with an input delay: the stability condition depends on the
    total lag h + tau + tau_in, so the certified residual budget for h + tau
    is the abstract budget minus the supplied tau_in."""
    base = theorem1_budget(q)
    if not base.feasible:
        return base
    residual = base.budget - q.tau_in
    if residual <= 0:
        return BoundReport(
            feasible=False, margin=base.margin, budget=0.0, witness=base.witness,
            diagnostics=f"infeasible: input delay {q.tau_in:.6g} consumes the "
                        f"entire certified lag budget {base.budget:.6g}",
            details={"total_lag_budget": base.budget})
    return BoundReport(
        feasible=True, margin=base.margin, budget=residual, witness=base.witness,
        unbounded=base.unbounded,
        diagnostics=f"residual h + tau budget {residual:.6g} after input delay "
                    f"{q.tau_in:.6g} (total lag budget {base.budget:.6g})",
        details={"total_lag_budget": base.budget})
