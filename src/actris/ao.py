"""Alternating joint design of precoder, combiner and surface configuration.

One outer iteration updates, in order: the auxiliary receive directions and
per-stream SINR weights (closed form), the precoder (KKT solution with its
power multiplier found by monotone Newton steps), the phases (conjugate-gradient descent on the
complex circle manifold), and the amplitudes (box-plus-budget QP with a
linearized power model, followed by a repair loop that enforces the true
circuit power).
"""

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import circuit, reflection
from .channel import _rate_of_sinrs, effective_channel, lmmse_receiver
from .constraints import POWER_TOL
from .errors import ConvergenceError, InfeasibleBudgetError

ARMIJO_C = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 40
LADDER = 8  # Armijo steps scored per stacked objective call
STALL_WINDOW = 10  # accepted CG steps over which a stalled objective is judged
MAX_CG_ITERS = 300  # CG steps of one phase solve at most
REPAIR_PASSES = 8  # shortfall passes of the power repair at most
REPAIR_BISECTIONS = 8  # working-budget halvings once the shortfall loop stops
PIVOT_TRIES = 3  # whole-set QP pivots without a new fewest-infeasible count
NEWTON_STEPS = 50  # precoder multiplier steps at most; 3 to 9 reach the budget
# the backtracking steps 1, 1/2, ..., 2^-39, one rung per row
_STEP_LADDER = (BACKTRACK ** np.arange(MAX_BACKTRACKS, dtype=float))[:, None]


@dataclass
class PhaseObjective:
    """Quadratic form data for the phase subproblem.

    g(p) = gamma(p)^H t gamma(p) - 2 Re[gamma(p)^H q] with
    gamma(p) = z2*p^2 + z1*p + z over unit-modulus phasors p.
    """

    t: np.ndarray
    q: np.ndarray
    z2: np.ndarray
    z1: np.ndarray
    z: np.ndarray

    def gamma_of(self, phasor):
        return self.z2 * phasor**2 + self.z1 * phasor + self.z

    def value(self, phasor, with_tg=False):
        """g at one design (n,) as a float, or at a stack (..., n) as an array.

        Every design is scored by its own matmul slice, so a row of a stack
        carries the bits of a call on that design alone. with_tg=True also
        returns t @ gamma(p) of each design, which the gradient reuses.
        """
        g = self.gamma_of(phasor)[..., None, :]
        gc = g.conj()
        tg = np.matmul(self.t, g.mT)
        quad = np.matmul(gc, tg)
        lin = np.matmul(gc, self.q[:, None])
        val = (quad.real - 2.0 * lin.real)[..., 0, 0]
        val = float(val) if val.ndim == 0 else val
        return (val, tg[..., 0]) if with_tg else val

    @cached_property
    def gradient_factors(self):
        """(4 conj(z2), 2 conj(z1)), phase_gradient's factors, once per
        objective. Scaling by a power of two is exact, so folding the
        gradient's factors of two in here keeps its bits."""
        return 4.0 * np.conj(self.z2), 2.0 * np.conj(self.z1)


def precoder_update(ch, y, sigma_aux, gamma, scenario):
    """Power-constrained precoder from the KKT conditions.

    With z y^H heff = U diag(lambda) U^H and n_i = |(U^H z)_i|^2, the precoder
    U diag(1/(lambda + mu)) U^H z draws P(mu) = sum n_i / (lambda_i + mu)^2.
    Newton steps on the concave, increasing 1/sqrt(P(mu)) - 1/sqrt(p_t) (More
    & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983) rise monotonically onto
    its root from the lower bound max(0, max_i sqrt(n_i/p_t) - lambda_i), with
    no bracket, until P(mu) <= p_t (1 + 1e-11); mu = 0 is the first iterate,
    and the answer, when the unconstrained precoder fits the budget.
    """
    heff = effective_channel(ch, gamma)
    z = heff.conj().T @ y @ np.diag(sigma_aux + 1.0)
    vals, u = np.linalg.eigh(z @ y.conj().T @ heff)
    uz = u.conj().T @ z
    num = np.sum(np.abs(uz) ** 2, axis=1)
    # numerators vanish analytically on the null space of z y^H heff; drop the
    # numerical residue so the power sum stays finite at multiplier zero
    keep = num > 1e-14 * max(num.sum(), 1e-300)
    if not keep.any():
        return np.zeros((scenario.m_t, y.shape[1]), dtype=complex)
    lam, num = np.maximum(vals[keep], 0.0), num[keep]
    p_t = scenario.p_t_w
    mu = max(0.0, float(np.max(np.sqrt(num / p_t) - lam)))
    for _ in range(NEWTON_STEPS):
        inv = 1.0 / (lam + mu)
        terms = num * inv * inv
        power = float(terms.sum())
        if power <= p_t * (1.0 + 1e-11):
            break
        mu += power * (np.sqrt(power / p_t) - 1.0) / float(np.sum(terms * inv))
    else:
        raise ConvergenceError(
            f"precoder power {power:.6g} W still exceeds the budget {p_t:.6g} W "
            f"after {NEWTON_STEPS} Newton steps on its multiplier"
        )
    return u[:, keep] @ (inv[:, None] * uz[keep])


def build_phase_objective(ch, v, y, sigma_aux, fits, alpha_bar, scenario):
    """Assemble the phase-subproblem quadratic without Kronecker products.

    The two quadratic forms reduce to an N x N Hadamard combination of the
    RX-side and TX-side Gram matrices plus a diagonal surface-noise term; the
    linear term reduces to diagonals of small matrix products.
    """
    sig = sigma_aux + 1.0
    ysy = (y * sig[None, :]) @ y.conj().T                      # (m_r, m_r)
    a = ch.h_2.conj().T @ ysy @ ch.h_2                         # (n, n)
    bvv = ch.h_1 @ (v @ v.conj().T) @ ch.h_1.conj().T          # (n, n)
    t = np.diag(scenario.sigma2_w * scenario.f_s * np.diag(a).real) + a * bvv.T

    ysv = (y * sig[None, :]) @ v.conj().T                      # (m_r, m_t)
    q = np.einsum("ij,ji->i", ch.h_2.conj().T, ysv @ ch.h_1.conj().T)
    if np.any(ch.h_d):
        m = ysy @ ch.h_d @ (v @ v.conj().T)
        q = q - np.einsum("ij,ji->i", ch.h_2.conj().T, m @ ch.h_1.conj().T)

    z2, z1, z = fits.coefficients(alpha_bar)
    return PhaseObjective(t=t, q=q, z2=z2, z1=z1, z=z)


def phase_gradient(obj, phasor, tg=None):
    """Euclidean gradient of the phase objective at unit-modulus phasors.

    Reported as twice the conjugate Wirtinger derivative, matching the
    finite-difference convention. tg is t @ gamma(phasor) when the caller
    already has it.
    """
    w = (obj.t @ obj.gamma_of(phasor) if tg is None else tg) - obj.q
    k2, k1 = obj.gradient_factors
    return np.conj(phasor) * k2 * w + k1 * w


def _tangent_project(vec, phasor, phasor_conj):
    return vec - (vec * phasor_conj).real * phasor


def rmo_phase_opt(obj, phasor0, tol=1e-6):
    """Conjugate-gradient descent on the complex circle manifold.

    Polak-Ribiere directions with restarts, Armijo backtracking, and
    retraction by elementwise normalization. The first line search of a call
    backtracks from unit step; each later one starts one rung above the step
    the previous one took (2 s_prev, s_prev, s_prev/2, ...; Nocedal & Wright,
    Numerical Optimization, 2006, sec. 3.5). The backtracking steps are
    scored as stacks of retracted candidates: first rungs [0, LADDER), or
    [max(rung - 1, 0), rung + 2) after an acceptance at rung, then LADDER
    rungs at a time toward smaller steps. The first one that passes the
    Armijo test is taken, as in a step-by-step search. Stops when the
    Riemannian gradient norm drops to tol, when the last STALL_WINDOW
    accepted steps lowered the objective by no more than tol times its
    magnitude, or after MAX_CG_ITERS steps. Returns the final phasors and
    the objective trace (nonincreasing).
    """
    phasor = np.asarray(phasor0, dtype=complex)
    if np.max(np.abs(np.abs(phasor) - 1.0)) > 1e-9:
        warnings.warn("phase iterate not unit-modulus; normalizing", stacklevel=2)
    phasor = phasor / np.abs(phasor)
    n = phasor.size

    # optimize a scaled copy so step sizes and the gradient tolerance are
    # meaningful regardless of the absolute channel/noise scale
    s = max(np.abs(obj.t).max(), np.abs(obj.q).max(), 1e-300)
    work = PhaseObjective(t=obj.t / s, q=obj.q / s, z2=obj.z2, z1=obj.z1, z=obj.z)
    armijo = ARMIJO_C * _STEP_LADDER[:, 0]

    val = work.value(phasor)
    trace = [val]
    rgrad = _tangent_project(phase_gradient(work, phasor), phasor, np.conj(phasor))
    direction, rung = -rgrad, None   # rung: where the last line search passed
    for it in range(MAX_CG_ITERS):
        gnorm2 = np.vdot(rgrad, rgrad).real
        if np.sqrt(gnorm2) <= tol:
            break
        slope = np.vdot(rgrad, direction).real
        if slope >= 0.0:
            direction = -rgrad
            slope = -gnorm2
        new_phasor = None
        lo, hi = (0, LADDER) if rung is None else (max(rung - 1, 0), rung + 2)
        while new_phasor is None and lo < MAX_BACKTRACKS:
            cand = phasor + _STEP_LADDER[lo:hi] * direction
            cand /= np.abs(cand)
            cand_vals, cand_tg = work.value(cand, with_tg=True)
            passed = cand_vals <= val + armijo[lo:hi] * slope
            k = int(passed.argmax())   # the first pass, or 0 if none passed
            if passed[k]:
                new_phasor, cand_val, tg, rung = cand[k], float(cand_vals[k]), cand_tg[k], lo + k
            lo, hi = hi, hi + LADDER
        if new_phasor is None:
            break
        prev_rgrad, phasor, val = rgrad, new_phasor, cand_val
        trace.append(val)
        if len(trace) > STALL_WINDOW and trace[-1 - STALL_WINDOW] - val <= tol * abs(val):
            break
        pc = np.conj(phasor)
        rgrad = _tangent_project(phase_gradient(work, phasor, tg), phasor, pc)
        beta = np.vdot(rgrad, rgrad - _tangent_project(prev_rgrad, phasor, pc)).real / max(
            gnorm2, 1e-300
        )
        if beta < 0.0 or (it + 1) % n == 0:
            direction = -rgrad
        else:
            direction = -rgrad + beta * _tangent_project(direction, phasor, pc)
    return phasor, s * np.asarray(trace)


def _linear_power(params, active, lower, upper, r_min):
    """Per-element linear power surrogate (p_min, slope, lower, upper) on the
    amplitude box [lower, upper]: an active cell draws the band_hi power at
    its lower amplitude and the power of r_min at its upper one (r_min holds
    the active cells' resistances, or one for all of them); zeros for
    passive elements."""
    n = lower.size
    p_min = np.zeros(n)
    slope = np.zeros(n)
    if active.any():
        powers = circuit.power_consumption(np.append(r_min, circuit.diode_band(params)[1]),
                                           params)
        p_hi, p_lo = powers[:-1], powers[-1]
        span = upper[active] - lower[active]
        p_min[active] = p_lo
        # a collapsed band pins the amplitude, so only the floor power counts
        slope[active] = np.where(span > 1e-12, (p_hi - p_lo) / np.maximum(span, 1e-12), 0.0)
    return p_min, slope, lower, upper


def _power_fit_arrays(fits, phi, params):
    """_linear_power on the cosine-model box at phases phi, whose upper
    amplitudes sit at the most negative usable resistance max(-F(phi), band_lo)."""
    lower, upper = fits.bounds(phi)
    active = fits.active_mask
    r_min = np.maximum(-circuit.resistance_range(params, phi[active]),
                       circuit.diode_band(params)[0])
    return _linear_power(params, active, lower, upper, r_min)


@dataclass
class QpResult:
    alpha: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def _budget_slack(b):
    return 1e-15 * max(abs(b), 1.0)   # budget-row slack of the face decisions


def _face_solve(free, x, m, c_lin, w, b):
    """Stationary point of the QP on a face, and its budget multiplier.

    Cells outside free keep their values in x. The free cells solve the
    stationarity equations, bordered by the budget row when the box-only
    point breaks the budget; the multiplier is zero for the box-only point.
    The blocks of m are gathered by take, C-ordered as np.ix_ blocks are.
    Raises LinAlgError when a system is singular, as the bordered one is
    when w is zero on the free cells.
    """
    fi, fx = free.nonzero()[0], (~free).nonzero()[0]
    rows = m.take(fi, 0)
    m_ff = 2.0 * rows.take(fi, 1)
    rhs = -(c_lin[fi] + 2.0 * (rows.take(fx, 1) @ x[fx]))
    y = x.copy()
    y[fi] = np.linalg.solve(m_ff, rhs)
    if w @ y <= b + _budget_slack(b):
        return y, 0.0
    bordered = np.zeros((fi.size + 1, fi.size + 1))
    bordered[:-1, :-1] = m_ff
    bordered[:-1, -1] = bordered[-1, :-1] = w[fi]
    sol = np.linalg.solve(bordered, np.append(rhs, b - w[fx] @ x[fx]))
    y[fi] = sol[:-1]
    return y, float(sol[-1])


def _pivot_face(x, m, c_lin, lower, upper, w, b):
    """Exact QP minimizer by block principal pivoting from the face of x.

    Each step solves the face of the current lower, upper and free sets
    (_face_solve). With g = 2 m y + c_lin + mu w, its infeasible cells are
    the free cells outside the box and the cells on a bound whose g points
    into the box, and a pivot moves them to the other set. The whole
    infeasible set moves while its size keeps falling; after PIVOT_TRIES
    pivots without a new minimum only its least index moves (Murty's rule).
    At a vertex on the budget row, mu is the smallest multiplier that holds
    the lower cells with budget weight at their bound, so those cells stay
    there (their g is >= 0 up to rounding). Cells with no amplitude span
    stay fixed.

    The state (lower set, upper set, fewest count, tries left) fixes the
    next pivot, so a repeated state is a cycle; cycles can occur because
    _face_solve decides per face whether the budget row is active. On a
    cycle, at a vertex over the budget, or on a bordered face whose free
    cells carry no budget weight (a singular face), the budget multiplier
    is fixed inside the bracket that earlier fixes left open: the face's
    own mu if inside it, else 0, else the midpoint, or doubling from
    max|c_lin| / max w while the bracket is open above. This function
    with linear term c_lin + mu w and b = inf solves that box problem (no
    budget decision there, so Murty's rule is finite for a
    positive-definite m), the bracket end moves by whether its point
    breaks the budget, and the pivoting starts afresh from its face.
    Returns (y, mu, pivots) at a point that meets the KKT conditions on its
    face, mu being that face's budget multiplier. Raises ConvergenceError
    when the box pivoting stalls or no multiplier is left in the bracket
    (width <= 1e-15 of its upper end).
    """
    movable = upper > lower
    none_held = np.zeros_like(movable)
    mu_lo, mu_hi = -np.inf, np.inf   # box points break the budget at mu_lo, meet it at mu_hi
    pivots = 0
    while True:
        at_lo = movable & (x <= lower)
        at_hi = movable & (x >= upper)
        fewest, tries, seen = x.size + 1, PIVOT_TRIES, set()
        while True:
            free = movable & ~at_lo & ~at_hi
            y = np.where(at_lo, lower, np.where(at_hi, upper, x))
            mu, held = 0.0, none_held
            if free.any():
                try:
                    y, mu = _face_solve(free, y, m, c_lin, w, b)
                except np.linalg.LinAlgError:
                    why = "a singular face"
                    break
            elif w @ y > b + _budget_slack(b):
                why = "a vertex over the budget"
                break
            elif w @ y >= b - _budget_slack(b):   # a vertex on the budget row
                held = at_lo & (w > 0.0)
                if held.any():
                    mu = max(0.0, float(np.max(-(2.0 * (m @ y) + c_lin)[held] / w[held])))
            g = 2.0 * (m @ y) + c_lin
            if mu != 0.0:   # adding +-0.0 could only flip the sign of a zero in g
                g += mu * w
            below = free & (y < lower)
            above = free & (y > upper)
            flip = below | above | (at_lo & ~held & (g < 0.0)) | (at_hi & (g > 0.0))
            count = int(np.count_nonzero(flip))
            if count == 0:   # a bordered point meets the budget row up to rounding
                return y, mu, pivots
            state = (at_lo.tobytes(), at_hi.tobytes(), fewest, tries)
            if state in seen:
                why = "a repeated pivot state"
                break
            seen.add(state)
            if count < fewest:
                fewest, tries = count, PIVOT_TRIES
            elif tries > 0:
                tries -= 1
            else:
                flip[flip.argmax() + 1:] = False
            at_lo = (at_lo & ~flip) | (below & flip)
            at_hi = (at_hi & ~flip) | (above & flip)
            pivots += 1
        if b == np.inf:
            raise ConvergenceError(f"amplitude QP box pivoting at a fixed multiplier met {why}")
        if not (mu_lo < mu < mu_hi and mu >= 0.0):
            mu = (0.0 if mu_lo < 0.0 else 0.5 * (mu_lo + mu_hi) if mu_hi < np.inf
                  else max(2.0 * mu_lo, float(np.abs(c_lin).max() / w.max())))
        collapsed = mu_hi < np.inf and mu_hi - max(mu_lo, 0.0) <= 1e-15 * mu_hi
        if collapsed or not mu_lo < mu < mu_hi:
            raise ConvergenceError(f"amplitude QP has no budget multiplier left in "
                                   f"({mu_lo:.6g}, {mu_hi:.6g}) after {why}")
        x, _, box_pivots = _pivot_face(np.minimum(np.maximum(y, lower), upper), m,
                                       c_lin + mu * w, lower, upper, w, np.inf)
        pivots += box_pivots
        if w @ x > b + _budget_slack(b):
            mu_lo = mu
        else:
            mu_hi = mu


def _qp_phase_data(obj, phi):
    """Curvature, linear term and Lipschitz bound L of the amplitude QP at
    phases phi. L = 2 ||m||_inf, a Gershgorin bound of at least 2 lambda_max.
    Raises ConvergenceError when the curvature is not positive definite (no
    Cholesky factor of m - n eps ||m||_inf I), on which the pivoting need
    not end."""
    phasor = np.exp(1j * phi)
    m = np.real(np.conj(phasor)[:, None] * obj.t * phasor[None, :])
    c_lin = -2.0 * np.real(np.conj(phasor) * obj.q)
    norm = float(np.abs(m).sum(axis=1).max())
    shift = m.shape[0] * np.finfo(float).eps * norm
    try:
        np.linalg.cholesky(m - shift * np.eye(m.shape[0]))
    except np.linalg.LinAlgError:
        raise ConvergenceError(f"amplitude QP curvature is not positive definite: no Cholesky "
                               f"factor at the shift {shift:.6g} (||m||_inf = {norm:.6g})") from None
    return m, c_lin, 2.0 * norm


def amplitude_qp(qp_data, surrogate, budget, start=None):
    """Amplitude subproblem at fixed phases: convex QP over box and budget.

    Minimizes the reflected-signal quadratic (qp_data, from _qp_phase_data)
    subject to the per-element amplitude box and the linearized power
    budget (surrogate, from _power_fit_arrays at the same phases). Block
    principal pivoting (_pivot_face) finds the optimal face and solves the
    quadratic on it exactly, starting from the face of start clipped into
    the box (the previous solve's amplitudes; Judice & Pires, Comput.
    Oper. Res. 21(5), 1994), or from the lower box corner when start is
    None or the budget leaves no room above that corner, whose point is
    then the only feasible one. The point depends only on the face the
    pivoting ends on, so a start changes the path, not the answer, unless
    the QP is degenerate enough to have two certified faces. iterations
    counts its pivots. kkt_residual is the largest KKT violation at the face's
    budget multiplier mu, in amplitude units at step 1/L, with L the bound
    2 ||m||_inf of _qp_phase_data (at least 2 lambda_max): the box
    fixed-point residual of the gradient 2 m y + c_lin + mu w, the budget gap
    (|w y - b| if mu > 0, else its excess) over max w, and step max(-mu, 0)
    max w. A budget below the lower box corner's power raises
    InfeasibleBudgetError; a point the pivoting cannot certify raises
    ConvergenceError.
    """
    m, c_lin, lip = qp_data
    p_min, slope, lower, upper = surrogate
    b = budget - float(p_min.sum() - slope @ lower)
    span = float(np.max(upper - lower))
    scale = max(lip * span, np.abs(c_lin).max(), 1e-300)
    step = 1.0 / max(lip, scale / max(span, 1e-12))
    corner = slope @ lower
    if corner > b + 1e-12 * max(abs(b), 1.0):
        raise InfeasibleBudgetError("amplitude budget infeasible at the lower box corner")
    # a budget that the lower corner fills allows no other point: start there
    if start is None or corner >= b - _budget_slack(b):
        x0 = lower
    else:
        x0 = np.maximum(np.minimum(start, upper), lower)
    y, mu, pivots = _pivot_face(x0, m, c_lin, lower, upper, slope, b)
    grad = 2.0 * (m @ y) + c_lin + mu * slope
    box = np.max(np.abs(y - np.minimum(np.maximum(y - step * grad, lower), upper)))
    gap = slope @ y - b
    w_max = max(float(slope.max()), 1e-300)
    residual = max(box, (abs(gap) if mu > 0.0 else max(gap, 0.0)) / w_max,
                   step * max(-mu, 0.0) * w_max)
    return QpResult(alpha=y, objective=float(y @ (m @ y) + c_lin @ y),
                    kkt_residual=float(residual), iterations=pivots)


def power_repair_loop(scenario, fits, phi, amplitudes):
    """Solve the amplitudes at the surface budget, map them to circuits, then
    lower the working budget until the true power fits.

    amplitudes(surrogate, budget) returns the amplitudes at phases phi for a
    working budget; surrogate is _power_fit_arrays at phi, and the realizer
    of phi (reflection.realizer) is built once here for every solve and
    realization. The linearized budget can under-account the circuit
    power; each pass lowers the working budget by the realized shortfall and
    re-solves. The passes stop when one does not bring the realized power
    below the best pass so far, or at REPAIR_PASSES. The working budget is
    then bisected REPAIR_BISECTIONS times between the linearized floor
    p_min.sum(), whose minimum-bias realization always fits a reachable
    budget, and the last working budget; the design of the highest budget
    that fits is kept. repair_passes counts the shortfall passes. Every
    working budget is at or above the floor, where none of the solvers
    (do_amplitude_max, PAIDO's constant-box greedy on the same p_min,
    amplitude_qp) raises InfeasibleBudgetError. Raises ConvergenceError only
    when the budget is below the minimum-bias power.
    """
    params, p_ris = scenario.circuit, scenario.p_ris_w
    surrogate = _power_fit_arrays(fits, phi, params)
    realize = reflection.realizer(params, fits, phi)
    p_min, slope, lower, _ = surrogate
    floor = float(p_min.sum())
    working = p_ris
    best_power = np.inf
    alpha = np.asarray(amplitudes(surrogate, p_ris), dtype=float)
    for k in range(1, REPAIR_PASSES + 1):
        design = realize(alpha)
        if design.ris_power_w <= p_ris + POWER_TOL:
            design.repair_passes = k
            return design
        if design.ris_power_w >= best_power or k == REPAIR_PASSES:
            break
        best_power = design.ris_power_w
        shortfall = design.ris_power_w - float(floor + slope @ (alpha - lower))
        working = max(working - max(shortfall, 1e-15), floor)
        alpha = np.asarray(amplitudes(surrogate, working), dtype=float)

    best = reflection.realize_minimum_power(params, fits, phi)
    if best.ris_power_w > p_ris + POWER_TOL:
        raise ConvergenceError(
            f"surface budget {p_ris:.6g} W is below the minimum-bias power "
            f"{best.ris_power_w:.6g} W"
        )
    lo, hi = floor, working
    if hi > lo:
        for _ in range(REPAIR_BISECTIONS):
            mid = 0.5 * (lo + hi)
            design = realize(amplitudes(surrogate, mid))
            if design.ris_power_w <= p_ris + POWER_TOL:
                best, lo = design, mid
            else:
                hi = mid
    best.repair_passes = k
    return best


def random_init(scenario, fits, rng):
    """Random feasible starting point (v0, design0).

    Random phases and normalized controls are realized once, the active
    cells are relaxed into the surface budget (circuit.relax_to_budget), and
    the design records the reflection its cells deliver
    (reflection.delivered_design).
    """
    params = scenario.circuit
    v0 = rng.standard_normal((scenario.m_t, scenario.d)) + 1j * rng.standard_normal(
        (scenario.m_t, scenario.d)
    )
    v0 *= np.sqrt(scenario.p_t_w / np.trace(v0.conj().T @ v0).real)
    phi0 = rng.uniform(0.0, 2.0 * np.pi, scenario.n)
    alpha_bar0 = rng.uniform(0.0, 1.0, scenario.n)
    alpha_bar0[~fits.active_mask] = 0.0
    lower, upper = fits.bounds(phi0)
    design = reflection.realizer(params, fits, phi0)(lower + alpha_bar0 * (upper - lower))
    r, c = design.r, design.c
    circuit.relax_to_budget(params, r[None], scenario.p_ris_w)   # passive cells never move
    return v0, reflection.delivered_design(params, fits, r, c)


@dataclass
class AOResult:
    v: np.ndarray
    design: reflection.RISDesign
    rate: float
    rate_history: np.ndarray
    iterations: int
    repair_passes_max: int


def run_ao(scenario, ch, fits, init, eps=1e-3, j_alt=20):
    """Alternating optimization of precoder, combiner and surface.

    init is (v0, design0): a precoder, padded here with zero columns up to
    d streams, and a realized RISDesign within the surface budget, which is
    the first iterate. Stops on relative rate change below eps, after
    j_alt iterations, or at an iterate whose LMMSE combiner is all zero
    (nothing reaches the receiver, and the precoder update would be zero
    too), and returns the best iterate seen (the initial design included).
    Its rates are model rates, at the cosine-model reflection design.gamma.
    Each amplitude QP starts from the one solved before it, in the same
    power repair or in the previous outer iteration; the first starts from
    the lower box corner.

    eps also sets how far each phase step is solved: rmo_phase_opt runs to
    tol = max(eps / 100, 1e-6), which is 1e-5 at the default eps, while
    eps = 0 keeps the solver's default 1e-6. Every accepted CG step lowers
    the phase objective, so the looser block solve keeps the alternation a
    descent on each block; DO and PAIDO keep 1e-6, since their phases are
    the delivered design and no outer loop refines them. eps = inf, which
    only a unit test passes (the experiment config rejects it), stops after
    one iteration, and there the phase step returns its start.
    """
    v0, design = init
    v = np.asarray(v0, dtype=complex)
    if v.shape[1] < scenario.d:
        pad = np.zeros((scenario.m_t, scenario.d - v.shape[1]), dtype=complex)
        v = np.concatenate([v, pad], axis=1)
    if np.trace(v.conj().T @ v).real > scenario.p_t_w * (1.0 + 1e-6):
        raise ValueError("initial precoder violates the transmit power budget")
    if design.ris_power_w > scenario.p_ris_w + POWER_TOL:
        raise ValueError("initial surface design violates the power budget")

    # one receiver per iterate: its rate, and the next iteration's combiner
    y, sigma_aux = lmmse_receiver(ch, v, design.gamma, scenario)
    rate = _rate_of_sinrs(sigma_aux)
    best = (rate, v, design)
    history = [rate]
    repair_max = 0
    phase_tol = max(eps / 100, 1e-6)
    last = None   # the last amplitude QP solve, where the next one starts

    def amplitudes(surrogate, budget):
        nonlocal last
        last = amplitude_qp(qp_data, surrogate, budget, last).alpha
        return last

    for _ in range(j_alt):
        if not y.any():
            break
        v = precoder_update(ch, y, sigma_aux, design.gamma, scenario)
        obj = build_phase_objective(ch, v, y, sigma_aux, fits, design.alpha_bar, scenario)
        phasor, _ = rmo_phase_opt(obj, np.exp(1j * design.phi), tol=phase_tol)
        phi = np.angle(phasor) % (2.0 * np.pi)
        qp_data = _qp_phase_data(obj, phi)
        design = power_repair_loop(scenario, fits, phi, amplitudes)
        repair_max = max(repair_max, design.repair_passes)

        y, sigma_aux = lmmse_receiver(ch, v, design.gamma, scenario)
        rate = _rate_of_sinrs(sigma_aux)
        history.append(rate)
        if rate > best[0]:
            best = (rate, v, design)
        rel_change = abs(rate - history[-2]) / abs(rate) if rate != 0.0 else 0.0
        if rel_change <= eps:
            break

    rate, v, design = best
    return AOResult(
        v=v,
        design=design,
        rate=rate,
        rate_history=np.asarray(history),
        iterations=len(history) - 1,
        repair_passes_max=repair_max,
    )
