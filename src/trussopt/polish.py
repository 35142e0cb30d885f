"""Polish of a design by the method of moving asymptotes (MMA).

An extension of the paper's hybrid, which `hybrid.run` applies once to
the run's best design: K. Svanberg, "The method of moving asymptotes - a
new method for structural optimization", Int. J. Numer. Meth. Eng. 24
(1987). Each MMA iteration analyzes its design once
(`Analyzer.sensitivities`) and approximates the weight and every
constraint row with a margin g > ACTIVE_MARGIN by a convex
separable function of the areas between moving asymptotes. Its
subproblem is solved by Svanberg's primal-dual interior-point method, in
the branch for fewer variables than constraints, whose Newton system has
one row per area that can move. The polish stops when no area moves by
more than MOVE_TOL of the widest bound range, or after MAX_ITERATIONS
iterations, and then scales every area so that the worst constraint
ratio (margin + 1; an Euler one moves as the scale's inverse square) is
1, which puts the design on the constraint boundary.

Every sum runs over numpy's elementwise products (np.einsum without
`optimize` calls no BLAS) and the Newton system is solved by Gauss-Jordan
elimination in numpy, so a polish does not depend on the BLAS thread
count.
"""

import itertools
import math

import numpy as np

# Svanberg's settings, with a closer first asymptote and move limit
MAX_ITERATIONS = 100
MOVE_TOL = 1e-6            # of the widest bound range
ACTIVE_MARGIN = -0.5       # rows with a margin above this are constraints
OBJECTIVE_SCALE = 10.0     # the start's weight, scaled
ASYINIT = 0.2              # first asymptotes, of each bound range
ASYINCR, ASYDECR = 1.2, 0.7
MOVE = 0.2                 # move limit, of each bound range
ALBEFA = 0.1
RAA0 = 1e-5
C, D = 1000.0, 1.0
EPSIMIN = 1e-7
SAFETY = 1.0 + 1e-12       # on the final scale, against rounding


def mma(analyzer, start, max_analyses=math.inf):
    """Polish `start` by MMA, yielding what `Analyzer.evaluate` returns for
    each design analyzed, in order, as soon as it is analyzed: each
    iterate, then the last iterate scaled onto the constraint boundary,
    times SAFETY, and clamped. It makes at most `max_analyses` analyses,
    none if that is below 2. A singular iterate ends the polish."""
    if max_analyses < 2:
        return
    lo, hi = analyzer.area_lo, analyzer.area_hi
    free = hi > lo             # a group with area_min == area_max stays put
    tol = MOVE_TOL * (hi - lo).max()
    group_length = np.bincount(analyzer.group_of, analyzer.lengths,
                               minlength=len(lo))
    x, moved = start, math.inf
    old, asymptotes = [], None     # the last two iterates, latest first
    for iteration in itertools.count():
        evaluation, margins, jacobian = analyzer.sensitivities(x)
        yield evaluation
        if margins is None:
            return
        x = evaluation[0]
        if iteration == 0:
            df0 = analyzer.density * group_length * (OBJECTIVE_SCALE / evaluation[1])
        # the scaled design needs the last analysis
        if moved < tol or iteration == MAX_ITERATIONS \
                or iteration + 2 >= max_analyses:
            break
        active = margins > ACTIVE_MARGIN
        step, asymptotes = _mma_step(
            x[free], old, asymptotes, lo[free], hi[free], df0[free],
            margins[active], np.ascontiguousarray(jacobian[free][:, active].T))
        moved = np.abs(step - x[free]).max(initial=0.0)
        old = [x[free], *old[:1]]
        x = x.copy()
        x[free] = step
    # scaling the areas by s scales a ratio by 1/s, an Euler ratio by 1/s^2;
    # a row with an infinite limit reads ratio 0 either way
    ratio = margins + 1.0
    ratio[:, analyzer.buckling_row] = np.sqrt(ratio[:, analyzer.buckling_row])
    yield analyzer.evaluate(x * (ratio.max() * SAFETY))


def _mma_step(x, old, asymptotes, lo, hi, df0, g, dg):
    """One MMA iteration at x, given the last two iterates `old` (latest
    first) and the last asymptotes: the subproblem's solution and the
    asymptotes (low, upp). g are the m constraint margins and dg their
    (m, n) derivatives; df0 the weight's gradient."""
    span = hi - lo
    if len(old) < 2:
        low, upp = x - ASYINIT * span, x + ASYINIT * span
    else:
        low, upp = asymptotes
        # widen where the last two steps agree in sign, narrow where not
        trend = (x - old[0]) * (old[0] - old[1])
        factor = np.where(trend > 0, ASYINCR, np.where(trend < 0, ASYDECR, 1.0))
        low = np.clip(x - factor * (old[0] - low), x - 10 * span, x - 0.01 * span)
        upp = np.clip(x + factor * (upp - old[0]), x + 0.01 * span, x + 10 * span)
    alfa = np.maximum(np.maximum(low + ALBEFA * (x - low), x - MOVE * span), lo)
    beta = np.minimum(np.minimum(upp - ALBEFA * (upp - x), x + MOVE * span), hi)

    ux2, xl2 = (upp - x) ** 2, (x - low) ** 2
    floor = RAA0 / np.maximum(span, 1e-5)
    p0, q0 = np.maximum(df0, 0.0), np.maximum(-df0, 0.0)
    pq0 = 0.001 * (p0 + q0) + floor
    p0, q0 = (p0 + pq0) * ux2, (q0 + pq0) * xl2
    P, Q = np.maximum(dg, 0.0), np.maximum(-dg, 0.0)
    PQ = 0.001 * (P + Q) + floor
    P, Q = (P + PQ) * ux2, (Q + PQ) * xl2
    b = _approximation(P, Q, upp - x, x - low) - g
    return _subsolve(low, upp, alfa, beta, p0, q0, P, Q, b), (low, upp)


def _approximation(P, Q, ux, xl):
    # per constraint i: sum_j P_ij/ux_j + Q_ij/xl_j
    return np.einsum("ij,j->i", P, 1.0 / ux) + np.einsum("ij,j->i", Q, 1.0 / xl)


def _subsolve(low, upp, alfa, beta, p0, q0, P, Q, b):
    """x of Svanberg's primal-dual Newton method for the MMA subproblem

        min  sum_j p0_j/(upp_j - x_j) + q0_j/(x_j - low_j)
             + sum_i C y_i + D y_i^2 / 2
        s.t. sum_j P_ij/(upp_j - x_j) + Q_ij/(x_j - low_j) - y_i <= b_i,
             alfa <= x <= beta, y >= 0,

    with the barrier parameter epsi cut tenfold from 1 to EPSIMIN; Svanberg's
    min-max variable z is left out, as no constraint weighs it. All
    variables sit in one vector w: x, xsi, eta (n each; the multipliers of
    alfa <= x and x <= beta), y, lam, mu, s (m each; lam the multipliers of
    the constraints, mu of y >= 0, s their slacks). Each trial point of a
    Newton step's line search costs one pass over P and Q (`state`), which
    the next Newton step reuses."""
    x0 = 0.5 * (alfa + beta)
    n, m = len(x0), len(b)
    X, XSI, ETA = slice(0, n), slice(n, 2 * n), slice(2 * n, 3 * n)
    Y, LAM, MU, S = (slice(3 * n + k * m, 3 * n + (k + 1) * m) for k in range(4))

    def state(w):
        # what w's residual and Newton step need of P and Q
        x, lam = w[X], w[LAM]
        ux, xl = upp - x, x - low
        plam = p0 + np.einsum("ij,i->j", P, lam)
        qlam = q0 + np.einsum("ij,i->j", Q, lam)
        return ux, xl, plam, qlam, _approximation(P, Q, ux, xl)

    def residual(w, st, epsi):
        ux, xl, plam, qlam, gvec = st
        ux2, xl2 = ux * ux, xl * xl
        x, y, lam = w[X], w[Y], w[LAM]
        return np.concatenate((
            plam / ux2 - qlam / xl2 - w[XSI] + w[ETA],
            w[XSI] * (x - alfa) - epsi,
            w[ETA] * (beta - x) - epsi,
            C + D * y - w[MU] - lam,
            gvec - y + w[S] - b,
            w[MU] * y - epsi,
            lam * w[S] - epsi))

    def newton(w, st, epsi):
        ux, xl, plam, qlam, gvec = st
        ux2, xl2 = ux * ux, xl * xl
        x, xsi, eta, y, lam, mu, s = (
            w[X], w[XSI], w[ETA], w[Y], w[LAM], w[MU], w[S])
        xa, bx = x - alfa, beta - x
        GG = P / ux2 - Q / xl2
        delx = plam / ux2 - qlam / xl2 - epsi / xa + epsi / bx
        dely = C + D * y - lam - epsi / y
        dellam = gvec - y - b + epsi / lam
        diagx = 2 * (plam / (ux2 * ux) + qlam / (xl2 * xl)) + xsi / xa + eta / bx
        diagy = D + mu / y
        inv = 1.0 / (s / lam + 1.0 / diagy)
        dellamyi = dellam + dely / diagy
        # the n-square system in dx, with lam and y eliminated
        M = np.einsum("ki,kj->ij", GG * inv[:, None], GG)
        M[np.arange(n), np.arange(n)] += diagx
        dx = _gauss_jordan(M, -(delx + np.einsum("ki,k->i", GG, dellamyi * inv)))
        dlam = (np.einsum("ki,i->k", GG, dx) + dellamyi) * inv
        dy = (dlam - dely) / diagy
        return np.concatenate((
            dx,
            -xsi + (epsi - xsi * dx) / xa,
            -eta + (epsi + eta * dx) / bx,
            dy,
            dlam,
            -mu + (epsi - mu * dy) / y,
            -s + (epsi - s * dlam) / lam))

    w = np.ones(3 * n + 4 * m)
    w[X] = x0
    w[XSI] = np.maximum(1.0 / (x0 - alfa), 1.0)
    w[ETA] = np.maximum(1.0 / (beta - x0), 1.0)
    w[MU] = max(1.0, 0.5 * C)
    st = state(w)
    epsi = 1.0
    while epsi > EPSIMIN:
        r = residual(w, st, epsi)
        norm, worst = math.sqrt((r * r).sum()), np.abs(r).max()
        for _ in range(200):
            if worst <= 0.9 * epsi:
                break
            dw = newton(w, st, epsi)
            # the longest step, up to 1, that keeps every bounded variable
            # inside its bounds, with 1% to spare
            x = w[X]
            longest = max(1.0, (-1.01 * dw[n:] / w[n:]).max(),
                          (-1.01 * dw[X] / (x - alfa)).max(initial=0.0),
                          (1.01 * dw[X] / (beta - x)).max(initial=0.0))
            step = 1.0 / longest
            for _ in range(50):
                trial = w + step * dw
                trial_st = state(trial)
                r = residual(trial, trial_st, epsi)
                trial_norm = math.sqrt((r * r).sum())
                if trial_norm <= norm:
                    break
                step /= 2
            w, st, norm, worst = trial, trial_st, trial_norm, np.abs(r).max()
        epsi *= 0.1
    return w[X]


def _gauss_jordan(M, rhs):
    """The solution of M x = rhs for a symmetric positive definite M, by
    Gauss-Jordan elimination without pivoting, elementwise: with OpenBLAS
    0.3.31, np.linalg.solve's bytes differ between one and two threads
    from 100 unknowns on. Measured on random positive definite systems
    built without BLAS (A A^T + n I by np.einsum, A Gaussian n x n, 5 per
    size from 2 to 300 unknowns; A A^T, A n x (n + 3), 50 per size from 90
    to 100): the bytes were equal at every size up to 99 and differed at
    every size from 100 to 300."""
    T = np.column_stack((M, rhs))
    for k in range(len(T)):
        T[k] /= T[k, k]
        factor = T[:, k].copy()
        factor[k] = 0.0
        T -= factor[:, None] * T[k]
    return T[:, -1]
