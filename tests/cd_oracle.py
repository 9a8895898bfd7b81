"""Residual-space coordinate descent, the independent reference optimum
that ``mlcore.linear``'s homotopy and Newton steps are tested against.

Every sweep, full or over the active set, is a Python loop over columns
that updates the residual after each coordinate step.  It has one
stopping rule: the coefficient test without a bound, and with one the
minimum-norm subgradient alone, read from the residual: over every
column after a full sweep, and over the sweep's columns after every 10th
active sweep in a row.
"""

import numpy as np

from interestsim.mlcore.linear import _subgradient_norm


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _cd_sweeps(Z, y, w, b, lam, omega, max_sweeps, tol, bound=None):
    """Cyclic coordinate descent on (1/2n) sum omega*(y - Zw - b)^2 + lam*||w||_1.

    Alternates full sweeps with sweeps over the active (nonzero) set and
    declares convergence only when a full sweep moves every coefficient
    by less than tol or, with a bound, whatever tol is, only when the
    subgradient after a full sweep is at most bound.  Mutates w; returns
    (intercept, sweeps, converged).
    """
    n = len(y)
    if omega is None:
        col_ss = np.einsum("ij,ij->j", Z, Z) / n
        wsum = float(n)
    else:
        col_ss = np.einsum("i,ij,ij->j", omega, Z, Z) / n
        wsum = float(omega.sum())
    r = y - Z @ w - b
    p = Z.shape[1]
    full = True
    sweeps = active_run = 0
    while sweeps < max_sweeps:
        sweeps += 1
        cols = range(p) if full else np.nonzero(w)[0]
        delta_max = 0.0
        for j in cols:
            if col_ss[j] <= 0:
                continue
            zj = Z[:, j]
            wj = w[j]
            if omega is None:
                rho = float(zj @ r) / n + col_ss[j] * wj
            else:
                rho = float(zj @ (omega * r)) / n + col_ss[j] * wj
            new = _soft(rho, lam) / col_ss[j]
            if new != wj:
                r -= (new - wj) * zj
                w[j] = new
                delta = abs(new - wj)
                if delta > delta_max:
                    delta_max = delta
        if omega is None:
            db = float(r.sum()) / n
        else:
            db = float((omega * r).sum()) / wsum
        if db != 0.0:
            b += db
            r -= db
            if abs(db) > delta_max:
                delta_max = abs(db)
        active_run = 0 if full else active_run + 1
        certified = False
        if bound is not None and (full or active_run % 10 == 0):
            wr = r if omega is None else omega * r
            g = -(Z.T @ wr)[cols] / n
            certified = _subgradient_norm(g, -float(wr.sum()) / n, w[cols], lam) <= bound
        if (certified if bound is not None else delta_max < tol):
            if full:
                return b, sweeps, True
            full = True  # verify on a full sweep
        else:
            full = False
    return b, sweeps, False
