"""L1-regularized linear and logistic models, both solved by one lasso homotopy.

Features are standardized internally (parameters stored with the model)
and categorical columns are one-hot encoded over their most frequent
levels.  The penalized objective is (1/n)-scaled loss + lambda * ||w||_1
with an unpenalized intercept.  Every fit is a lambda path (``_fit_path``)
on standardized, centred rows: ``fit_linear`` fits one lambda on its
design, and ``fit_linear_cv`` runs one path per fold on the fold's rows of
its one design, centred by their means (which moves only the intercept).
The folds run one after another in the caller, which sums their
validation losses in fold order and then refits on all rows.

``fit_linear`` and ``fit_linear_cv`` run with one BLAS thread (see
``_util._one_blas_thread``).  OpenBLAS rounds its products, Z'Z and Z'r
among them, differently under different thread counts, so fits, CV tables
and certificates would otherwise depend on the BLAS thread count in their
last bits; with one thread (where ``_util`` finds OpenBLAS's thread
control) they do not.

Both links have one exact inner solver, a lasso homotopy
(``_lasso_path``), and one stopping rule each.  The identity link is one
homotopy on G = Z'Z / n that walks lambda down from lambda_max (LARS).
The logistic link takes proximal Newton steps (``_newton_step``): each
minimizes the loss's second-order model plus the penalty, a weighted
lasso that the homotopy solves exactly, starting from the current iterate
(zero at a path's cold start) and moving the lasso's linear term at the
step's fixed lambda; the fit stops on newGLMNET's optimality certificate
(see ``_fit_path``).  Steps (``n_sweeps``, ``max_iter``) are homotopy
events counted from where each homotopy starts, so a Newton step whose
active set does not change takes none; it still counts as one step, so
``max_iter`` bounds a logistic fit's Newton steps too.  The homotopy
keeps the Cholesky factor of its active block (``_ActiveFactor``): a
join appends a row, a leave refactors only the rows after the column
that left, in one LAPACK call.  Every Gram matrix is one product A'A,
which numpy hands to BLAS ``dsyrk`` and mirrors, so it is exactly
symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk, dtrsv
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtri

from .._util import _one_blas_thread
from .data import DesignMatrix, check_width


class ConvergenceError(Exception):
    """Raised when a fit stops short of its stopping rule (see
    ``fit_linear``); carries the model it stopped at in ``.model``."""

    def __init__(self, message: str, model: "LinearModel"):
        super().__init__(message)
        self.model = model


@dataclass(frozen=True)
class CategoricalEncoder:
    columns: tuple[int, ...]
    levels: tuple[tuple[float, ...], ...]  # per column, values kept as indicators

    def width(self, n_raw: int) -> int:
        return n_raw - len(self.columns) + sum(len(lv) for lv in self.levels)

    def transform(self, X: np.ndarray) -> np.ndarray:
        if not self.columns:
            return np.asarray(X, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        blocks = []
        cat = set(self.columns)
        numeric = [j for j in range(X.shape[1]) if j not in cat]
        if numeric:
            blocks.append(X[:, numeric])
        for j, lv in zip(self.columns, self.levels):
            col = X[:, j]
            blocks.append((col[:, None] == np.asarray(lv)[None, :]).astype(np.float64))
        return np.hstack(blocks)

    def names(self, raw_names: tuple[str, ...]) -> tuple[str, ...]:
        if not self.columns:
            return tuple(raw_names)
        cat = set(self.columns)
        out = [raw_names[j] for j in range(len(raw_names)) if j not in cat]
        for j, lv in zip(self.columns, self.levels):
            out.extend(f"{raw_names[j]}={v:g}" for v in lv)
        return tuple(out)


MAX_LEVELS = 20  # indicator columns per categorical column


def fit_encoder(X: np.ndarray, categorical: tuple[int, ...]) -> CategoricalEncoder:
    """Keep the ``MAX_LEVELS`` most frequent values per categorical column
    (ties to the smaller value); unseen or rare values encode as all-zero."""
    levels = []
    for j in categorical:
        vals, counts = np.unique(X[:, j], return_counts=True)
        order = np.lexsort((vals, -counts))
        kept = np.sort(vals[order[:MAX_LEVELS]])
        levels.append(tuple(float(v) for v in kept))
    return CategoricalEncoder(tuple(categorical), tuple(levels))


@dataclass
class LinearModel:
    link: str  # "identity" or "logistic"
    l1_lambda: float
    weights: np.ndarray  # on the standardized scale
    intercept: float
    mu: np.ndarray
    sigma: np.ndarray
    encoder: CategoricalEncoder
    feature_names: tuple[str, ...]
    n_raw_features: int
    converged: bool = True
    n_sweeps: int = 0  # homotopy steps, under both links (the name is kept for the model files)
    certificate: float | None = None  # S(w, b) / S(0, 0) at exit (see _fit_path)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = check_width(X, self.n_raw_features)
        return _decision((self.encoder.transform(X) - self.mu) / self.sigma, self.weights, self.intercept)

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = self.decision_function(X)
        if self.link == "logistic":
            return sigmoid(z)
        return z


def _decision(Z, w, b):
    """Zw + b row by row, so a value does not depend on its batch, as Z @ w's does."""
    return np.multiply(Z, w, order="C").sum(axis=1) + b


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _subgradient_norm(g, g_b, w, lam):
    """S(w, b): the 1-norm of the minimum-norm subgradient of a smooth loss
    plus lam * ||w||_1 and a free intercept, given the loss's gradient g in
    w and g_b in the intercept.  Coordinate j contributes |g_j + lam| where
    w_j > 0, |g_j - lam| where w_j < 0 and max(|g_j| - lam, 0) where w_j = 0;
    the intercept contributes |g_b|.  S is 0 exactly at a minimizer."""
    at_zero = np.maximum(np.abs(g) - lam, 0.0)
    return float(np.where(w != 0, np.abs(g + lam * np.sign(w)), at_zero).sum()) + abs(g_b)


RANK_TOL = 1e-8  # least squared residual off the active columns, per G_jj, for a column to join
TIE_TOL = 1e-12  # events this share of lambda_max short of the next target count as reaching it


class _ActiveFactor:
    """The active columns A of a homotopy on G: the Cholesky factor L of
    G[A, A] and the columns G[:, A], each kept in one buffer.

    A column joins (``join``) by one triangular solve for its row of L, and
    only if its squared residual off A exceeds ``RANK_TOL`` * G_jj, so the
    active columns stay linearly independent (Tibshirani 2013).  When the
    column at position m leaves (``leave``), the rows of L above it do not
    change, those below lose their m-th entry, and their trailing block is
    refactored by one LAPACK call, chol(G_33 - L_31 L_31'), 1 being the
    columns before m and 3 those after it.  A start (``__init__``) factors
    its columns by one ``dpotrf`` call; the first one that fails the rank
    test (its squared residual is its diagonal entry of L, squared) is left
    out and the rest factored again, until none fails."""

    def __init__(self, G, start):
        p = len(G)
        self.G, self.L, self.GA = G, np.zeros((p, p), order="F"), np.empty((p, p), order="F")
        A = np.asarray(start, dtype=np.intp)
        while len(A):
            L, info = dpotrf(G[np.ix_(A, A)], lower=1)
            rows = info - 1 if info > 0 else len(A)  # the rows factored
            failed = np.flatnonzero(np.diag(L)[:rows] ** 2 <= RANK_TOL * G[A[:rows], A[:rows]])
            if info == 0 and not failed.size:
                self.L[:rows, :rows], self.GA[:, :rows] = L, G[:, A]
                break
            A = np.delete(A, failed[0] if failed.size else rows)
        self.order = np.empty(p, dtype=np.intp)  # A, in the order of L's rows, is order[:len(A)]
        self.order[: len(A)] = A
        self.A = self.order[: len(A)]

    def solve(self, B):
        """G[A, A]^-1 B."""
        k = len(self.A)
        return dpotrs(self.L[:k, :k], B, lower=1)[0] if k else B

    def join(self, j: int) -> bool:
        """Add column j to A, if it passes the rank test."""
        k = len(self.A)
        l = dtrsv(self.L[:k, :k], self.GA[j, :k], lower=1) if k else np.zeros(0)
        r = self.G[j, j] - float(l @ l)
        if r <= RANK_TOL * self.G[j, j]:
            return False
        self.L[k, :k], self.L[k, k], self.GA[:, k], self.order[k] = l, np.sqrt(r), self.G[:, j], j
        self.A = self.order[: k + 1]
        return True

    def leave(self, m: int) -> int:
        """Remove the column at position m of A and return it."""
        j, k = int(self.A[m]), len(self.A) - 1
        L, GA, order = self.L, self.GA, self.order
        L[m:k, :m], GA[:, m:k], order[m:k] = L[m + 1 : k + 1, :m], GA[:, m + 1 : k + 1], order[m + 1 : k + 1]
        self.A = order[:k]
        if m < k:
            L[m:k, m:k] = dpotrf(dsyrk(-1.0, L[m:k, :m], beta=1.0, c=GA[order[m:k], m:k], lower=1), lower=1)[0]
        return j

    def swap(self, m: int, j: int) -> int | None:
        """Replace the column at position m of A by column j and return the
        column replaced; None, and A as it was, if j fails the rank test."""
        out = self.leave(m)
        if self.join(j):
            return out
        self.join(out)
        return None


_SIDES = np.array([[1.0], [-1.0]])  # a correlation's two bounds, +lam' and -lam'


@np.errstate(divide="ignore", invalid="ignore")
def _lasso_path(G, c, lambdas, max_steps, start=None):
    """The minimizers w of w'Gw / 2 - c'w + lam * ||w||_1 at each of the
    non-increasing ``lambdas``, as (w, steps, lambda reached), by a lasso
    homotopy: LARS (Efron, Hastie, Johnstone & Tibshirani 2004) from
    lambda_max, or from a warm ``start`` (Garrigues & El Ghaoui 2008).

    The point (c', lam') moves on straight segments, and on each w is the
    minimizer for that point: with active set A and signs s, w_A =
    G_AA^-1 (c'_A - lam' s_A), until an inactive correlation c'_j - G_j w
    reaches +-lam' (j joins) or an active w_j reaches 0 (it leaves, and
    cannot rejoin with the same sign at the next event).  Each event is a
    step.  Without a start the path begins at w = 0 and lam' = lambda_max
    = max |c|, and lam' walks down through ``lambdas`` with c' = c.  A
    start w0 is taken at lam = lambdas[0]: it is the minimizer for c' =
    G w0 + lam z0, z0 being sign(w0) on its support and clip((c - G w0) /
    lam, -1, 1) elsewhere, and c' moves to c at that lambda; then lam'
    walks down through the other lambdas.  Steps, and ``max_steps``, count
    events from where the path begins, so a start at the minimizer takes
    none.  ``_ActiveFactor`` keeps G_AA's Cholesky factor, and w_A is
    solved afresh on each segment.

    Three rules keep the path exact on a singular G, such as a hybrid's
    leaf blocks or a categorical's kept levels give.  A column joins only
    if it passes ``_ActiveFactor``'s rank test (a start's own columns that
    fail it are left out of the start, whose z0 then covers them).  One
    that fails is a combination beta of A's columns: while lam' walks with
    c' = c its correlation stays at its bound, and it waits until a column
    leaves; but c' moving from a start can carry it past the bound, and if
    by the segment's end that would exceed ``TIE_TOL`` * lambda_max, it
    swaps in instead, for the active column that moving w along G's null
    vector e_j - beta zeroes first (which leaves Gw, and the objective, as
    they are).  And an event that leaves the point within ``TIE_TOL`` *
    lambda_max of the next target, in the largest coordinate, counts as
    reaching it.  A path out of ``max_steps`` stops, exact, at its next
    event, and reports the lambda there (infinity while c' has not yet
    reached c)."""
    p = len(c)
    lam_max = float(np.max(np.abs(c), initial=0.0))
    w, s = np.zeros(p), np.zeros(p)
    if not p:  # no column: w is empty at every lambda, and no event happens
        return [(w, 0, 0.0) for _ in lambdas]
    waiting = np.zeros(p, dtype=bool)  # failed the rank test since a column last left
    left, steps, path = None, 0, []
    # on a segment the point is c' = C[:, 0] + theta * C[:, 1], lam' = (1, theta) @ lams
    C = np.column_stack([c, np.zeros(p)])
    factor = _ActiveFactor(G, [] if start is None else np.flatnonzero(start))
    if start is None:
        lams, theta = np.array([0.0, 1.0]), lam_max
    else:
        A, lam = factor.A, float(lambdas[0])
        w[A] = start[A]
        s[A] = np.sign(w[A])
        fit = factor.GA[:, : len(A)] @ w[A]
        C[:, 1] = fit + np.where(s != 0, lam * s, np.clip(c - fit, -lam, lam)) - c
        lams, theta = np.array([lam, 0.0]), 1.0
    for target in lambdas:
        # the start has reached c: lam' walks down from its lambda, on a new
        # line, where the last column to leave may meet either bound again
        if lams[1] == 0.0 and theta == 0.0:
            C[:, 1], lams, theta, left = 0.0, np.array([0.0, 1.0]), lams[0], None
        goal = target if lams[1] else 0.0
        speed = max(lams[1], float(np.max(np.abs(C[:, 1]))))
        tie = TIE_TOL * lam_max / speed if speed > 0 else np.inf
        while theta > goal:
            A = factor.A
            UD = factor.solve(C[A] - s[A, None] * lams)
            u, d = UD.T
            e, a = (C - factor.GA[:, : len(A)] @ UD).T  # correlations e + theta * a on the segment
            # where +-(e + theta * a) reaches lam', rows + and -, as theta falls
            slope = lams[1] - _SIDES * a
            bound = np.where(slope > 0, np.minimum((_SIDES * e - lams[0]) / slope, theta), -np.inf)
            leave = np.where(s[A] * d > 0, np.minimum(-u / d, theta), -np.inf)
            if left is not None:  # it left with correlation s_j * lam'; the other side stays open
                bound[0 if s[left] > 0 else 1, left] = -np.inf
            join = np.where(waiting, -np.inf, bound.max(axis=0))
            join[A] = -np.inf
            j = int(np.argmax(join))
            event = max(join[j], np.max(leave, initial=-np.inf))
            theta = goal if event <= goal + tie else event
            w[A] = u + theta * d
            if theta == goal or steps == max_steps:
                break
            if join[j] >= event:
                sign = 1.0 if bound[0, j] >= bound[1, j] else -1.0
                if factor.join(j):
                    left = None
                elif sign * (e[j] + goal * a[j]) - (lams[0] + goal * lams[1]) <= TIE_TOL * lam_max:
                    waiting[j] = True  # it stays on its bound, up to rounding, to the segment's end
                    continue
                else:  # j swaps in for the active column m that moving w along G's null vector e_j - beta zeroes first
                    beta = factor.solve(factor.GA[j, : len(A)])
                    linv = dtrtri(factor.L[: len(A), : len(A)], lower=1)[0]
                    rest = beta**2 / np.einsum("ij,ij->j", linv, linv)  # j's squared residual off A less each column
                    t = np.where((sign * beta * s[A] > 0) & (rest > RANK_TOL * G[j, j]), np.abs(w[A] / beta), np.inf)
                    m = int(np.lexsort((-rest, t))[0])
                    left = factor.swap(m, j) if t[m] < np.inf else None
                    if left is None:
                        waiting[j] = True
                        continue
                    # the move only picks m: the next segment solves w on the new A afresh
                    w[left] = 0.0
                    waiting[:] = False
                s[j] = sign
            else:
                left = factor.leave(int(np.argmax(leave)))
                w[left] = 0.0
                waiting[:] = False
            steps += 1
        path.append((w.copy(), steps, theta if lams[1] else (lams[0] if theta == 0.0 else np.inf)))
    return path


def _standardize(data: DesignMatrix):
    """(encoder, mu, sigma, Z): the encoded design, each column scaled to
    mean 0 and standard deviation 1 (constant ones only centred), in C order."""
    encoder = fit_encoder(data.X, data.categorical)
    Z = encoder.transform(data.X)
    mu = Z.mean(axis=0)
    sigma = Z.std(axis=0)
    sigma = np.where(sigma > 0, sigma, 1.0)
    return encoder, mu, sigma, (Z - mu) / sigma


def _check_link(link: str, data: DesignMatrix) -> None:
    if link not in ("identity", "logistic"):
        raise ValueError(f"link must be 'identity' or 'logistic', got {link!r}")
    if link == "logistic" and not np.all(np.isin(np.unique(data.y), (0.0, 1.0))):
        raise ValueError("logistic link requires binary 0/1 targets")


CERT_EPS = 0.01  # LIBLINEAR's default stopping tolerance for L1 logistic regression (-s 6)
ARMIJO = 0.01  # newGLMNET's share of a Newton step's predicted decrease that the objective must fall by
MAX_HALVINGS = 20  # newGLMNET's cap on line-search trials per Newton step (LIBLINEAR's max_num_linesearch)


def _subgradient_at(Z, y, w, b, lam, link):
    """(S(w, b), z = Zw + b, p = sigmoid(z) or z, g = Z'(p - y) / n) of the
    link's mean loss; g is its gradient in w."""
    z = Z @ w + b
    p = sigmoid(z) if link == "logistic" else z
    g = Z.T @ (p - y) / len(y)
    return _subgradient_norm(g, float(np.mean(p - y)), w, lam), z, p, g


def _certificate_eps(y):
    """LIBLINEAR's -s 6 default eps = CERT_EPS * max(min(n+, n-), 1) / n."""
    n_pos = int(np.count_nonzero(y))
    return CERT_EPS * max(min(n_pos, len(y) - n_pos), 1) / len(y)


def _weighted_lasso(ZW, omega, t):
    """(G, c, m, t_bar) of the weighted lasso over v and a free intercept,
    (1/2n) sum omega * (t - ZW v - b)^2 + lam * ||v||_1.

    Its intercept is b = t_bar - m'v, m and t_bar being the omega-weighted
    means of ZW's columns and of t, so it is v'Gv / 2 - c'v + lam * ||v||_1
    up to a constant, with G = Zc' Omega Zc / n and c = Zc' Omega (t - t_bar)
    / n on the centred columns Zc = ZW - 1m'.  ``ZW`` is centred and its
    rows scaled by sqrt(omega) in place, so G is the one product ZW'ZW / n."""
    wsum = float(omega.sum())
    m = ZW.T @ omega / wsum
    t_bar = float(omega @ t) / wsum
    root = np.sqrt(omega)
    ZW -= m
    ZW *= root[:, None]
    return ZW.T @ ZW / len(t), ZW.T @ (root * (t - t_bar)) / len(t), m, t_bar


def _newton_step(Z, y, w, b, z, p, g, lam, max_steps):
    """One proximal Newton step (Lee, Sun & Saunders 2014) of the mean
    logistic loss plus lam * ||w||_1 from (w, b), at z = Zw + b,
    p = sigmoid(z) and the loss's gradient g in w.

    Its direction minimizes the loss's second-order model plus the penalty:
    the weighted lasso (``_weighted_lasso``) with omega = p(1 - p), at least
    1e-6, and working response t = z + (y - p) / omega, solved exactly by
    ``_lasso_path`` in at most ``max_steps`` homotopy steps, counted from
    its start at the current w (the homotopy moves the lasso's linear term
    from one at which w is optimal to the step's, at lam).  Only the
    columns W that are nonzero or violate their optimality condition
    (|g_j| > lam) enter it.  The step d is scaled by 1, 1/2, 1/4, ... until
    the objective falls by at least ``ARMIJO`` * s * Delta, Delta = g'd +
    g_b d_b + lam (||w + d||_1 - ||w||_1) < 0 being the model's predicted
    change (newGLMNET's line search, Yuan, Ho & Lin 2012).

    Returns (w, b, steps) of the new iterate, or (None, None, steps) if the
    homotopy runs out of steps (its partial solution is not used) or no
    trial of ``MAX_HALVINGS`` falls enough."""
    omega = np.maximum(p * (1.0 - p), 1e-6)
    W = np.flatnonzero((w != 0) | (np.abs(g) > lam))
    G, c, m, t_bar = _weighted_lasso(Z[:, W], omega, z + (y - p) / omega)
    [(v, steps, reached)] = _lasso_path(G, c, [lam], max_steps, w[W])
    if reached <= lam:
        d = -w
        d[W] += v
        d_b = t_bar - float(m @ v) - b
        delta = float(g @ d) + float(np.mean(p - y)) * d_b + lam * (np.abs(v).sum() - np.abs(w).sum())
        zd = Z @ d + d_b
        loss = np.logaddexp(0.0, z)
        s = 1.0
        for _ in range(MAX_HALVINGS):
            fall = float(np.mean(np.logaddexp(0.0, z + s * zd) - loss - s * y * zd))
            fall += lam * (np.abs(w + s * d).sum() - np.abs(w).sum())
            if fall <= ARMIJO * s * delta < 0:
                return w + s * d, b + s * d_b, steps
            s /= 2
    return None, None, steps


def _fit_path(Z, y, link: str, lambdas, max_iter: int):
    """Fit each lambda in the order given on standardized, centred rows Z
    (in Fortran order) with targets y.  Returns one (w, b, steps, converged,
    certificate, the lambda the identity link's homotopy reached, else
    None) per lambda; steps are homotopy steps, at most ``max_iter`` each,
    and a logistic Newton step counts as at least one.

    Identity-link lambdas must not increase: ``_lasso_path`` solves them on
    G = Z'Z / n and c = Z'(y - mean(y)) / n, the mean residual
    mean(y) - mean(Z)'w is the intercept and the steps count from
    lambda_max.  The certificate is left None: ``fit_linear`` computes it
    for the one model it returns.

    A logistic fit starts from the previous lambda's w and b (the first
    from zero) and takes proximal Newton steps (``_newton_step``) until
    newGLMNET's optimality certificate holds (Yuan, Ho & Lin 2012;
    LIBLINEAR's -s 6 rule): S(w, b) <= ``_certificate_eps`` * S(0, 0), S
    being the mean logistic loss's ``_subgradient_norm`` and S(0, 0) read
    at the path's cold start and first lambda (a lone fit's own, as in
    LIBLINEAR).  A step that cannot be taken, or a spent budget, ends the
    fit, not converged, at the last iterate.  The certificate is S / S(0, 0)."""
    w = np.zeros(Z.shape[1])
    if link == "identity":
        n, y_bar, m = len(y), y.mean(), Z.mean(axis=0)
        solved = _lasso_path(Z.T @ Z / n, Z.T @ (y - y_bar) / n, lambdas, max_iter)
        return [
            (w, float(y_bar - m @ w), used, bool(reached <= lam), None, reached)
            for lam, (w, used, reached) in zip(lambdas, solved)
        ]
    b = 0.0
    s0 = _subgradient_at(Z, y, w, b, lambdas[0], link)[0]
    bound = _certificate_eps(y) * s0
    path = []
    for lam in lambdas:
        used = 0
        s, z, p, g = _subgradient_at(Z, y, w, b, lam, link)
        while s > bound and used < max_iter:
            w_new, b_new, steps = _newton_step(Z, y, w, b, z, p, g, lam, max_iter - used)
            used += max(steps, 1)
            if w_new is None:
                break
            w, b = w_new, b_new
            s, z, p, g = _subgradient_at(Z, y, w, b, lam, link)
        path.append((w, float(b), used, bool(s <= bound), s / s0 if s0 > 0 else 0.0, None))
    return path


@_one_blas_thread()
def fit_linear(
    data: DesignMatrix,
    link: str = "identity",
    l1_lambda: float = 0.0,
    max_iter: int = 1000,
) -> LinearModel:
    """One lambda's fit (see ``_fit_path``); raises ConvergenceError if it
    stops short, its budget of ``max_iter`` homotopy steps spent or, under
    the logistic link, a Newton step not taken."""
    _check_link(link, data)
    if l1_lambda < 0:
        raise ValueError("l1_lambda must be >= 0")
    encoder, mu, sigma, Z = _standardize(data)
    Z = np.asfortranarray(Z)
    [(w, b, used, converged, certificate, reached)] = _fit_path(Z, data.y, link, [l1_lambda], max_iter)
    if certificate is None:  # the identity link's, read for this model only
        s0, s = (_subgradient_at(Z, data.y, v, c, l1_lambda, link)[0] for v, c in ((np.zeros_like(w), 0.0), (w, b)))
        certificate = s / s0 if s0 > 0 else 0.0
    names = encoder.names(data.names if data.names else tuple(f"x{j}" for j in range(data.n_cols)))
    model = LinearModel(link, l1_lambda, w, b, mu, sigma, encoder, names, data.n_cols, converged, used, certificate)
    if not converged:
        raise ConvergenceError(
            f"proximal Newton did not converge within {max_iter} homotopy steps (logistic link, "
            f"lambda={l1_lambda:g}, {used} steps used, optimality certificate S/S(0, 0) "
            f"{certificate:.3g} above eps {_certificate_eps(data.y):.3g})"
            if link == "logistic"
            else f"the lasso homotopy did not reach lambda={l1_lambda:g} within {max_iter} steps "
            f"(identity link, stopped at lambda={reached:.6g})",
            model,
        )
    return model


def default_lambda_grid(Z: np.ndarray, y: np.ndarray) -> list[float]:
    """Five lambdas from lmax / sqrt(10) down to lmax / 1000, largest first,
    as Python floats (the CV table's keys), for ``_standardize``'s Z.  lmax
    is the smallest lambda that forces every weight to zero: at w = 0 the
    fitted mean is mean(y) for both links, so it is max |Z' (y - mean(y))| / n."""
    lmax = float(np.max(np.abs(Z.T @ (y - y.mean()))) / len(y))
    if lmax <= 0:
        return [0.0]
    return (lmax * np.logspace(-0.5, -3.0, 5)).tolist()


def _kfold_indices(n: int, folds: int, seed: int):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    bounds = np.linspace(0, n, folds + 1).astype(int)
    for f in range(folds):
        val = perm[bounds[f] : bounds[f + 1]]
        train = np.concatenate([perm[: bounds[f]], perm[bounds[f + 1] :]])
        yield train, val


def cv_loss(pred: np.ndarray, y: np.ndarray, link: str) -> float:
    if link == "logistic":
        p = np.clip(pred, 1e-12, 1 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
    return float(np.mean((pred - y) ** 2))


@_one_blas_thread()
def fit_linear_cv(
    data: DesignMatrix,
    link: str,
    folds: int = 10,
    seed: int = 0,
    max_iter: int = 2000,
):
    """Pick lambda by k-fold CV, then refit on all rows.  Returns (model,
    {lambda: mean CV loss}).

    The design is encoded and standardized once, and the grid read off it.
    Each fold fits the grid, largest lambda first, as one path on its
    training rows of that design, centred by their means, and scores its
    validation rows centred by the same means.  A fold fit that runs out of
    budget is scored where it stopped.

    The fold fits and the refit, a plain ``fit_linear``, stop on their
    link's one rule (see ``_fit_path``); a logistic refit reads S(0, 0) at
    its own lambda, so its bound is at least as loose as a fold fit's
    there.

    The arguments are checked here, once, before any fold is fit.  The
    refit runs after the CV's design and the last fold's rows are
    released."""
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if data.n_rows < 2:
        raise ValueError(f"cross-validation needs at least 2 rows, got {data.n_rows}")
    _check_link(link, data)
    Z, y = _standardize(data)[3], data.y
    grid = default_lambda_grid(Z, y)

    totals = {lam: 0.0 for lam in grid}
    for train_idx, val_idx in _kfold_indices(data.n_rows, min(folds, data.n_rows), seed):
        Zt = Z[train_idx]
        m = Zt.mean(axis=0)
        Zt = np.asfortranarray(np.subtract(Zt, m, out=Zt))
        Zv, yv = Z[val_idx] - m, y[val_idx]
        for lam, (w, b, *_) in zip(grid, _fit_path(Zt, y[train_idx], link, grid, max_iter)):
            z = _decision(Zv, w, b)
            totals[lam] += cv_loss(sigmoid(z) if link == "logistic" else z, yv, link) * len(val_idx)
    del Z, Zt, Zv
    # minimize CV loss; ties prefer the larger lambda (sparser model)
    best = grid[0]
    for lam in grid:
        if totals[lam] < totals[best] - 1e-12:
            best = lam
    return fit_linear(data, link, best, max_iter), {lam: totals[lam] / data.n_rows for lam in grid}
