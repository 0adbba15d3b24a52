"""Probabilistic binary kernel classifier and a bagged committee.

The model is kernel logistic regression (RBF or linear kernel) fitted by
damped Newton iterations, so posterior probabilities come straight from the
model instead of a separate calibration step.  With weights w = c p (1 - p),
residuals r = c (p - t) and gradient [K (r + reg alpha), sum r], the Newton
system ``[[K diag(w) K + reg K, K w], [w' K, sum w]]`` has K as a factor of
its first block row.  Each step solves the system with that factor taken out,

    [[diag(w) K + reg I, w], [(K w)', sum w]] step = [r + reg alpha, sum r],

whose solutions all solve the full system.  It costs a row scaling and a
matvec to build instead of an n^3 product, and its condition number is about
0.25 n max(c) / reg instead of about cond(K)^2.  Its first block has
eigenvalues with real part >= reg and its Schur complement is positive, so
it is never singular and needs no jitter and no fallback step.

Newton stops when half the Newton decrement ``step . gradient`` is at most
``OBJ_RTOL * max(1, |objective|)``: the full step is taken and the fit is
converged (Boyd & Vandenberghe, Convex Optimization, 9.5).  The rule does
not compare objective values: with the linear kernel |alpha| grows to about
c / reg, and near the optimum the objective's round-off exceeds what a step
can still gain, so the line search alone would cut good steps.
``Model.n_iter`` and ``Model.converged`` record how each fit ended; a fit
that reaches ``max_iter``, or whose line search shrinks the step below
``tol``, returns what it has with ``converged=False`` and never raises.

Samples may carry integer counts: ``fit(..., counts=c)`` minimizes the loss
weighted by c, which is the fit on the rows repeated c times.  Committees are
built by bootstrap bagging with per-member RNG streams derived from
(seed, member); each member fits its unique draws weighted by their draw
counts, the same optimum function as the fit on the resample with its
duplicate rows, with a non-singular K and a smaller Newton system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-6
OBJ_RTOL = 1e-10  # Newton stops once half its decrement is this small, relatively


@dataclass(frozen=True)
class LearnerConfig:
    kernel: str = "rbf"
    gamma: float | None = None  # None -> 1 / n_features
    reg: float = 1e-2
    max_iter: int = 50
    tol: float = 1e-8

    def __post_init__(self):
        if self.kernel not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.reg <= 0 or self.tol <= 0:
            raise ValueError("reg and tol must be positive")


def kernel_matrix(config: LearnerConfig, a, b, gamma=None):
    """Gram matrix between rows of ``a`` and rows of ``b``."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if config.kernel == "linear":
        return a @ b.T
    g = gamma if gamma is not None else config.gamma
    if g is None:
        g = 1.0 / a.shape[1]
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-g * np.maximum(sq, 0.0))


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass(frozen=True)
class Model:
    """Trained classifier: dual coefficients over the support samples."""

    config: LearnerConfig
    support: np.ndarray
    dual_coeffs: np.ndarray
    intercept: float
    gamma: float | None
    degenerate: bool = False
    degenerate_label: int = 0
    n_iter: int = 0  # Newton steps taken
    converged: bool = True  # a stop rule fired before max_iter

    def predict_proba(self, x):
        """Posterior P(y = +1 | x) for each row of ``x``, clamped to (0, 1)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.support.shape[1]:
            raise ValueError(
                f"dimension mismatch: model expects {self.support.shape[1]} "
                f"features, got {x.shape[1]}"
            )
        if self.degenerate:
            p = 0.99 if self.degenerate_label == 1 else 0.01
            return np.full(len(x), p)
        k = kernel_matrix(self.config, x, self.support, gamma=self.gamma)
        p = _sigmoid(k @ self.dual_coeffs + self.intercept)
        return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)

    def predict(self, x):
        return np.where(self.predict_proba(x) >= 0.5, 1, -1)


def posterior(model: Model, x):
    """Return (p_pos, y_max, p_max); the 0.5 tie resolves toward +1."""
    p_pos = model.predict_proba(x)
    y_max = np.where(p_pos >= 0.5, 1, -1)
    p_max = np.maximum(p_pos, 1.0 - p_pos)
    return p_pos, y_max, p_max


def _penalized_nll(k, target, counts, alpha, intercept, reg):
    z = k @ alpha + intercept
    # log(1 + exp(-|z|)) formulation keeps the loss finite for large |z|
    nll = counts @ (np.logaddexp(0.0, z) - target * z)
    return nll + 0.5 * reg * float(alpha @ (k @ alpha))


def fit(config: LearnerConfig, features, labels, counts=None) -> Model:
    """Train kernel logistic regression on labels in {-1,+1}.

    ``counts`` (default all ones) weights each sample's loss term.  A
    single-class labeled set yields a degenerate model that predicts the
    observed class with probability 0.99 (flagged via ``Model.degenerate``).
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("cannot fit on an empty labeled set")
    gamma = config.gamma if config.gamma is not None else 1.0 / x.shape[1]
    classes = np.unique(y)
    if len(classes) == 1:
        return Model(
            config=config,
            support=x,
            dual_coeffs=np.zeros(len(x)),
            intercept=0.0,
            gamma=gamma,
            degenerate=True,
            degenerate_label=int(classes[0]),
        )

    n = len(x)
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=float)
    target = (y + 1) / 2.0
    k = kernel_matrix(config, x, x, gamma=gamma)
    alpha = np.zeros(n)
    intercept = 0.0
    obj = _penalized_nll(k, target, c, alpha, intercept, config.reg)
    h = np.empty((n + 1, n + 1))
    diag = np.arange(n)

    n_iter, converged = 0, False
    while n_iter < config.max_iter:
        n_iter += 1
        p = _sigmoid(k @ alpha + intercept)
        cw = c * np.maximum(p * (1.0 - p), 1e-10)
        resid = c * (p - target)
        g_a = resid + config.reg * alpha  # the gradient in alpha is K @ g_a
        g_b = np.sum(resid)

        # the Newton system with K taken out of its first block row
        h[:n, :n] = k * cw[:, None]
        h[diag, diag] += config.reg
        h[:n, n] = cw
        h[n, :n] = k @ cw
        h[n, n] = np.sum(cw)
        step = np.linalg.solve(h, np.append(g_a, g_b))
        decrement = step[:n] @ (k @ g_a) + step[n] * g_b
        if 0.5 * decrement <= OBJ_RTOL * max(1.0, abs(obj)):
            alpha, intercept = alpha - step[:n], intercept - step[n]
            converged = True
            break

        scale = 1.0
        for _ in range(30):
            a_new = alpha - scale * step[:n]
            b_new = intercept - scale * step[n]
            obj_new = _penalized_nll(k, target, c, a_new, b_new, config.reg)
            if obj_new <= obj + 1e-12:
                break
            scale *= 0.5
        alpha, intercept, obj = a_new, b_new, obj_new
        if scale * np.max(np.abs(step)) < config.tol:
            break  # the line search found no descent: report not converged

    return Model(
        config=config,
        support=x,
        dual_coeffs=alpha,
        intercept=float(intercept),
        gamma=gamma,
        n_iter=n_iter,
        converged=converged,
    )


@dataclass(frozen=True)
class Committee:
    """Bagged committee of g >= 2 models trained on bootstrap resamples."""

    members: tuple
    g: int

    def member_proba(self, x):
        """(g, n_samples) matrix of positive-class posteriors."""
        return np.vstack([m.predict_proba(x) for m in self.members])


def fit_committee(config: LearnerConfig, features, labels, g=5, seed=0) -> Committee:
    """Train g models on size-n bootstrap resamples of the labeled set.

    ``seed`` may be an int or a sequence; member j resamples with the stream
    seeded by (*seed, j), so committees are reproducible per member.  Each
    member fits the distinct drawn samples weighted by their draw counts.
    """
    if g < 2:
        raise ValueError("committee size g must be >= 2")
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("cannot fit a committee on an empty labeled set")
    base = (seed,) if np.isscalar(seed) else tuple(seed)
    members = []
    for j in range(g):
        rng = np.random.default_rng(base + (j,))
        idx, counts = np.unique(rng.integers(0, len(x), size=len(x)), return_counts=True)
        members.append(fit(config, x[idx], y[idx], counts))
    return Committee(members=tuple(members), g=g)
