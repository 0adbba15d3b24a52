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
weighted by c, which is the fit on the rows repeated c times.  A count of 0
is allowed: that row's equation in the system above is reg step_i =
reg alpha_i, so its coefficient is 0 at the optimum and the fit is the one
on the other rows.

``fit(..., init=(alpha, intercept))`` starts Newton from a given point, in
practice an earlier fit on a prefix of the same rows padded with 0; the
optimum does not depend on the start, only the number of steps does.

Every kernel product has one entry point: ``fit`` and ``fit_committee``
take the labeled Gram matrix as ``gram=``, and ``Model.predict_proba`` and
``Committee.member_proba`` take the kernel between their rows and the
support as ``kernel=``; each computes it with ``kernel_matrix`` only when
none is given.  The query loop passes slices of one pool x labeled block
that it extends by a column per labeled sample (see ``rankal.loop``).

Committees are built by bootstrap bagging with per-member RNG streams
derived from (seed, member).  Every member is solved on the whole labeled
set with its draw counts as weights (0 for undrawn rows), so all members
share one K and one starting point, and they are solved together: one Newton
on a stack of (n+1, n+1) systems, each row with its own line search, leaving
the active set when its own stop rule fires.  Row 0 is the margin problem,
count 1 on every row, and comes back as ``Committee.model``, so a query step
that needs both the margin fit and the committee makes one Newton call;
every row starts from the same ``init`` (in the query loop, the previous fit
padded with 0).  Warm-started on the bundled blobs at 10-90 labels (2 vCPUs,
one BLAS thread), five members solve 1.5-2.5x faster in one stack than one
by one.  The ``Committee`` keeps the members stacked: one (g, n_labeled)
coefficient matrix over the shared labeled support with exact zeros at each
member's undrawn rows (their optimum), the intercepts, and the class of each
member whose draws hold a single class (it predicts that class at 0.99), so
all member posteriors are one kernel and one matrix product.
``Committee.members`` derives each member as a ``Model`` on its distinct
draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

PROB_CLAMP = 1e-6
OBJ_RTOL = 1e-10  # Newton stops once half its decrement is this small, relatively


def check_int(name, value, low):
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")


def is_real(value):
    """True for a finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


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
        for name in ("gamma", "reg", "tol"):
            value = getattr(self, name)
            if (name != "gamma" or value is not None) and not (is_real(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite number")
        check_int("max_iter", self.max_iter, 1)


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


def _features(x, support):
    """``x`` as a 2-D float array with as many columns as ``support``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != support.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects {support.shape[1]} "
            f"features, got {x.shape[1]}"
        )
    return x


def _cross_kernel(config, x, support, gamma, kernel):
    """The kernel between the rows of ``x`` and ``support``: ``kernel`` if given.

    With ``support`` = ``x`` it is the Gram matrix.
    """
    x = _features(x, support)
    if kernel is None:
        return kernel_matrix(config, x, support, gamma=gamma)
    kernel = np.asarray(kernel, dtype=float)
    if kernel.shape != (len(x), len(support)):
        raise ValueError(
            f"precomputed kernel must have shape ({len(x)}, {len(support)}), got {kernel.shape}"
        )
    return kernel


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

    def predict_proba(self, x, *, kernel=None):
        """Posterior P(y = +1 | x) for each row of ``x``, clamped to (0, 1).

        ``kernel`` is ``kernel_matrix(config, x, support)`` if the caller
        already has it; by default it is computed here.
        """
        if self.degenerate:
            p = 0.99 if self.degenerate_label == 1 else 0.01
            return np.full(len(_features(x, self.support)), p)
        k = _cross_kernel(self.config, x, self.support, self.gamma, kernel)
        p = _sigmoid(k @ self.dual_coeffs + self.intercept)
        return np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)

    def predict(self, x):
        return np.where(self.predict_proba(x) >= 0.5, 1, -1)


def posterior(model: Model, x, *, kernel=None):
    """Return (p_pos, y_max, p_max); the 0.5 tie resolves toward +1."""
    p_pos = model.predict_proba(x, kernel=kernel)
    y_max = np.where(p_pos >= 0.5, 1, -1)
    p_max = np.maximum(p_pos, 1.0 - p_pos)
    return p_pos, y_max, p_max


def _objective(k, target, counts, alpha, intercept, reg):
    """Per stacked row: the count-weighted penalized NLL, and z = K alpha + b."""
    z = alpha @ k + intercept[:, None]  # K is symmetric: row j is K @ alpha[j]
    # log(1 + exp(-|z|)) formulation keeps the loss finite for large |z|
    nll = np.sum(counts * (np.logaddexp(0.0, z) - target * z), axis=1)
    # the penalty alpha' K alpha reuses z instead of a second matvec
    return nll + 0.5 * reg * np.sum(alpha * (z - intercept[:, None]), axis=1), z


def _newton(config, k, target, counts, alpha, intercept):
    """Damped Newton on g problems that share K, stacked along the first axis.

    ``counts`` and ``alpha`` are (g, n) and ``intercept`` is (g,); ``alpha``
    and ``intercept`` hold the starting point and are updated in place.  Each
    problem has its own line search and leaves the active set once a stop
    rule fires.  Returns alpha, intercept, Newton steps taken and converged
    flags, per problem.
    """
    g, n = counts.shape
    reg = config.reg
    obj, z = _objective(k, target, counts, alpha, intercept, reg)
    n_iter = np.zeros(g, dtype=int)
    converged = np.zeros(g, dtype=bool)
    h = np.empty((g, n + 1, n + 1))  # filled in place, one slice per active problem
    diag = np.arange(n)
    active = np.arange(g)
    for _ in range(config.max_iter):
        m = len(active)
        c = counts[active]
        p = _sigmoid(z[active])
        cw = c * np.maximum(p * (1.0 - p), 1e-10)
        resid = c * (p - target)
        g_a = resid + reg * alpha[active]  # the gradient in alpha is K @ g_a
        g_b = np.sum(resid, axis=1)
        kv = np.concatenate([cw, g_a]) @ k  # rows: K cw, then K g_a

        # the Newton system with K taken out of its first block row
        hm = h[:m]
        np.multiply(k, cw[:, :, None], out=hm[:, :n, :n])
        hm[:, diag, diag] += reg
        hm[:, :n, n] = cw
        hm[:, n, :n] = kv[:m]
        hm[:, n, n] = np.sum(cw, axis=1)
        rhs = np.concatenate([g_a, g_b[:, None]], axis=1)
        step = np.linalg.solve(hm, rhs[:, :, None])[:, :, 0]
        n_iter[active] += 1
        decrement = np.sum(step[:, :n] * kv[m:], axis=1) + step[:, n] * g_b
        done = 0.5 * decrement <= OBJ_RTOL * np.maximum(1.0, np.abs(obj[active]))
        fin = active[done]
        alpha[fin] -= step[done, :n]
        intercept[fin] -= step[done, n]
        converged[fin] = True

        active, step = active[~done], step[~done]
        if not len(active):
            break
        a0, b0, obj0 = alpha[active], intercept[active], obj[active]
        scale = np.ones(len(active))
        todo = np.arange(len(active))  # positions whose line search goes on
        for _ in range(30):
            rows = active[todo]
            a_new = a0[todo] - scale[todo, None] * step[todo, :n]
            b_new = b0[todo] - scale[todo] * step[todo, n]
            obj_new, z_new = _objective(k, target, counts[rows], a_new, b_new, reg)
            alpha[rows], intercept[rows], obj[rows], z[rows] = a_new, b_new, obj_new, z_new
            todo = todo[obj_new > obj0[todo] + 1e-12]
            if not len(todo):
                break
            scale[todo] *= 0.5
        # a line search that found no descent: report not converged
        active = active[scale * np.max(np.abs(step), axis=1) >= config.tol]
        if not len(active):
            break
    return alpha, intercept, n_iter, converged


def _degenerate(config, x, label, gamma):
    """The model of a one-class labeled set: P(label) = 0.99 everywhere."""
    return Model(
        config=config,
        support=x,
        dual_coeffs=np.zeros(len(x)),
        intercept=0.0,
        gamma=gamma,
        degenerate=True,
        degenerate_label=int(label),
    )


def _start(init, g, n):
    """(g, n) starting alphas and (g,) intercepts: zero, or ``init`` repeated."""
    if init is None:
        return np.zeros((g, n)), np.zeros(g)
    alpha = np.asarray(init[0], dtype=float)
    if alpha.shape != (n,):
        raise ValueError(f"init alpha must have shape ({n},), got {alpha.shape}")
    return np.tile(alpha, (g, 1)), np.full(g, float(init[1]))


def fit(config: LearnerConfig, features, labels, counts=None, *, init=None,
        gram=None) -> Model:
    """Train kernel logistic regression on labels in {-1,+1}.

    ``counts`` (default all ones) weights each sample's loss term.  ``init``
    = (alpha, intercept) starts Newton there instead of at zero; the optimum
    does not depend on it.  ``gram`` is ``kernel_matrix(config, features,
    features)`` if the caller already has it.  A single-class labeled set
    yields a degenerate model that predicts the observed class with
    probability 0.99 (flagged via ``Model.degenerate``).
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("cannot fit on an empty labeled set")
    gamma = config.gamma if config.gamma is not None else 1.0 / x.shape[1]
    classes = np.unique(y)
    if len(classes) == 1:
        return _degenerate(config, x, classes[0], gamma)

    n = len(x)
    c = np.ones(n) if counts is None else np.asarray(counts, dtype=float)
    alpha, intercept = _start(init, 1, n)
    k = _cross_kernel(config, x, x, gamma, gram)
    alpha, intercept, n_iter, converged = _newton(
        config, k, (y + 1) / 2.0, c[None, :], alpha, intercept
    )
    return _model(config, x, gamma, alpha[0], intercept[0], n_iter[0], converged[0])


def _model(config, x, gamma, alpha, intercept, n_iter, converged):
    """The fitted ``Model`` with support ``x`` from one row of a Newton solve."""
    return Model(config=config, support=x, dual_coeffs=alpha, intercept=float(intercept),
                 gamma=gamma, n_iter=int(n_iter), converged=bool(converged))


@dataclass(frozen=True)
class Committee:
    """Bagged committee of g >= 2 kernel models stacked over one labeled support.

    ``model`` is the fit on the whole labeled set, solved in the members'
    Newton stack: the model ``fit`` returns, up to round-off.

    Member j's posterior is sigmoid(K(x, support) coeffs[j] + intercepts[j]),
    clamped like ``Model.predict_proba``, unless ``degenerate_label[j]`` is
    nonzero: then its draws held that one class and it predicts it at 0.99.
    ``coeffs[j]`` is 0 at the rows member j did not draw (``drawn[j]`` is
    False) and everywhere for a degenerate member.
    """

    config: LearnerConfig
    support: np.ndarray  # (n, d): the labeled set every member is solved on
    gamma: float
    model: Model  # the fit on the whole labeled set, count 1 per row
    drawn: np.ndarray  # (g, n) bool
    coeffs: np.ndarray  # (g, n)
    intercepts: np.ndarray  # (g,)
    degenerate_label: np.ndarray  # (g,) a one-class member's class, else 0
    n_iter: np.ndarray  # (g,) Newton steps taken
    converged: np.ndarray  # (g,) a stop rule fired before max_iter

    @property
    def degenerate(self):
        return self.degenerate_label != 0

    def member_proba(self, x, *, kernel=None):
        """(g, n_samples) matrix of positive-class posteriors.

        ``kernel`` is ``kernel_matrix(config, x, support)`` if the caller
        already has it; by default it is computed here.
        """
        k = _cross_kernel(self.config, x, self.support, self.gamma, kernel)
        p = np.clip(_sigmoid(self.coeffs @ k.T + self.intercepts[:, None]),
                    PROB_CLAMP, 1.0 - PROB_CLAMP)
        fixed = np.where(self.degenerate_label == 1, 0.99, 0.01)
        return np.where(self.degenerate[:, None], fixed[:, None], p)

    @property
    def members(self):
        """Each member as a ``Model`` on its distinct draws."""
        return tuple(
            _degenerate(self.config, self.support[d], label, self.gamma) if label else _model(
                self.config, self.support[d], self.gamma, self.coeffs[j, d],
                self.intercepts[j], self.n_iter[j], self.converged[j])
            for j, (d, label) in enumerate(zip(self.drawn, self.degenerate_label))
        )


def _bootstrap_counts(n, g, seed):
    """(g, n) draw counts: member j resamples n rows with the stream (*seed, j)."""
    base = (seed,) if np.isscalar(seed) else tuple(seed)
    return np.array([
        np.bincount(np.random.default_rng(base + (j,)).integers(0, n, size=n), minlength=n)
        for j in range(g)
    ], dtype=float)


def fit_committee(config: LearnerConfig, features, labels, g=5, seed=0, *,
                  init=None, gram=None) -> Committee:
    """Train g models on size-n bootstrap resamples of the labeled set.

    ``seed`` may be an int or a sequence; member j resamples with the stream
    seeded by (*seed, j), so committees are reproducible per member.  Every
    member is solved on the whole labeled set with its draw counts as
    weights (0 for undrawn rows).  The same stacked Newton solves, as its
    row 0, the problem with count 1 on every row: ``fit``'s problem, whose
    solution is ``Committee.model``.  All rows share K (``gram``, if the
    caller already has it) and start from ``init`` = (alpha, intercept) over
    the labeled set, if given.  The undrawn rows' coefficients, zero at the
    optimum, are set to exactly 0.  A member whose draws hold one class is
    the degenerate model of that class, and so is ``model`` for a one-class
    labeled set; their rows stay out of the stack.
    """
    if g < 2:
        raise ValueError("committee size g must be >= 2")
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("cannot fit a committee on an empty labeled set")
    n = len(x)
    gamma = config.gamma if config.gamma is not None else 1.0 / x.shape[1]
    counts = _bootstrap_counts(n, g, seed)
    drawn = counts > 0
    label = np.array([0 if np.ptp(y[d]) > 0 else y[d][0] for d in drawn])
    live = np.flatnonzero(label == 0)  # empty unless the labeled set has two classes
    rows = np.concatenate([np.ones((int(np.ptp(y) > 0), n)), counts[live]])
    alpha, intercept = _start(init, len(rows), n)
    coeffs, intercepts = np.zeros((g, n)), np.zeros(g)
    n_iter, converged = np.zeros(g, dtype=int), np.ones(g, dtype=bool)
    if len(rows):
        k = _cross_kernel(config, x, x, gamma, gram)
        alpha, intercept, steps, done = _newton(config, k, (y + 1) / 2.0, rows, alpha, intercept)
        model = _model(config, x, gamma, alpha[0], intercept[0], steps[0], done[0])
        coeffs[live], intercepts[live], n_iter[live], converged[live] = (
            alpha[1:], intercept[1:], steps[1:], done[1:])
        coeffs[~drawn] = 0.0
    else:
        model = _degenerate(config, x, y[0], gamma)
    return Committee(config=config, support=x, gamma=gamma, model=model, drawn=drawn,
                     coeffs=coeffs, intercepts=intercepts, degenerate_label=label,
                     n_iter=n_iter, converged=converged)
