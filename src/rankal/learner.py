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

Newton keeps only its running rows.  Their counts, point, objective and
z = K alpha + b are compact arrays, one row per running problem, compressed
only on an iteration where some row stopped; a row is written back to the
caller's arrays once, when it stops (converged, line search failed, or
``max_iter`` reached).  Each iteration tries the full step of every running
row in one objective evaluation, and only rows whose objective rose go on
to halve.  The stacked system and its right-hand side are allocated once
per call and filled in place.  None of this changes the arithmetic: fits
are bit-identical to the loop that gathers and scatters the active rows
every iteration, kept in ``tests/reference.py``.

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
none is given, and ``kernel_matrix`` alone works out the RBF width.  The
query loop passes slices of one pool x labeled block that it extends by a
column per labeled sample (see ``rankal.loop``).

``fit`` and ``fit_committee`` share one solve, ``_fit_rows``, over a count
matrix with one row per problem.  Its one one-class rule: a row whose
samples with a positive count hold a single class is that class's
degenerate model (``degenerate_label``), predicting it at 0.99, and stays
out of the stack that goes to ``_newton``, which has no other caller.

Committees are built by bootstrap bagging with per-member RNG streams
derived from (seed, member).  Every member is solved on the whole labeled
set with its draw counts as weights (0 for undrawn rows), so all members
share one K and one starting point, and they are solved together: one Newton
on a stack of (n+1, n+1) systems, each row with its own line search, leaving
the running set when its own stop rule fires.  Row 0 is the margin problem,
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


def kernel_matrix(config: LearnerConfig, a, b):
    """Gram matrix between rows of ``a`` and rows of ``b``.

    The RBF width is ``config.gamma``, or 1 / n_features when it is not set.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if config.kernel == "linear":
        return a @ b.T
    g = config.gamma if config.gamma is not None else 1.0 / a.shape[1]
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-g * np.maximum(sq, 0.0))


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)) with z clipped to [-35, 35], computed in ``out`` if given."""
    out = np.maximum(z, -35.0, out=out)
    np.minimum(out, 35.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _features(x, support):
    """``x`` as a 2-D float array with as many columns as ``support``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != support.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects {support.shape[1]} "
            f"features, got {x.shape[1]}"
        )
    return x


def _cross_kernel(config, x, support, kernel):
    """The kernel between the rows of ``x`` and ``support``: ``kernel`` if given.

    With ``support`` = ``x`` it is the Gram matrix.
    """
    x = _features(x, support)
    if kernel is None:
        return kernel_matrix(config, x, support)
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
    degenerate_label: int = 0  # a one-class set's class, predicted at 0.99; else 0
    n_iter: int = 0  # Newton steps taken
    converged: bool = True  # a stop rule fired before max_iter

    @property
    def degenerate(self):
        return self.degenerate_label != 0

    def predict_proba(self, x, *, kernel=None):
        """Posterior P(y = +1 | x) for each row of ``x``, clamped to (0, 1).

        ``kernel`` is ``kernel_matrix(config, x, support)`` if the caller
        already has it; by default it is computed here.
        """
        if self.degenerate:
            p = 0.99 if self.degenerate_label == 1 else 0.01
            return np.full(len(_features(x, self.support)), p)
        k = _cross_kernel(self.config, x, self.support, kernel)
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
    z = alpha @ k  # K is symmetric: row j is K @ alpha[j]
    z += intercept[:, None]
    # log(1 + exp(-|z|)) formulation keeps the loss finite for large |z|
    buf = np.logaddexp(0.0, z)
    buf -= target * z
    buf *= counts
    nll = np.add.reduce(buf, axis=1)
    # the penalty alpha' K alpha reuses z instead of a second matvec
    np.subtract(z, intercept[:, None], out=buf)
    buf *= alpha
    return nll + 0.5 * reg * np.add.reduce(buf, axis=1), z


def _newton(config, k, target, counts, alpha, intercept):
    """Damped Newton on g problems that share K, stacked along the first axis.

    ``counts`` and ``alpha`` are (g, n) and ``intercept`` is (g,); ``alpha``
    and ``intercept`` hold the starting point and are updated in place.  Each
    problem has its own line search and leaves the running set once a stop
    rule fires.  Returns alpha, intercept, Newton steps taken and converged
    flags, per problem.  ``rows`` names the running problems, whose state
    is kept compact (see the module docstring).
    """
    g, n = counts.shape
    reg = config.reg
    rows, c, a, b = np.arange(g), counts, alpha, intercept
    obj, z = _objective(k, target, c, a, b, reg)
    n_iter = np.full(g, config.max_iter)  # until a stop rule says otherwise
    converged = np.zeros(g, dtype=bool)
    h = np.empty((g, n + 1, n + 1))  # the Newton systems, one per running row
    h_diag = h.reshape(g, -1)[:, :n * (n + 2):n + 2]  # the first block's diagonals
    rhs = np.empty((g, n + 1, 1))
    u = np.empty((2 * g, n))  # rows: c w, then the gradient's g_a
    buf = np.empty((g, n))
    for it in range(1, config.max_iter + 1):
        m = len(rows)
        cw, g_a, p = u[:m], u[m:2 * m], buf[:m]
        _sigmoid(z, out=p)
        np.subtract(1.0, p, out=cw)
        cw *= p
        np.maximum(cw, 1e-10, out=cw)
        cw *= c
        p -= target
        p *= c  # the residual c (p - t)
        np.multiply(reg, a, out=g_a)
        g_a += p  # the gradient in alpha is K @ g_a
        g_b = np.add.reduce(p, axis=1)
        kv = u[:2 * m] @ k  # rows: K cw, then K g_a

        # the Newton system with K taken out of its first block row
        hm = h[:m]
        np.multiply(k, cw[:, :, None], out=hm[:, :n, :n])
        h_diag[:m] += reg
        hm[:, :n, n] = cw
        hm[:, n, :n] = kv[:m]
        hm[:, n, n] = np.add.reduce(cw, axis=1)
        rhs[:m, :n, 0] = g_a
        rhs[:m, n, 0] = g_b
        step = np.linalg.solve(hm, rhs[:m])[:, :, 0]
        np.multiply(step[:, :n], kv[m:], out=p)
        decrement = np.add.reduce(p, axis=1)
        decrement += step[:, n] * g_b
        done = 0.5 * decrement <= OBJ_RTOL * np.maximum(1.0, np.abs(obj))
        if done.any():
            fin = rows[done]
            alpha[fin] = a[done] - step[done, :n]
            intercept[fin] = b[done] - step[done, n]
            n_iter[fin], converged[fin] = it, True
            run = ~done
            rows, c, a, b, obj, z, step = (
                rows[run], c[run], a[run], b[run], obj[run], z[run], step[run])
            if not len(rows):
                break

        # the full step for every running row; rows whose objective rose halve it
        a_new = a - step[:, :n]
        b_new = b - step[:, n]
        obj_new, z_new = _objective(k, target, c, a_new, b_new, reg)
        todo = (obj_new > obj + 1e-12).nonzero()[0]
        moved = np.maximum.reduce(np.abs(step), axis=1)
        if len(todo):
            scale = np.ones(len(rows))
            for _ in range(29):
                scale[todo] *= 0.5
                a_t = a[todo] - scale[todo, None] * step[todo, :n]
                b_t = b[todo] - scale[todo] * step[todo, n]
                obj_t, z_t = _objective(k, target, c[todo], a_t, b_t, reg)
                a_new[todo], b_new[todo], obj_new[todo], z_new[todo] = a_t, b_t, obj_t, z_t
                todo = todo[obj_t > obj[todo] + 1e-12]
                if not len(todo):
                    break
            scale[todo] *= 0.5  # a search that never found descent ends below its last trial
            moved = scale * moved
        a, b, obj, z = a_new, b_new, obj_new, z_new
        # a line search that found no descent: report not converged
        run = moved >= config.tol
        if not run.all():
            fin = rows[~run]
            alpha[fin], intercept[fin], n_iter[fin] = a[~run], b[~run], it
            rows, c, a, b, obj, z = rows[run], c[run], a[run], b[run], obj[run], z[run]
            if not len(rows):
                break
    alpha[rows], intercept[rows] = a, b  # rows that reached max_iter
    return alpha, intercept, n_iter, converged


def _start(init, g, n):
    """(g, n) starting alphas and (g,) intercepts: zero, or ``init`` repeated."""
    if init is None:
        return np.zeros((g, n)), np.zeros(g)
    alpha = np.asarray(init[0], dtype=float)
    if alpha.shape != (n,):
        raise ValueError(f"init alpha must have shape ({n},), got {alpha.shape}")
    return np.tile(alpha, (g, 1)), np.full(g, float(init[1]))


def _counts(counts, n):
    """``counts`` as n finite non-negative floats, not all zero, or ValueError."""
    c = np.asarray(counts, dtype=float)
    if c.shape != (n,):
        raise ValueError(f"counts must have shape ({n},), got {c.shape}")
    if not np.all(np.isfinite(c) & (c >= 0)):
        raise ValueError("counts must be finite and non-negative")
    if not np.any(c):
        raise ValueError("counts must not all be zero")
    return c


def _fit_rows(config, features, labels, counts, init, gram):
    """Fit one problem per row of the (m, n) ``counts`` over one labeled set.

    A row whose samples with a positive count hold one class is that class's
    degenerate model (alpha and intercept 0); one ``_newton`` stack solves the
    others from ``init`` on K = ``gram``.  Returns x and, per row, alpha,
    intercept, Newton steps, converged flag and label (0 for a solved row).
    """
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = np.asarray(labels, dtype=int)
    if len(x) == 0:
        raise ValueError("cannot fit on an empty labeled set")
    m, n = counts.shape
    seen = counts > 0
    hi, lo = np.where(seen, y, -1).max(axis=1), np.where(seen, y, 1).min(axis=1)
    label = np.where(hi == lo, hi, 0)  # labels are -1 and +1
    live = np.flatnonzero(label == 0)
    start = _start(init, len(live), n)
    alpha, intercept = np.zeros((m, n)), np.zeros(m)
    n_iter, converged = np.zeros(m, dtype=int), np.ones(m, dtype=bool)
    if len(live):
        k = _cross_kernel(config, x, x, gram)
        alpha[live], intercept[live], n_iter[live], converged[live] = _newton(
            config, k, (y + 1) / 2.0, counts[live], *start)
    return x, alpha, intercept, n_iter, converged, label


def _model(config, x, alpha, intercept, n_iter, converged, label):
    """The ``Model`` with support ``x`` from one row of ``_fit_rows``."""
    return Model(config=config, support=x, dual_coeffs=alpha, intercept=float(intercept),
                 degenerate_label=int(label), n_iter=int(n_iter), converged=bool(converged))


def fit(config: LearnerConfig, features, labels, counts=None, *, init=None,
        gram=None) -> Model:
    """Train kernel logistic regression on labels in {-1,+1}.

    ``counts`` (default all ones) weights each sample's loss term: one
    finite, non-negative count per row, not all zero, else ValueError.
    ``init`` = (alpha, intercept) starts Newton there instead of at zero; the
    optimum does not depend on it.  ``gram`` is ``kernel_matrix(config,
    features, features)`` if the caller already has it.  A labeled set whose
    rows with a positive count hold a single class yields a degenerate model
    that predicts that class with probability 0.99 (flagged via
    ``Model.degenerate``).
    """
    n = len(labels)
    c = np.ones(n) if counts is None else _counts(counts, n)
    x, alpha, intercept, n_iter, converged, label = _fit_rows(
        config, features, labels, c[None, :], init, gram)
    return _model(config, x, alpha[0], intercept[0], n_iter[0], converged[0], label[0])


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
        k = _cross_kernel(self.config, x, self.support, kernel)
        p = np.clip(_sigmoid(self.coeffs @ k.T + self.intercepts[:, None]),
                    PROB_CLAMP, 1.0 - PROB_CLAMP)
        fixed = np.where(self.degenerate_label == 1, 0.99, 0.01)
        return np.where(self.degenerate[:, None], fixed[:, None], p)

    @property
    def members(self):
        """Each member as a ``Model`` on its distinct draws."""
        return tuple(
            _model(self.config, self.support[d], self.coeffs[j, d], self.intercepts[j],
                   self.n_iter[j], self.converged[j], self.degenerate_label[j])
            for j, d in enumerate(self.drawn)
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
    n = len(labels)
    counts = _bootstrap_counts(n, g, seed)
    x, alpha, intercept, n_iter, converged, label = _fit_rows(
        config, features, labels, np.concatenate([np.ones((1, n)), counts]), init, gram)
    drawn = counts > 0
    coeffs = alpha[1:]
    coeffs[~drawn] = 0.0
    model = _model(config, x, alpha[0], intercept[0], n_iter[0], converged[0], label[0])
    return Committee(config=config, support=x, model=model, drawn=drawn, coeffs=coeffs,
                     intercepts=intercept[1:], degenerate_label=label[1:],
                     n_iter=n_iter[1:], converged=converged[1:])
