"""Argument rules shared by every module: one function per kind of rule.

* ``check_int``: an integer (not a bool) >= a bound;
* ``check_real``: a finite real (not a bool) in an interval;
* ``check_choice``: a string among named options;
* ``check_weights``: one finite, non-negative number per item, with a
  positive sum.

Each raises a ValueError whose message starts with the argument's name, so
a caller that builds an object from user input can report it as it is.
This module imports nothing from the package.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def check_int(name, value, low):
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}")


def is_real(value):
    """True for a finite real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_real(name, value, low, high=math.inf, *, open_low=False, open_high=False):
    """Raise ValueError unless ``value`` is a finite real (not a bool) in the interval.

    The interval runs from ``low`` to ``high``, each end closed unless
    ``open_low`` / ``open_high``.  The message states it: ``lie in (0, 1]``
    with two finite ends, ``be a positive finite number`` for (0, inf) and
    ``be a finite number >= low`` otherwise.
    """
    if is_real(value) and (low < value if open_low else low <= value) and (
            value < high if open_high else value <= high):
        return
    if high < math.inf:
        rule = f"lie in {'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    elif open_low and low == 0:
        rule = "be a positive finite number"
    else:
        rule = f"be a finite number >= {low:g}"
    raise ValueError(f"{name} must {rule}")


def check_choice(name, value, options):
    """Raise ValueError unless ``value`` is a string among ``options``."""
    if not (isinstance(value, str) and value in options):
        raise ValueError(f"{name} must be one of {', '.join(map(repr, options))}, got {value!r}")


def check_weights(name, weights, n, per):
    """``weights`` as n floats, each finite and non-negative, with a positive sum.

    Bools and strings are not numbers here.  Otherwise ValueError
    ``<name> must be finite, non-negative, not all zero, one per <per>``.
    An array is checked with one sum and one min, as the fused query step
    runs this on every call.
    """
    w = weights
    if not isinstance(w, np.ndarray):  # a sequence: each entry checked
        w = np.array(w if np.iterable(w) and all(map(is_real, w)) else (), dtype=float)
    if w.shape == (n,) and w.dtype.kind in "iuf":
        w = w.astype(float, copy=False)
        total = w.sum()
        if 0.0 < total < math.inf and w.min() >= 0:
            return w
    raise ValueError(f"{name} must be finite, non-negative, not all zero, one per {per}")
