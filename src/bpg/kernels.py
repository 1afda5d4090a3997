"""The paper's kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 and its inverse gradient.

:class:`Kernel` gives h, grad h and D_h (in closed form); ``step_terms``
gives a solver step grad h, ||x||^2, ||u||^2 and D_h in one call; each
square sum is one BLAS dot.  Its gradient grad h(x) = (||x||^2 + 1) x is
radial, so (grad h)^{-1}(-v) = -t v, where t solves the paper's l1 cubic
||v||^2 t^3 + t = 1.  ``_radial_step`` takes that step with one
:func:`cubic_root_l1` call, and both prox maps of :mod:`bpg.qip` end with
it; :func:`cubic_root_l0` shares its closed form.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Kernel:
    """The kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 on R^d.

    It pairs with quartic measurement objectives (bpg, arXiv 1706.06461), and
    it is finite, differentiable and 1-strongly convex on all of R^d.
    Instances are immutable and every method is a pure function; ``value``,
    ``gradient`` and ``bregman`` accept a single point of shape ``(d,)`` or a
    batch of shape ``(n, d)`` (norms are taken along the last axis).
    """

    dimension: int

    def __post_init__(self):
        if not (isinstance(self.dimension, numbers.Integral) and type(self.dimension) is not bool
                and self.dimension >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def quartic(cls, dimension):
        return cls(dimension)

    def value(self, x):
        """h(x); scalar for a single point, 1-d array for a batch."""
        x = _point(x, self.dimension, "kernel")
        sq = _dot(x, x)
        return 0.25 * sq * sq + 0.5 * sq

    def gradient(self, x):
        """Analytic gradient (||x||^2 + 1) x, same shape as ``x``."""
        x = _point(x, self.dimension, "kernel")
        return np.expand_dims(_dot(x, x) + 1.0, -1) * x

    def bregman(self, x, y):
        """D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>, in closed form.

        With u = x - y it is 1/2 ||u||^2 (1 + ||y||^2) + 1/4 (2 <y, u> + ||u||^2)^2,
        a sum of nonnegative terms: no difference of nearly equal values of h,
        so it is >= 0 in floating point, zero iff x == y, and within a few ulp.
        """
        y = _point(y, self.dimension, "kernel")
        u = _point(x, self.dimension, "kernel") - y
        return _gap(_dot(u, u), _dot(y, u), _dot(y, y))

    def step_terms(self, x, y, u, yy):
        """(grad h(x), ||x||^2, ||u||^2, D_h(x, y)) for a step u = x - y from y, given ||y||^2.

        The solver's one unchecked kernel call per point (a start passes y = x,
        u = 0), with the bits of ``gradient``, ``value``'s ||x||^2 and ``bregman``.
        """
        xx, uu = _dot(x, x), _dot(u, u)
        return (xx + 1.0) * x, xx, uu, _gap(uu, _dot(y, u), yy)


def _point(x, d, owner):
    """x as a float array of points on R^d, one or a batch; ``owner`` names what expects them."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (d,):
        raise ValueError(f"point has trailing dimension {x.shape[-1:]}, {owner} expects ({d},)")
    return x


def _dot(a, b):
    """<a, b> along the last axis, by BLAS: a float for one point, the same bits per batch row."""
    return float(a.dot(b)) if a.ndim == 1 else np.vecdot(a, b)


def _gap(uu, yu, yy):
    """D_h(y + u, y) in ``bregman``'s closed form from ||u||^2, <y, u> and ||y||^2."""
    cross = 2.0 * yu + uu
    return 0.5 * uu * (1.0 + yy) + 0.25 * cross * cross


def _coefficients(c):
    """A Python float, or a float array, of finite nonnegative coefficients."""
    if isinstance(c, float) or np.ndim(c) == 0:
        c = float(c)
        ok = math.isfinite(c) and c >= 0
    else:
        c = np.asarray(c, dtype=float)
        ok = np.all(np.isfinite(c)) and not np.any(c < 0)
    if not ok:
        raise ValueError("coefficient must be finite and nonnegative")
    return c


def _root_ratio(c, s):
    """eta / c for the root eta of eta^3 + eta = c >= 0, given s = sqrt(c^2/4 + 1/27); 1 at c = 0.

    Cardano gives eta = A - 1/(3A), A = cbrt(c/2 + s), and c = eta (1 + eta^2)
    makes the ratio 1 / (1 + eta^2), within a few ulp and monotone (eta loses
    digits only where eta^2 vanishes next to 1), with the same bits for arrays.
    """
    a = np.cbrt(0.5 * c + s)
    eta = a - 1.0 / (3.0 * a)
    return 1.0 / (1.0 + eta * eta)


def cubic_root_l0(c):
    """Unique nonnegative root eta of eta^3 + eta - c = 0 for c >= 0.

    Accepts a scalar or an array.  eta = c * ``_root_ratio``, with s a hypot,
    as c^2/4 can overflow; one Newton step leaves it within a few ulp.
    """
    c = _coefficients(c)
    eta = c * _root_ratio(c, np.hypot(0.5 * c, 27.0 ** -0.5))
    return eta - (eta * eta * eta + eta - c) / (3.0 * eta * eta + 1.0)


def cubic_root_l1(a):
    """Unique root t in (0, 1] of a*t^3 + t - 1 = 0 for a >= 0: the paper's l1 cubic.

    eta = sqrt(a) * t solves eta^3 + eta = sqrt(a), so t = ``_root_ratio``; its
    s = sqrt(a/4 + 1/27) is finite for every finite a.  Scalar or array.
    """
    a = _coefficients(a)
    return _root_ratio(np.sqrt(a), np.sqrt(0.25 * a + 1.0 / 27.0))


def _radial_step(v):
    """u = (grad h)^{-1}(-v) = -t v, with t = cubic_root_l1(||v||^2).

    Also for v = 0 (t = 1), so every prox call makes exactly one cubic solve.
    """
    return -cubic_root_l1(v.dot(v)) * v
