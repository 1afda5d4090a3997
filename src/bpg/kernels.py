"""The paper's kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 and its inverse gradient.

:class:`Kernel` gives h, grad h and the Bregman distance D_h.  Its gradient
grad h(x) = (||x||^2 + 1) x is radial, so its inverse is too:
(grad h)^{-1}(-v) = -(eta / ||v||) v, where eta is the root of the one cubic
eta^3 + eta = ||v||.  :func:`cubic_root_l0` gives that root in closed form
from the triple-angle identity sinh(3u) = 3 sinh(u) + 4 sinh(u)^3, polished
by one Newton step, and ``_radial_step`` applies the inverse; both prox maps
of :mod:`bpg.qip` end with it.
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
        if not (isinstance(self.dimension, numbers.Integral) and self.dimension >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def quartic(cls, dimension):
        return cls(dimension)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(
                f"point has trailing dimension {x.shape[-1:]}, kernel expects ({self.dimension},)"
            )
        return x

    def value(self, x):
        """h(x); scalar for a single point, 1-d array for a batch."""
        x = self._check(x)
        sq = np.add.reduce(x * x, axis=-1)
        return 0.25 * sq * sq + 0.5 * sq

    def gradient(self, x):
        """Analytic gradient (||x||^2 + 1) x, same shape as ``x``."""
        x = self._check(x)
        sq = np.add.reduce(x * x, axis=-1, keepdims=True)
        return (sq + 1.0) * x

    def bregman(self, x, y):
        """D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>.

        Computed from the definition (value plus gradient) rather than a
        simplified formula, so identities such as linear additivity are
        exercised by the generic path.  Nonnegative; zero iff x == y.
        """
        x = self._check(x)
        y = self._check(y)
        return self.value(x) - self.value(y) - np.add.reduce(self.gradient(y) * (x - y), axis=-1)


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


# eta = (2/sqrt(3)) sinh(u) turns eta^3 + eta = c into sinh(3u) = M*c.  Past
# c = T, asinh(M*c) equals log(2*M*c) to double precision, so the root splits
# it as asinh(M*T) + log(c/T), and M*c never overflows.
_M = 1.5 * math.sqrt(3.0)
_T = 1e8 / _M


def cubic_root_l0(c):
    """Unique nonnegative root eta of eta^3 + eta - c = 0 for c >= 0.

    Accepts a scalar or an array of coefficients.  The triple-angle identity
    sinh(3u) = 3 sinh(u) + 4 sinh(u)^3 gives the root in closed form, without
    cancellation: eta = (2/sqrt(3)) sinh(asinh(M c) / 3), M = 3 sqrt(3) / 2.
    One Newton step then brings it to within a few ulp of the exact root at
    every magnitude.  Scalars and arrays go through the same numpy ufuncs, so
    they agree bit for bit.
    """
    c = _coefficients(c)
    z = np.arcsinh(_M * np.minimum(c, _T)) + np.log(np.maximum(c, _T) / _T)
    eta = (2.0 / math.sqrt(3.0)) * np.sinh(z / 3.0)
    return eta - (eta * eta * eta + eta - c) / (3.0 * eta * eta + 1.0)


def cubic_root_l1(a):
    """Unique root t in (0, 1] of a*t^3 + t - 1 = 0 for a >= 0.

    The substitution eta = sqrt(a) * t turns it into eta^3 + eta = sqrt(a),
    so t = cubic_root_l0(sqrt(a)) / sqrt(a), and t = 1 at a = 0.  Accepts a
    scalar or an array.  The prox maps do not call it; it stays public
    because it is the paper's form of the l1 prox scaling (-t * S(p) with
    a = ||S(p)||^2), which acceptance criterion 5 and the benchmark's tracer
    name.
    """
    r = np.sqrt(_coefficients(a))
    # [()] unwraps the 0-d result of a scalar a
    return np.divide(cubic_root_l0(r), r, out=np.ones_like(r), where=r > 0)[()]


def _radial_step(v):
    """u = (grad h)^{-1}(-v) = -(eta / ||v||) v, where eta^3 + eta = ||v||.

    The cubic is solved even for v = 0 (eta = 0, u = -v), so every prox call
    makes exactly one cubic solve.
    """
    nv = math.sqrt(v.dot(v))
    eta = cubic_root_l0(nv)
    return -(eta / nv if nv > 0 else 1.0) * v
