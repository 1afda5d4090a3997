"""Kernel generating distances and the Bregman proximity measure D_h."""

import numbers
from dataclasses import dataclass

import numpy as np

ENERGY = "energy"
QUARTIC_PLUS_QUADRATIC = "quartic-plus-quadratic"

_KINDS = (ENERGY, QUARTIC_PLUS_QUADRATIC)


@dataclass(frozen=True)
class Kernel:
    """A convex reference function h on R^d defining the Bregman distance.

    Two kinds are shipped:

    * ``energy``: h(x) = 1/2 ||x||^2.  Its Bregman distance is the classical
      half squared Euclidean distance, recovering ordinary proximal gradient
      geometry.
    * ``quartic-plus-quadratic``: h(x) = 1/4 ||x||^4 + 1/2 ||x||^2, the kernel
      that pairs with quartic measurement objectives.

    Both kinds are finite, differentiable and 1-strongly convex on all of R^d.
    Instances are immutable and every method is a pure function; ``value``,
    ``gradient`` and ``bregman`` accept a single point of shape ``(d,)`` or a
    batch of shape ``(n, d)`` (norms are taken along the last axis).
    """

    kind: str
    dimension: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        if not (isinstance(self.dimension, numbers.Integral) and self.dimension >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        object.__setattr__(self, "dimension", int(self.dimension))

    @classmethod
    def energy(cls, dimension):
        return cls(ENERGY, dimension)

    @classmethod
    def quartic(cls, dimension):
        return cls(QUARTIC_PLUS_QUADRATIC, dimension)

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
        if self.kind == ENERGY:
            return 0.5 * sq
        return 0.25 * sq * sq + 0.5 * sq

    def gradient(self, x):
        """Analytic gradient of h, same shape as ``x``."""
        x = self._check(x)
        if self.kind == ENERGY:
            return x.copy()
        sq = np.add.reduce(x * x, axis=-1, keepdims=True)
        return (sq + 1.0) * x

    def bregman(self, x, y):
        """D_h(x, y) = h(x) - h(y) - <grad h(y), x - y>.

        Computed from the definition (value plus gradient) rather than a
        per-kind simplified formula, so identities such as linear additivity
        are exercised by the generic path.  Nonnegative for both kinds; zero
        iff x == y.
        """
        x = self._check(x)
        y = self._check(y)
        return self.value(x) - self.value(y) - np.add.reduce(self.gradient(y) * (x - y), axis=-1)
