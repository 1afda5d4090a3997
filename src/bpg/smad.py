"""Smooth-adaptability certificates and sampled descent-lemma verification.

For a smooth g and kernel h, an adaptability constant L makes both L*h - g and
L*h + g convex, which is equivalent to the two-sided bound

    |g(x) - g(y) - <grad g(y), x - y>|  <=  L * D_h(x, y).

This module provides the certificate type, spectral norms from numpy's
``eigvalsh``, and a sampling-based checker for the bound itself.
``QipInstance.smad_certificate`` builds the constant for quartic measurement
objectives, L* = max(3*lambda_max(sum_i A_i^2), ||sum_i b_i A_i||), with
source ``QIP_GRAM``; :mod:`bpg.qip` gives its Cauchy-Schwarz derivation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _check_finite

QIP_GRAM = "qip-gram"

_SYMMETRY_TOL = 1e-10
_DESCENT_SLACK = 1e-9

# check_descent_lemma evaluates pairs in blocks of this many, so that its
# memory does not grow with the number of samples: a dense oracle call holds
# a few (pairs, d(d+1)/2) and (pairs, d, d) temporaries, about 70 MB per 1024
# pairs at d=64, m=256.
PAIR_BLOCK = 1024


@dataclass(frozen=True)
class SmadCertificate:
    """An adaptability constant L > 0 together with its provenance, such as ``QIP_GRAM``."""

    L: float
    source: str

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"adaptability constant must be positive and finite, got {self.L}")


def check_symmetric(A):
    """Return A as a float array; raise unless it (each matrix of a stack) is symmetric.

    The tolerance is relative to the largest |A| of the whole array, so that
    rounding passes at any scale and a gap at the scale of the entries fails.
    """
    A = np.asarray(A, dtype=float)
    if A.size:
        rows, cols = np.tril_indices(A.shape[-1], -1)
        gap = A[..., rows, cols]
        gap -= A[..., cols, rows]
        gap = float(np.max(np.abs(gap, out=gap), initial=0.0))
        bound = _SYMMETRY_TOL * max(-float(A.min()), float(A.max()))
        if gap > bound:
            raise ValueError(f"matrix is not symmetric: max |A - A^T| = {gap:.3e} > {bound:.1e}"
                             f" ({_SYMMETRY_TOL:.0e} of max |A|)")
    return A


def spectral_norm(A):
    """Largest absolute eigenvalue of a symmetric matrix, from numpy's ``eigvalsh``.

    ``A`` is one (d, d) matrix, giving a float, or an (m, d, d) stack, giving
    the (m,) array of per-matrix norms.  ``eigvalsh`` reads one triangle only,
    so the input must be symmetric to within the tolerance of
    :func:`check_symmetric`.
    """
    A = np.asarray(A, dtype=float)
    _check_finite(A, "matrix must be finite")
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    check_symmetric(A)
    norms = np.max(np.abs(np.linalg.eigvalsh(A)), axis=-1, initial=0.0)
    return float(norms) if A.ndim == 2 else norms


@dataclass
class DescentReport:
    """Outcome of a sampled check of |D_g| <= L * D_h.

    ``margins`` holds L*D_h - |D_g| per sample pair; a pair counts as a
    violation when its margin is below ``-slack`` for the pair's
    magnitude-scaled slack, or is NaN.  A failed check is an outcome, not an
    error.
    """

    margins: np.ndarray
    n_violations: int
    worst_margin: float
    passed: bool


def check_descent_lemma(g_value, g_gradient, kernel, L, xs, ys, g_oracle=None):
    """Verify the extended descent bound on sampled point pairs.

    ``g_value`` and ``g_gradient`` must accept batched input of shape (n, d);
    ``g_oracle(y)``, if given, returns ``(g(y), grad g(y))`` in one call (a
    fused oracle, one pass over the data) and ``g_gradient`` may be None;
    by default it is the pair of ``g_value`` and ``g_gradient``.
    They and the kernel see at most ``PAIR_BLOCK`` pairs per call, under numpy's
    ``errstate(all="ignore")``: an overflow is a NaN margin.  Returns a report
    even on a failed bound; raises ValueError on unequal, empty or non-finite samples.
    """
    g_oracle = g_oracle or (lambda y: (g_value(y), g_gradient(y)))
    xs, ys = (np.atleast_2d(np.asarray(samples, dtype=float)) for samples in (xs, ys))
    if xs.shape != ys.shape:
        raise ValueError(f"sample arrays differ in shape: {xs.shape} vs {ys.shape}")
    if xs.size == 0:
        raise ValueError("no sample pairs given")
    for samples in (xs, ys):
        _check_finite(samples, "sample points must be finite")
    margins, slacks = [], []
    with np.errstate(all="ignore"):  # an overflowing pair gets a NaN margin, a violation
        for start in range(0, len(xs), PAIR_BLOCK):
            x, y = xs[start:start + PAIR_BLOCK], ys[start:start + PAIR_BLOCK]
            dh = np.atleast_1d(kernel.bregman(x, y))
            gy, grad_y = g_oracle(y)
            dg = np.atleast_1d(g_value(x) - gy - np.sum(grad_y * (x - y), axis=-1))
            margins.append(L * dh - np.abs(dg))
            slacks.append(_DESCENT_SLACK * (1.0 + np.abs(dg) + L * dh))
    margins = np.concatenate(margins)
    bad = ~(margins >= -np.concatenate(slacks))
    return DescentReport(
        margins=margins,
        n_violations=int(np.count_nonzero(bad)),
        worst_margin=float(np.min(margins)),
        passed=not bool(np.any(bad)),
    )
