"""Sparse quadratic inverse problems and their closed-form Bregman prox maps.

The smooth data term is g(x) = 1/4 * sum_i (x^T A_i x - b_i)^2 for symmetric
measurement matrices A_i.  Dense instances keep each A_i once, as its packed
lower triangle, and evaluate g from one BLAS matrix-vector product of the
(m, d(d+1)/2) packed stack with the pair products x_j x_k; the gradient
unpacks sum_i r_i A_i from one product of the residuals with the same stack.
Rank-one instances A_i = a_i a_i^T use the m inner products a_i^T x.  The
instance memoizes the residuals and gradient of its last point, keyed on the
point's shape and bytes, so g(x+), grad g(x+) and the next step's grad g(x)
take one residual pass.  The memo is one tuple set by one assignment, so a
thread race can only miss; the data arrays are read-only copies.

Paired with the paper's kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2, the Bregman
proximal step has an explicit solution for both an l1 penalty and an l0-ball
(sparsity) constraint, and both are the same map: threshold the vector p of
:func:`p_lambda` to v = S(p) (soft) or H_s(p) (hard), then return
(grad h)^{-1}(-v), the kernel's inverse gradient, which :mod:`bpg.kernels`
gives in closed form.

The certified adaptability constant (source ``qip-gram``) is
L* = max(3*lam, beta), lam = lambda_max(sum_i A_i^2), beta = ||sum_i b_i A_i||:
hess h(x) >= (1 + ||x||^2) I, and Cauchy-Schwarz gives |u^T hess g(x) u| <=
(3*lam*||x||^2 + beta) ||u||^2.  It never exceeds the paper's
sum_i (3*||A_i||^2 + ||A_i||*|b_i|).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

# cubic_root_l0 and cubic_root_l1 are re-exported: the benchmark's tracer
# looks them up in this module
from .kernels import Kernel, _radial_step, cubic_root_l0, cubic_root_l1  # noqa: F401
from .smad import QIP_GRAM, SmadCertificate, check_symmetric
from .solver import Problem

# Matrices unpacked per block of the certificate's Gram product: the whole
# (m, d, d) stack is 8.4 MB at d=64, m=256, twice the packed rows, and would
# set the peak memory of an instance's set-up.
_GRAM_BLOCK = 16


@dataclass(frozen=True)
class L1:
    """l1-norm penalty theta * ||x||_1 with weight theta > 0."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0 and np.isfinite(self.theta)):
            raise ValueError(f"l1 weight must be positive and finite, got {self.theta}")

    def value(self, x):
        return self.theta * float(np.add.reduce(np.abs(x), axis=None))

    def prox(self, p, lam):
        return prox_l1(p, lam * self.theta)


@dataclass(frozen=True)
class L0Ball:
    """Constraint ||x||_0 <= s for a positive integer s < d."""

    s: int

    def __post_init__(self):
        if not (isinstance(self.s, numbers.Integral) and self.s >= 1):
            raise ValueError(f"sparsity level must be a positive integer, got {self.s}")

    def value(self, x):
        return 0.0 if np.count_nonzero(x) <= self.s else np.inf

    def prox(self, p, lam):
        return prox_l0(p, self.s)


def _check_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")


class QipInstance:
    """A quadratic-measurement instance: matrices A_i, data b, regularizer.

    A dense-symmetric stack is stored once, as the C-contiguous (m, n) array
    ``lower`` of row-major lower triangles, n = d(d+1)/2 in ``np.tril_indices``
    order: the instance file's layout.  Pass it as ``lower=``, or pass the
    full (m, d, d) stack as ``matrices=``, which must be finite and symmetric
    to within a 1e-10 share of its largest entry and is packed on the way in.
    Rank-one instances store the factors, shape (m, d), so that
    A_i = a_i a_i^T (the phase retrieval case), for O(m*d) evaluation.
    """

    def __init__(self, b, regularizer, matrices=None, factors=None, lower=None):
        if sum(a is not None for a in (matrices, factors, lower)) != 1:
            raise ValueError("provide exactly one of matrices=, lower= or factors=")
        self.b = np.array(b, dtype=float)
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError(f"b must be a nonempty vector, got shape {self.b.shape}")
        _check_finite(self.b, "b")
        self.lower = self.factors = None
        if factors is not None:
            factors = np.array(factors, dtype=float)
            if factors.ndim != 2:
                raise ValueError(f"factors must have shape (m, d), got {factors.shape}")
            _check_finite(factors, "factors")
            self.factors = factors
            m, d = factors.shape
        else:
            if matrices is not None:
                matrices = np.asarray(matrices, dtype=float)
                if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
                    raise ValueError(f"matrices must have shape (m, d, d), got {matrices.shape}")
                # before the symmetry check, which a NaN gap passes
                _check_finite(matrices, "matrices")
                check_symmetric(matrices)
                rows, cols = np.tril_indices(matrices.shape[1])
                lower = matrices[:, rows, cols]
            lower = np.array(lower, dtype=float, order="C")
            n = lower.shape[1] if lower.ndim == 2 else 0
            d = (math.isqrt(8 * n + 1) - 1) // 2
            if n < 1 or d * (d + 1) // 2 != n:
                raise ValueError(f"lower must have shape (m, d(d+1)/2), got {lower.shape}")
            m = lower.shape[0]
            _check_finite(lower, "matrices")
            self.lower = lower
            rows, cols = np.tril_indices(d)
            # packed index of entry (j, k) of a symmetric matrix
            self._unpack = np.empty((d, d), dtype=np.intp)
            self._unpack[rows, cols] = self._unpack[cols, rows] = np.arange(n)
            self._pairs = rows, cols
            self._weight = np.where(rows == cols, 1.0, 2.0)
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        if not isinstance(regularizer, (L1, L0Ball)):
            raise TypeError(f"regularizer must be L1 or L0Ball, got {type(regularizer).__name__}")
        if isinstance(regularizer, L0Ball) and not (1 <= regularizer.s < d):
            raise ValueError(f"l0 sparsity level must satisfy 1 <= s < d, got s={regularizer.s}, d={d}")
        self.regularizer = regularizer
        self.d = d
        self.m = m
        for a in (self.b, self.lower, self.factors):
            if a is not None:  # an edit in place would outdate the memo
                a.flags.writeable = False
        self._last = (None, None, None, None)

    def dense_matrices(self):
        """The measurement matrices as a new dense (m, d, d) array."""
        if self.lower is not None:
            return self.lower.take(self._unpack, axis=1)
        return np.einsum("mi,mj->mij", self.factors, self.factors)

    def smad_certificate(self):
        """L* = max(3 lambda_max(sum_i A_i^2), ||sum_i b_i A_i||) from one ``eigvalsh``.

        The pair comes from one Gram product: R^T R over the (m*d, d) rows R
        of the dense stack, summed over blocks of ``_GRAM_BLOCK`` unpacked
        matrices, or F^T diag(w) F for rank-one factors F, with
        w = ||a_i||^2 and w = b.  sum_i b_i A_i is b @ lower, unpacked.
        """
        if self.factors is not None:
            F = self.factors
            weights = np.array([np.einsum("ij,ij->i", F, F), self.b])
            pair = F.T @ (weights[:, :, None] * F)
        else:
            squares = np.zeros((self.d, self.d))
            for i in range(0, self.m, _GRAM_BLOCK):
                rows = self.lower[i:i + _GRAM_BLOCK].take(self._unpack, axis=1).reshape(-1, self.d)
                squares += rows.T @ rows
            pair = np.array([squares, (self.b @ self.lower)[self._unpack]])
        gram, data = np.linalg.eigvalsh(pair).tolist()
        L = max(3.0 * gram[-1], -data[0], data[-1])
        if not L > 0:
            raise ValueError("instance has only zero measurement matrices")
        return SmadCertificate(L=L, source=QIP_GRAM)


def _check_point(inst, x):
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (inst.d,):
        raise ValueError(f"point has trailing dimension {x.shape[-1:]}, instance expects ({inst.d},)")
    return x


def _residuals(inst, x):
    """Residuals x^T A_i x - b_i, batched over the leading axes of x.

    Rank-one instances also give the products a_i^T x, shape (..., m).  Dense
    instances take x^T A_i x from one BLAS product of the packed stack with
    the pair products w = x_j x_k over the lower triangle, weighted 2 off the
    diagonal; they give None in place of the products.
    """
    if inst.factors is not None:
        ax = x @ inst.factors.T
        return ax * ax - inst.b, ax
    rows, cols = inst._pairs
    w = x[..., rows] * x[..., cols] * inst._weight
    return w @ inst.lower.T - inst.b, None


def _entry(inst, x):
    """The memo entry (key, r, ax, grad) for x; grad is None until computed."""
    key = (x.shape, x.tobytes())
    entry = inst._last
    if entry[0] != key:
        entry = inst._last = (key, *_residuals(inst, x), None)
    return entry


def qip_value(inst, x):
    """The smooth data-fit value g(x) = 1/4 sum_i (x^T A_i x - b_i)^2."""
    x = _check_point(inst, x)
    r = _entry(inst, x)[1]
    return 0.25 * np.add.reduce(r * r, axis=-1)


def qip_gradient(inst, x):
    """Analytic gradient sum_i (x^T A_i x - b_i) A_i x (each A_i symmetric).

    Dense instances unpack S = sum_i r_i A_i from the one packed row r @ lower
    and return S x.  The result is a new array; the memo keeps its own copy.
    """
    x = _check_point(inst, x)
    key, r, ax, grad = _entry(inst, x)
    if grad is None:
        if inst.factors is not None:
            grad = (r * ax) @ inst.factors
        else:
            grad = ((r @ inst.lower)[..., inst._unpack] @ x[..., None])[..., 0]
        inst._last = (key, r, ax, grad)
    return grad.copy()


def p_lambda(inst, kernel, lam, x):
    """The prox driver vector p = lam * grad g(x) - grad h(x)."""
    if not lam > 0:
        raise ValueError(f"step size must be positive, got {lam}")
    x = _check_point(inst, x)
    return lam * qip_gradient(inst, x) - kernel.gradient(x)


def soft_threshold(y, tau):
    """Componentwise shrinkage max(|y| - tau, 0) * sgn(y)."""
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - tau, 0.0)


def hard_threshold(y, s):
    """Keep the s largest-magnitude entries of y, zero the rest.

    Ties are broken toward the lowest index so the selection is deterministic.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("hard_threshold expects a single vector")
    if not (isinstance(s, numbers.Integral) and 1 <= s <= y.size):
        raise ValueError(f"sparsity level must be an integer with 1 <= s <= {y.size}, got {s}")
    keep = (-np.abs(y)).argsort(kind="stable")[:s]
    out = np.zeros(y.shape)
    out[keep] = y[keep]
    return out


def prox_l1(p, lam_theta):
    """Bregman proximal step for the l1 penalty under the quartic kernel.

    Given the driver p = lam*grad g(x) - grad h(x) and the effective weight
    lam*theta, the exact global minimizer of

        lam*theta*||u||_1 + <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2

    is (grad h)^{-1}(-S(p)) = -(eta / ||S(p)||) S(p), with S the soft
    threshold at lam*theta and eta^3 + eta = ||S(p)||.
    """
    return _radial_step(soft_threshold(p, lam_theta))


def prox_l0(p, s):
    """Bregman proximal step for the l0-ball constraint under the quartic kernel.

    Globally minimizes <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2 over ||u||_0 <= s.
    The minimizer is (grad h)^{-1}(-H_s(p)) = -(eta / ||H_s(p)||) H_s(p),
    with H_s the hard threshold and eta^3 + eta = ||H_s(p)||.
    """
    p = np.asarray(p, dtype=float)
    if not 1 <= s < p.size:
        raise ValueError(f"require 1 <= s < d, got s={s}, d={p.size}")
    return _radial_step(hard_threshold(p, s))


def make_problem(inst, kernel):
    """Bind a QIP instance and the quartic kernel into a solver-ready Problem.

    ``kernel`` must be ``Kernel.quartic(inst.d)``, the paper's kernel: it is
    the only pairing with a certificate for quadratic measurements.  The
    adaptability constant is the instance's certified L* (source
    ``qip-gram``, see :meth:`QipInstance.smad_certificate`).
    """
    # kernel != Kernel.quartic(inst.d), without building a second Kernel:
    # cold, that costs about 60 us, 7% of a d=8 load-and-certify set-up
    if type(kernel) is not Kernel or kernel.dimension != inst.d:
        raise ValueError(f"make_problem needs Kernel.quartic({inst.d}), the kernel "
                         f"1/4 ||x||^4 + 1/2 ||x||^2 on R^{inst.d} that L* certifies; "
                         f"got {kernel!r}")
    reg = inst.regularizer
    return Problem(
        g_value=lambda x: qip_value(inst, x),
        g_gradient=lambda x: qip_gradient(inst, x),
        prox_map=lambda x, lam: reg.prox(p_lambda(inst, kernel, lam, x), lam),
        f_value=reg.value,
        kernel=kernel,
        smad=inst.smad_certificate(),
        psi_lower_bound=0.0,
    )
