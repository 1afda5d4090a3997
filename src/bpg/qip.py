"""Sparse quadratic inverse problems and their closed-form Bregman prox maps.

The smooth data term is g(x) = 1/4 * sum_i (x^T A_i x - b_i)^2 for symmetric
measurement matrices A_i.  Dense instances evaluate it from one BLAS
matrix-vector product that gives every A_i x at once; rank-one instances
A_i = a_i a_i^T from the m inner products a_i^T x.  Paired with the
quartic-plus-quadratic kernel, the Bregman proximal step has an explicit
solution for both an l1 penalty and an l0-ball (sparsity) constraint, and
both are the same map: threshold the vector p of :func:`p_lambda` to
v = S(p) (soft) or H_s(p) (hard), then return
(grad h)^{-1}(-v) = -(eta / ||v||) v, where eta is the root of the one cubic
eta^3 + eta = ||v||, given in closed form by the triple-angle identity
sinh(3u) = 3 sinh(u) + 4 sinh(u)^3 and polished by one Newton step.

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

from .kernels import QUARTIC_PLUS_QUADRATIC
from .smad import QIP_GRAM, SmadCertificate, check_symmetric
from .solver import Problem


@dataclass(frozen=True)
class L1:
    """l1-norm penalty theta * ||x||_1 with weight theta > 0."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0 and np.isfinite(self.theta)):
            raise ValueError(f"l1 weight must be positive and finite, got {self.theta}")


@dataclass(frozen=True)
class L0Ball:
    """Constraint ||x||_0 <= s for a positive integer s < d."""

    s: int

    def __post_init__(self):
        if not (isinstance(self.s, numbers.Integral) and self.s >= 1):
            raise ValueError(f"sparsity level must be a positive integer, got {self.s}")


def _check_finite(a, name):
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")


class QipInstance:
    """A quadratic-measurement instance: matrices A_i, data b, regularizer.

    Matrices are stored either dense-symmetric with shape (m, d, d), or as
    rank-one factors with shape (m, d) so that A_i = a_i a_i^T (the phase
    retrieval case), which enables O(m*d) objective/gradient evaluation.
    """

    def __init__(self, b, regularizer, matrices=None, factors=None):
        if (matrices is None) == (factors is None):
            raise ValueError("provide exactly one of matrices= or factors=")
        self.b = np.asarray(b, dtype=float)
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError(f"b must be a nonempty vector, got shape {self.b.shape}")
        _check_finite(self.b, "b")
        if matrices is not None:
            # contiguous, so that the oracle's (m*d, d) row view is a view
            matrices = np.ascontiguousarray(matrices, dtype=float)
            if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
                raise ValueError(f"matrices must have shape (m, d, d), got {matrices.shape}")
            # before the symmetry check, which a NaN gap passes
            _check_finite(matrices, "matrices")
            check_symmetric(matrices)
            self.matrices = matrices
            self.factors = None
            m, d = matrices.shape[0], matrices.shape[1]
        else:
            factors = np.asarray(factors, dtype=float)
            if factors.ndim != 2:
                raise ValueError(f"factors must have shape (m, d), got {factors.shape}")
            _check_finite(factors, "factors")
            self.matrices = None
            self.factors = factors
            m, d = factors.shape
        if self.b.shape != (m,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({m},)")
        if not isinstance(regularizer, (L1, L0Ball)):
            raise TypeError(f"regularizer must be L1 or L0Ball, got {type(regularizer).__name__}")
        if isinstance(regularizer, L0Ball) and not (1 <= regularizer.s < d):
            raise ValueError(f"l0 sparsity level must satisfy 1 <= s < d, got s={regularizer.s}, d={d}")
        self.regularizer = regularizer
        self.d = d
        self.m = m

    def dense_matrices(self):
        """The measurement matrices as a dense (m, d, d) array."""
        if self.matrices is not None:
            return self.matrices
        return np.einsum("mi,mj->mij", self.factors, self.factors)

    def smad_certificate(self):
        """L* = max(3 lambda_max(sum_i A_i^2), ||sum_i b_i A_i||) from one ``eigvalsh``.

        The pair comes from one Gram product: R^T R over the (m*d, d) row view
        R of a dense stack, or F^T diag(w) F for rank-one factors F, with
        w = ||a_i||^2 and w = b.
        """
        if self.factors is not None:
            F = self.factors
            weights = np.array([np.einsum("ij,ij->i", F, F), self.b])
            pair = F.T @ (weights[:, :, None] * F)
        else:
            rows = self.matrices.reshape(-1, self.d)
            pair = np.array([rows.T @ rows, np.tensordot(self.b, self.matrices, 1)])
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
    """Residuals x^T A_i x - b_i and the products they are built from.

    Batched over the leading axes of x.  Rank-one instances give the products
    a_i^T x, shape (..., m).  Dense instances give A_i x, shape (..., m, d),
    from one BLAS product of x with the (m*d, d) row view of the stack: row
    (i, j) of that view is A_i[j].
    """
    if inst.factors is not None:
        ax = x @ inst.factors.T
        return ax * ax - inst.b, ax
    Ax = (x @ inst.matrices.reshape(-1, inst.d).T).reshape(*x.shape[:-1], inst.m, inst.d)
    return (Ax @ x[..., None])[..., 0] - inst.b, Ax


def qip_value(inst, x):
    """The smooth data-fit value g(x) = 1/4 sum_i (x^T A_i x - b_i)^2."""
    x = _check_point(inst, x)
    r, _ = _residuals(inst, x)
    return 0.25 * np.sum(r * r, axis=-1)


def qip_gradient(inst, x):
    """Analytic gradient sum_i (x^T A_i x - b_i) A_i x (each A_i symmetric)."""
    x = _check_point(inst, x)
    r, ax = _residuals(inst, x)
    if inst.factors is not None:
        return (r * ax) @ inst.factors
    return (r[..., None, :] @ ax)[..., 0, :]


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
    order = np.argsort(-np.abs(y), kind="stable")
    out = np.zeros_like(y)
    keep = order[:s]
    out[keep] = y[keep]
    return out


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
    nv = float(np.linalg.norm(v))
    eta = cubic_root_l0(nv)
    return -(eta / nv if nv > 0 else 1.0) * v


def prox_l1(p, lam_theta):
    """Bregman proximal step for the l1 penalty under the quartic kernel.

    Given the driver p = lam*grad g(x) - grad h(x) and the effective weight
    lam*theta, the exact global minimizer of

        lam*theta*||u||_1 + <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2

    is (grad h)^{-1}(-S(p)) = -(eta / ||S(p)||) S(p), with S the soft
    threshold at lam*theta and eta^3 + eta = ||S(p)||.
    """
    if not lam_theta >= 0:
        raise ValueError(f"threshold must be nonnegative, got {lam_theta}")
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


def _f_value(inst):
    reg = inst.regularizer
    if isinstance(reg, L1):
        theta = reg.theta
        return lambda x: theta * float(np.sum(np.abs(x)))
    s = reg.s
    return lambda x: 0.0 if np.count_nonzero(x) <= s else np.inf


def make_problem(inst, kernel, L=None):
    """Bind a QIP instance and the quartic kernel into a solver-ready Problem.

    The quartic-plus-quadratic kernel is the only pairing with a certificate
    for quadratic measurements, so any other kernel is rejected.  The
    adaptability constant is the instance's certified L* (source
    ``qip-gram``, see :meth:`QipInstance.smad_certificate`) unless a user L
    is supplied.
    """
    if kernel.dimension != inst.d:
        raise ValueError(f"kernel dimension {kernel.dimension} != instance dimension {inst.d}")
    if kernel.kind != QUARTIC_PLUS_QUADRATIC:
        raise ValueError(f"kernel {kernel.kind!r} carries no certificate for quadratic "
                         "measurements; use the quartic kernel")
    reg = inst.regularizer
    cert = SmadCertificate(L=float(L), source="user-supplied") if L is not None \
        else inst.smad_certificate()
    if isinstance(reg, L1):
        def prox_map(x, lam):
            return prox_l1(p_lambda(inst, kernel, lam, x), lam * reg.theta)
    else:
        def prox_map(x, lam):
            return prox_l0(p_lambda(inst, kernel, lam, x), reg.s)

    return Problem(
        g_value=lambda x: qip_value(inst, x),
        g_gradient=lambda x: qip_gradient(inst, x),
        prox_map=prox_map,
        f_value=_f_value(inst),
        kernel=kernel,
        smad=cert,
        psi_lower_bound=0.0,
    )
