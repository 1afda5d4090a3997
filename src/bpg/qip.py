"""Sparse quadratic inverse problems and their closed-form Bregman prox maps.

The smooth data term is g(x) = 1/4 * sum_i (x^T A_i x - b_i)^2 for symmetric
measurement matrices A_i.  Dense instances evaluate it from one BLAS
matrix-vector product that gives every A_i x at once; rank-one instances
A_i = a_i a_i^T from the m inner products a_i^T x.  Paired with the
quartic-plus-quadratic kernel, the Bregman proximal step has an explicit
solution for both an l1 penalty and an l0-ball (sparsity) constraint; each
reduces to a thresholding operation plus a scalar cubic root, which the prox
solves by a safeguarded Newton loop on Python floats.

The certified adaptability constant (source ``qip-gram``) is
L* = max(3*lam, beta), lam = lambda_max(sum_i A_i^2), beta = ||sum_i b_i A_i||:
hess h(x) >= (1 + ||x||^2) I, and Cauchy-Schwarz gives |u^T hess g(x) u| <=
(3*lam*||x||^2 + beta) ||u||^2.  It never exceeds the paper's
sum_i (3*||A_i||^2 + ||A_i||*|b_i|).
"""

import math
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
        if int(self.s) != self.s or self.s < 1:
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
    if tau < 0:
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
    if not 1 <= s <= y.size:
        raise ValueError(f"sparsity level must satisfy 1 <= s <= {y.size}, got {s}")
    order = np.argsort(-np.abs(y), kind="stable")
    out = np.zeros_like(y)
    keep = order[:s]
    out[keep] = y[keep]
    return out


def _scalar_newton(c, f, fprime, lo, hi, t, tol, max_iters=80):
    """Safeguarded Newton on Python floats: ``_safeguarded_newton`` for one element."""
    for _ in range(max_iters):
        r = f(c, t)
        if abs(r) <= tol:
            break
        if r < 0:
            lo = t
        elif r > 0:
            hi = t
        cand = t - r / fprime(c, t)
        t = cand if math.isfinite(cand) and lo < cand < hi else 0.5 * (lo + hi)
    return t


def _safeguarded_newton(coeff, f, fprime, lo, hi, t0, tol_scale, max_iters=80):
    """Vectorized Newton with bisection fallback on a per-element bracket.

    ``f``/``fprime`` take (coeff, t) arrays, and ``lo``/``hi`` broadcast
    against them; the root is assumed unique in [lo, hi] with
    f(lo) <= 0 <= f(hi) and fprime >= 1.  An element stops
    moving once its residual is within tolerance, so each root is the one
    ``_scalar_newton`` returns for that coefficient alone, bit for bit.
    """
    t = t0
    for _ in range(max_iters):
        r = f(coeff, t)
        done = np.abs(r) <= tol_scale
        if np.all(done):
            break
        lo = np.where(r < 0, t, lo)
        hi = np.where(r > 0, t, hi)
        cand = t - r / fprime(coeff, t)
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        t = np.where(done, t, np.where(bad, 0.5 * (lo + hi), cand))
    return t


def _cubic_root(c, f, fprime, bracket):
    """The root t in [0, hi] of f(c, t) = 0, where (hi, t0) = bracket(c).

    A scalar coefficient runs the Newton loop on Python floats from the start
    t0; an array runs the vectorized loop.  Both take the bracket from numpy's
    cbrt and stop at the residual tolerance 1e-15 * (1 + c), so they agree bit
    for bit.
    """
    if isinstance(c, float) or np.ndim(c) == 0:
        c = float(c)
        if not (math.isfinite(c) and c >= 0):
            raise ValueError("coefficient must be finite and nonnegative")
        hi, t0 = bracket(c)
        return _scalar_newton(c, f, fprime, 0.0, float(hi), float(t0), 1e-15 * (1.0 + c))
    c = np.asarray(c, dtype=float)
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ValueError("coefficient must be finite and nonnegative")
    hi, t0 = bracket(c)
    return _safeguarded_newton(c, f, fprime, 0.0, hi, t0, 1e-15 * (1.0 + c))


def _l1_bracket(a):
    return 1.0, 1.0 / (1.0 + np.cbrt(a))


def _l0_bracket(c):
    cb = np.cbrt(c)
    return cb + 1.0, np.minimum(c, cb)


def cubic_root_l1(v_norm_sq):
    """Unique positive root t in (0, 1] of a*t^3 + t - 1 = 0, a = ||v||^2.

    Accepts a scalar or an array of coefficients.  Safeguarded Newton inside
    the analytic bracket [0, 1]; no closed-form cubic formula is used, to
    avoid cancellation for extreme coefficients.
    """
    return _cubic_root(
        v_norm_sq,
        lambda a, t: a * t * t * t + t - 1.0,
        lambda a, t: 3.0 * a * t * t + 1.0,
        _l1_bracket,
    )


def cubic_root_l0(c):
    """Unique nonnegative root eta of eta^3 + eta - c = 0 for c >= 0.

    Accepts a scalar or an array of coefficients; bracket [0, cbrt(c) + 1].
    """
    return _cubic_root(
        c,
        lambda c, t: t * t * t + t - c,
        lambda c, t: 3.0 * t * t + 1.0,
        _l0_bracket,
    )


def prox_l1(p, lam_theta):
    """Bregman proximal step for the l1 penalty under the quartic kernel.

    Given the driver p = lam*grad g(x) - grad h(x) and the effective weight
    lam*theta, the exact global minimizer of

        lam*theta*||u||_1 + <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2

    is -t* * S(p), with S the soft threshold at lam*theta and t* the positive
    root of t^3 ||S(p)||^2 + t - 1 = 0.
    """
    if lam_theta < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam_theta}")
    p = np.asarray(p, dtype=float)
    v = soft_threshold(p, lam_theta)
    t = cubic_root_l1(float(v @ v))
    return -t * v


def prox_l0(p, s):
    """Bregman proximal step for the l0-ball constraint under the quartic kernel.

    Globally minimizes <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2 over ||u||_0 <= s.
    The minimizer points along -H_s(p) (the linear term is minimized opposite
    p), with magnitude eta* solving eta^3 + eta = ||H_s(p)||.
    """
    p = np.asarray(p, dtype=float)
    if not 1 <= s < p.size:
        raise ValueError(f"require 1 <= s < d, got s={s}, d={p.size}")
    q = hard_threshold(p, s)
    nq = float(np.linalg.norm(q))
    if nq == 0.0:
        return np.zeros_like(p)
    eta = cubic_root_l0(nq)
    return -(eta / nq) * q


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
