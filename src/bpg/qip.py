"""Sparse quadratic inverse problems and their closed-form Bregman prox maps.

The smooth data term is g(x) = 1/4 * sum_i (x^T A_i x - b_i)^2 for symmetric
measurement matrices A_i.  Dense instances keep each A_i once, as its packed
lower triangle, and evaluate g from one BLAS matrix-vector product of the
(m, d(d+1)/2) packed stack with the pair products x_j x_k; the gradient
unpacks sum_i r_i A_i from one product of the residuals with the same stack.
Rank-one instances A_i = a_i a_i^T use the m inner products a_i^T x.
:func:`qip_oracle` gives g and grad g from one residual pass, once per solver
step; an instance keeps no state but its data, in read-only arrays that no
caller can write.

Under the paper's kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 the Bregman step is
explicit for an l1 penalty and an l0-ball constraint, and both are one map:
threshold the driver p = lam * grad g(x) - grad h(x) to v = S(p) or H_s(p),
then return (grad h)^{-1}(-v) = -t v, t the root of ||v||^2 t^3 + t = 1.

The certified adaptability constant (source ``qip-gram``) is
L* = max(3*lam, beta), lam = lambda_max(sum_i A_i^2), beta = ||sum_i b_i A_i||:
hess h(x) >= (1 + ||x||^2) I, and Cauchy-Schwarz gives |u^T hess g(x) u| <=
(3*lam*||x||^2 + beta) ||u||^2.  It never exceeds the paper's
sum_i (3*||A_i||^2 + ||A_i||*|b_i|).
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# the cubics are re-exported: the benchmark's tracer looks them up here
from .kernels import Kernel, _dot, _point, _radial_step, cubic_root_l0, cubic_root_l1  # noqa: F401
from .smad import QIP_GRAM, SmadCertificate, check_symmetric
from .solver import Problem

# Matrices unpacked per block of the certificate's Gram product: the whole
# (m, d, d) stack is 8.4 MB at d=64, m=256, twice the packed rows, and would
# set the peak memory of an instance's set-up.
_GRAM_BLOCK = 16


@dataclass(frozen=True)
class L1:
    """l1-norm penalty theta * ||x||_1 with weight theta > 0, stored as a float."""

    theta: float

    def __post_init__(self):
        theta = self.theta
        if not isinstance(theta, numbers.Real) or type(theta) is bool:
            raise ValueError(f"expected a number, got {theta!r}")
        if isinstance(theta, numbers.Integral) and abs(theta) > sys.float_info.max:  # float() would overflow
            raise ValueError(f"{theta} is past the float64 range")
        object.__setattr__(self, "theta", float(theta))
        if not (self.theta > 0 and math.isfinite(self.theta)):
            raise ValueError(f"l1 weight must be positive and finite, got {self.theta}")

    def value(self, x):
        return self.theta * float(np.add.reduce(np.abs(x), None))

    def prox(self, p, lam):  # prox_l1 on the solver's driver, which needs no checks
        return _radial_step(_shrink(p, lam * self.theta))


@dataclass(frozen=True)
class L0Ball:
    """Constraint ||x||_0 <= s for a positive integer s < d."""

    s: int

    def __post_init__(self):
        if not (isinstance(self.s, numbers.Integral) and type(self.s) is not bool and self.s >= 1):
            raise ValueError(f"sparsity level must be a positive integer, got {self.s}")

    def value(self, x):
        return 0.0 if np.count_nonzero(x) <= self.s else np.inf

    def prox(self, p, lam):  # prox_l0; QipInstance checks s < d
        return _radial_step(_keep_largest(p, self.s))


def _check_sparsity(regularizer, d):
    """An l0 ball on R^d must leave a coordinate out: s < d (``L0Ball`` checks s >= 1)."""
    if isinstance(regularizer, L0Ball) and not regularizer.s < d:
        raise ValueError(f"l0 sparsity level must satisfy 1 <= s < d, got s={regularizer.s}, d={d}")


def _read_only(a):
    """a as a read-only C-ordered float64 array that no caller can write: a itself
    where an immutable ``bytes`` object owns its memory (a loaded instance
    file), else a copy, as of any caller's array or of a view of one."""
    base = a.base if type(a) is np.ndarray else None
    while isinstance(base, np.ndarray):
        base = base.base
    if not (isinstance(base, bytes) and a.dtype == np.float64 and a.flags.c_contiguous):
        a = np.array(a, dtype=float, order="C")
    a.flags.writeable = False
    return a


def _check_finite(a, name):
    # min and max propagate NaN, and unlike isfinite(a) make no temporary the size of a
    if not (math.isfinite(a.min(initial=0.0)) and math.isfinite(a.max(initial=0.0))):
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
    ``b``, ``lower`` and ``factors`` are read-only: copies of the caller's data,
    or the data itself where an immutable ``bytes`` object holds it (a loaded file).
    """

    def __init__(self, b, regularizer, matrices=None, factors=None, lower=None):
        if sum(a is not None for a in (matrices, factors, lower)) != 1:
            raise ValueError("provide exactly one of matrices=, lower= or factors=")
        self.b = _read_only(b)
        if self.b.ndim != 1 or self.b.size < 1:
            raise ValueError(f"b must be a nonempty vector, got shape {self.b.shape}")
        _check_finite(self.b, "b")
        self.lower = self.factors = None
        if factors is not None:
            factors = _read_only(factors)
            if factors.ndim != 2 or factors.shape[1] < 1:
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
                # a new C-ordered array that no caller holds, so it is frozen, not copied
                tri = np.tri(matrices.shape[1], dtype=bool).ravel()  # in np.tril_indices order
                lower = matrices.reshape(len(matrices), tri.size).compress(tri, axis=1)
                lower.flags.writeable = False
            else:  # a matrices= stack is checked whole above
                lower = _read_only(lower)
                _check_finite(lower, "matrices")
            n = lower.shape[1] if lower.ndim == 2 else 0
            d = (math.isqrt(8 * n + 1) - 1) // 2
            if n < 1 or d * (d + 1) // 2 != n:
                raise ValueError(f"lower must have shape (m, d(d+1)/2), got {lower.shape}")
            m = lower.shape[0]
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
        _check_sparsity(regularizer, d)
        self.regularizer = regularizer
        self.d = d
        self.m = m

    def smad_certificate(self):
        """L* = max(3 lambda_max(sum_i A_i^2), ||sum_i b_i A_i||) from one ``eigvalsh``.

        The pair comes from one Gram product: R^T R over the (m*d, d) rows R
        of the dense stack, summed over blocks of ``_GRAM_BLOCK`` unpacked
        matrices, or F^T diag(w) F for rank-one factors F, with
        w = ||a_i||^2 and w = b.  sum_i b_i A_i is b @ lower, unpacked.
        """
        try:
            with np.errstate(over="raise", invalid="raise"):  # not under: tiny data is no overflow
                if self.factors is not None:
                    F = self.factors
                    weights = np.array([np.einsum("ij,ij->i", F, F), self.b])
                    pair = F.T @ (weights[:, :, None] * F)
                else:
                    squares = np.zeros((self.d, self.d))
                    for i in range(0, self.m, _GRAM_BLOCK):
                        rows = self.lower[i:i + _GRAM_BLOCK].take(self._unpack, axis=1).reshape(-1, self.d)
                        squares += rows.T @ rows
                    pair = np.array([squares, (self.b @ self.lower).take(self._unpack)])
                gram, data = np.linalg.eigvalsh(pair).tolist()
        except (FloatingPointError, np.linalg.LinAlgError):
            raise ValueError("the measurement data overflow float64 in the certificate") from None
        L = max(3.0 * gram[-1], -data[0], data[-1])
        if not L > 0:
            raise ValueError("instance has only zero measurement matrices")
        return SmadCertificate(L=L, source=QIP_GRAM)


def _residuals(inst, x):
    """Residuals x^T A_i x - b_i over the leading axes of x, and the rank-one
    products a_i^T x (dense: None); dense pair products x_j x_k weigh 2 off the
    diagonal, on one path for a point and a batch.  Rank-one instances take
    ``ndarray.dot`` for one point: ``@`` gives its bits, but made a 2.3 us oracle
    call at d=8, m=16 take 2.9 us (2-core VM), 4% of a solver iteration."""
    if inst.factors is not None:
        ax = x.dot(inst.factors.T) if x.ndim == 1 else x @ inst.factors.T
        return ax * ax - inst.b, ax
    rows, cols = inst._pairs
    w = x.take(rows, axis=-1) * x.take(cols, axis=-1) * inst._weight
    return w @ inst.lower.T - inst.b, None


def qip_oracle(inst, x):
    """(g(x), grad g(x)) from one residual pass; dense instances ``take`` a C-ordered
    S = sum_i r_i A_i from the packed row r @ lower, and grad g(x) = S x, one BLAS product."""
    x = _point(x, inst.d, "instance")
    r, ax = _residuals(inst, x)
    if inst.factors is not None:
        grad = (r * ax).dot(inst.factors) if x.ndim == 1 else (r * ax) @ inst.factors
    else:
        S = (r @ inst.lower).take(inst._unpack, axis=-1)
        grad = (S @ x[..., None])[..., 0]
    return 0.25 * _dot(r, r), grad


def qip_value(inst, x):
    """The smooth data-fit value g(x) = 1/4 sum_i (x^T A_i x - b_i)^2."""
    r = _residuals(inst, _point(x, inst.d, "instance"))[0]
    return 0.25 * _dot(r, r)


def qip_gradient(inst, x):
    """Analytic gradient sum_i (x^T A_i x - b_i) A_i x (each A_i symmetric)."""
    return qip_oracle(inst, x)[1]


def p_lambda(inst, kernel, lam, x):
    """The prox input p = lam * grad g(x) - grad h(x) from x; the solver forms p itself."""
    if not lam > 0:
        raise ValueError(f"step size must be positive, got {lam}")
    return lam * qip_gradient(inst, x) - kernel.gradient(x)


def soft_threshold(y, tau):
    """Componentwise shrinkage max(|y| - tau, 0) * sgn(y)."""
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return _shrink(np.asarray(y, dtype=float), tau)


def _shrink(y, tau):
    return np.sign(y) * np.maximum(np.abs(y) - tau, 0.0)


def hard_threshold(y, s):
    """Keep the s largest-magnitude entries of y, zero the rest.

    Ties are broken toward the lowest index so the selection is deterministic.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("hard_threshold expects a single vector")
    if not (isinstance(s, numbers.Integral) and type(s) is not bool and 1 <= s <= y.size):
        raise ValueError(f"sparsity level must be an integer with 1 <= s <= {y.size}, got {s}")
    return _keep_largest(y, s)


def _keep_largest(y, s):
    keep = (-np.abs(y)).argsort(kind="stable")[:s]
    out = np.zeros(y.shape)
    out[keep] = y[keep]
    return out


def prox_l1(p, lam_theta):
    """Bregman proximal step for the l1 penalty under the quartic kernel.

    Given the driver p = lam*grad g(x) - grad h(x) and the effective weight
    lam*theta, the exact global minimizer of

        lam*theta*||u||_1 + <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2

    is (grad h)^{-1}(-S(p)) = -t S(p), with S the soft threshold at lam*theta
    and t = cubic_root_l1(||S(p)||^2).
    """
    return _radial_step(soft_threshold(p, lam_theta))


def prox_l0(p, s):
    """Bregman proximal step for the l0-ball constraint under the quartic kernel.

    Globally minimizes <p, u> + 1/4 ||u||^4 + 1/2 ||u||^2 over ||u||_0 <= s.
    The minimizer is (grad h)^{-1}(-H_s(p)) = -t H_s(p), with H_s the hard
    threshold and t = cubic_root_l1(||H_s(p)||^2).
    """
    p = np.asarray(p, dtype=float)
    if not 1 <= s < p.size:
        raise ValueError(f"require 1 <= s < d, got s={s}, d={p.size}")
    return _radial_step(hard_threshold(p, s))


def make_problem(inst, kernel=None):
    """Bind a QIP instance and the quartic kernel into a solver-ready Problem.

    It builds ``Kernel.quartic(inst.d)``, the paper's kernel and the only one
    certified for quadratic measurements; a ``kernel`` passed in must be that
    one.  L is the certified L* (source ``qip-gram``) of ``smad_certificate``.
    """
    if kernel is None:
        kernel = Kernel.quartic(inst.d)
    elif type(kernel) is not Kernel or kernel.dimension != inst.d:  # not Kernel.quartic(inst.d)
        raise ValueError(f"make_problem needs Kernel.quartic({inst.d}), the kernel "
                         f"1/4 ||x||^4 + 1/2 ||x||^2 on R^{inst.d} that L* certifies; "
                         f"got {kernel!r}")
    return Problem(
        g_oracle=lambda x: qip_oracle(inst, x),
        prox_map=inst.regularizer.prox,
        f_value=inst.regularizer.value,
        kernel=kernel,
        smad=inst.smad_certificate(),
        psi_lower_bound=0.0,
    )
