"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the library's computational paths: the dense
quadratic-measurement oracle contracts the full (m, d, d) stack with einsum,
spectral norms come from a dense eigendecomposition, adaptability constants from sums over
the measurement matrices rather than a Gram product, scalar roots from plain
bisection, and prox maps from grid refinement / support enumeration on the
defining objectives.  The kernel forms below are the exception: they are
written with numpy's ``np.sum`` and ``np.linalg.norm`` wrappers, and the
library's per-iteration code, which calls the ufuncs directly, must match
them bit for bit.
"""

from itertools import combinations

import numpy as np


def einsum_qip_value(matrices, b, x):
    """g(x) = 1/4 sum_i (x^T A_i x - b_i)^2 over the full stack, batched over x."""
    r = np.einsum("...j,ijk,...k->...i", x, matrices, x) - b
    return 0.25 * np.einsum("...i,...i->...", r, r)


def einsum_qip_gradient(matrices, b, x):
    """grad g(x) = sum_i (x^T A_i x - b_i) A_i x over the full stack, batched over x."""
    Ax = np.einsum("ijk,...k->...ij", matrices, x)
    r = np.einsum("...j,...ij->...i", x, Ax) - b
    return np.einsum("...i,...ij->...j", r, Ax)


def eig_spectral_norm(A):
    return float(np.max(np.abs(np.linalg.eigvalsh(np.asarray(A, dtype=float)))))


def paper_qip_constant(matrices, b):
    """The paper's adaptability constant sum_i (3 ||A_i||^2 + ||A_i|| |b_i|)."""
    norms = [eig_spectral_norm(A) for A in matrices]
    return sum(3.0 * nu**2 + nu * abs(float(bi)) for nu, bi in zip(norms, b))


def eig_qip_gram_constant(matrices, b):
    """L* = max(3 lambda_max(sum_i A_i^2), ||sum_i b_i A_i||), summed term by term."""
    mats = [np.asarray(A, dtype=float) for A in matrices]
    squares = sum(A @ A for A in mats)
    data = sum(float(bi) * A for A, bi in zip(mats, b))
    return max(3.0 * eig_spectral_norm(squares), eig_spectral_norm(data))


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sum_kernel_value(x):
    """h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 along the last axis."""
    sq = np.sum(x * x, axis=-1)
    return 0.25 * sq * sq + 0.5 * sq


def sum_kernel_gradient(x):
    """grad h(x) = (||x||^2 + 1) x along the last axis."""
    return (np.sum(x * x, axis=-1, keepdims=True) + 1.0) * x


def sum_kernel_bregman(x, y):
    """D_h(x, y) = h(x) - h(y) - <grad h(y), x - y> along the last axis."""
    return (sum_kernel_value(x) - sum_kernel_value(y)
            - np.sum(sum_kernel_gradient(y) * (x - y), axis=-1))


class EnergyKernel:
    """h(x) = 1/2 ||x||^2, for solver tests in Euclidean geometry.

    The solver takes any kernel with ``value``, ``gradient`` and ``bregman``;
    under this one D_h(x, y) = ||x - y||^2 / 2 and the Bregman step is a
    plain gradient step.  ``make_problem`` rejects it.
    """

    def value(self, x):
        return 0.5 * np.sum(x * x, axis=-1)

    def gradient(self, x):
        return np.array(x, dtype=float)

    def bregman(self, x, y):
        return 0.5 * np.sum((x - y) ** 2, axis=-1)


def linalg_norm(v):
    """||v|| of one vector, from numpy's own norm."""
    return float(np.linalg.norm(v))


def fd_gradient(func, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (func(x + e) - func(x - e)) / (2.0 * h)
    return g


def grid_minimize(obj, d, radius, center=None, rounds=12, pts=15):
    """Iteratively refined grid search; ``obj`` must accept (n, d) batches."""
    center = np.zeros(d) if center is None else np.asarray(center, dtype=float)
    r = float(radius)
    best_x, best_f = center.copy(), float(obj(center[None])[0])
    for _ in range(rounds):
        axes = [np.linspace(center[i] - r, center[i] + r, pts) for i in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        vals = np.asarray(obj(grid))
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_f, best_x = float(vals[i]), grid[i].copy()
        center = grid[i]
        r = 4.0 * r / (pts - 1)  # window of ~2 grid cells around the best point
    return best_x, best_f


def l1_prox_objective(p, lam_theta):
    p = np.asarray(p, dtype=float)

    def obj(u):
        u = np.atleast_2d(u)
        sq = np.sum(u * u, axis=1)
        return (lam_theta * np.sum(np.abs(u), axis=1) + u @ p
                + 0.25 * sq * sq + 0.5 * sq)

    return obj


def l0_prox_objective(p):
    p = np.asarray(p, dtype=float)

    def obj(u):
        u = np.atleast_2d(u)
        sq = np.sum(u * u, axis=1)
        return u @ p + 0.25 * sq * sq + 0.5 * sq

    return obj


def grid_prox_l1(p, lam_theta, rounds=14, pts=15):
    p = np.asarray(p, dtype=float)
    radius = 1.0 + np.cbrt(np.linalg.norm(p))
    x, _ = grid_minimize(l1_prox_objective(p, lam_theta), p.size, radius,
                         rounds=rounds, pts=pts)
    return x


def enum_prox_l0(p, s, rounds=14, pts=15):
    """Enumerate all supports of size <= s; grid-refine each restricted problem."""
    p = np.asarray(p, dtype=float)
    d = p.size
    best_x, best_f = np.zeros(d), 0.0  # u = 0 is always feasible
    for size in range(1, s + 1):
        for S in combinations(range(d), size):
            S = list(S)
            pS = p[S]

            def obj(u):
                u = np.atleast_2d(u)
                sq = np.sum(u * u, axis=1)
                return u @ pS + 0.25 * sq * sq + 0.5 * sq

            radius = 1.0 + np.cbrt(np.linalg.norm(pS))
            uS, f = grid_minimize(obj, size, radius, rounds=rounds, pts=pts)
            if f < best_f:
                best_f = f
                best_x = np.zeros(d)
                best_x[S] = uS
    return best_x


def enum_truncation_max(a, s):
    """Exhaustive support enumeration for max <a, z> over sparse unit vectors."""
    a = np.asarray(a, dtype=float)
    best = -np.inf
    for S in combinations(range(a.size), s):
        v = float(np.linalg.norm(a[list(S)]))
        best = max(best, v)
    return best
