"""Bregman proximal gradient iteration engine with guarantee monitoring.

:func:`run_bpg` iterates x+ = prox_map(p, lam) on the driver
p = lam * grad g(x) - grad h(x), with a constant step 0 < lam * L < 1 and its
inputs checked once.  A step makes one ``g_oracle`` call (g and grad g at x+)
and one ``kernel.step_terms`` call, and forms the next driver.  Every step is
checked against the sufficient-decrease inequality

    lam * Psi(x+) <= lam * Psi(x) - (1 - lam*L) * D_h(x+, x),

a violation of which signals a wrong adaptability constant, a wrong prox map,
or numerical breakdown, and aborts the run.  Every iterate must pass the
divergence guard on the kernel's ||x||^2 before the oracle sees it, and every
driver must be finite; the run sets numpy's floating-point state itself, so an
overflow is an inf or NaN for these checks, whatever the caller's warning
filters, and a norm sqrt(v.dot(v)) whose square sum overflows is an inf.  The
witness (p+ - p) / lam = grad g(x+) - grad g(x) + (grad h(x) - grad h(x+)) / lam
is a subgradient of Psi at x+.  The trace records Psi, D_h, the step norm and
the witness norm.
"""

import csv
import math
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import _check_finite, _integer, _real

DIVERGENCE_NORM = 1e12
DECREASE_SLACK = 1e-8

STEP_TOLERANCE = "step_tolerance"
RESIDUAL_TOLERANCE = "residual_tolerance"
MAX_ITERS = "max_iters"


class DecreaseViolationError(RuntimeError):
    """The sufficient-decrease inequality failed beyond tolerance."""


class DivergenceError(RuntimeError):
    """An iterate became non-finite or exceeded the divergence guard."""


@dataclass
class Problem:
    """A composite instance: smooth part, prox map, nonsmooth value, geometry.

    ``g_oracle(x)`` returns (g(x), grad g(x)), the gradient a float array.
    ``prox_map(p, lam)`` takes the vector p = lam * grad g(x) - grad h(x) and
    returns one (deterministic) minimizer of lam * f(u) + <p, u> + h(u), the
    step T_lam(x), finite and feasible (``f_value`` is finite there).  The
    step calls ``kernel.step_terms``; ``psi_lower_bound`` bounds Psi below.
    """

    g_oracle: Callable
    prox_map: Callable
    f_value: Callable
    kernel: object
    smad: object
    psi_lower_bound: float = 0.0

    def g_gradient(self, x):
        return self.g_oracle(x)[1]


@dataclass
class BpgConfig:
    """Run parameters.  ``lam=None`` selects the default step 0.99 / L.

    The stopping rule is relative: stop once the step norm falls below
    ``tol_step * (1 + ||x_k||)``, or when the witness norm falls below
    ``tol_residual`` if one is given, or at ``max_iters``.
    """

    x0: np.ndarray
    lam: Optional[float] = None
    max_iters: int = 100_000
    tol_step: float = 1e-9
    tol_residual: Optional[float] = None
    keep_iterates: bool = False

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.ndim != 1:
            raise ValueError(f"starting point x0 must be a vector, got shape {self.x0.shape}")
        _check_finite(self.x0, "starting point must be finite")
        _integer(self.max_iters, "max_iters", 0)
        if not _real(self.tol_step, "tol_step") >= 0:
            raise ValueError(f"tol_step must be nonnegative, got {self.tol_step}")
        if self.tol_residual is not None and not _real(self.tol_residual, "tol_residual") >= 0:
            raise ValueError(f"tol_residual must be nonnegative, got {self.tol_residual}")


def resolve_step(config_lam, L):
    """Return the actual step size, enforcing 0 < lam * L < 1."""
    lam = 0.99 / L if config_lam is None else _real(config_lam, "step size lam")
    if not (lam > 0 and lam * L < 1):
        raise ValueError(f"step size must satisfy 0 < lam*L < 1; got lam={lam}, L={L}, lam*L={lam * L}")
    return lam


class IterateTrace:
    """Per-iteration solve record.

    Row k holds Psi(x_k), D_h(x_k, x_{k-1}), ||x_k - x_{k-1}||, the witness
    norm ||w_k|| and elapsed wall-clock seconds, stored with k as six doubles.
    Row 0 describes the start: gaps are zero and the witness norm is NaN.
    """

    COLUMNS = ("k", "psi", "dh_gap", "step_norm", "witness_norm", "elapsed_s")

    def __init__(self):
        self._values = array("d")

    def append(self, k, psi, dh_gap, step_norm, witness_norm, elapsed_s):
        self._values.fromlist([k, psi, dh_gap, step_norm, witness_norm, elapsed_s])

    def __len__(self):
        return len(self._values) // len(self.COLUMNS)

    def column(self, name):
        i = self.COLUMNS.index(name)
        return np.array(self._values[i::len(self.COLUMNS)])

    psi = property(lambda self: self.column("psi"))
    dh_gap = property(lambda self: self.column("dh_gap"))
    step_norm = property(lambda self: self.column("step_norm"))
    witness_norm = property(lambda self: self.column("witness_norm"))
    elapsed_s = property(lambda self: self.column("elapsed_s"))

    def to_csv(self, path):
        """Write every column but the wall clock as CSV.

        Identical runs write byte-identical files; the timings stay in
        ``elapsed_s``.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS[:-1])
            for k, *values, _ in zip(*[iter(self._values)] * len(self.COLUMNS)):  # row by row
                writer.writerow([int(k), *map(repr, values)])


@dataclass
class SolveResult:
    x: np.ndarray
    trace: IterateTrace
    reason: str
    iterates: Optional[np.ndarray] = None

    @property
    def iterations(self):
        return len(self.trace) - 1

    @property
    def final_psi(self):
        return self.trace.psi[-1]

    @property
    def final_witness_norm(self):
        return self.trace.witness_norm[-1]

    def summary(self):
        """JSON-ready fields; the witness norm is None before the first step."""
        return {
            "termination": self.reason,
            "iterations": int(self.iterations),
            "final_psi": float(self.final_psi),
            "final_witness_norm": float(self.final_witness_norm) if self.iterations else None,
        }


def _check_decrease(lam, L, psi_x, psi_new, dh):
    if psi_x == math.inf:  # vacuous only for the step out of an infeasible start onto a finite Psi
        if psi_new < math.inf:
            return
        raise DecreaseViolationError("Psi stayed +inf after a step: the step missed dom f, or g overflows")
    slack = lam * DECREASE_SLACK * (1.0 + abs(psi_x))  # at the scale of each side
    # negated, so that a NaN on either side (or in D_h) is a violation too
    if not lam * psi_new <= lam * psi_x - (1.0 - lam * L) * dh + slack:
        raise DecreaseViolationError(
            f"sufficient decrease violated: lam*Psi(x+)={lam * psi_new:.6e} is not <= "
            f"lam*Psi(x)-(1-lam*L)*D_h={lam * psi_x - (1.0 - lam * L) * dh:.6e} "
            f"(lam={lam}, L={L}); check the adaptability constant and the prox map"
        )


def _check_lower_bound(problem, psi, name):
    bound = problem.psi_lower_bound
    if not psi >= bound - DECREASE_SLACK * (1.0 + abs(bound)):
        raise ValueError(
            f"{name}={psi:.6e} is NaN or below the declared lower bound {bound:.6e}; "
            f"the bound or the problem data is wrong"
        )


def _norm(v):
    """sqrt(v.dot(v)); under ``run_bpg``'s errstate a square sum that overflows is an inf."""
    return math.sqrt(v.dot(v))


def _guard_iterate(sq):  # returns ||x|| from the kernel's ||x||^2
    if not (n := math.sqrt(sq)) <= DIVERGENCE_NORM:
        raise DivergenceError(f"iterate norm {n:.3e} is not finite or exceeds {DIVERGENCE_NORM:.0e}")
    return n


def run_bpg(problem, config):
    """Iterate x+ = T_lam(x) from ``config.x0`` until a stopping rule fires; returns a SolveResult.

    One step from x is ``run_bpg(problem, BpgConfig(x0=x, lam=lam, max_iters=1,
    tol_step=0.0))``.  Raises ValueError unless 0 < lam*L < 1, where Psi(x0)
    is NaN, and where a Psi is below ``problem.psi_lower_bound``.  Raises
    :class:`DivergenceError` where an iterate, the start included, is past the
    guard, or a driver or witness norm is not finite (grad g overflows); and
    :class:`DecreaseViolationError` where a step breaks the decrease inequality,
    a non-finite Psi(x+) included: it is vacuous only for a step from Psi = +inf
    (an infeasible x) onto a finite Psi.  ``max_iters`` is a reason, not an error.
    """
    L = problem.smad.L
    lam = resolve_step(config.lam, L)
    with np.errstate(all="ignore"):  # an overflow is an inf or NaN, which the checks catch
        x = config.x0.copy()
        grad_h, sq, _, _ = problem.kernel.step_terms(x, x, np.zeros_like(x), 0.0)
        _guard_iterate(sq)
        g, grad = problem.g_oracle(x)
        if not _norm(p := lam * grad - grad_h) < math.inf:  # the driver; a witness is (p+ - p) / lam
            raise DivergenceError("the driver lam*grad g - grad h is not finite: g overflows at the start")
        psi = float(problem.f_value(x)) + float(g)
        _check_lower_bound(problem, psi, "Psi(x0)")

        trace = IterateTrace()
        trace.append(0, psi, 0.0, 0.0, math.nan, 0.0)
        iterates = [x.copy()] if config.keep_iterates else None
        t0 = time.perf_counter()
        reason = MAX_ITERS

        for k in range(1, config.max_iters + 1):
            x_new = np.asarray(problem.prox_map(p, lam), dtype=float)
            grad_h, sq, uu, dh = problem.kernel.step_terms(x_new, x, x_new - x, sq)
            norm = _guard_iterate(sq)
            g, grad = problem.g_oracle(x_new)
            psi_new = float(problem.f_value(x_new)) + float(g)
            _check_decrease(lam, L, psi, psi_new, dh := float(dh))
            _check_lower_bound(problem, psi_new, "Psi(x+)")
            p_new = lam * grad - grad_h
            wnorm, step_norm = _norm(p_new - p) / lam, math.sqrt(uu)
            if not wnorm < math.inf:  # before the next prox, which needs a finite driver
                raise DivergenceError(f"witness norm {wnorm} at iterate {k}: grad g or (p+ - p)/lam overflow")
            x, psi, p = x_new, psi_new, p_new
            trace.append(k, psi, dh, step_norm, wnorm, time.perf_counter() - t0)
            if iterates is not None:
                iterates.append(x.copy())
            if step_norm <= config.tol_step * (1.0 + norm):
                reason = STEP_TOLERANCE
                break
            if config.tol_residual is not None and wnorm <= config.tol_residual:
                reason = RESIDUAL_TOLERANCE
                break

    return SolveResult(x, trace, reason, np.array(iterates) if iterates is not None else None)


def min_gap_bound(trace, lam, L, psi_lower_bound, n=None):
    """Observed min Bregman gap over the first n steps vs. its theoretical bound.

    The bound is lam * (Psi(x0) - psi_lower_bound) / (n * (1 - lam*L)); using
    any valid lower bound in place of the optimal value only loosens it.  The
    step is checked as ``run_bpg`` checks it: 0 < lam*L < 1 (None is 0.99 / L).
    """
    lam = resolve_step(lam, L)
    if len(trace) < 2:
        raise ValueError("trace has no completed iterations")
    gaps = trace.dh_gap[1:]
    n = len(gaps) if n is None else _integer(n, "n", 1, len(gaps))
    observed = float(np.min(gaps[:n]))
    bound = lam * (trace.psi[0] - psi_lower_bound) / (n * (1.0 - lam * L))
    return observed, float(bound)

