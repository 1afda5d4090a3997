"""Bregman proximal gradient iteration engine with guarantee monitoring.

:func:`bpg_step` takes one step x+ = prox_map(x, lam), with a constant step
0 < lam * L < 1, and :func:`run_bpg` iterates it.  Every step is checked
against the sufficient-decrease inequality

    lam * Psi(x+) <= lam * Psi(x) - (1 - lam*L) * D_h(x+, x),

a violation of which signals a wrong adaptability constant, a wrong prox map,
or numerical breakdown, and aborts the run.  A step returns a :class:`Step`
record (x+, Psi(x+), grad g(x+), D_h(x+, x), witness), where the witness
w = grad g(x+) - grad g(x) + (grad h(x) - grad h(x+)) / lam is an explicit
subgradient of Psi at x+.  The per-iteration trace records Psi, the Bregman
gap, the step norm and the witness norm (the stationarity residual).
"""

import csv
import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

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

    ``prox_map(x, lam)`` must return one (deterministic) selection of the
    Bregman proximal gradient map, finite-valued and feasible, i.e.
    ``f_value`` is finite at its output.  ``psi_lower_bound`` is a known lower
    bound on the optimal value, used in the summability/min-gap bounds.
    """

    g_value: Callable
    g_gradient: Callable
    prox_map: Callable
    f_value: Callable
    kernel: object
    smad: object
    psi_lower_bound: float = 0.0

    def psi(self, x):
        return float(self.f_value(x)) + float(self.g_value(x))


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
        if not np.all(np.isfinite(self.x0)):
            raise ValueError("starting point must be finite")
        if not (isinstance(self.max_iters, numbers.Integral) and self.max_iters >= 0):
            raise ValueError(f"max_iters must be a nonnegative integer, got {self.max_iters!r}")
        if not self.tol_step >= 0:
            raise ValueError(f"tol_step must be nonnegative, got {self.tol_step}")
        if self.tol_residual is not None and not self.tol_residual >= 0:
            raise ValueError(f"tol_residual must be nonnegative, got {self.tol_residual}")


def resolve_step(config_lam, L):
    """Return the actual step size, enforcing 0 < lam * L < 1."""
    lam = 0.99 / L if config_lam is None else float(config_lam)
    if not (lam > 0 and lam * L < 1):
        raise ValueError(f"step size must satisfy 0 < lam*L < 1; got lam={lam}, L={L}, lam*L={lam * L}")
    return lam


class IterateTrace:
    """Per-iteration solve record.

    Row k holds Psi(x_k), D_h(x_k, x_{k-1}), ||x_k - x_{k-1}||, the witness
    norm ||w_k||, and elapsed wall-clock seconds.  Row 0 describes the start:
    gaps are zero and the witness norm is NaN (undefined before a step).
    """

    COLUMNS = ("k", "psi", "dh_gap", "step_norm", "witness_norm", "elapsed_s")

    def __init__(self):
        self._rows = []

    def append(self, k, psi, dh_gap, step_norm, witness_norm, elapsed_s):
        self._rows.append((int(k), float(psi), float(dh_gap), float(step_norm),
                           float(witness_norm), float(elapsed_s)))

    def __len__(self):
        return len(self._rows)

    def column(self, name):
        i = self.COLUMNS.index(name)
        return np.array([row[i] for row in self._rows])

    @property
    def psi(self):
        return self.column("psi")

    @property
    def dh_gap(self):
        return self.column("dh_gap")

    @property
    def step_norm(self):
        return self.column("step_norm")

    @property
    def witness_norm(self):
        return self.column("witness_norm")

    @property
    def elapsed_s(self):
        return self.column("elapsed_s")

    def to_csv(self, path):
        """Write every column but the wall clock as CSV.

        Identical runs write byte-identical files; the timings stay in
        ``elapsed_s``.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS[:-1])
            for k, *values, _ in self._rows:
                writer.writerow([k, *map(repr, values)])


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
    if psi_x == math.inf:
        return  # infeasible start: the inequality is vacuous
    slack = DECREASE_SLACK * (1.0 + abs(psi_x))
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


def _guard_iterate(x):
    try:
        n = math.sqrt(x.dot(x))  # NaN or inf if any entry is, inf if the square sum overflows
    except RuntimeWarning:  # the overflow, where warnings are errors
        n = math.inf
    if not n <= DIVERGENCE_NORM:
        raise DivergenceError(f"iterate norm {n:.3e} is not finite or exceeds {DIVERGENCE_NORM:.0e}")


class Step(NamedTuple):
    """One accepted step x+ = T_lam(x), as described in the module docstring."""

    x: np.ndarray
    psi: float
    grad: np.ndarray
    dh: float
    witness: np.ndarray


def bpg_step(problem, lam, x, psi=None, grad=None):
    """One Bregman proximal gradient step from x, with its guarantees enforced.

    Pass ``psi`` = Psi(x) and ``grad`` = grad g(x) when they are at hand (the
    previous Step's fields); otherwise they are computed.  Raises ValueError
    unless 0 < lam*L < 1 and Psi(x+) respects ``problem.psi_lower_bound``;
    x is checked to be finite only when ``psi`` is not passed.  A NaN Psi, or
    an infinite Psi(x+) after a finite Psi(x), fails the decrease check; only
    an infeasible x (Psi(x) = +inf) makes that check vacuous.
    """
    L = problem.smad.L
    lam = resolve_step(lam, L)
    x = np.asarray(x, dtype=float)
    if psi is None:
        if not np.all(np.isfinite(x)):
            raise ValueError("current point must be finite")
        psi = problem.psi(x)
    if grad is None:
        grad = np.asarray(problem.g_gradient(x), dtype=float)
    x_new = np.asarray(problem.prox_map(x, lam), dtype=float)
    _guard_iterate(x_new)
    psi_new = problem.psi(x_new)
    dh = float(problem.kernel.bregman(x_new, x))
    _check_decrease(lam, L, psi, psi_new, dh)
    _check_lower_bound(problem, psi_new, "Psi(x+)")
    grad_new = np.asarray(problem.g_gradient(x_new), dtype=float)
    w = grad_new - grad + (problem.kernel.gradient(x) - problem.kernel.gradient(x_new)) / lam
    return Step(x_new, psi_new, grad_new, dh, w)


def run_bpg(problem, config):
    """Iterate :func:`bpg_step` until a stopping rule fires; returns a SolveResult.

    Raises :class:`DecreaseViolationError` / :class:`DivergenceError` on
    diagnostics; reaching ``max_iters`` is a reported reason, not an error.
    A Psi(x0) that is NaN or below ``problem.psi_lower_bound`` is a ValueError.
    """
    lam = resolve_step(config.lam, problem.smad.L)
    x = config.x0.copy()
    psi = problem.psi(x)
    _check_lower_bound(problem, psi, "Psi(x0)")
    grad = np.asarray(problem.g_gradient(x), dtype=float)

    trace = IterateTrace()
    trace.append(0, psi, 0.0, 0.0, math.nan, 0.0)
    iterates = [x.copy()] if config.keep_iterates else None
    t0 = time.perf_counter()
    reason = MAX_ITERS

    for k in range(1, config.max_iters + 1):
        step = bpg_step(problem, lam, x, psi, grad)
        w, dx = step.witness, step.x - x
        wnorm = math.sqrt(w.dot(w))
        step_norm = math.sqrt(dx.dot(dx))
        trace.append(k, step.psi, step.dh, step_norm, wnorm, time.perf_counter() - t0)
        if iterates is not None:
            iterates.append(step.x.copy())
        x, psi, grad = step.x, step.psi, step.grad
        if step_norm <= config.tol_step * (1.0 + math.sqrt(x.dot(x))):
            reason = STEP_TOLERANCE
            break
        if config.tol_residual is not None and wnorm <= config.tol_residual:
            reason = RESIDUAL_TOLERANCE
            break

    return SolveResult(
        x=x,
        trace=trace,
        reason=reason,
        iterates=np.array(iterates) if iterates is not None else None,
    )


def min_gap_bound(trace, lam, L, psi_lower_bound, n=None):
    """Observed min Bregman gap over the first n steps vs. its theoretical bound.

    The bound is lam * (Psi(x0) - psi_lower_bound) / (n * (1 - lam*L)); using
    any valid lower bound in place of the optimal value only loosens it.
    """
    if len(trace) < 2:
        raise ValueError("trace has no completed iterations")
    gaps = trace.dh_gap[1:]
    if n is None:
        n = len(gaps)
    if not 1 <= n <= len(gaps):
        raise ValueError(f"n must be in [1, {len(gaps)}], got {n}")
    observed = float(np.min(gaps[:n]))
    bound = lam * (trace.psi[0] - psi_lower_bound) / (n * (1.0 - lam * L))
    return observed, float(bound)

