"""Bregman proximal gradient solver for nonconvex composite minimization.

The public surface: the paper's kernel h(x) = 1/4 ||x||^4 + 1/2 ||x||^2 with
its closed-form inverse gradient and cubic roots (:mod:`bpg.kernels`),
adaptability certificates and descent checks (:mod:`bpg.smad`), the iteration
engine (:mod:`bpg.solver`), sparse quadratic inverse problems and their prox
maps (:mod:`bpg.qip`), and instance file handling (:mod:`bpg.instances`).
"""

from .kernels import Kernel, cubic_root_l0, cubic_root_l1
from .smad import DescentReport, SmadCertificate, check_descent_lemma
from .solver import (BpgConfig, DecreaseViolationError, DivergenceError, IterateTrace, Problem,
                     SolveResult, min_gap_bound, run_bpg)
from .qip import (L0Ball, L1, QipInstance, hard_threshold, make_problem, prox_l0, prox_l1,
                  qip_gradient, qip_oracle, qip_value, soft_threshold)
from .instances import generate_instance, load_instance, save_instance

__all__ = [
    "Kernel", "cubic_root_l0", "cubic_root_l1",
    "DescentReport", "SmadCertificate", "check_descent_lemma",
    "BpgConfig", "DecreaseViolationError", "DivergenceError", "IterateTrace",
    "Problem", "SolveResult", "min_gap_bound", "run_bpg",
    "L0Ball", "L1", "QipInstance", "hard_threshold", "make_problem",
    "prox_l0", "prox_l1", "qip_gradient", "qip_oracle", "qip_value", "soft_threshold",
    "generate_instance", "load_instance", "save_instance",
]

__version__ = "0.1.0"
