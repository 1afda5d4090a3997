"""Batch front-end: instance generation, solve orchestration, descent checks.

Verbs:

* ``bpg generate`` -- write a synthetic instance file.
* ``bpg solve``    -- run (multi-start) solves on an instance, emitting one
  trace CSV and one summary per start plus a best-of report.
* ``bpg check``    -- sampled verification of the descent certificate, for
  the kernel and constant L that ``make_problem`` gives ``bpg solve``.

Each verb is a function of the parsed arguments.  ``main`` is the one error
boundary: a ``ValueError`` or ``OSError`` from any verb prints ``error: ...``
and exits 2, and every verb checks its input before it writes anything.

Starts run one after another in the calling thread, and each start's files
and line are written as it ends, so a solve cut short leaves those of the
finished starts and no ``best.json``.  Trace CSVs hold no wall-clock column,
so identical seeds produce byte-identical artifacts.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import instances
from .qip import L0Ball, L1, hard_threshold, make_problem, qip_value
from .smad import check_descent_lemma
from .solver import BpgConfig, DecreaseViolationError, DivergenceError, resolve_step, run_bpg

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIAGNOSTIC = 3
EXIT_CHECK_FAILED = 4

START_RADII = (0.1, 1.0, 10.0)


def _step_size(text):
    """``--lambda``: 'auto' (None, the default step 0.99 / L) or a number."""
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'auto' or a number, got {text!r}") from None


def _regularizer(reg, theta, s):
    """The regularizer that ``--reg``/``--theta``/``--s`` name; None without ``--reg``."""
    if theta is not None and reg != "l1":
        raise ValueError("--theta needs --reg l1")
    if s is not None and reg != "l0":
        raise ValueError("--s needs --reg l0")
    if reg == "l1":
        if theta is None:
            raise ValueError("--reg l1 requires --theta")
        return L1(theta=theta)
    if reg == "l0":
        if s is None:
            raise ValueError("--reg l0 requires --s")
        return L0Ball(s=s)
    return None


def draw_starts(d, starts, seed, regularizer):
    """Deterministic multi-start points: r * u with u uniform on the sphere
    and r cycling through a small/natural/large radius schedule.  For l0
    instances the draw is hard-thresholded so the start is feasible."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(starts):
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        x0 = START_RADII[i % len(START_RADII)] * u
        if isinstance(regularizer, L0Ball):
            x0 = hard_threshold(x0, regularizer.s)
        points.append(x0)
    return points


def _write_json(path, obj):
    """Deterministic JSON: sorted keys, one-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def run_from_spec(args):
    """``bpg solve`` on the parsed arguments; writes artifacts under ``args.out``.

    Returns the process exit code: 0 on clean termination of every start,
    3 when any start hit a solver diagnostic.  Bad input, a non-empty
    ``args.out`` too, raises ValueError or OSError before anything is written.
    """
    if args.starts < 1:
        raise ValueError(f"--starts must be at least 1, got {args.starts}")
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()):
        raise ValueError(f"--out directory {out} is not empty")
    reg = _regularizer(args.reg, args.theta, args.s)
    inst, _ = instances.load_instance(args.instance)
    if reg is not None:
        inst = instances.QipInstance(b=inst.b, regularizer=reg, lower=inst.lower,
                                     factors=inst.factors)
    problem = make_problem(inst)
    lam = resolve_step(args.lam, problem.smad.L)
    configs = [
        BpgConfig(x0=x0, lam=lam, max_iters=args.max_iters, tol_step=args.tol_step,
                  tol_residual=args.tol_residual)
        for x0 in draw_starts(inst.d, args.starts, args.seed, inst.regularizer)
    ]

    out.mkdir(parents=True, exist_ok=True)
    records = {}  # start index -> summary() plus the hex point, for finished starts
    for idx, config in enumerate(configs):
        try:
            result = run_bpg(problem, config)
        except (DecreaseViolationError, DivergenceError) as err:
            _write_json(out / f"summary_{idx:03d}.json",
                        {"start": idx, "error": type(err).__name__, "message": str(err)})
            print(f"start {idx}: FAIL")
            continue
        result.trace.to_csv(out / f"trace_{idx:03d}.csv")
        records[idx] = {**result.summary(), "x": [float(v).hex() for v in result.x]}
        _write_json(out / f"summary_{idx:03d}.json", {"start": idx, **records[idx]})
        print(f"start {idx}: {result.reason}, iters={result.iterations}, "
              f"psi={result.final_psi:.6e}, |w|={result.final_witness_norm:.3e}")

    if records:
        # ties go to the lowest start index
        psi, idx = min((record["final_psi"], idx) for idx, record in records.items())
        _write_json(out / "best.json",
                    {"best_start": idx, **records[idx], "lam": lam, "L": problem.smad.L})
        print(f"best: start {idx}, psi={psi:.6e}")
    return EXIT_DIAGNOSTIC if len(records) < len(configs) else EXIT_OK


def _cmd_generate(args):
    reg = _regularizer(args.reg, args.theta, args.s_true if args.reg == "l0" else None)
    payload, _, _ = instances.generate_instance(
        d=args.d, m=args.m, s_true=args.s_true, noise=args.noise,
        seed=args.seed, kind=args.kind, regularizer=reg,
    )
    instances.save_instance(payload, args.out)
    print(f"wrote {args.out} (d={args.d}, m={args.m}, kind={args.kind})")
    return EXIT_OK


def _cmd_check(args):
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (np.isfinite(args.radius) and args.radius > 0):
        raise ValueError(f"--radius must be finite and positive, got {args.radius}")
    inst, _ = instances.load_instance(args.instance)
    problem = make_problem(inst)
    rng = np.random.default_rng(args.seed)
    # uniform in the radius-R ball
    def ball(n):
        u = rng.standard_normal((n, inst.d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = args.radius * rng.random(n) ** (1.0 / inst.d)
        return u * r[:, None]

    # g alone at x; g and grad g at y from one residual pass of the fused oracle
    report = check_descent_lemma(lambda x: qip_value(inst, x), None, problem.kernel, problem.smad.L,
                                 ball(args.samples), ball(args.samples), g_oracle=problem.g_oracle)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: L={problem.smad.L:.6e}, samples={args.samples}, radius={args.radius}, "
          f"violations={report.n_violations}, worst margin={report.worst_margin:.3e}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser():
    parser = argparse.ArgumentParser(prog="bpg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic instance file")
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--s-true", dest="s_true", type=int, required=True)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--kind", choices=[instances.RANK_ONE, instances.DENSE_SYMMETRIC],
                     default=instances.RANK_ONE)
    gen.add_argument("--reg", choices=["l1", "l0"], default="l0",
                     help="regularizer stored in the file (l0 uses s = s-true)")
    gen.add_argument("--theta", type=float, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    sol = sub.add_parser("solve", help="run (multi-start) solves on an instance")
    sol.add_argument("--instance", required=True)
    sol.add_argument("--reg", choices=["l1", "l0"], default=None,
                     help="override the instance's stored regularizer")
    sol.add_argument("--theta", type=float, default=None)
    sol.add_argument("--s", type=int, default=None)
    sol.add_argument("--lambda", dest="lam", type=_step_size, default="auto",
                     help="step size: 'auto' (0.99/L) or a number")
    sol.add_argument("--max-iters", dest="max_iters", type=int, default=100_000)
    sol.add_argument("--tol-step", dest="tol_step", type=float, default=1e-9)
    sol.add_argument("--tol-residual", dest="tol_residual", type=float, default=None)
    sol.add_argument("--starts", type=int, default=1)
    sol.add_argument("--seed", type=int, default=0)
    sol.add_argument("--out", required=True)
    sol.set_defaults(func=run_from_spec)

    chk = sub.add_parser("check", help="sampled descent-certificate verification")
    chk.add_argument("--instance", required=True)
    chk.add_argument("--samples", type=int, default=10_000)
    chk.add_argument("--radius", type=float, default=10.0)
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(func=_cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
