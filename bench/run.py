#!/usr/bin/env python3
"""Benchmark of the bpg package: one closed-loop workload per run, in one process.

    python3 bench/run.py --workload phase-l0-cli --seed 1 --seconds 45 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory.  The seed makes the inputs (instance files written by
``bpg generate`` in a child process, solver starts, audit samples).  With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics from a traced run.  The line before it
holds the run's metadata and every end-to-end figure with its unit.  Inputs,
fingerprints and span files go under ``.bench_work/`` at the repository root.
See ``bench/README.md`` for the workloads, the metrics and the layer table.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Instance sizes and call parameters.  "full" is what BENCHMARK.json runs;
# "tiny" is the smoke test's size.
SIZES = {
    "full": {
        "phase-l0-cli": dict(kind="rank-one", d=8, m=16, s_true=2, starts=4, tol_step=1e-6,
                             max_iters=3000),
        "dense-l1-lib": dict(kind="dense-symmetric", d=64, m=256, s_true=4, theta=0.1,
                             starts=2, iters=500),
        "audit-dense": dict(kind="dense-symmetric", d=32, m=96, s_true=2,
                            samples=10_000, radius=10.0),
    },
    "tiny": {
        "phase-l0-cli": dict(kind="rank-one", d=4, m=8, s_true=1, starts=2, tol_step=1e-4,
                             max_iters=300),
        "dense-l1-lib": dict(kind="dense-symmetric", d=6, m=12, s_true=2, theta=0.1,
                             starts=2, iters=40),
        "audit-dense": dict(kind="dense-symmetric", d=5, m=10, s_true=2,
                            samples=500, radius=10.0),
    },
}

# A best start whose Psi is below this share of Psi(0) claims the global
# minimum (0 for noiseless data), so it must be the planted signal.
GLOBAL_PSI_SHARE = 1e-4
RECOVERY_TOL = 1e-2

END_TO_END = ("setup_s", "unit_us_p50", "peak_rss_mb")

bpg = None  # the package under test, imported by import_package()


def import_package():
    """Import bpg from this checkout's src/; never from anywhere else."""
    global bpg
    if not (SRC / "bpg" / "__init__.py").is_file():
        raise SystemExit(f"error: no bpg package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("bpg")
    if Path(package.__file__).resolve().parent != (SRC / "bpg").resolve():
        raise SystemExit(f"error: imported bpg from {package.__file__}, not from {SRC}")
    for module in ("bpg.cli", "bpg.instances"):  # not imported by the package itself
        importlib.import_module(module)
    bpg = package


def sha256_tree(root):
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def generate(path, cfg, seed, extra=()):
    """Write an instance with ``bpg generate`` in a child process, so its
    memory does not count towards this process's peak."""
    cmd = [sys.executable, "-m", "bpg.cli", "generate", "--d", str(cfg["d"]),
           "--m", str(cfg["m"]), "--s-true", str(cfg["s_true"]), "--noise", "0",
           "--seed", str(seed), "--kind", cfg["kind"], *extra, "--out", str(path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    return path


@contextlib.contextmanager
def capture_runs(module):
    """Collect every SolveResult that ``module.run_bpg`` returns."""
    original = module.run_bpg
    results = []

    def run_bpg(problem, config):
        result = original(problem, config)
        results.append(result)
        return result

    module.run_bpg = run_bpg
    try:
        yield results
    finally:
        module.run_bpg = original


@dataclass
class Outcome:
    """What one user-visible call did, as the gate and the metrics see it."""

    units: int  # iterations over all starts, or sample pairs
    attempted: int  # starts, or checks
    failed: int
    fingerprint: dict  # must repeat exactly on the same code and inputs
    iters: int = 0
    psi_best: float = math.nan
    # Per-iteration durations and stop reasons of the call's solver starts.
    # The SolveResults themselves are dropped, so that the process's peak
    # memory does not grow with the number of calls in a run.
    step_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    reasons: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    artifact_bytes: int = 0
    cpu_s: float = 0.0  # process CPU time of the call, set by closed_loop


def solve_fields(results):
    return dict(step_s=np.concatenate([np.diff(r.trace.elapsed_s) for r in results]
                                      or [np.zeros(0)]),
                reasons=[r.reason for r in results])


class Workload:
    """Set-up, the user-visible call, and the gate on its outputs."""

    unit_name = "iteration"
    workers = 1

    def __init__(self, cfg, seed, work):
        self.cfg = cfg
        self.seed = seed

    def setup(self):
        """Instance load plus problem and certificate, as a solve does it."""
        inst, x_true = bpg.load_instance(self.path)
        return inst, x_true, bpg.make_problem(inst, bpg.Kernel.quartic(inst.d))

    def reset(self):
        """Untimed clean-up before a call."""

    def unit(self, state):
        """What one user does once; the unit of the traced run."""
        return self.call(state)

    def start_points(self, state):
        """The solver starts of one call, as ``bpg solve`` draws them."""
        inst = state[0]
        return bpg.cli.draw_starts(inst.d, self.cfg.get("starts", 0), self.seed, inst.regularizer)


class PhaseL0Cli(Workload):
    name = "phase-l0-cli"

    def __init__(self, cfg, seed, work):
        super().__init__(cfg, seed, work)
        self.path = generate(work / "phase.json", cfg, seed, ["--reg", "l0"])
        self.out = work / "solve"
        env = os.environ.get("BPG_WORKERS")
        self.workers = max(1, int(env)) if env else max(1, min(cfg["starts"], os.cpu_count() or 1))

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, state):
        argv = ["solve", "--instance", str(self.path), "--starts", str(self.cfg["starts"]),
                "--seed", str(self.seed), "--tol-step", repr(self.cfg["tol_step"]),
                "--max-iters", str(self.cfg["max_iters"]), "--out", str(self.out)]
        with capture_runs(bpg.cli) as results, contextlib.redirect_stdout(io.StringIO()):
            code = bpg.cli.main(argv)
        return code, results

    def inspect(self, state, raw):
        inst, x_true, problem = state
        code, results = raw
        starts = self.cfg["starts"]
        summaries = []
        for i in range(starts):
            path = self.out / f"summary_{i:03d}.json"
            summaries.append(json.loads(path.read_text()) if path.is_file() else {"error": "missing"})
        errors = sum("error" in s for s in summaries)
        problems = [f"exit code {code}"] if code != 0 else []
        best_path = self.out / "best.json"
        psi_best = math.nan
        if best_path.is_file():
            best = json.loads(best_path.read_text())
            x = np.array([float.fromhex(v) for v in best["x"]])
            psi_best = best["final_psi"]
            good = [s["final_psi"] for s in summaries if "error" not in s]
            if psi_best != min(good):
                problems.append("best.json is not the best start")
            if np.count_nonzero(x) > inst.regularizer.s:
                problems.append("best point violates the l0 ball")
            if abs(float(bpg.qip_value(inst, x)) - psi_best) > 1e-9 * (1.0 + psi_best):
                problems.append("best Psi does not match its point")
            if best["L"] != problem.smad.L:
                problems.append("solve used another L than the certificate")
            gap = min(np.linalg.norm(x - x_true), np.linalg.norm(x + x_true)) / np.linalg.norm(x_true)
            psi_zero = float(bpg.qip_value(inst, np.zeros(inst.d)))
            if psi_best <= GLOBAL_PSI_SHARE * psi_zero and gap > RECOVERY_TOL:
                problems.append(f"Psi is at the global level but x is {gap:.2e} from the planted signal")
        else:
            problems.append("best.json missing")
        iters = [s.get("iterations", 0) for s in summaries]
        fingerprint = {"iters": iters, "psi_best": float(psi_best).hex(),
                       "cert_L": problem.smad.L.hex(), "artifacts": sha256_tree(self.out)}
        return Outcome(units=sum(iters), attempted=starts, **solve_fields(results),
                       failed=max(errors, 1 if problems else 0), fingerprint=fingerprint,
                       iters=sum(iters), psi_best=psi_best, problems=problems,
                       artifact_bytes=sum(p.stat().st_size for p in self.out.iterdir()))


class DenseL1Lib(Workload):
    name = "dense-l1-lib"

    def __init__(self, cfg, seed, work):
        super().__init__(cfg, seed, work)
        self.path = generate(work / "dense.json", cfg, seed,
                             ["--reg", "l1", "--theta", repr(cfg["theta"])])

    def unit(self, state):
        return self.call(self.setup())

    def call(self, state):
        problem = state[2]
        runs = []
        for x0 in self.start_points(state):
            config = bpg.BpgConfig(x0=x0, max_iters=self.cfg["iters"], tol_step=0.0)
            try:
                runs.append(bpg.run_bpg(problem, config))
            except (bpg.DecreaseViolationError, bpg.DivergenceError) as exc:
                runs.append(exc)
        return runs

    def inspect(self, state, raw):
        results = [r for r in raw if not isinstance(r, Exception)]
        problems = [f"{type(r).__name__}: {r}" for r in raw if isinstance(r, Exception)]
        problems += [f"final Psi {r.final_psi:.6e} not below Psi(x0) {r.trace.psi[0]:.6e}"
                     for r in results if not r.final_psi < r.trace.psi[0]]
        iters = [r.iterations for r in results]
        x_digest = hashlib.sha256(b"".join(r.x.tobytes() for r in results)).hexdigest()
        fingerprint = {"iters": iters, "psi": [float(r.final_psi).hex() for r in results],
                       "cert_L": state[2].smad.L.hex(), "x": x_digest}
        return Outcome(units=sum(iters), attempted=len(raw), failed=len(problems),
                       fingerprint=fingerprint, iters=sum(iters),
                       psi_best=min((r.final_psi for r in results), default=math.nan),
                       problems=problems, **solve_fields(results))


class AuditDense(Workload):
    name = "audit-dense"
    unit_name = "pair"

    def __init__(self, cfg, seed, work):
        super().__init__(cfg, seed, work)
        self.path = generate(work / "audit.json", cfg, seed)

    def call(self, state):
        argv = ["check", "--instance", str(self.path), "--samples", str(self.cfg["samples"]),
                "--radius", repr(self.cfg["radius"]), "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = bpg.cli.main(argv)
        return code, out.getvalue()

    def inspect(self, state, raw):
        code, text = raw
        ok = code == 0 and text.startswith("PASS:") and "violations=0," in text
        problems = [] if ok else [f"check failed (exit {code}): {text.strip()}"]
        fingerprint = {"report": text, "cert_L": state[2].smad.L.hex()}
        return Outcome(units=self.cfg["samples"], attempted=1, failed=len(problems),
                       fingerprint=fingerprint, problems=problems)


WORKLOADS = {w.name: w for w in (PhaseL0Cli, DenseL1Lib, AuditDense)}


def timed_setups(workload, min_repeats=3, min_seconds=1.0, max_repeats=200):
    """Repeat the set-up until it has run min_repeats times and for
    min_seconds (at most max_repeats); returns (durations, last state)."""
    durations = []
    state = None
    start = time.perf_counter()
    while len(durations) < min_repeats or (
            time.perf_counter() - start < min_seconds and len(durations) < max_repeats):
        state = None  # one instance in memory at a time, as for a user
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        durations.append(time.perf_counter() - t0)
    return durations, state


def closed_loop(workload, state, seconds, step):
    """Run ``step`` back to back until ``seconds`` have passed (at least once);
    returns [(wall seconds, Outcome)]."""
    runs = []
    end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < end:
        workload.reset()
        raw = None
        gc.collect()
        c0 = time.process_time()
        t0 = time.perf_counter()
        raw = step(state)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        outcome = workload.inspect(state, raw)
        outcome.cpu_s = cpu
        runs.append((wall, outcome))
    return runs


def check_determinism(workload_name, cfg, seed, source, runs):
    """Fingerprints must agree within this run and with every earlier run of
    the same source on the same inputs.  Returns the number of mismatches."""
    mismatches = sum(o.fingerprint != runs[0][1].fingerprint for _, o in runs[1:])
    store = WORK / "fingerprints.json"
    key = f"{workload_name}|{json.dumps(cfg, sort_keys=True)}|{seed}|{source}"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        mismatches += known[key] != runs[0][1].fingerprint
    else:
        known[key] = runs[0][1].fingerprint
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
        os.replace(tmp, store)
    return mismatches


def end_to_end_report(workload, setups, runs, cert):
    walls = [w for w, _ in runs]
    outcomes = [o for _, o in runs]
    samples = np.concatenate([o.step_s for o in outcomes])
    per_unit = [w * 1e6 / o.units for w, o in runs]
    # Per-iteration times for the solves, per-pair time of each call for the
    # audit.  The gated figure is their median: the host's speed has short
    # fast bursts, which a low percentile would pick up in some runs only.
    unit_samples = samples * 1e6 if samples.size else np.array(per_unit)
    report = {
        "setup_s": (median(setups), "s", len(setups)),
        "wall_s": (median(walls), "s", len(walls)),
        "wall_us_per_unit": (median(per_unit), "us", len(walls)),
        "cpu_us_per_unit": (median(o.cpu_s * 1e6 / o.units for o in outcomes), "us", len(walls)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "cert_L": (cert, "1", 1),
        "unit_us_p50": (float(np.median(unit_samples)), "us", unit_samples.size),
    }
    if samples.size:
        p50, p99 = (float(v) * 1e6 for v in np.percentile(samples, [50, 99]))
        report["iters"] = (outcomes[0].iters, "count", 1)
        report["iter_us_p50"] = (p50, "us", samples.size)
        report["iter_us_p99"] = (p99, "us", samples.size)
        report["psi_best"] = (outcomes[0].psi_best, "1", 1)
    else:
        report["pairs_per_s"] = (median([o.units / w for w, o in runs]), "1/s", len(walls))
    return {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in report.items()}


def layer_metrics(stats, solver_threads, units, outcomes, load_bytes, save_s, overhead):
    """Per-layer figures per traced unit (one user-visible call, or for the
    library workload one set-up plus call)."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    iters = sum(o.iters for o in outcomes)
    starts = sum(len(o.reasons) for o in outcomes)
    converged = sum(reason != "max_iters" for o in outcomes for reason in o.reasons)
    oracle_in_solve = get("qip.qip_value", "in_solve") + get("qip.qip_gradient", "in_solve")
    cli_used = get("cli.run_from_spec", "calls") > 0
    m = {
        "qip.qip_value.calls": (get("qip.qip_value", "calls") / units, "count"),
        "qip.qip_value.self_s": (get("qip.qip_value", "self_s") / units, "s"),
        "qip.qip_gradient.calls": (get("qip.qip_gradient", "calls") / units, "count"),
        "qip.qip_gradient.self_s": (get("qip.qip_gradient", "self_s") / units, "s"),
        "qip.oracle_calls_per_iter": (oracle_in_solve / iters if iters else 0.0, "count"),
        "qip.prox_l0.self_s": (get("qip.prox_l0", "self_s") / units, "s"),
        "qip.prox_l1.self_s": (get("qip.prox_l1", "self_s") / units, "s"),
        "qip.cubic_root.calls": ((get("qip.cubic_root_l0", "calls")
                                  + get("qip.cubic_root_l1", "calls")) / units, "count"),
        "qip.cubic_root.self_s": ((get("qip.cubic_root_l0", "self_s")
                                   + get("qip.cubic_root_l1", "self_s")) / units, "s"),
        "qip.threshold.self_s": ((get("qip.hard_threshold", "self_s")
                                  + get("qip.soft_threshold", "self_s")) / units, "s"),
        "kernels.gradient.calls": (get("kernels.gradient", "calls") / units, "count"),
        "kernels.gradient.self_s": (get("kernels.gradient", "self_s") / units, "s"),
        "kernels.bregman.self_s": (get("kernels.bregman", "self_s") / units, "s"),
        "kernels.gradient_calls_per_iter": (get("kernels.gradient", "in_solve") / iters
                                            if iters else 0.0, "count"),
        "smad.smad_certificate_s": (get("smad.smad_certificate", "total_s") / units, "s"),
        "smad.spectral_norm.calls": (get("smad.spectral_norm", "calls") / units, "count"),
        "smad.spectral_norm.self_s": (get("smad.spectral_norm", "self_s") / units, "s"),
        "smad.check_descent_lemma_s": (get("smad.check_descent_lemma", "total_s") / units, "s"),
        "solver.run_bpg.self_s": (get("solver.run_bpg", "self_s") / units, "s"),
        "solver.iterations": (iters / units, "count"),
        "solver.converged_frac": (converged / starts if starts else 0.0, "ratio"),
        "instances.load_instance_s": (get("instances.load_instance", "total_s") / units, "s"),
        "instances.load_bytes": (load_bytes * get("instances.load_instance", "calls") / units, "B"),
        "instances.save_instance_s": (save_s, "s"),
        "cli.run_from_spec.self_s": (get("cli.run_from_spec", "self_s") / units, "s"),
        "cli.workers": (solver_threads / units if cli_used else 0.0, "count"),
        "cli.artifact_write_s": ((get("solver.to_csv", "total_s") + get("cli.json_dump", "total_s"))
                                 / units, "s"),
        "cli.artifact_bytes": (sum(o.artifact_bytes for o in outcomes) / units, "B"),
        "trace_overhead": (overhead, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run(args):
    import_package()
    scale_cfg = SIZES[args.scale][args.workload]
    source = sha256_tree(SRC / "bpg")
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](scale_cfg, args.seed, work)
        state = None
        extra = {}
        if args.trace:
            state = workload.setup()
            untraced = closed_loop(workload, state, args.seconds / 2, workload.unit)
            tracer = Tracer(start_of={x0.tobytes(): i for i, x0 in
                                      enumerate(workload.start_points(state))})
            with tracer:
                traced = closed_loop(workload, state, args.seconds / 2, workload.unit)
            stats, threads = tracer.summary()
            save_tracer = Tracer()
            with save_tracer:
                bpg.save_instance(bpg.instances.instance_to_payload(state[0], state[1]),
                                  work / "saved.json")
            save_s = save_tracer.summary()[0]["instances.save_instance"]["total_s"]
            spans_dir = WORK / "spans"
            spans_dir.mkdir(exist_ok=True)
            tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.npz")
            overhead = median([w for w, _ in traced]) / median([w for w, _ in untraced])
            metrics = layer_metrics(stats, threads, len(traced), [o for _, o in traced],
                                    workload.path.stat().st_size, save_s, overhead)
            runs = untraced + traced
            extra["traced_units"] = len(traced)
            extra["untraced_units"] = len(untraced)
        else:
            setups, state = timed_setups(workload)
            runs = closed_loop(workload, state, args.seconds, workload.call)
            report = end_to_end_report(workload, setups, runs, state[2].smad.L)
            metrics = {k: {"value": report[k]["value"], "unit": report[k]["unit"]}
                       for k in END_TO_END}
            extra["report"] = report

        mismatches = check_determinism(args.workload, scale_cfg, args.seed, source, runs)
        attempted = sum(o.attempted for _, o in runs)
        failed = min(attempted, sum(o.failed for _, o in runs) + mismatches)
        problems = sorted({p for _, o in runs for p in o.problems})
        if mismatches:
            problems.append(f"{mismatches} determinism mismatch(es)")
        metadata = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "scale": args.scale, "calls": len(runs),
            "unit_of_work": workload.unit_name,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "workers": workload.workers,
            "L_source": state[2].smad.source, "commit": git_commit(), "source_sha256": source,
            "failed_frac": failed / attempted, "problems": problems,
            "fingerprint": runs[0][1].fingerprint, **extra,
        }
        print(json.dumps({"metadata": metadata}))
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    run(args)


if __name__ == "__main__":
    main()
