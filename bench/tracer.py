"""Span tracing of the bpg package from outside, for the benchmark's traced mode.

``Tracer.install()`` replaces public functions and class methods of the
package with wrappers that record one span per call.  A function is replaced
under every module global that holds it (``bpg.qip.qip_value`` and the
``bpg.cli.qip_value`` imported from it, say), because the closures built by
``make_problem`` and the code in ``bpg.cli`` look their callees up by global
name at call time.  Nothing inside the package changes; ``uninstall()`` puts
every original back.

Spans are kept in memory, one list per thread.  A span holds its name, start
and end (``time.perf_counter`` seconds), the index of its parent span in the
same thread's list (-1 for none) and the index of the solver start it belongs
to (-1 outside ``run_bpg``).  ``write`` stores them at the end of a run.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, owner inside the module or None, attribute).
TARGETS = (
    ("qip.qip_value", "bpg.qip", None, "qip_value"),
    ("qip.qip_gradient", "bpg.qip", None, "qip_gradient"),
    ("qip.p_lambda", "bpg.qip", None, "p_lambda"),
    ("qip.prox_l0", "bpg.qip", None, "prox_l0"),
    ("qip.prox_l1", "bpg.qip", None, "prox_l1"),
    ("qip.cubic_root_l0", "bpg.qip", None, "cubic_root_l0"),
    ("qip.cubic_root_l1", "bpg.qip", None, "cubic_root_l1"),
    ("qip.hard_threshold", "bpg.qip", None, "hard_threshold"),
    ("qip.soft_threshold", "bpg.qip", None, "soft_threshold"),
    ("kernels.value", "bpg.kernels", "Kernel", "value"),
    ("kernels.gradient", "bpg.kernels", "Kernel", "gradient"),
    ("kernels.bregman", "bpg.kernels", "Kernel", "bregman"),
    ("smad.smad_certificate", "bpg.qip", "QipInstance", "smad_certificate"),
    ("smad.spectral_norm", "bpg.smad", None, "spectral_norm"),
    ("smad.check_descent_lemma", "bpg.smad", None, "check_descent_lemma"),
    ("solver.run_bpg", "bpg.solver", None, "run_bpg"),
    ("solver.to_csv", "bpg.solver", "IterateTrace", "to_csv"),
    ("instances.load_instance", "bpg.instances", None, "load_instance"),
    ("instances.save_instance", "bpg.instances", None, "save_instance"),
    ("cli.run_from_spec", "bpg.cli", None, "run_from_spec"),
    ("cli.json_dump", "bpg.cli", "json", "dump"),
)


class _ThreadSpans:
    __slots__ = ("thread", "spans", "stack", "start_index")

    def __init__(self, thread):
        self.thread = thread
        self.spans = []  # [name, start, end, parent, start_index]
        self.stack = []
        self.start_index = -1


class Tracer:
    """Records spans of the wrapped bpg functions while installed.

    ``start_of`` maps a ``run_bpg`` call's ``config.x0`` bytes to the index
    of the solver start it runs; spans inside that call carry the index.
    """

    def __init__(self, start_of=None):
        self.start_of = start_of or {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadSpans(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    def _wrap(self, name, fn):
        tracer = self
        is_run = name == "solver.run_bpg"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            prev_start = state.start_index
            if is_run:
                config = args[1] if len(args) > 1 else kwargs["config"]
                state.start_index = tracer.start_of.get(config.x0.tobytes(), -1)
            idx = len(state.spans)
            span = [name, 0.0, 0.0, state.stack[-1] if state.stack else -1, state.start_index]
            state.spans.append(span)
            state.stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                state.stack.pop()
                state.start_index = prev_start

        return traced

    def install(self):
        for name, module_name, owner_name, attr in TARGETS:
            module = sys.modules[module_name]
            if owner_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "bpg" and not mod_name.startswith("bpg."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
            elif owner_name == "json":
                # bpg.cli writes its JSON artifacts through the json module it
                # imported; give it a stand-in whose dump is traced.
                real = getattr(module, owner_name)
                proxy = type(real)(real.__name__)
                proxy.__dict__.update(vars(real))
                setattr(proxy, attr, self._wrap(name, getattr(real, attr)))
                self._patches.append((module, owner_name, real))
                setattr(module, owner_name, proxy)
            else:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """All spans as (thread, index, name, start, end, parent, start_index)."""
        for state in self._threads:
            for idx, (name, start, end, parent, start_index) in enumerate(state.spans):
                yield state.thread, idx, name, start, end, parent, start_index

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, and calls
        made inside ``run_bpg`` (start index >= 0); plus the number of
        threads that ran ``run_bpg``.  Self time is a span's duration minus
        the time its direct children (same thread) cover."""
        stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "in_solve": 0})
        solver_threads = 0
        for state in self._threads:
            child_s = [0.0] * len(state.spans)
            for name, start, end, parent, _ in state.spans:
                if parent >= 0:
                    child_s[parent] += end - start
            for (name, start, end, parent, start_index), covered in zip(state.spans, child_s):
                entry = stats[name]
                entry["calls"] += 1
                entry["total_s"] += end - start
                entry["self_s"] += end - start - covered
                entry["in_solve"] += start_index >= 0
            solver_threads += any(span[0] == "solver.run_bpg" for span in state.spans)
        return dict(stats), solver_threads

    def write(self, path):
        """Write every span to ``path`` as a numpy ``.npz`` of columns; the
        ``name`` column indexes the ``names`` array."""
        rows = list(self.spans())
        names = sorted({row[2] for row in rows})
        code = {name: i for i, name in enumerate(names)}
        cols = list(zip(*rows)) if rows else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(names, dtype=str),
            thread=np.array(cols[0], dtype=np.uint64),
            index=np.array(cols[1], dtype=np.int64),
            name=np.array([code[n] for n in cols[2]], dtype=np.int16),
            start=np.array(cols[3], dtype=float),
            end=np.array(cols[4], dtype=float),
            parent=np.array(cols[5], dtype=np.int64),
            start_index=np.array(cols[6], dtype=np.int64),
        )
