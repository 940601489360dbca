"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of each wpdlab module (a
layer) with a timing wrapper and ``uninstall`` restores the originals. The
package calls its own functions through module attributes, so the wrappers
also see calls made inside the package.

A call that enters a layer from another layer (or from the benchmark) opens
a span: name, start, end, parent span, op id and thread id. A call within the
same layer is counted but not spanned. Spans stay in memory until the run
ends. A layer's self time is the sum over its spans of the span duration
minus the part of it that child spans cover; child spans may run on the
sweep pool's worker threads, whose spans take the op's root span as parent.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "polarization", "interferometer", "duality", "purification",
          "montecarlo", "cli")


def _arg(sig, args, kwargs, name):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count(key, amount=1):
    def hook(counts, sig, args, kwargs, result, seconds, entered):
        counts[key] += amount
    return hook


def _point_on_entry(counts, sig, args, kwargs, result, seconds, entered):
    # a model evaluation requested from another layer; calls nested in
    # fringe_scan are part of its grid points
    if entered:
        counts["interferometer.points"] += 1


def _fringe_points(counts, sig, args, kwargs, result, seconds, entered):
    counts["interferometer.points"] += len(_arg(sig, args, kwargs, "delta_um_grid"))


def _duality_report(counts, sig, args, kwargs, result, seconds, entered):
    counts["duality.reports"] += 1
    counts["duality.report_s"] += seconds


def _photons(name, factor=1, per=None):
    def hook(counts, sig, args, kwargs, result, seconds, entered):
        n = _arg(sig, args, kwargs, name) * factor
        counts["montecarlo.photons"] += n * (len(_arg(sig, args, kwargs, per)) if per else 1)
    return hook


def _resamples(branches=1):
    def hook(counts, sig, args, kwargs, result, seconds, entered):
        counts["montecarlo.resamples"] += branches * _arg(sig, args, kwargs, "resamples")
    return hook


def _write_csv(counts, sig, args, kwargs, result, seconds, entered):
    counts["cli.write_s"] += seconds
    counts["cli.bytes_written"] += len(result.encode())
    counts["cli.rows_written"] += sum(1 for ln in result.splitlines()
                                      if not ln.startswith("#")) - 1


def _chain(*hooks):
    def hook(*a):
        for h in hooks:
            h(*a)
    return hook


# Work counters recorded at the layer boundary, keyed by (layer, function).
HOOKS = {
    ("interferometer", "fringe_scan"): _fringe_points,
    ("interferometer", "output_probability"): _point_on_entry,
    ("interferometer", "output_density"): _point_on_entry,
    ("interferometer", "conditional_output"): _point_on_entry,
    ("duality", "duality_report"): _duality_report,
    ("polarization", "as_density"): _count("polarization.validations"),
    ("polarization", "as_stokes"): _count("polarization.validations"),
    ("linalg", "herm_eig2"): _count("linalg.herm_eig2_calls"),
    ("montecarlo", "sample_counts"): _photons("photons"),
    ("montecarlo", "estimate_visibility_mc"):
        _chain(_photons("photons_per_point", per="phi_grid"), _resamples()),
    ("montecarlo", "tomography"): _chain(_photons("photons_per_basis", 3), _resamples()),
    # one bootstrap per branch (alpha, beta)
    ("montecarlo", "estimate_distinguishability_decomposed"): _resamples(2),
    ("montecarlo", "estimate_likelihood"): _resamples(),
    ("purification", "purify"): _count("purification.configs"),
    ("cli", "write_csv"): _write_csv,
}


class _ThreadState:
    def __init__(self):
        self.stack = []          # (layer, span id) of open spans
        self.spans = []          # (id, name, start, end, parent, op, thread)
        self.counts = Counter()
        self.thread = threading.get_ident()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved = []
        self.op_id = None
        self.main_thread = threading.get_ident()
        self.root_span = None    # parent for spans opened on worker threads

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = self._wrap(layer, name, fn)
        # patch every module attribute bound to a wrapped function
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
        return state

    def _wrap(self, layer, name, fn):
        qualname = f"{layer}.{name}"
        calls_key, errors_key = f"{layer}.calls", f"{layer}.errors"
        hook = HOOKS.get((layer, name))
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            state.counts[calls_key] += 1
            stack = state.stack
            entered = not stack or stack[-1][0] != layer
            if entered:
                span = next(tracer._ids)
                if stack:
                    parent = stack[-1][1]
                elif state.thread == tracer.main_thread:
                    parent, tracer.root_span = None, span
                else:  # a pool worker: the caller's root span is the parent
                    parent = tracer.root_span
                stack.append((layer, span))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if entered:
                    state.counts[errors_key] += 1
                raise
            finally:
                end = clock()
                if entered:
                    stack.pop()
                    state.spans.append((span, qualname, start, end, parent,
                                        tracer.op_id, state.thread))
            if hook:
                hook(state.counts, sig, args, kwargs, result, end - start, entered)
            return result

        return wrapper

    # -- results ----------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.root_span = None
        self.main_thread = threading.get_ident()

    def spans(self) -> list:
        return [s for state in self._states for s in state.spans]

    def counts(self) -> Counter:
        total = Counter()
        for state in self._states:
            total.update(state.counts)
        return total

    def layer_times(self):
        """(self seconds, busy seconds) per layer.

        Busy time sums the spans of a layer that have no ancestor span in the
        same layer: the wall time the layer was working, children included.
        """
        spans = self.spans()
        by_id = {s[0]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s[4] is not None:
                children[s[4]].append((s[2], s[3]))
        self_s, busy_s = Counter(), Counter()
        for sid, name, start, end, parent, _, _ in spans:
            layer = name.split(".", 1)[0]
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s[layer] += (end - start) - covered
            ancestor = by_id.get(parent)
            while ancestor is not None and not ancestor[1].startswith(layer + "."):
                ancestor = by_id.get(ancestor[4])
            if ancestor is None:
                busy_s[layer] += end - start
        return self_s, busy_s

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,op,thread\n")
            for s in sorted(self.spans(), key=lambda s: s[2]):
                fh.write(",".join("" if v is None else
                                  (f"{v:.9f}" if isinstance(v, float) else str(v))
                                  for v in s) + "\n")
