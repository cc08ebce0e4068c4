"""Span tracer for the traced run, applied to gframes from outside.

`Tracer.install` wraps every public function of each gframes layer module
wherever it is bound -- as that module's attribute and under every name a
`from ... import` gave it in another gframes module -- plus the numpy
decompositions in DECOMPOSITIONS.  `np.linalg.norm` is left alone to keep
the overhead low, so a 2-norm's internal SVD counts as its caller's self
time.  Spans (layer, name, start, end, parent, case, raised, bytes) stay in
memory; `uninstall` restores every original binding and reports any wrapper
still reachable.  The wrappers record nothing while `active` is false, so
the benchmark's own numpy oracles never appear in a trace.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "frames", "duality", "perturbation", "coherent", "frame_io", "cli")
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "qr", "lstsq", "inv", "solve")
NUMPY = "numpy"

# span fields
LAYER, NAME, START, END, PARENT, CASE, RAISED, NBYTES = range(8)


def _result_bytes(args, result) -> int:
    items = result if isinstance(result, tuple) else (result,)
    return sum(a.nbytes for a in items if isinstance(a, np.ndarray))


def _text_arg_bytes(args, result) -> int:
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _text_result_bytes(args, result) -> int:
    return len(result)


# bytes attributed to a span: decomposition outputs and frame-spec texts
MEASURES = {("frame_io", "parse_spec"): _text_arg_bytes,
            ("frame_io", "serialize"): _text_result_bytes}


def _gframes_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "gframes" or name.startswith("gframes."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.case = -1
        self._patches = []

    def _wrap(self, layer, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer, name, 0.0, 0.0, parent, tracer.case, False, 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                tracer.stack.pop()
            if measure is not None:
                span[NBYTES] = measure(args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gframes.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(
                        layer, name, obj, MEASURES.get((layer, name))))
        for name in DECOMPOSITIONS:
            obj = getattr(np.linalg, name)
            wrappers[id(obj)] = (obj, self._wrap(NUMPY, name, obj, _result_bytes))
        for mod in [np.linalg] + _gframes_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, val))

    def uninstall(self) -> list:
        """Restore every binding; return the names of wrappers still bound."""
        self.active = False
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return [f"{mod.__name__}.{attr}"
                for mod in [np.linalg] + _gframes_modules()
                for attr, val in list(vars(mod).items())
                if hasattr(val, "__perfbench_original__")]

    def begin_case(self, index: int) -> None:
        self.case = index
        self.active = True

    def end_case(self) -> None:
        self.active = False


def _analyse(spans):
    """Self time of every span, and whether a span is the outermost of its
    name (so inclusive times of recursive or re-entered calls count once)."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    outermost = []
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
        p = s[PARENT]
        while p >= 0 and (spans[p][LAYER], spans[p][NAME]) != (s[LAYER], s[NAME]):
            p = spans[p][PARENT]
        outermost.append(p < 0)
    return dur, [d - c for d, c in zip(dur, child)], outermost


def case_self_times(spans) -> dict:
    """Summed self time of all spans, per case index."""
    _, self_t, _ = _analyse(spans)
    out = defaultdict(float)
    for s, t in zip(spans, self_t):
        out[s[CASE]] += t
    return dict(out)


def inclusive_by_label(spans, labels) -> dict:
    """Mean inclusive seconds per case of each traced function, by case label;
    `labels[i]` is the label of case i."""
    dur, _, outermost = _analyse(spans)
    total = defaultdict(lambda: defaultdict(float))
    for s, d, top in zip(spans, dur, outermost):
        if top:
            total[labels[s[CASE]]][f"{s[LAYER]}.{s[NAME]}"] += d
    counts = defaultdict(int)
    for lab in labels:
        counts[lab] += 1
    return {lab: {k: v / counts[lab] for k, v in sorted(fns.items())}
            for lab, fns in sorted(total.items())}


def layer_metrics(spans, ncases: int) -> dict:
    """Per-case per-layer metrics (the names registered in BENCHMARK.json,
    apart from the CLI start-up probes and the tracing overhead)."""
    dur, self_t, outermost = _analyse(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl = defaultdict(float)
    raised = defaultdict(int)
    nbytes = defaultdict(int)
    for i, s in enumerate(spans):
        layer, name = s[LAYER], s[NAME]
        calls[layer] += 1
        calls[(layer, name)] += 1
        self_s[layer] += self_t[i]
        nbytes[layer] += s[NBYTES]
        if outermost[i]:
            incl[(layer, name)] += dur[i]
        if s[RAISED] and (s[PARENT] < 0 or spans[s[PARENT]][LAYER] != layer):
            raised[layer] += 1
    per = 1.0 / max(ncases, 1)
    m = {
        "linalg.eigh.calls": calls[(NUMPY, "eigh")] + calls[(NUMPY, "eigvalsh")],
        "linalg.svd.calls": calls[(NUMPY, "svd")],
        "linalg.other.calls": sum(calls[(NUMPY, n)] for n in ("qr", "lstsq", "inv", "solve")),
        "linalg.decomp_s": sum(d for s, d in zip(spans, dur) if s[LAYER] == NUMPY),
        "linalg.self_s": self_s["linalg"],
        "linalg.factor_mb": nbytes[NUMPY] / 1e6,
        "frames.calls": calls["frames"],
        "frames.self_s": self_s["frames"],
        "frames.classify_s": incl[("frames", "classify")],
        "frames.frame_operator.calls": calls[("frames", "frame_operator")],
        "duality.calls": calls["duality"],
        "duality.self_s": self_s["duality"],
        "duality.kernel_vector_s": incl[("duality", "kernel_vector")],
        "perturbation.calls": calls["perturbation"],
        "perturbation.self_s": self_s["perturbation"],
        "perturbation.gavruta_s": incl[("perturbation", "gavruta_check")],
        "coherent.calls": calls["coherent"],
        "coherent.self_s": self_s["coherent"],
        "coherent.build_fock_s": incl[("coherent", "build_fock")],
        "coherent.ladder_s": incl[("coherent", "ladder_ops")],
        "coherent.quadrature_s": incl[("coherent", "quadrature_identity")],
        "coherent.uncertainty_s": incl[("coherent", "uncertainty_product")],
        "coherent.bicoherent_s": incl[("coherent", "bicoherent_family")],
        "frame_io.parse_s": incl[("frame_io", "parse_spec")],
        "frame_io.serialize_s": incl[("frame_io", "serialize")],
        "frame_io.mb": nbytes["frame_io"] / 1e6,
        "cli.main_s": incl[("cli", "main")],
        "cli.self_s": self_s["cli"],
    }
    m = {k: v * per for k, v in m.items()}
    m.update({f"{layer}.raised": raised[layer] * per for layer in LAYERS})
    return m
