"""Spans around the public functions of each dtgcert layer, installed from outside.

The package is not changed: install() replaces every public function of the
layer modules, a few public methods, and the Poly arithmetic operators with
recording wrappers. A wrapper is bound wherever a caller looks the name up,
so names that one module imports from another (gates.exp_compare,
gates.factorize, fusion.distinct_nontrivial_lengths, cli.bhk_gate, ...) are
replaced too. Each call records a span (name, start, end, parent) in memory;
write() puts them in a file at the end and summary() derives call counts,
inclusive seconds and per-layer self seconds from them.
"""
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter, defaultdict

#: The layers, bottom up; each is a module of the package.
LAYERS = ("exact", "groups", "tables", "fusion", "gates", "pipeline", "cli")

#: Span name -> the attributes of exact.Poly that one wrapper replaces.
POLY_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "neg": ("__neg__",),
    "div": ("__truediv__",),
    "pow": ("__pow__",),
    "eval": ("__call__",),
    "eval_int": ("eval_int",),
}

#: Public methods of groups.CaseFamily that get spans.
FAMILY_METHODS = ("param_for_n", "n_of_param", "table_variable", "q_value", "field_exponent")


class Recorder:
    """Spans in flat arrays; a span's parent is the index of the enclosing span, or -1."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.families = []
        self.instantiations = []
        self.emit_bytes = 0

    def wrap(self, span_name, fn, observe=None):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            result = None
            t = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[i] = clock()
                starts[i] = t
                stack.pop()
                if observe is not None:
                    observe(args, result)

        return wrapper

    def _observe_build(self, args, result):
        self.families.append(args[0])

    def _observe_instantiate(self, args, result):
        self.instantiations.append((args[0], args[1]))

    def _observe_emit(self, args, result):
        if result is not None:
            self.emit_bytes += len(result)

    def summary(self):
        """Per-name calls and inclusive seconds, per-layer self seconds, waste counts.

        Inclusive seconds skip a span nested inside a span of the same name.
        Self seconds are a span's duration minus its children's durations.
        Tables are keyed by value, so a table equal to its family's canonical
        table counts as that family and every fault-injection mutant is new.
        """
        n = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += dur[i]
        calls = Counter()
        inclusive = defaultdict(float)
        self_s = dict.fromkeys(LAYERS, 0.0)
        open_spans, open_names = [], Counter()
        for i in range(n):
            p, nid = self.parent[i], self.name[i]
            while open_spans and open_spans[-1] != p:
                open_names[self.name[open_spans.pop()]] -= 1
            calls[nid] += 1
            if not open_names[nid]:
                inclusive[nid] += dur[i]
            self_s[self.names[nid].split(".", 1)[0]] += dur[i] - children[i]
            open_spans.append(i)
            open_names[nid] += 1
        return {
            "spans": n,
            "calls": {self.names[k]: v for k, v in calls.items()},
            "s": {self.names[k]: v for k, v in inclusive.items()},
            "self_s": self_s,
            "distinct_families": len(set(self.families)),
            "distinct_instantiations": len(set(self.instantiations)),
            "emit_bytes": self.emit_bytes,
        }

    def write(self, path):
        """Tab-separated spans, times in seconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\t{self.parent[i]}\n"
                )


def install(package):
    """Wrap every public function of each layer module; returns the Recorder."""
    rec = Recorder()
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    observers = {
        "tables.build_table": rec._observe_build,
        "tables.instantiate": rec._observe_instantiate,
        "pipeline.emit": rec._observe_emit,
    }
    replacement = {}
    for layer, module in zip(LAYERS, modules):
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            span_name = f"{layer}.{attr}"
            replacement[id(obj)] = (obj, rec.wrap(span_name, obj, observers.get(span_name)))
    for module in [package] + modules:
        for attr, obj in list(vars(module).items()):
            original, wrapper = replacement.get(id(obj), (None, None))
            if original is obj:
                setattr(module, attr, wrapper)

    poly = modules[0].Poly
    for op, attrs in POLY_OPS.items():
        wrapper = rec.wrap(f"exact.Poly.{op}", vars(poly)[attrs[0]])
        for attr in attrs:
            setattr(poly, attr, wrapper)
    family = modules[1].CaseFamily
    for method in FAMILY_METHODS:
        setattr(family, method, rec.wrap(f"groups.CaseFamily.{method}", vars(family)[method]))
    return rec
