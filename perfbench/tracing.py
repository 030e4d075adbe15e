"""Span tracing of the crancache layers, installed from outside the package.

`Tracer.installed()` replaces every public function and method of the traced
modules with a timing wrapper, at every place the name is looked up: the
defining module, each module that imported it by name, and module-level
dicts that hold it (such as the CLI's command table). Leaving the block
restores the originals. A wrapper only times the call and passes arguments,
results and exceptions through, so traced runs compute exactly what
untraced runs compute.

Spans (name, start, end, parent) are kept in memory and written out by
`write`. A span's self time is its duration minus the durations of its
direct children; spans nest because the benchmark runs in one thread.
"""
import contextlib
import dataclasses
import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

# (layer label used in span names, module whose public names are traced)
LAYERS = (
    ("sim", "crancache.sim.episode"),
    ("sim.world", "crancache.sim.world"),
    ("qos", "crancache.qos"),
    ("data", "crancache.data"),
    ("esn", "crancache.esn.content"),
    ("esn", "crancache.esn.mobility"),
    ("esn", "crancache.esn.memory"),
    ("kernels", "crancache._kernels"),
    ("cache", "crancache.cache"),
    ("cli", "crancache.cli"),
)


def traced_targets():
    """(span name, owner, attribute, original) for every traced callable.

    Module-level functions have owner None; methods have their class as owner.
    """
    targets = []
    for label, modname in LAYERS:
        module = importlib.import_module(modname)
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith(modname):
                continue
            if inspect.isclass(obj):
                for attr, member in sorted(vars(obj).items()):
                    constructor = attr == "__init__" and not dataclasses.is_dataclass(obj)
                    if inspect.isfunction(member) and (constructor or not attr.startswith("_")):
                        targets.append((f"{label}.{name}.{attr}", obj, attr, member))
            elif callable(obj):
                targets.append((f"{label}.{name}", None, name, obj))
    names = [t[0] for t in targets]
    if len(names) != len(set(names)):
        raise RuntimeError("two traced callables share a span name")
    return targets


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, observers=None):
        self.observers = observers or {}   # span name -> fn(args, kwargs) run before the call
        self.names = []
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.selfs = array("d")
        self.raised = set()
        self._open = []       # indices of spans not yet ended
        self._child = []      # child time accumulated by each open span
        self._restore = []

    def wrap(self, fn, name):
        names, parents, starts, ends, selfs = (self.names, self.parents, self.starts,
                                               self.ends, self.selfs)
        open_spans, child, raised = self._open, self._child, self.raised
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            idx = len(names)
            names.append(name)
            parents.append(open_spans[-1] if open_spans else -1)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            open_spans.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.add(idx)
                raise
            finally:
                t1 = clock()
                open_spans.pop()
                inner = child.pop()
                starts[idx] = t0
                ends[idx] = t1
                selfs[idx] = (t1 - t0) - inner
                if child:
                    child[-1] += t1 - t0

        return traced

    def install(self):
        targets = traced_targets()
        unknown = set(self.observers) - {t[0] for t in targets}
        if unknown:
            raise ValueError(f"observers for untraced names: {sorted(unknown)}")
        wrappers = {}
        for name, owner, attr, original in targets:
            wrapper = self.wrap(original, name)
            wrappers[id(original)] = (original, wrapper)
            if owner is not None:
                setattr(owner, attr, wrapper)
                self._restore.append((setattr, owner, attr, original))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "crancache" or n.startswith("crancache."))]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]
                    self._restore.append((dict.__setitem__, namespace, key, value))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        hit = wrappers.get(id(dvalue))
                        if hit is not None and hit[0] is dvalue:
                            value[dkey] = hit[1]
                            self._restore.append((dict.__setitem__, value, dkey, dvalue))

    def uninstall(self):
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def aggregate(self):
        """name -> (calls, summed self seconds, list of span durations)."""
        out = {}
        for i, name in enumerate(self.names):
            calls, self_s, durations = out.get(name, (0, 0.0, []))
            durations.append(self.ends[i] - self.starts[i])
            out[name] = (calls + 1, self_s + self.selfs[i], durations)
        return out

    def self_total(self):
        return float(sum(self.selfs))

    def write(self, path):
        """Write every span as gzip CSV, times in seconds from the first span."""
        origin = self.starts[0] if self.names else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_s,end_s,self_s,raised\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{self.parents[i]},{name},{self.starts[i] - origin:.9f},"
                         f"{self.ends[i] - origin:.9f},{self.selfs[i]:.9f},"
                         f"{int(i in self.raised)}\n")
