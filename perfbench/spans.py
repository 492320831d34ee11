"""Span tracing of memsmag's layers, installed from outside the package.

Every public function of a layer module is replaced, in every memsmag
module that binds it, by a wrapper that records one span: name, start,
end and the span that was open when it started. Calls from one module
into another, and inside one module, therefore all go through a wrapper,
and a layer's self time excludes its callees. Spans stay in memory in
flat arrays and are written out once, at the end of the run.
"""

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "scenario",
    "explorer",
    "mechanics",
    "transduction",
    "noise",
    "dynamics",
    "beam_oracle",
    "cli",
)

# Library functions bound into a layer module, traced under their own name.
EXTERNAL = {
    ("explorer", "minimize"): "scipy.minimize",
    ("dynamics", "minimize_scalar"): "scipy.minimize_scalar",
}


def _format_tag(args, kwargs):
    return kwargs.get("format", args[1] if len(args) > 1 else "")


def _grid_tag(args, kwargs):
    return "n%d" % kwargs.get("grid_size", args[1] if len(args) > 1 else 400)


# Spans of these functions carry a suffix taken from one argument.
TAGS = {
    "explorer.emit_report": _format_tag,
    "beam_oracle.solve_static": _grid_tag,
}


# Work counted from the result of a traced call, as {counter: units}.
COUNTERS = {
    "dynamics.simulate_transient": lambda series: {"steps": len(series.time) - 1},
    "explorer.sweep": lambda result: {"points": len(result.values)},
    "explorer.optimize": lambda result: {
        "evals": len(result.trace),
        "feasible": sum(entry["feasible"] for entry in result.trace),
    },
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = {}
        self._open = [-1]
        self._restore = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tag = TAGS.get(name)
        counter = COUNTERS.get(name)
        fixed_id = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed_id if tag is None else tracer._id(f"{name}.{tag(args, kwargs)}")
            index = len(tracer.parent)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._open[-1])
            tracer.end.append(0.0)
            tracer._open.append(index)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = perf_counter()
                tracer._open.pop()
            if counter is not None:
                for key, units in counter(result).items():
                    key = f"{name}.{key}"
                    tracer.counts[key] = tracer.counts.get(key, 0) + units
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions in every memsmag module."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"memsmag.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    targets[obj] = f"{layer}.{attr}"
            for (owner, attr), name in EXTERNAL.items():
                if owner == layer:
                    targets[getattr(module, attr)] = name
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        modules = [m for n, m in sys.modules.items() if n == "memsmag" or n.startswith("memsmag.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if callable(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def __len__(self) -> int:
        return len(self.parent)

    def summary(self) -> dict:
        """Per span name: call count, inclusive and self seconds.

        Also, per optimize and sweep span name, the seconds spent in the
        outermost scenario.build_scenario and explorer.run_scenario spans
        under them, which the per-evaluation overhead subtracts.
        """
        n = len(self.parent)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        names = self.names
        model = {self._ids.get("scenario.build_scenario"), self._ids.get("explorer.run_scenario")}
        model.discard(None)
        searches = {self._ids.get("explorer.optimize"), self._ids.get("explorer.sweep")}
        searches.discard(None)
        # For each span: the optimize/sweep span above it, and whether a
        # build/run span is already above it.
        search_of = [-1] * n
        under_model = [False] * n
        stats = {}
        inside = {}
        for i in range(n):
            p = self.parent[i]
            nid = self.name_id[i]
            if p >= 0:
                search_of[i] = p if self.name_id[p] in searches else search_of[p]
                under_model[i] = under_model[p] or self.name_id[p] in model
            entry = stats.setdefault(names[nid], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur[i]
            entry[2] += dur[i] - child[i]
            if nid in model and search_of[i] >= 0 and not under_model[i]:
                key = names[self.name_id[search_of[i]]]
                inside[key] = inside.get(key, 0.0) + dur[i]
        return {
            "spans": {k: {"calls": c, "incl_s": t, "self_s": s} for k, (c, t, s) in stats.items()},
            "model_inside": inside,
            "counts": dict(self.counts),
        }

    def descendants_per_call(self, outer: str, inner: str) -> float:
        """Mean number of `inner` spans (any tag) nested under one `outer` span."""
        n = len(self.parent)
        oid = self._ids.get(outer)
        inner_ids = {i for name, i in self._ids.items() if name == inner or name.startswith(inner + ".")}
        outer_of = [-1] * n
        found, calls = 0, 0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                outer_of[i] = p if self.name_id[p] == oid else outer_of[p]
            if self.name_id[i] == oid:
                calls += 1
            elif self.name_id[i] in inner_ids and outer_of[i] >= 0:
                found += 1
        return found / calls if calls else 0.0

    def write(self, path) -> None:
        """All spans as csv: index, name, start and end in seconds, parent index."""
        with open(path, "w") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for i in range(len(self.parent)):
                handle.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]}\n"
                )
