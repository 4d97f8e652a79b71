"""Spans around calls into the public functions of each ktops module.

`Tracer.install()` replaces every public function and method of the
listed modules with a wrapper that records one span per call: name,
start, end, parent span and op id.  Bindings imported by name into other
modules (`checks.theta`, `spectra.theta`, `modules.nu`, the package
re-exports) are replaced too, so a call is seen whichever name it goes
through.  Spans stay in memory as flat arrays until `write()`.

Per-layer figures are derived from the spans afterwards: calls per
function, and busy and self time per module.  A few observers read
results at the boundary (coefficient bit lengths, table reuse, verdict
cells); their own time is recorded as a `trace` span so it is not
charged to the layer that made the call.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import weakref
from array import array
from collections import Counter

MODULES = ("rationals", "laurent", "coalgebra", "dual", "spectra", "checks", "modules", "cli")

# arithmetic dunders worth a span; the rest are construction or comparison
DUNDERS = {
    "__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
    "__sub__": "sub", "__rsub__": "sub", "__call__": "call", "__pow__": "pow",
}


# O(1) accessors called once per coefficient: a span would cost more than
# the call itself, so their time stays with the caller
UNTRACED = {
    "rationals.as_fraction", "laurent.coeff", "coalgebra.window",
    "coalgebra.resolving_index", "coalgebra.extending_slot",
}

# checks entry points whose results are verdict cells
_CELL_MAKERS = ("checks.check_", "checks.condition_report")


def _bits(values) -> int:
    top = 0
    for v in values:
        n = max(v.numerator.bit_length(), v.denominator.bit_length())
        if n > top:
            top = n
    return top


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.stack: list[int] = [-1]
        self._modules: dict[str, int] = {}
        self.mods: list[int] = [-1]  # module id of each open span
        self._trace_mid = self._module_id("trace")
        self.inner_calls: Counter = Counter()  # by name id, calls made without a span
        self.op = -1
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._tables = weakref.WeakKeyDictionary()
        self._table_calls = 0
        self._table_repeats = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _module_id(self, name: str) -> int:
        return self._modules.setdefault(name.split(".", 1)[0], len(self._modules))

    def _open(self, nid: int, mid: int) -> int:
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.op_of.append(self.op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.mods.append(mid)
        return i

    def wrap(self, name: str, fn, observer=None):
        nid = self._id(name)
        mid = self._module_id(name)
        obs_id = self._id("trace.observe")
        clock = time.perf_counter
        end, start, stack, mods, open_ = self.end, self.start, self.stack, self.mods, self._open
        inner = self.inner_calls

        if observer is None:
            def traced(*args, **kw):
                if mods[-1] == mid:
                    # a call inside its own layer: its time is the caller's
                    # self time either way, so count it and skip the span
                    inner[nid] += 1
                    return fn(*args, **kw)
                i = open_(nid, mid)
                start[i] = clock()
                try:
                    return fn(*args, **kw)
                finally:
                    end[i] = clock()
                    stack.pop()
                    mods.pop()
        else:
            def traced(*args, **kw):
                i = open_(nid, mid)
                start[i] = clock()
                try:
                    result = fn(*args, **kw)
                finally:
                    end[i] = clock()
                    stack.pop()
                    mods.pop()
                j = open_(obs_id, self._trace_mid)
                start[j] = clock()
                try:
                    observer(result, args)
                finally:
                    end[j] = clock()
                    stack.pop()
                    mods.pop()
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        if value > self.peaks.get(key, 0):
            self.peaks[key] = value

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------

    def _seen(self, spec, key) -> bool:
        seen = self._tables.get(spec)
        if seen is None:
            seen = self._tables[spec] = set()
        if key in seen:
            return True
        seen.add(key)
        return False

    def _obs_gamma(self, result, args):
        self._table_calls += 1
        if self._seen(args[0], ("gamma", args[1])):
            self._table_repeats += 1
        else:
            self.peak("coalgebra.coef_bits_max", max((_bits(row) for row in result), default=0))

    def _obs_coords(self, result, args):
        if not self._seen(args[0], ("coords", args[1])):
            self.peak("coalgebra.coef_bits_max", _bits(result))

    def _obs_dual(self, result, args):
        self.peak("dual.coef_bits_max", _bits(result.coeffs))

    def _obs_validate(self, result, args):
        self.count("modules.relations", args[0].level ** 2)

    def _obs_checks(self, result, args):
        # only the outermost checks call is a cell; nested ones are its parts
        parent = self.parent[self.stack[-1]]
        if parent >= 0 and self.names[self.name_of[parent]].startswith("checks."):
            return
        rows = getattr(result, "rows", None)
        if rows is None:
            if not hasattr(result, "condition"):
                return
            rows = (result,)
        for r in rows:
            self.count("checks.cells")
            if isinstance(r.checked, dict) and "cross" in r.checked:
                self.count("checks.cross_expansions")
            if r.control and not r.holds:
                self.count("checks.control_fail_cells")

    def _observer(self, qualified: str):
        return {
            "coalgebra.coproduct_matrix": self._obs_gamma,
            "coalgebra.basis_coords": self._obs_coords,
            "dual.multiply": self._obs_dual,
            "dual.invert": self._obs_dual,
            "dual.expand": self._obs_dual,
            "modules.validate_module": self._obs_validate,
        }.get(qualified, self._obs_checks if qualified.startswith(_CELL_MAKERS) else None)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, package: str = "ktops") -> None:
        """Wrap the public surface of every module in MODULES."""
        replaced: dict[int, object] = {}
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    name = f"{short}.{attr}"
                    if name in UNTRACED:
                        continue
                    wrapped = self.wrap(name, value, self._observer(name))
                    replaced[id(value)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(value):
                    self._wrap_methods(short, value)
        # rebind every name imported from a wrapped module
        for name in list(sys.modules):
            if name != package and not name.startswith(package + "."):
                continue
            mod = sys.modules[name]
            for attr, value in list(vars(mod).items()):
                wrapped = replaced.get(id(value))
                if wrapped is not None and wrapped is not value:
                    setattr(mod, attr, wrapped)

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr.startswith("_"):
                if attr not in DUNDERS:
                    continue
                label = DUNDERS[attr]
            else:
                label = attr
            name = f"{short}.{label}"
            if name in UNTRACED:
                continue
            setattr(cls, attr, self.wrap(name, value, self._observer(name)))

    # ------------------------------------------------------------------
    # derived figures
    # ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Calls per function, self time per module; times over ops only."""
        n = len(self.start)
        names = [self.names[k] for k in self.name_of]
        module = [s.split(".", 1)[0] for s in names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = dur[:]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        calls = Counter(names)
        for nid, c in self.inner_calls.items():
            calls[self.names[nid]] += c
        self_s = Counter()
        busy = Counter()
        for i in range(n):
            if self.op_of[i] < 0:
                continue
            self_s[module[i]] += own[i]
            # busy time counts a span only when no ancestor is in the same module
            p = self.parent[i]
            while p >= 0 and module[p] != module[i]:
                p = self.parent[p]
            if p < 0:
                busy[module[i]] += dur[i]
        out = {}
        for m in MODULES + ("trace",):
            out[f"{m}.self_s"] = self_s[m]
            out[f"{m}.busy_s"] = busy[m]
        for name, c in calls.items():
            out[f"{name}.calls"] = c
        out.update(self.counts)
        out.update(self.peaks)
        out["coalgebra.table_repeat_ratio"] = (
            self._table_repeats / self._table_calls if self._table_calls else 0.0
        )
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name_of[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op_of[i]]) + "\n")
