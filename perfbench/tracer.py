"""Run one tricomm CLI command with the calls into every layer traced.

Usage (with tricomm importable, e.g. PYTHONPATH=src):

    python3 perfbench/tracer.py expand -N 400

Before the command runs, every public function of the layer modules
(`numtheory`, `partitions`, `series`, `permgroup`, `wreath`, `pipeline`,
`cli`) is replaced by a wrapper, and so is every other reference to it:
names imported with `from ... import`, default arguments such as
`sigma_fn=numtheory.sigma`, and the `compose` that `enumerate_symmetric`
stores in `GroupTable.mul`.  Stdout and the exit code are the command's own.
The trace is written to stderr as one line, `TRACE_MARKER` followed by JSON.

Most wrappers record a span: calls, self time and inclusive time (recursion
counted once).  The leaf functions in `COUNTED` run millions of times per
command, so their wrappers only count calls; their time stays in the self
time of the calling span.
"""

import functools
import inspect
import json
import sys
import time
import types

LAYERS = ("numtheory", "partitions", "series", "permgroup", "wreath", "pipeline", "cli")

PRODUCTS = ("permgroup.compose", "wreath.w_mul")
COMMUTATION_TESTS = ("permgroup.GroupTable._mul_commutes", "wreath.w_commutes")
COUNTED = PRODUCTS + COMMUTATION_TESTS + ("permgroup.inverse_perm", "wreath.w_inv")

# Private functions traced in addition to the public ones, with their span name.
EXTRA_SPANS = {"cli._render": "cli.render"}

# Bindings made by `from ... import` that the trace must reach; a binding
# that exists but still holds the original function fails the trace.
REQUIRED_BINDINGS = {
    "pipeline": ("triples_centralizer", "k_wreath", "k_wreath_series"),
    "cli": (
        "k_wreath",
        "class_structure_report",
        "commuting_pairs",
        "conjugacy_classes",
        "enumerate_symmetric",
        "triples_naive",
    ),
    "wreath": ("conjugacy_classes", "commuting_pairs"),
}

CACHED = ("wreath.k_wreath_series", "permgroup.inverse_perm")

TRACE_MARKER = "perfbench-trace "


class Tracer:
    """Wraps the layer functions of one process and accumulates their spans."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s, active]
        self.cells: dict[str, list] = {}  # counted name -> [calls]
        self.extra: dict[str, float] = {}
        self.hook_errors = 0
        # One frame per open span; a frame accumulates its children's time.
        self.stack: list[list[float]] = [[0.0]]
        self.originals: dict[str, object] = {}
        self.wrapper_of: dict[int, object] = {}
        self.hooks = {
            "series.mul": (self._mul_before, _no_hook),
            "permgroup.centralizer": (_no_hook, self._centralizer_after),
            "permgroup.conjugacy_classes": (self._products_before, self._conjugacy_after),
            "permgroup.commuting_pairs": (self._tests_before, self._pairs_after),
        }

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = self.modules[layer]
            for attr, obj in list(vars(module).items()):
                if not _is_function(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualified = f"{layer}.{attr}"
                if attr.startswith("_") and qualified not in EXTRA_SPANS:
                    continue
                self._wrap(EXTRA_SPANS.get(qualified, qualified), obj)
        table_cls = self.modules["permgroup"].GroupTable
        method = table_cls._mul_commutes
        table_cls._mul_commutes = self._wrap("permgroup.GroupTable._mul_commutes", method)
        self._rebind()

    def _wrap(self, name: str, fn):
        self.originals[name] = fn
        if name in COUNTED:
            wrapper = self._counted(name, fn)
        else:
            wrapper = self._timed(name, fn)
        wrapper.__perfbench_span__ = name
        self.wrapper_of[id(fn)] = wrapper
        return wrapper

    def _rebind(self) -> None:
        """Point every reference to an original function at its wrapper."""
        wrapper_of = self.wrapper_of
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                wrapper = wrapper_of.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
            for fn in _functions_defined_in(module):
                if fn.__defaults__:
                    fn.__defaults__ = tuple(wrapper_of.get(id(v), v) for v in fn.__defaults__)
                if fn.__kwdefaults__:
                    fn.__kwdefaults__ = {
                        k: wrapper_of.get(id(v), v) for k, v in fn.__kwdefaults__.items()
                    }

    def unwrapped_bindings(self) -> list[str]:
        """Required bindings that exist but do not hold a wrapper."""
        missing = []
        for layer, names in REQUIRED_BINDINGS.items():
            for name in names:
                obj = getattr(self.modules[layer], name, None)
                if obj is not None and not hasattr(obj, "__perfbench_span__"):
                    missing.append(f"{layer}.{name}")
        permgroup = self.modules["permgroup"]
        build = self.originals.get("permgroup.enumerate_symmetric")
        if build is not None and not hasattr(build(0).mul, "__perfbench_span__"):
            missing.append("permgroup.GroupTable.mul (compose)")
        if not hasattr(permgroup.GroupTable._mul_commutes, "__perfbench_span__"):
            missing.append("permgroup.GroupTable._mul_commutes")
        return missing

    # -- wrappers -----------------------------------------------------------

    def _counted(self, name: str, fn):
        cell = self.cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter
        before, after = self.hooks.get(name, (None, None))
        signature = inspect.signature(fn) if before else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Hook time is added to the caller's children, out of its self time.
            bound = state = None
            if signature is not None:
                h0 = clock()
                bound = signature.bind(*args, **kwargs).arguments
                state = self._guard(before, bound)
                stack[-1][0] += clock() - h0
            frame = [0.0]
            stack.append(frame)
            rec[3] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[3] -= 1
                rec[0] += 1
                rec[1] += dt - frame[0]
                if not rec[3]:
                    rec[2] += dt
                stack[-1][0] += dt
            if bound is not None:
                h0 = clock()
                self._guard(after, bound, state, result)
                stack[-1][0] += clock() - h0
            return result

        return wrapper

    def _guard(self, hook, *args):
        # A hook that cannot read the arguments of a changed signature loses
        # its extra metric, not the traced command.
        try:
            return hook(*args)
        except (AttributeError, KeyError, TypeError):
            self.hook_errors += 1
            return None

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _count(self, names) -> int:
        return sum(self.cells[n][0] for n in names if n in self.cells)

    # -- hooks: numerators and denominators of the per-layer ratios ---------

    def _mul_before(self, bound):
        f, g, order = bound["f"], bound["g"], bound["order"]
        nonzero = min(
            sum(1 for c in f.coeffs[: order + 1] if c),
            sum(1 for c in g.coeffs[: order + 1] if c),
        )
        self._add("series.mul.sparse_share_sum", nonzero / (order + 1))

    def _centralizer_after(self, bound, state, result):
        self._add("permgroup.centralizer.kept", len(result.elements))
        self._add("permgroup.centralizer.tested", len(bound["table"].elements))

    def _products_before(self, bound):
        return self._count(PRODUCTS)

    def _conjugacy_after(self, bound, state, result):
        if state is not None:
            self._add("permgroup.conjugacy_classes.products", self._count(PRODUCTS) - state)
        self._add("permgroup.conjugacy_classes.elements", len(bound["table"].elements))

    def _tests_before(self, bound):
        return self._count(COMMUTATION_TESTS)

    def _pairs_after(self, bound, state, result):
        if state is not None:
            self._add("permgroup.commuting_pairs.tests", self._count(COMMUTATION_TESTS) - state)

    # -- report -------------------------------------------------------------

    def report(self) -> dict:
        caches = {}
        for name in CACHED:
            fn = self.originals.get(name)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                caches[name] = [info.hits, info.misses]
        return {
            "spans": {name: rec[:3] for name, rec in self.spans.items()},
            "counts": {name: cell[0] for name, cell in self.cells.items()},
            "extra": self.extra,
            "caches": caches,
            "hook_errors": self.hook_errors,
        }


def _no_hook(*args) -> None:
    return None


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _functions_defined_in(module):
    """Plain functions of a module and of its classes, lru_cache unwrapped."""
    for obj in list(vars(module).values()):
        candidates = list(vars(obj).values()) if isinstance(obj, type) else [obj]
        for fn in candidates:
            fn = inspect.unwrap(fn) if callable(fn) else fn
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                yield fn


def main(argv: list[str]) -> int:
    import importlib

    modules = {layer: importlib.import_module(f"tricomm.{layer}") for layer in LAYERS}
    modules["tricomm"] = sys.modules["tricomm"]
    tracer = Tracer(modules)
    tracer.install()
    try:
        return modules["cli"].main(argv)
    finally:
        sys.stdout.flush()
        report = tracer.report()
        # Checked after the report is taken: the check builds a table.
        report["unwrapped"] = tracer.unwrapped_bindings()
        sys.stderr.write(TRACE_MARKER + json.dumps(report) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
