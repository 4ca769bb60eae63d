"""Per-layer tracing of plcensus from outside the package.

The tracer replaces each traced function with a wrapper at every place the
function is bound inside the loaded ``plcensus`` modules and the benchmark's
own modules: module globals, class attributes, dict/list/tuple values held in
module globals (``census.OPERATORS`` keeps ``phi1``/``phi2`` in tuples),
closure cells and default arguments.  ``install`` fails loudly if a reference
to an original survives, so a binding the scan cannot patch is never silently
left untraced.

A wrapper counts only while the tracer is ``active`` (inside a timed job
span), so oracle checks run outside the spans are never counted.  Spans are
aggregated per function (calls and self time) rather than stored one by one:
``PLMap.__call__`` runs millions of times per pass.  Self time is a span's
duration minus the durations of the traced spans it directly caused.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

# metric prefix -> (module, attribute path)
TARGETS = {
    "exactnum.recurrence_eval": ("plcensus.exactnum", "recurrence_eval"),
    "exactnum.series_expand": ("plcensus.exactnum", "series_expand"),
    "exactnum.charpoly": ("plcensus.exactnum", "charpoly"),
    "exactnum.mat_mul": ("plcensus.exactnum", "_mat_mul"),
    "plmap.eval": ("plcensus.plmap", "PLMap.__call__"),
    "plmap.iterate_pieces": ("plcensus.plmap", "PLMap.iterate_pieces"),
    "plmap.count_solutions": ("plcensus.plmap", "PLMap.count_solutions"),
    "plmap.solution_set": ("plcensus.plmap", "PLMap.solution_set"),
    "plmap.count_sequence": ("plcensus.plmap", "PLMap.count_sequence"),
    "families.build": ("plcensus.families", "FamilyParams.build"),
    "sequences.terms": ("plcensus.sequences", "terms"),
    "census.factorize": ("plcensus.census", "factorize"),
    "census.phi1": ("plcensus.census", "phi1"),
    "census.phi2": ("plcensus.census", "phi2"),
    "census.verify_congruence": ("plcensus.census", "verify_congruence"),
    "census.explore_qrs": ("plcensus.census", "explore_qrs"),
    "census.periodic_census": ("plcensus.census", "periodic_census"),
    "census.symmetric_census": ("plcensus.census", "symmetric_census"),
    "cli.main": ("plcensus.cli", "main"),
}

SOLVES = ("plmap.count_solutions", "plmap.solution_set")


class TracerMiss(RuntimeError):
    """A traced function is still reachable unwrapped after install."""


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


# the package and the benchmark modules that call into it
SCANNED = ("plcensus", "workloads", "oracles")


def _scanned_modules() -> list[types.ModuleType]:
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and any(name == p or name.startswith(p + ".") for p in SCANNED)
    ]


class Tracer:
    """Aggregating span recorder for the functions in ``TARGETS``."""

    def __init__(self):
        self.active = False
        self._sites: list[tuple] = []
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[list[float]] = []
        self._census_m: int | None = None
        self.calls = {name: 0 for name in TARGETS}
        self.self_s = {name: 0.0 for name in TARGETS}
        self.counts = {
            "terms": 0,
            "pieces": 0,
            "points": 0,
            "pieces_solves": 0,
            "pieces_built_in_solves": 0,
            "solutions_in_pieces_solves": 0,
            "walked": 0,
            "least_period_in_walks": 0,
        }

    # -- wrapping -------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        frame = [perf_counter(), 0.0]
        stack = self._stack
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[0]
            stack.pop()
            if stack:
                stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]

    def _make_wrapper(self, name: str, orig):
        tracer = self
        counts = self.counts

        if name == "exactnum.recurrence_eval":

            def post(args, kwargs, result):
                counts["terms"] += len(result)

        elif name == "plmap.iterate_pieces":

            def post(args, kwargs, result):
                counts["pieces"] += len(result)

        elif name == "plmap.solution_set":

            def post(args, kwargs, result):
                counts["points"] += len(result.points)
                k = args[1] if len(args) > 1 else kwargs["k"]
                if tracer._census_m == k:
                    counts["walked"] += len(result.points)

        else:
            post = None

        if name in SOLVES:
            is_count = name == "plmap.count_solutions"

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return orig(*args, **kwargs)
                pieces_calls = tracer.calls["plmap.iterate_pieces"]
                pieces = counts["pieces"]
                found = 0
                try:
                    result = tracer._span(name, orig, args, kwargs)
                    found = result if is_count else len(result.points)
                    if post is not None:
                        post(args, kwargs, result)
                    return result
                finally:
                    if tracer.calls["plmap.iterate_pieces"] > pieces_calls:
                        counts["pieces_solves"] += 1
                        counts["pieces_built_in_solves"] += counts["pieces"] - pieces
                        counts["solutions_in_pieces_solves"] += found

        elif name == "census.periodic_census":

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return orig(*args, **kwargs)
                m = args[1] if len(args) > 1 else kwargs["m"]
                outer, tracer._census_m = tracer._census_m, m
                walked = counts["walked"]
                try:
                    result = tracer._span(name, orig, args, kwargs)
                finally:
                    tracer._census_m = outer
                if counts["walked"] > walked:
                    counts["least_period_in_walks"] += result.count
                return result

        else:

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return orig(*args, **kwargs)
                result = tracer._span(name, orig, args, kwargs)
                if post is not None:
                    post(args, kwargs, result)
                return result

        return wrapper

    def _replace_everywhere(self, orig, new) -> int:
        """Swap ``orig`` for ``new`` at every binding site; return the count."""
        hits = 0

        def swap_container(holder, key, value):
            nonlocal hits
            if value is orig:
                holder[key] = new
                hits += 1
                self._sites.append(("item", holder, key, orig, new))
            elif isinstance(value, tuple) and any(v is orig for v in value):
                fixed = tuple(new if v is orig else v for v in value)
                holder[key] = fixed
                hits += 1
                self._sites.append(("item", holder, key, value, fixed))

        for mod in _scanned_modules():
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                swap_container(namespace, key, value)
                if isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        swap_container(value, k2, v2)
                elif isinstance(value, list):
                    for i, v2 in enumerate(list(value)):
                        swap_container(value, i, v2)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for k2, v2 in list(vars(value).items()):
                        if v2 is orig:
                            setattr(value, k2, new)
                            hits += 1
                            self._sites.append(("attr", value, k2, orig, new))
            for fn in _functions_in(namespace):
                for cell in fn.__closure__ or ():
                    try:
                        contents = cell.cell_contents
                    except ValueError:
                        continue
                    if contents is orig and fn not in self._wrappers.values():
                        cell.cell_contents = new
                        hits += 1
                        self._sites.append(("cell", cell, None, orig, new))
                if fn.__defaults__ and any(d is orig for d in fn.__defaults__):
                    old = fn.__defaults__
                    fn.__defaults__ = tuple(new if d is orig else d for d in old)
                    hits += 1
                    self._sites.append(("defaults", fn, None, old, fn.__defaults__))
        return hits

    def install(self) -> None:
        if self._sites:
            raise RuntimeError("tracer already installed")
        if not self._originals:
            for name, (module, path) in TARGETS.items():
                orig = _resolve(module, path)
                self._originals[name] = orig
                self._wrappers[name] = self._make_wrapper(name, orig)
        problems = [
            f"{name} has no binding site"
            for name, orig in self._originals.items()
            if not self._replace_everywhere(orig, self._wrappers[name])
        ]
        problems += self.unwrapped_references()
        if problems:
            self.uninstall()
            raise TracerMiss("; ".join(problems))

    def uninstall(self) -> None:
        for kind, holder, key, old, _new in reversed(self._sites):
            if kind == "item":
                holder[key] = old
            elif kind == "attr":
                setattr(holder, key, old)
            elif kind == "cell":
                holder.cell_contents = old
            else:
                holder.__defaults__ = old
        self._sites.clear()

    def unwrapped_references(self) -> list[str]:
        """Places where an original traced function is still reachable."""
        found = []
        originals = {id(o): n for n, o in self._originals.items()}
        wrappers = set(map(id, self._wrappers.values()))

        def check(where, value):
            if id(value) in originals:
                found.append(f"{originals[id(value)]} at {where}")
            elif isinstance(value, tuple):
                for v in value:
                    if id(v) in originals:
                        found.append(f"{originals[id(v)]} in a tuple at {where}")

        for mod in _scanned_modules():
            namespace = vars(mod)
            for key, value in namespace.items():
                check(f"{mod.__name__}.{key}", value)
                if isinstance(value, dict):
                    for k2, v2 in value.items():
                        check(f"{mod.__name__}.{key}[{k2!r}]", v2)
                elif isinstance(value, list):
                    for i, v2 in enumerate(value):
                        check(f"{mod.__name__}.{key}[{i}]", v2)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for k2, v2 in vars(value).items():
                        check(f"{mod.__name__}.{key}.{k2}", v2)
            for fn in _functions_in(namespace):
                if id(fn) in wrappers:
                    continue
                for cell in fn.__closure__ or ():
                    try:
                        check(f"closure of {fn.__qualname__}", cell.cell_contents)
                    except ValueError:
                        pass
                for d in fn.__defaults__ or ():
                    check(f"defaults of {fn.__qualname__}", d)
        return found

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """(value, unit) per metric: per-pass averages over ``passes``
        traced passes, and ratios over all of them."""
        out: dict[str, tuple[float, str]] = {}
        for name in TARGETS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        c = self.counts
        solves = sum(self.calls[n] for n in SOLVES)
        out["exactnum.recurrence_eval.terms"] = (c["terms"] / passes, "count")
        out["plmap.iterate_pieces.pieces"] = (c["pieces"] / passes, "count")
        out["plmap.solution_set.points"] = (c["points"] / passes, "count")
        out["plmap.solve_calls"] = (solves / passes, "count")
        out["plmap.pieces_share"] = (_ratio(c["pieces_solves"], solves), "ratio")
        out["plmap.pieces_useful_ratio"] = (
            _ratio(c["solutions_in_pieces_solves"], c["pieces_built_in_solves"]),
            "ratio",
        )
        out["census.periodic_census.walked"] = (c["walked"] / passes, "count")
        out["census.periodic_census.useful_ratio"] = (
            _ratio(c["least_period_in_walks"], c["walked"]),
            "ratio",
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _functions_in(namespace: dict):
    """Plain functions reachable from a module namespace: top-level ones,
    methods of its classes, and functions stored in its dicts and lists."""
    for value in list(namespace.values()):
        if isinstance(value, types.FunctionType):
            yield value
        elif isinstance(value, type):
            for v2 in list(vars(value).values()):
                if isinstance(v2, types.FunctionType):
                    yield v2
        elif isinstance(value, dict):
            for v2 in list(value.values()):
                if isinstance(v2, types.FunctionType):
                    yield v2
        elif isinstance(value, list):
            for v2 in value:
                if isinstance(v2, types.FunctionType):
                    yield v2
