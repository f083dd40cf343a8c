"""Span recorder for the traced run, wrapped around cohomkit's public calls.

The program is not edited: `install` replaces each traced function with a
recording wrapper, in every cohomkit module that binds it (modules import
these names directly, so the defining module alone is not enough), and
methods are wrapped on their class.  A span records its name, start, end,
parent span and counters.  Functions called per tuple or per row
(`coboundary_at`, `ModularEchelon.insert`, the `differential_rows`
generator) would flood the trace with spans, so they are aggregated
instead: call count and busy time per name.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_clock = time.perf_counter


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "counters")

    def __init__(self, sid, name, start, parent):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counters = {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}   # name -> [calls, seconds]
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, _clock(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()

    # -- derived views --

    def self_times(self) -> dict[str, float]:
        """Per name: span time minus the part its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child[s.id]
        return out

    def write(self, path: str, header: dict) -> None:
        doc = dict(header)
        doc["spans"] = [[s.id, s.name, s.start, s.end, s.parent, s.counters]
                        for s in self.spans]
        doc["aggregated"] = {k: {"calls": v[0], "seconds": v[1]}
                             for k, v in self.hot.items()}
        doc["self_s"] = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- wrappers ----------------------------------------------------------------

def _span(tracer, name, fn, counters=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.counters["raised"] = 1
            raise
        finally:
            tracer.end(span)
        if counters is not None:
            span.counters.update(counters(args, result))
        return result
    return wrapper


def _hot(tracer, name, fn):
    entry = tracer.hot.setdefault(name, [0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            entry[0] += 1
            entry[1] += _clock() - t
    return wrapper


def _rows(tracer, fn):
    """differential_rows is a generator: time only the work inside it."""
    busy = tracer.hot.setdefault("cohomology.differential_rows", [0, 0.0])
    nnz = tracer.hot.setdefault("cohomology.differential_rows.nnz", [0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t = _clock()
            try:
                item = next(it)
            except StopIteration:
                busy[1] += _clock() - t
                return
            busy[1] += _clock() - t
            busy[0] += 1
            nnz[0] += len(item[1])
            yield item
    return wrapper


def _file_bytes(args, result):
    path = args[0]
    return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}


def _sweep_counters(args, result):
    elim = args[0]
    core = elim._core
    return {"sweeps": elim.sweeps, "unit_pivots": elim.unit_pivot_count,
            "residue_pivots": len(core.pivots) if core is not None else 0,
            "initial_nnz": elim.initial_nnz}


# (module, attribute, span name or None for aggregation, counters)
_FUNCTIONS = [
    ("cohomology", "compute_cohomology", "cohomology.compute_cohomology", None),
    ("cohomology", "_build_generators", "cohomology.generators", None),
    ("cohomology", "class_coordinates", "cohomology.class_coordinates", None),
    ("cohomology", "is_coboundary", "cohomology.is_coboundary", None),
    ("cohomology", "coboundary_primitive", "cohomology.coboundary_primitive",
     None),
    ("cochains", "coboundary", "cochains.coboundary", None),
    ("cochains", "pullback", "cochains.pullback", None),
    ("groups", "enumerate_surjections", "groups.enumerate_surjections",
     lambda a, r: {"surjections": len(r)}),
    ("lifting", "find_cover", "lifting.find_cover",
     lambda a, r: {"candidates": len(r[1].reports)}),
    ("lifting", "solve_primitive", "lifting.solve_primitive", None),
    ("lifting", "realize", "lifting.realize", None),
    ("skeletons", "pentagon_defect", "skeletons.pentagon_defect",
     lambda a, r: {"tuples": (a[0].cover.order - 1) ** 4}),
    ("skeletons", "twist", "skeletons.twist", None),
    ("skeletons", "opposite", "skeletons.opposite", None),
    ("skeletons", "fiber_product", "skeletons.fiber_product", None),
    ("textio", "read_skeleton", "textio.read_skeleton", _file_bytes),
    ("textio", "read_cochain", "textio.read_cochain", _file_bytes),
    ("textio", "read_group", "textio.read_group", _file_bytes),
    ("textio", "write_skeleton", "textio.write_skeleton", _file_bytes),
    ("textio", "write_cochain", "textio.write_cochain", _file_bytes),
    ("textio", "write_group", "textio.write_group", _file_bytes),
    ("modular", "invariant_factors_modular", "modular.invariant_factors_modular",
     None),
    ("modular", "is_coboundary_bounded", "modular.is_coboundary_bounded", None),
]

_HOT_FUNCTIONS = [("cochains", "coboundary_at", "cochains.coboundary_at")]

# (module, class, method, span name or None for aggregation, counters)
_METHODS = [
    ("sweep", "SweepElimination", "run", "sweep.run", _sweep_counters),
    ("linalg", "SparseElimination", "run", "linalg.run",
     lambda a, r: {"journal_ops": a[0].journal_size()}),
    ("linalg", "SparseElimination", "apply_row_transform",
     "linalg.apply_row_transform", None),
    ("linalg", "SparseElimination", "coker_vector", "linalg.coker_vector", None),
    ("linalg", "SparseElimination", "apply_col_transform",
     "linalg.apply_col_transform", None),
    ("linalg", "SparseElimination", "solve", "linalg.solve", None),
    ("linalg", "SparseElimination", "solvable", "linalg.solvable", None),
    ("modular", "ModularEchelon", "insert", None, None),
    ("modular", "ModularEchelon", "insert_all", "modular.insert_all",
     lambda a, r: {"rows": len(a[0].rows)}),
]

REPLAYS = {"linalg.apply_row_transform", "linalg.coker_vector",
           "linalg.apply_col_transform", "linalg.solve", "linalg.solvable"}
READS = {"textio.read_skeleton", "textio.read_cochain", "textio.read_group"}
WRITES = {"textio.write_skeleton", "textio.write_cochain", "textio.write_group"}


def install(tracer: Tracer):
    """Wrap every traced name; returns a function that undoes it."""
    undo = []
    loaded = [m for name, m in sys.modules.items()
              if name == "cohomkit" or name.startswith("cohomkit.")]

    def rebind(original, wrapper):
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    for mod, attr, name, counters in _FUNCTIONS:
        original = getattr(sys.modules["cohomkit." + mod], attr)
        rebind(original, _span(tracer, name, original, counters))
    for mod, attr, name in _HOT_FUNCTIONS:
        original = getattr(sys.modules["cohomkit." + mod], attr)
        rebind(original, _hot(tracer, name, original))
    rows = sys.modules["cohomkit.cohomology"].differential_rows
    rebind(rows, _rows(tracer, rows))
    for mod, cls_name, attr, name, counters in _METHODS:
        cls = getattr(sys.modules["cohomkit." + mod], cls_name)
        original = cls.__dict__[attr]
        if name is None:
            wrapper = _hot(tracer, f"{mod}.{cls_name}.{attr}", original)
        else:
            wrapper = _span(tracer, name, original, counters)
        setattr(cls, attr, wrapper)
        undo.append((cls, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    def has_ancestor(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    def total(name, keep=lambda s: True):
        return sum(s.end - s.start for s in spans if s.name == name and keep(s))

    def count(name, keep=lambda s: True):
        return sum(1 for s in spans if s.name == name and keep(s))

    def counter(name, key, keep=lambda s: True):
        return sum(s.counters.get(key, 0) for s in spans
                   if s.name == name and keep(s))

    def hot(name):
        return tracer.hot.get(name, [0, 0.0])

    def not_in_sweep(s):
        return parent_name(s) != "sweep.run"

    def top_replay(s):
        return parent_name(s) not in REPLAYS

    def top_textio(group):
        return lambda s: parent_name(s) not in group

    realized = count("lifting.realize", lambda s: "raised" not in s.counters)
    pullbacks_tested = count("cochains.pullback",
                             lambda s: has_ancestor(s, "lifting.find_cover"))
    textio_bytes = sum(counter(name, "bytes") for name in READS | WRITES)
    return {
        "cohomology.rows_s": hot("cohomology.differential_rows")[1],
        "cohomology.rows": hot("cohomology.differential_rows")[0],
        "cohomology.nnz": hot("cohomology.differential_rows.nnz")[0],
        "sweep.run_s": total("sweep.run"),
        "sweep.sweeps": counter("sweep.run", "sweeps"),
        "sweep.unit_pivots": counter("sweep.run", "unit_pivots"),
        "sweep.residue_pivots": counter("sweep.run", "residue_pivots"),
        "linalg.build_s": total("linalg.run", not_in_sweep),
        "linalg.journal_ops": counter("linalg.run", "journal_ops", not_in_sweep),
        "linalg.replay_s": sum(total(n, top_replay) for n in REPLAYS),
        "linalg.replays": sum(count(n, top_replay) for n in REPLAYS),
        "cohomology.generators_s": total("cohomology.generators"),
        "cohomology.coordinates_s": total("cohomology.class_coordinates"),
        "cohomology.coordinates_calls": count("cohomology.class_coordinates"),
        "cohomology.primitive_s": total("cohomology.coboundary_primitive"),
        "cochains.coboundary_s": (total("cochains.coboundary")
                                  + hot("cochains.coboundary_at")[1]),
        "cochains.coboundary_calls": (count("cochains.coboundary")
                                      + hot("cochains.coboundary_at")[0]),
        "cochains.pullback_s": total("cochains.pullback"),
        "cochains.pullback_calls": count("cochains.pullback"),
        "groups.surjections_s": total("groups.enumerate_surjections"),
        "groups.surjections": counter("groups.enumerate_surjections",
                                      "surjections"),
        "lifting.find_cover_s": total("lifting.find_cover"),
        "lifting.candidates": counter("lifting.find_cover", "candidates"),
        "lifting.pullbacks_tested": pullbacks_tested,
        "lifting.hit_ratio": (realized / pullbacks_tested
                              if pullbacks_tested else 0.0),
        "lifting.solve_primitive_s": total("lifting.solve_primitive"),
        "skeletons.defect_s": total("skeletons.pentagon_defect"),
        "skeletons.defect_tuples": counter("skeletons.pentagon_defect", "tuples"),
        "skeletons.twist_s": total("skeletons.twist"),
        "skeletons.opposite_s": total("skeletons.opposite"),
        "skeletons.fiber_product_s": total("skeletons.fiber_product"),
        "textio.read_s": sum(total(n, top_textio(READS)) for n in READS),
        "textio.write_s": sum(total(n, top_textio(WRITES)) for n in WRITES),
        "textio.bytes": textio_bytes,
        "modular.factors_s": total("modular.invariant_factors_modular"),
        "modular.insert_s": hot("modular.ModularEchelon.insert")[1],
        "modular.inserts": hot("modular.ModularEchelon.insert")[0],
        "modular.echelon_rows": counter("modular.insert_all", "rows"),
        "modular.bounded_s": total("modular.is_coboundary_bounded"),
    }
