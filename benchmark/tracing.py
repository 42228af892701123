"""Spans around the public functions of each coxbrick layer, from outside.

`Tracer.install` replaces every binding of each wrapped function in the
loaded ``coxbrick`` modules (several are imported by name, e.g.
``semibricks.hom_dim`` or ``grids.subrepresentation``) and the methods on
``QuiverRepresentation`` and ``GroupPoset``; `uninstall` puts the originals
back.  Spans (layer, start, end, parent, item) are kept in memory and
written out by `Tracer.dump`.

Span times are on a clock that stops while the tracer does its own
bookkeeping (pushing spans, computing counts from call arguments), so a
span's duration excludes the tracer's cost inside it.  A layer's self time
is its span durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from coxbrick.grids import UnsupportedCaseError


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it wraps and the counts it records.

    A target is ``"module:function"`` or ``"module:Class.method"``, relative
    to the ``coxbrick`` package.  `before(tracer, *args, **kwargs)` runs on
    the call arguments, `after(tracer, result)` on the result and
    `error(tracer, exc)` on an exception; none of them is timed.
    """

    name: str
    targets: tuple[str, ...]
    counts: tuple[tuple[str, str, str], ...] = ()  # (metric, unit, better)
    before: Callable | None = None
    after: Callable | None = None
    error: Callable | None = None


def _rref_cells(t: "Tracer", a, *_args, **_kwargs) -> None:
    cols = len(a[0]) if a else 0
    t.counts["ratlinalg.rref.cells"] += len(a) * cols
    t.counts["ratlinalg.rref.nonzeros"] += sum(1 for row in a for x in row if x)


def _hom_sizes(t: "Tracer", m, n) -> None:
    t.counts["homs.hom_basis.unknowns"] += sum(
        n.dims.get(v, 0) * m.dims.get(v, 0) for v in m.quiver.vertices
    )
    t.counts["homs.hom_basis.equation_rows"] += sum(
        n.dims.get(a.src, 0) * m.dims.get(a.tgt, 0) for a in m.quiver.arrows
    )


def _zero_dim(t: "Tracer", result: int) -> None:
    t.counts["homs.hom_dim.zeros"] += result == 0


def _total_dim(t: "Tracer", rep) -> None:
    t.counts["grids.j_module.total_dim"] += rep.total_dim


def _unsupported(t: "Tracer", exc: BaseException) -> None:
    t.counts["grids.kernel_socle.unsupported"] += isinstance(exc, UnsupportedCaseError)


def _brick_key(t: "Tracer", dynkin, a, b, r_values) -> None:
    t.distinct["bricks.rep"].add((str(dynkin), frozenset(r_values)))


def _elements(t: "Tracer", result) -> None:
    t.counts["coxeter.enumerate.elements"] += len(result)


COUNT = "count"
LAYERS = (
    Layer(
        "ratlinalg.rref",
        ("ratlinalg:rref",),
        (("cells", COUNT, "lower"), ("density", "ratio", "higher")),
        before=_rref_cells,
    ),
    Layer("ratlinalg.mat_mul", ("ratlinalg:mat_mul",)),
    Layer(
        "homs.hom_basis",
        ("homs:hom_basis",),
        (("unknowns", COUNT, "lower"), ("equation_rows", COUNT, "lower")),
        before=_hom_sizes,
    ),
    Layer("homs.hom_dim", ("homs:hom_dim",), (("zero_ratio", "ratio", "higher"),), after=_zero_dim),
    Layer("homs.is_brick", ("homs:is_brick",)),
    Layer("homs.radical", ("homs:radical_basis",)),
    Layer("homs.subrepresentation", ("homs:subrepresentation",)),
    Layer("homs.iso_bricks", ("homs:iso_bricks",)),
    Layer("grids.j_module", ("grids:j_module",), (("total_dim", COUNT, "lower"),), after=_total_dim),
    Layer(
        "grids.kernel_socle",
        ("grids:kernel_socle",),
        (("unsupported", COUNT, "lower"),),
        error=_unsupported,
    ),
    Layer(
        "bricks.rep",
        ("bricks:rep_from_params_a", "bricks:rep_from_params_d"),
        (("distinct", COUNT, "lower"),),
        before=_brick_key,
    ),
    Layer("bricks.diagram", ("bricks:diagram_from_params_a", "bricks:diagram_from_params_d")),
    Layer("quiver.check_relations", ("quiver:QuiverRepresentation.check_relations",)),
    Layer("quiver.rep_from_basis_action", ("quiver:rep_from_basis_action",)),
    Layer("semibricks.semibrick", ("semibricks:semibrick",)),
    Layer("semibricks.direct", ("semibricks:semibrick_direct",)),
    Layer("semibricks.verify", ("semibricks:verify_semibrick",)),
    Layer("canjoin.decompose", ("canjoin:decompose",)),
    Layer("census.shape", ("census:sigma", "census:chi")),
    Layer("weak_order.join", ("weak_order:GroupPoset.join",)),
    Layer("weak_order.cjr_oracle", ("weak_order:GroupPoset.cjr_oracle",)),
    Layer("weak_order.build", ("weak_order:GroupPoset.build",)),
    Layer(
        "coxeter.enumerate",
        ("coxeter:enumerate_group",),
        (("elements", COUNT, "lower"),),
        after=_elements,
    ),
)

# Traced over untraced items_per_s on the same items, measured in the traced run.
OVERHEAD_METRIC = ("trace.ips_ratio", "ratio", "higher")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer.name}.self_s", "s", "lower"))
        out.append((f"{layer.name}.calls", COUNT, "lower"))
        out.extend((f"{layer.name}.{m}", unit, better) for m, unit, better in layer.counts)
    out.append(OVERHEAD_METRIC)
    return out


def _coxbrick_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "coxbrick" or name.startswith("coxbrick.")
    ]


class Tracer:
    """In-memory span recorder; `item` tags new spans with the current item id.

    Spans live in flat arrays rather than per-span lists: hundreds of
    thousands of small containers would make every later garbage-collector
    pass slower, including the untraced pass the overhead is measured on.
    """

    def __init__(self) -> None:
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.span_item = array("q")
        self.counts: Counter = Counter()
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.item = -1
        self._stack: list[int] = []
        self._skew = 0.0
        self._undo: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layer_names)
            self.layer_names.append(name)
        return self._layer_ids[name]

    def span(self, name: str):
        """Context manager recording one span (used for the benchmark's own steps)."""
        return _Span(self, self._layer_id(name))

    def _open(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.span_item.append(self.item)
        self._stack.append(index)
        return index

    def _begin(self, index: int, t0: float) -> None:
        t1 = perf_counter()
        self._skew += t1 - t0
        self.start[index] = t1 - self._skew

    def _close(self, index: int) -> float:
        t2 = perf_counter()
        self.end[index] = t2 - self._skew
        self._stack.pop()
        return t2

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        layer_id = self._layer_id(layer.name)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            index = self._open(layer_id)
            if layer.before is not None:
                layer.before(self, *args, **kwargs)
            self._begin(index, t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t2 = self._close(index)
                if layer.error is not None:
                    layer.error(self, exc)
                self._skew += perf_counter() - t2
                raise
            t2 = self._close(index)
            if layer.after is not None:
                layer.after(self, result)
            self._skew += perf_counter() - t2
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every layer target in the coxbrick modules."""
        for layer in LAYERS:
            for target in layer.targets:
                module_name, attr = target.split(":")
                module = importlib.import_module(f"coxbrick.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    self._patch_method(layer, getattr(module, cls_name), method)
                else:
                    self._patch_function(layer, getattr(module, attr))

    def _patch_function(self, layer: Layer, fn: Callable) -> None:
        wrapper = self.wrap(layer, fn)
        for mod in _coxbrick_modules():
            for name, value in list(vars(mod).items()):
                if value is fn:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def _patch_method(self, layer: Layer, cls: type, method: str) -> None:
        original = vars(cls)[method]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(layer, original.__func__))
        else:
            replacement = self.wrap(layer, original)
        self._undo.append((cls, method, original))
        setattr(cls, method, replacement)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Per layer: total span duration minus the duration of direct children."""
        durations = [end - start for start, end in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                covered[parent] += duration
        out: defaultdict[str, float] = defaultdict(float)
        for layer_id, duration, child in zip(self.layer, durations, covered):
            out[self.layer_names[layer_id]] += duration - child
        return out

    def calls(self) -> Counter:
        return Counter(self.layer_names[layer_id] for layer_id in self.layer)

    def metrics(self, overhead: float) -> dict[str, float]:
        """Every per-layer metric named by `per_layer_metrics`."""
        self_s, calls = self.self_times(), self.calls()
        values: dict[str, float] = dict(self.counts)  # raw tallies not in the list are dropped
        for layer in LAYERS:
            values[f"{layer.name}.self_s"] = self_s.get(layer.name, 0.0)
            values[f"{layer.name}.calls"] = calls.get(layer.name, 0)
        cells = self.counts["ratlinalg.rref.cells"]
        values["ratlinalg.rref.density"] = self.counts["ratlinalg.rref.nonzeros"] / cells if cells else 0.0
        dims = calls.get("homs.hom_dim", 0)
        values["homs.hom_dim.zero_ratio"] = self.counts["homs.hom_dim.zeros"] / dims if dims else 0.0
        values["bricks.rep.distinct"] = len(self.distinct["bricks.rep"])
        values[OVERHEAD_METRIC[0]] = overhead
        return {name: values.get(name, 0) for name, _, _ in per_layer_metrics()}

    def dump(self, path) -> None:
        """Write the spans as JSON: layer names plus [layer, start, end, parent, item] rows."""
        rows = zip(self.layer, self.start, self.end, self.parent, self.span_item)
        with open(path, "w") as fh:
            json.dump({"layers": self.layer_names, "spans": list(rows)}, fh, separators=(",", ":"))


class _Span:
    def __init__(self, tracer: Tracer, layer_id: int) -> None:
        self._tracer, self._layer_id = tracer, layer_id

    def __enter__(self) -> None:
        t0 = perf_counter()
        self._index = self._tracer._open(self._layer_id)
        self._tracer._begin(self._index, t0)

    def __exit__(self, *exc) -> None:
        t2 = self._tracer._close(self._index)
        self._tracer._skew += perf_counter() - t2
