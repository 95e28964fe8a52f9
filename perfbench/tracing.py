"""Layer spans recorded from outside the library.

Entering a ``Tracer`` wraps every public function of each layer module, in
every ``qfiroof`` namespace that binds it (modules import names directly,
so patching the defining module alone would miss most calls), plus the
``HermitianOperator`` and ``DensityMatrix`` constructors; leaving it
restores the originals.  Spans stay in memory; ``layer_metrics`` reduces
them to per-layer numbers.

Two costs cannot be seen from here because the functions are private:
the objective evaluation per partition shape (``_PartitionEvaluator``) and
the proposal (``_random_unit_hermitian`` plus ``_expm_i``).  They need
spans inside the library.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from time import perf_counter

import qfiroof as q

LAYERS = ("core", "metrology", "roofs", "bounds", "entanglement", "states")
CONSTRUCTORS = (q.HermitianOperator, q.DensityMatrix)

FIELDS = ("name", "layer", "start", "end", "parent", "item", "count")  # of one span record
NAME, LAYER, START, END, PARENT, ITEM, COUNT = range(len(FIELDS))


class Tracer:
    """Records one span per wrapped call: name, layer, start, end, parent, item id.

    ``COUNT`` holds ``RoofResult.evaluations`` for roof results and the
    result's ``nbytes`` for ``tensor``; it is None otherwise.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        namespaces = [q] + [importlib.import_module(f"qfiroof.{m.name}")
                            for m in pkgutil.iter_modules(q.__path__)]
        for layer in LAYERS:
            module = importlib.import_module(f"qfiroof.{layer}")
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, layer, name)
                for ns in namespaces:
                    if vars(ns).get(name) is fn:
                        self._patch(ns, name, wrapped)
        for cls in CONSTRUCTORS:
            self._patch(cls, "__init__", self._wrap(cls.__init__, "core", cls.__name__))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, fn, layer: str, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if isinstance(result, q.RoofResult):
                rec[COUNT] = result.evaluations
            elif name == "tensor":
                rec[COUNT] = (result.mat if hasattr(result, "mat") else result.vec).nbytes
            return result

        return traced


# span name -> (count metric, time metric) summed over every span of that name
NAMED = {
    "DensityMatrix": ("core.eigensolve_calls", "core.eigensolve_s"),
    "tensor": ("core.tensor_calls", None),
    "qfi": ("metrology.qfi_calls", "metrology.qfi_s"),
    "extract_decomposition": (None, "roofs.extract_s"),
    "eigen_partition_bound_K": (None, "roofs.k_bound_s"),
}


def layer_metrics(spans: list[list], offset: int = 0) -> dict[str, float]:
    """Per-layer counts and times of a run of spans whose first index is ``offset``.

    ``<layer>.calls`` and ``<layer>.busy_s`` count a call nested inside
    another call of the same layer once.  ``<layer>.self_s`` is span time not
    covered by child spans, so self times never overlap.  Roof evaluations
    and the time per evaluation come from outermost roof calls that return a
    ``RoofResult``.
    """
    m = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("calls", "busy_s", "self_s")}
    for keys in NAMED.values():
        m.update((k, 0.0) for k in keys if k)
    m["core.tensor_bytes"] = 0.0
    evaluations = roof_time = 0.0
    child_time = [0.0] * len(spans)
    above: list[frozenset] = []        # layers of each span's ancestors
    for i, rec in enumerate(spans):
        name, layer, dur = rec[NAME], rec[LAYER], rec[END] - rec[START]
        parent = rec[PARENT] - offset if rec[PARENT] >= 0 else -1
        if parent >= 0:
            child_time[parent] += dur
            above.append(above[parent] | {spans[parent][LAYER]})
        else:
            above.append(frozenset())
        if layer not in above[i]:
            m[f"{layer}.calls"] += 1
            m[f"{layer}.busy_s"] += dur
            if layer == "roofs" and rec[COUNT] is not None:
                evaluations += rec[COUNT]
                roof_time += dur
        count_key, time_key = NAMED.get(name, (None, None))
        if count_key:
            m[count_key] += 1
        if time_key:
            m[time_key] += dur
        if name == "tensor":
            m["core.tensor_bytes"] += rec[COUNT]
    for rec, covered in zip(spans, child_time):
        m[f"{rec[LAYER]}.self_s"] += rec[END] - rec[START] - covered
    m["roofs.evaluations"] = evaluations
    m["roofs.us_per_eval"] = 1e6 * roof_time / evaluations if evaluations else 0.0
    return m
