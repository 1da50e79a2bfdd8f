"""Spans around the calls into each `unimech` layer, from outside the library.

`Tracer.install()` replaces every public function of each module (the
public names a module defines itself, generator functions excepted: a span
around one would end before its caller iterates it) with a timing wrapper,
in every `unimech` namespace that binds it, so `unimech.dynamics.coad`,
`unimech.cli.rk4` and `unimech.coad` all lead through the same wrapper.  A
few methods are wrapped on their class; `JetElement.__post_init__` is the
validation hook every jet construction runs.  `uninstall()` restores the
originals.

The first MAX_KEPT_SPANS spans are kept in memory as (id, name, parent,
op id, start, end) and written out by `save()`.  Per name the tracer sums
calls, inclusive time, self time (the span minus the spans directly inside
it) and calls that raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

import unimech

LAYERS = ("algebra", "products", "models", "dynamics", "thirdorder", "jets", "cli")
METHODS = (
    ("algebra", "LieAlgebra", "coad"),
    ("algebra", "LieAlgebra", "validate"),
    ("dynamics", "EnergySpec", "dual_gradient"),
    ("jets", "JetElement", "__post_init__"),
)
# Spans kept for save(); later spans still count in the per-name sums.
MAX_KEPT_SPANS = 250_000


def _rk4_steps(args, kwargs, result):
    return len(result) - 1


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


# Counts read off a call's arguments or result, summed per name.
COUNTERS = {
    "dynamics.rk4": ("steps", _rk4_steps),
    "dynamics.conservation_report": ("rows", lambda a, k, r: len(a[0])),
    "dynamics.write_trajectory_csv": ("bytes", _csv_bytes),
    "thirdorder.third_order_identity_residual": ("points", lambda a, k, r: len(r)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # span id (in start order), name index, parent id, op id, start, end
        self.spans = (array("i"), array("i"), array("i"), array("i"), array("d"), array("d"))
        self.op_id = -1
        self.n_spans = 0
        self._open: list[list] = []  # [span index, time in direct children]
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.errors: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self.errors.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        if counter is not None:
            counter_key = f"{name}.{counter[0]}"
            self.counts[counter_key] = 0
        t = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = t.n_spans
            t.n_spans += 1
            parent = t._open[-1][0] if t._open else -1
            frame = [idx, 0.0]
            t._open.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t.errors[nid] += 1
                raise
            finally:
                end = perf_counter()
                t._open.pop()
                duration = end - start
                t.calls[nid] += 1
                t.incl[nid] += duration
                t.self_s[nid] += duration - frame[1]
                if t._open:
                    t._open[-1][1] += duration
                if idx < MAX_KEPT_SPANS:
                    t.spans[0].append(idx)
                    t.spans[1].append(nid)
                    t.spans[2].append(parent)
                    t.spans[3].append(t.op_id)
                    t.spans[4].append(start)
                    t.spans[5].append(end)
            if counter is not None:
                t.counts[counter_key] += counter[1](args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"unimech.{layer}") for layer in LAYERS}
        namespaces = [unimech, *modules.values()]
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for bound in [a for a, v in vars(ns).items() if v is fn]:
                        self._patches.append((ns, bound, fn))
                        setattr(ns, bound, traced)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write the kept spans, in the order they ended.  A span's parent
        is the id of the span it was called from, -1 at the top."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ids, names, parents, ops, starts, ends = self.spans
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(ids, dtype=np.int32),
            name=np.frombuffer(names, dtype=np.int32),
            parent=np.frombuffer(parents, dtype=np.int32),
            op=np.frombuffer(ops, dtype=np.int32),
            start=np.frombuffer(starts),
            end=np.frombuffer(ends),
        )

    def stat(self, name: str) -> tuple[int, float, float, int]:
        """(calls, inclusive s, self s, errors) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return self.calls[nid], self.incl[nid], self.self_s[nid], self.errors[nid]

    def layer_sum(self, layer: str, column: list) -> float:
        return sum(v for name, v in zip(self.names, column) if name.split(".")[0] == layer)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}."""
    m = {}

    def calls(name):
        return tr.stat(name)[0]

    def incl(name):
        return tr.stat(name)[1]

    fields = calls("dynamics.ep_field") + calls("dynamics.lp_field")
    field_s = incl("dynamics.ep_field") + incl("dynamics.lp_field")
    steps = tr.counts.get("dynamics.rk4.steps", 0)
    m["dynamics.field_calls"] = (fields, "count")
    m["dynamics.field_us"] = (1e6 * _ratio(field_s, fields), "us")
    m["dynamics.dual_gradient_calls"] = (calls("dynamics.EnergySpec.dual_gradient"), "count")
    m["dynamics.dual_gradient_s"] = (incl("dynamics.EnergySpec.dual_gradient"), "s")
    m["dynamics.rk4_calls"] = (calls("dynamics.rk4"), "count")
    m["dynamics.rk4_self_s"] = (tr.stat("dynamics.rk4")[2], "s")
    m["dynamics.rk4_steps_per_s"] = (_ratio(steps, incl("dynamics.rk4")), "1/s")
    m["dynamics.field_calls_per_step"] = (
        _ratio(fields + calls("thirdorder.ep3_field"), steps), "ratio")
    m["dynamics.conservation_report_s"] = (incl("dynamics.conservation_report"), "s")
    m["dynamics.conservation_rows"] = (
        tr.counts.get("dynamics.conservation_report.rows", 0), "count")
    m["dynamics.write_csv_s"] = (incl("dynamics.write_trajectory_csv"), "s")
    m["dynamics.write_csv_bytes"] = (
        tr.counts.get("dynamics.write_trajectory_csv.bytes", 0), "B")
    m["dynamics.write_report_s"] = (incl("dynamics.write_report_json"), "s")

    m["products.coad_calls"] = (calls("products.coad"), "count")
    m["products.coad_s"] = (incl("products.coad"), "s")
    m["products.coad_calls_per_field"] = (_ratio(calls("products.coad"), fields), "ratio")
    m["products.validate_axioms_calls"] = (calls("products.validate_axioms"), "count")
    m["products.validate_axioms_s"] = (incl("products.validate_axioms"), "s")
    m["products.compose_bracket_s"] = (incl("products.compose_bracket"), "s")

    m["algebra.coad_calls"] = (calls("algebra.LieAlgebra.coad"), "count")
    m["algebra.coad_s"] = (incl("algebra.LieAlgebra.coad"), "s")
    m["algebra.validate_calls"] = (calls("algebra.LieAlgebra.validate"), "count")
    m["algebra.validate_s"] = (incl("algebra.LieAlgebra.validate"), "s")

    m["thirdorder.ep3_field_calls"] = (calls("thirdorder.ep3_field"), "count")
    m["thirdorder.ep3_field_s"] = (incl("thirdorder.ep3_field"), "s")
    m["thirdorder.identity_residual_s"] = (incl("thirdorder.third_order_identity_residual"), "s")
    m["thirdorder.identity_points"] = (
        tr.counts.get("thirdorder.third_order_identity_residual.points", 0), "count")

    m["models.build_model_calls"] = (calls("models.build_model"), "count")
    m["models.build_model_s"] = (incl("models.build_model"), "s")

    m["cli.main_calls"] = (calls("cli.main"), "count")
    m["cli.main_self_s"] = (tr.stat("cli.main")[2], "s")

    products = sum(calls(f"jets.{f}") for f in
                   ("tn_multiply", "tn_inverse", "iterated_multiply", "iterated_inverse"))
    constructions = calls("jets.JetElement.__post_init__")
    m["jets.tn_multiply_calls"] = (calls("jets.tn_multiply"), "count")
    m["jets.tn_multiply_s"] = (incl("jets.tn_multiply"), "s")
    m["jets.tn_inverse_s"] = (incl("jets.tn_inverse"), "s")
    m["jets.iterated_multiply_calls"] = (calls("jets.iterated_multiply"), "count")
    m["jets.iterated_multiply_s"] = (incl("jets.iterated_multiply"), "s")
    m["jets.iterated_inverse_s"] = (incl("jets.iterated_inverse"), "s")
    m["jets.t3_factorize_s"] = (incl("jets.t3_factorize"), "s")
    m["jets.jet_constructions"] = (constructions, "count")
    m["jets.jet_construct_s"] = (incl("jets.JetElement.__post_init__"), "s")
    m["jets.constructions_per_product"] = (_ratio(constructions, products), "ratio")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (tr.layer_sum(layer, tr.self_s), "s")
        m[f"{layer}.errors"] = (tr.layer_sum(layer, tr.errors), "count")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.spans"] = (tr.n_spans, "count")
    m["trace.overhead_pct"] = (100.0 * (_ratio(traced_wall, untraced_wall) - 1.0), "%")
    return m
