"""Per-layer tracing by rebinding library names, for the traced run only.

Each traced callable is replaced, in every ``limtower`` module namespace
that holds it (and on its class, for methods), by a wrapper that times the
call.  Coarse calls also record a span with a parent link; hot calls only
add to a counter and a time sum.  A call's self time is its duration minus
the time of the traced calls made inside it, and a layer's self time is
the sum over its traced callables.  ``restore`` puts every original back
and reports any binding that is not the original afterwards.
"""

from __future__ import annotations

import sys
from time import perf_counter

# layer -> (module-level functions, {class: methods}); names a module lacks
# are skipped, so the list can name functions a later version removes.
TARGETS = {
    "groups": (
        (
            "smith_normal_form", "matrix_kernel_basis", "abs_det", "row_hermite_basis",
            "lattice_solve", "identity_map", "zero_map", "multiplication_map", "multiplier_of",
            "group_from_presentation", "fg_group", "image", "image_of_subgroup", "kernel",
            "quotient_by_subgroup", "cokernel", "direct_sum", "annihilator_elements",
        ),
        {
            "Subgroup": ("__init__", "contains", "contains_subgroup", "is_full", "is_trivial", "include", "coords"),
            "GroupMap": ("__post_init__", "apply", "compose"),
        },
    ),
    "towers": (
        (
            "analyze", "ml_check", "length", "lim_lim1", "is_local", "omega_completion_status",
            "transfinite_image", "iterate_image", "subtower", "quotient_tower", "decompose",
        ),
        {"Tower": ("__post_init__",)},
    ),
    "serialize": (
        (
            "tower_from_json", "analysis_report_to_json", "tower_to_json", "group_from_json",
            "group_to_json", "map_from_json", "map_to_json",
        ),
        {},
    ),
    "ordinals": (
        (
            "ord_compare", "deglex_compare", "parse_ordinal", "ord_add", "ord_from_int",
            "ord_succ", "omega_power",
        ),
        {"OrdinalCNF": ("__post_init__",), "DegLexIndex": ("__post_init__", "tail")},
    ),
    "walker": (
        (
            "normalize", "parse_element", "format_element", "mul_p_height_step", "height",
            "mul_by_p", "scalar_mul", "add", "in_p_beta",
        ),
        {"WalkerContext": ("index", "element")},
    ),
}

# Calls that get one span each; every other traced call is a counter.
COARSE = {
    "towers.analyze", "walker.normalize", "walker.parse_element", "walker.format_element",
    "walker.mul_p_height_step", "serialize.tower_from_json", "serialize.analysis_report_to_json",
}


def _limtower_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "limtower" or n.startswith("limtower.")]


def _hermite_bits(basis) -> int:
    return max((abs(x).bit_length() for row in basis for x in row), default=0)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, parent id, name, op, start, end)
        self.hermite_max_bits = 0
        self.support_in = 0
        self.support_out = 0
        self.op = -1
        self._stack = [0.0]  # child time of each open traced call
        self._span_ids = [None]
        self._next_span = 0
        self._bindings: list[tuple] = []  # (owner, attribute, original)

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        mods = _limtower_modules()
        for layer, (funcs, classes) in TARGETS.items():
            mod = sys.modules.get(f"limtower.{layer}")
            if mod is None:
                continue
            for name in funcs:
                original = getattr(mod, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for m in mods:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, attr, wrapper)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name, None)
                for name in methods:
                    if cls is None or name not in vars(cls):
                        continue
                    self._rebind(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", vars(cls)[name]))

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> list[str]:
        """Put every original back; return the bindings that did not return."""
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._bindings
            if vars(owner).get(attr) is not original
        ]
        for m in _limtower_modules():
            for attr, value in vars(m).items():
                if getattr(value, "__perfbench_wrapped__", False):
                    wrong.append(f"{m.__name__}.{attr}")
        self._bindings.clear()
        return wrong

    # -- timing ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        coarse = name in COARSE
        hermite = name == "groups.row_hermite_basis"
        normalize = name == "walker.normalize"
        span_ids, spans = self._span_ids, self.spans
        tracer = self

        def traced(*args, **kwargs):
            if coarse:
                span_id = tracer._next_span
                tracer._next_span += 1
                span_ids.append(span_id)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                stack[-1] += elapsed
                if coarse:
                    span_ids.pop()
                    spans.append((span_id, span_ids[-1], name, tracer.op, start, end))
            if hermite:
                tracer.hermite_max_bits = max(tracer.hermite_max_bits, _hermite_bits(result))
            elif normalize:
                tracer.support_in += len(args[0].support)
                tracer.support_out += len(result.support)
            return result

        traced.__perfbench_wrapped__ = True
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_op(self, op, inp, index: int):
        """Run one operation as the root span; returns (output, seconds)."""
        self.op = index
        self._stack[0] = 0.0
        start = perf_counter()
        out = op(inp)
        elapsed = perf_counter() - start
        self.calls["op"] = self.calls.get("op", 0) + 1
        self.self_s["op"] = self.self_s.get("op", 0.0) + elapsed - self._stack[0]
        return out, elapsed

    # -- results --------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
