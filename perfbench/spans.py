"""Span recording around autorbit's public layer functions, and the per-layer
metrics derived from the recorded spans.

Nothing in ``src/`` is edited: ``Tracer.install`` replaces each target
function by a recording wrapper, both on its defining module and on every
autorbit module that imported it by name, and replaces the four listed
methods on their classes.  A span is a list

    [name, layer, start, end, parent, command, count, label, rss_start, rss_end]

where ``parent`` is the index of the enclosing span (-1 at top level),
``command`` the index of the CLI command that was running, ``count`` the work
count of the call (rows looked up, elements enumerated, ...), ``label`` the
carrier name for the Aut search, and ``rss_*`` the process's peak RSS in KiB
at entry and exit.  Spans stay in memory and are written out once the run
ends; ``derive_metrics`` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

NAME, LAYER, START, END, PARENT, COMMAND, COUNT, LABEL, RSS0, RSS1 = range(10)


def _order(args, result):
    return result.order


def _size(args, result):
    return int(result.size)


def _rows(args, result):
    return int(result.shape[0])


def _n_classes(args, result):
    return len(result.classes)


def _group_order(args, result):
    return args[0].order


def _orbit_states(args, result):
    return result.measured_orbit or 0


def _checked(args, result):
    return result["checked"]


def _carrier_name(args):
    return args[0].name


# (module, attribute, count(args, result), cache slot, label(args)).
# A cache slot names the attribute of args[0] that the call fills on its first
# call.  Later calls only read it back; they are not recorded, so that the
# spans and counts measure work done and hot cache reads add no overhead.
# Per-element helpers (cycle_type, WreathGroup.unpack, Field arithmetic) are
# left unwrapped: their time counts to the layer that calls them.
TARGETS = [
    ("catalog", "resolve", _order, None, None),
    ("catalog", "extended_aut_psl34", _order, None, None),
    ("catalog", "psl34_socle_ids", _size, None, None),
    ("permcore", "close_group", _order, None, None),
    ("permcore", "FiniteGroup.ids_of", _rows, None, None),
    ("permcore", "FiniteGroup.cayley", None, "_cayley", None),
    ("permcore", "conjugacy_classes", _n_classes, "_classes", None),
    ("permcore", "mcs", None, None, None),
    ("permcore", "is_normal", None, None, None),
    ("permcore", "coset_partition", None, None, None),
    ("permcore", "quotient_group", None, None, None),
    ("permcore", "load_group_file", None, None, None),
    ("autgrp", "automorphism_group", _order, None, _carrier_name),
    ("autgrp", "inner_automorphism_ids", None, None, None),
    ("autgrp", "maol", None, None, None),
    ("stypes", "class_type_table", None, None, None),
    ("stypes", "h_value", None, None, None),
    ("stypes", "out_quotient", None, None, None),
    ("wreath", "WreathGroup.__init__", None, None, None),
    ("wreath", "WreathGroup.conjugation_orbit", None, None, None),
    ("wreath", "WreathGroup.class_codes", _group_order, "_enum_classes", None),
    ("wreath", "build_hp", _orbit_states, None, None),
    ("wreath", "profile", None, None, None),
    ("wreath", "conj_test", None, None, None),
    ("wreath", "brute_force_conj", None, None, None),
    ("multinomial", "pmf_bound_check", _checked, None, None),
    ("multinomial", "verify_lemma3_grids", _checked, None, None),
    ("cli", "main", None, None, None),
]

# Carriers whose Aut search gets its own time metric, by group name.
SEARCH_LABELS = {"sym6": "sym6", "alt6": "alt6", "psl(2,8)": "psl2_8"}

LAYERS = ["catalog", "permcore", "autgrp", "stypes", "wreath", "multinomial", "cli"]


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Records one span per call of a wrapped function, in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self.command = -1
        self.overhead_s = 0.0  # time the wrappers spend outside the wrapped calls
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, count=None, cache_slot=None, label=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if cache_slot is not None and getattr(args[0], cache_slot) is not None:
                self.overhead_s += time.perf_counter() - entered
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.command,
                    0, label(args) if label else None, _maxrss_kib(), 0]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                span[RSS1] = _maxrss_kib()
            if count is not None:
                span[COUNT] = count(args, result)
            self.overhead_s += (span[START] - entered) + (time.perf_counter() - span[END])
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the already imported autorbit modules."""
        for module_name, attr, count, cache_slot, label in TARGETS:
            module = sys.modules[f"autorbit.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(original, name, module_name, count,
                                               cache_slot, label))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, module_name, count, cache_slot, label)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "autorbit" or mod_name.startswith("autorbit."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def _ancestor_sets(spans: list) -> list[frozenset]:
    """For each span, the names and layers of all its enclosing spans.
    Parents precede children in the list, so one forward pass suffices."""
    out: list[frozenset] = []
    memo: dict[int, frozenset] = {}
    for span in spans:
        p = span[PARENT]
        if p < 0:
            out.append(frozenset())
            continue
        anc = memo.get(p)
        if anc is None:
            anc = memo[p] = out[p] | {spans[p][NAME], spans[p][LAYER]}
        out.append(anc)
    return out


def self_times(spans: list) -> dict[str, float]:
    """Per layer: the time during which a span of that layer is the innermost
    open span, i.e. its spans' durations minus the part their child spans in
    other layers cover."""
    self_s = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        dur = span[END] - span[START]
        self_s[span[LAYER]] += dur
        if span[PARENT] >= 0:
            self_s[spans[span[PARENT]][LAYER]] -= dur
    return self_s


def derive_metrics(spans: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit).  A time named after a call is
    inclusive and counts only calls not nested in a call of the same name."""
    anc = _ancestor_sets(spans)
    incl: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    layer_incl: dict[str, float] = {}
    layer_calls: dict[str, int] = {}
    layer_count: dict[str, int] = {}
    layer_rss: dict[str, int] = {}
    search_by_label = {v: 0.0 for v in SEARCH_LABELS.values()}
    search_rss = 0
    for span, ancestors in zip(spans, anc):
        name, layer = span[NAME], span[LAYER]
        dur = span[END] - span[START]
        if name not in ancestors:
            incl[name] = incl.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            counts[name] = counts.get(name, 0) + span[COUNT]
            if name == "autgrp.automorphism_group":
                search_rss += span[RSS1] - span[RSS0]
                key = SEARCH_LABELS.get(span[LABEL])
                if key is not None:
                    search_by_label[key] += dur
        if layer not in ancestors:
            layer_incl[layer] = layer_incl.get(layer, 0.0) + dur
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_count[layer] = layer_count.get(layer, 0) + span[COUNT]
            layer_rss[layer] = layer_rss.get(layer, 0) + span[RSS1] - span[RSS0]
    self_s = self_times(spans)

    def t(name):
        return (incl.get(name, 0.0), "s")

    def n(table, name):
        return (table.get(name, 0), "count")

    m = {
        "catalog.build_s": (layer_incl.get("catalog", 0.0), "s"),
        "catalog.calls": n(layer_calls, "catalog"),
        "catalog.elements": n(layer_count, "catalog"),
        "permcore.close_group_s": t("permcore.close_group"),
        "permcore.close_group_elements": n(counts, "permcore.close_group"),
        "permcore.ids_of_s": t("permcore.FiniteGroup.ids_of"),
        "permcore.ids_of_rows": n(counts, "permcore.FiniteGroup.ids_of"),
        "permcore.ids_of_calls": n(calls, "permcore.FiniteGroup.ids_of"),
        "permcore.classes_s": t("permcore.conjugacy_classes"),
        "permcore.classes_count": n(counts, "permcore.conjugacy_classes"),
        "permcore.cayley_s": t("permcore.FiniteGroup.cayley"),
        "permcore.self_s": (self_s["permcore"], "s"),
        "permcore.rss_growth_mb": (layer_rss.get("permcore", 0) / 1024, "MB"),
        "autgrp.search_s": t("autgrp.automorphism_group"),
    }
    for key, value in search_by_label.items():
        m[f"autgrp.search_s.{key}"] = (value, "s")
    m.update({
        "autgrp.aut_order_sum": n(counts, "autgrp.automorphism_group"),
        "autgrp.search_rss_growth_mb": (search_rss / 1024, "MB"),
        "autgrp.maol_s": t("autgrp.maol"),
        "autgrp.inner_s": t("autgrp.inner_automorphism_ids"),
        "autgrp.self_s": (self_s["autgrp"], "s"),
        "stypes.type_table_s": t("stypes.class_type_table"),
        "stypes.self_s": (self_s["stypes"], "s"),
        "wreath.hp_s": t("wreath.build_hp"),
        "wreath.hp_orbit_states": n(counts, "wreath.build_hp"),
        "wreath.class_codes_s": t("wreath.WreathGroup.class_codes"),
        "wreath.class_codes_elements": n(counts, "wreath.WreathGroup.class_codes"),
        "wreath.conj_test_s": t("wreath.conj_test"),
        "wreath.conj_test_calls": n(calls, "wreath.conj_test"),
        "wreath.self_s": (self_s["wreath"], "s"),
        "multinomial.pmf_check_s": t("multinomial.pmf_bound_check"),
        "multinomial.pmf_cases": n(counts, "multinomial.pmf_bound_check"),
        "multinomial.lemma3_s": t("multinomial.verify_lemma3_grids"),
        "multinomial.self_s": (self_s["multinomial"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
    })
    return m
