"""Per-layer spans, recorded only from wrappers the benchmark installs.

``Tracer.install`` replaces, in every ``schurkron`` module, each global that
is one of the traced layer entry points (for example ``kronecker._count_fillings``
or ``cli.parse_partition``) with a wrapper that records a span: name, start,
end, parent span and the operation it belongs to.  Nothing under ``src/`` is
changed; ``uninstall`` puts the original objects back.  Counts come from the
wrappers' arguments and results and from ``cache_info()`` deltas, so the
self-recursive ``_mn`` is never wrapped.

Spans stay in memory; ``write_spans`` saves them once the run is over.
"""

from __future__ import annotations

import builtins
import gzip
import inspect
import itertools
import json
import sys
import time
from collections import Counter, defaultdict

# Traced entry points per layer module.  Each is wrapped wherever a module
# global names it: in the modules that import it and in its own module, so
# lazy ``from .oracle import ...`` imports and same-module callers are seen.
TARGETS = {
    "partitions": ("enumerate_partitions", "conjugate", "parse_partition"),
    "tableaux": ("_count_fillings", "_expand_fillings", "_cells", "lr_coefficient"),
    "skew": ("skew_expand", "skew_times_alpha", "positivity_diff"),
    "kronecker": ("kron_coeff", "kron_expand_tworow", "kron_upper_bound", "kronecker_tableau_count"),
    "oracle": (
        "oracle_tworow_signed_sum",
        "oracle_tworow_signed_coeff",
        "oracle_character_kron",
        "oracle_character_coeff",
        "_char_table",
    ),
    "formulas": (
        "hook_coeff",
        "tworow_target_coeff",
        "tworow_tworow_coeff",
        "tworow_tworow_sequence",
        "nu_double_pair_coeff",
        "rect_p2_expand",
        "p1_expand",
        "is_multiplicity_free",
    ),
    "cli": ("main",),
}
CLOSED_FORMS = TARGETS["formulas"][:-1]
ROUTES = {"tableau_rule": "rows", "tableau_rule_conjugate": "conjugate"}
EXPANSION_METHODS = {"__init__": "expansion.build", "items_desc": "expansion.sort", "__iter__": "expansion.sort"}


def _caches():
    """The package's lru caches, by module-qualified name."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "schurkron" or modname.startswith("schurkron."):
            for attr, value in vars(mod).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == modname:
                    found[f"{modname.removeprefix('schurkron.')}.{attr}"] = value
    return found


def clear_caches() -> None:
    for cache in _caches().values():
        cache.cache_clear()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, op, name, start, end)
        self.op = -1
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.times: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id, child time]
        self._ids = itertools.count()
        self._patched: list[tuple] = []
        self._cache_totals: Counter = Counter()
        self._caches = {}

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, hooks=(None, None, None)):
        """``fn`` inside a span.  ``hooks`` is (before, after, on_error):
        ``before(args, kwargs)`` returns a state that ``after(result, args,
        kwargs, state, seconds)`` and ``on_error(exc, args, kwargs, state)``
        receive.
        A generator function's output is listed inside the span."""
        before, after, on_error = hooks
        tracer, clock, stack = self, time.perf_counter, self._stack
        materialize = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            parent = stack[-1][0] if stack else -1
            stack.append([next(tracer._ids), 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            except BaseException as exc:
                tracer._close(name, parent, start, clock())
                if on_error:
                    on_error(exc, args, kwargs, state)
                raise
            end = clock()
            tracer._close(name, parent, start, end)
            if after:
                after(result, args, kwargs, state, end - start)
            return iter(result) if materialize else result

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, parent: int, start: float, end: float) -> None:
        sid, child_time = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child_time
        self.spans.append((sid, parent, self.op, name, start, end))

    def _hooks(self, name: str):
        counts, times, calls = self.counts, self.times, self.calls

        def count_errors(exc, args, kwargs, state):
            if isinstance(exc, RecursionError):
                counts["recursion_errors"] += 1

        if name == "tableaux._expand_fillings":

            def bucket_sum(args, kwargs):
                out = kwargs.get("out", args[4] if len(args) > 4 else None)
                return sum(out.values()) if out else 0

            def leaves(result, args, kwargs, state, seconds):
                counts["leaves"] += sum(result.values()) - state

            def capped(exc, args, kwargs, state):
                if type(exc).__name__ == "CapReached":
                    counts["capped_stops"] += 1
                    # the leaves reached before the cap are in ``out``
                    counts["leaves"] += bucket_sum(args, kwargs) - state
                count_errors(exc, args, kwargs, state)

            return bucket_sum, leaves, capped
        if name == "tableaux._count_fillings":
            return None, None, count_errors
        if name in ("kronecker.kron_coeff", "kronecker.kron_expand_tworow"):
            single = name == "kronecker.kron_coeff"

            def enumerations(args, kwargs):
                return calls["partitions.enumerate_partitions@kronecker"]

            def route(result, args, kwargs, state, seconds):
                r = ROUTES.get(result.method, "oracle")
                counts[f"route_{r}"] += 1
                times[f"route_{r}"] += seconds
                # a vanishing shortcut returns before the exact alpha-loop runs:
                # no enumeration on the rows route, only the bound's on the
                # conjugate route
                used = calls["partitions.enumerate_partitions@kronecker"] - state
                if single and r != "oracle" and used == (0 if r == "rows" else 1):
                    counts["shortcuts"] += 1

            return enumerations, route, None
        if name == "partitions.enumerate_partitions@kronecker":

            def alpha_terms(result, args, kwargs, state, seconds):
                counts["alpha_terms"] += len(result)

            return None, alpha_terms, None
        if name == "expansion.build":

            def terms(result, args, kwargs, state, seconds):
                counts["terms"] += len(args[0])

            return None, terms, None
        return None, None, None

    # -- install / uninstall --------------------------------------------

    def _patch(self, owner, attr: str, name: str, original) -> None:
        setattr(owner, attr, self._wrap(name, original, self._hooks(name)))
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        import schurkron  # noqa: F401  (loads every layer module)
        import schurkron.cli
        from schurkron.expansion import SchurExpansion

        self._caches = _caches()
        self._cache_totals.clear()
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "schurkron" or name.startswith("schurkron.")
        }
        originals = {
            id(getattr(modules[f"schurkron.{layer}"], fn)): f"{layer}.{fn}"
            for layer, fns in TARGETS.items()
            for fn in fns
        }
        for modname, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                name = originals.get(id(value))
                if name is None:
                    continue
                if name == "partitions.enumerate_partitions" and modname == "schurkron.kronecker":
                    name += "@kronecker"  # the alpha-loop's own enumerations
                self._patch(mod, attr, name, value)
        for method, name in EXPANSION_METHODS.items():
            self._patch(SchurExpansion, method, name, SchurExpansion.__dict__[method])
        schurkron.cli.print = self._wrap("cli.print", builtins.print)
        self._patched.append((schurkron.cli, "print", None))

    def uninstall(self) -> None:
        self.harvest_caches()
        for owner, attr, original in reversed(self._patched):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def harvest_caches(self) -> None:
        """Add the caches' hit and miss counts to the totals and reset them;
        call between commands that must behave like fresh processes."""
        for name, cache in self._caches.items():
            info = cache.cache_info()
            self._cache_totals[f"{name}.hits"] += info.hits
            self._cache_totals[f"{name}.misses"] += info.misses
            cache.cache_clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since ``install``;
        times are inclusive span times in seconds, except ``kronecker.self_s``."""
        incl, calls, counts, times = self.incl, self.calls, self.counts, self.times

        def total(*names):
            return sum(incl[n] for n in names)

        def ratio(a, b):
            return a / b if b else 0.0

        enum_names = ("partitions.enumerate_partitions", "partitions.enumerate_partitions@kronecker")
        count_calls = calls["tableaux._count_fillings"]
        kron_names = [n for n in self.self_time if n.startswith("kronecker.")]
        return {
            "tableaux.expand_s": incl["tableaux._expand_fillings"],
            "tableaux.expand_calls": calls["tableaux._expand_fillings"],
            "tableaux.leaves": counts["leaves"],
            "tableaux.leaves_per_s": ratio(counts["leaves"], incl["tableaux._expand_fillings"]),
            "tableaux.count_s": incl["tableaux._count_fillings"],
            "tableaux.count_calls": count_calls,
            "tableaux.count_cache_hit_ratio": ratio(
                self._cache_totals["tableaux._count_fillings.hits"], count_calls
            ),
            "tableaux.cells_s": incl["tableaux._cells"],
            "tableaux.recursion_errors": counts["recursion_errors"],
            "tableaux.capped_stops": counts["capped_stops"],
            "kronecker.self_s": sum(self.self_time[n] for n in kron_names),
            "kronecker.alpha_terms": counts["alpha_terms"],
            "kronecker.shortcut_share": ratio(counts["shortcuts"], calls["kronecker.kron_coeff"]),
            "kronecker.route_rows": counts["route_rows"],
            "kronecker.route_conjugate": counts["route_conjugate"],
            "kronecker.route_oracle": counts["route_oracle"],
            "kronecker.rows_s": times["route_rows"],
            "kronecker.conjugate_s": times["route_conjugate"],
            "kronecker.fallback_s": times["route_oracle"],
            "partitions.enumerate_s": total(*enum_names),
            "partitions.enumerate_calls": sum(calls[n] for n in enum_names),
            "partitions.conjugate_s": incl["partitions.conjugate"],
            "partitions.parse_s": incl["partitions.parse_partition"],
            "expansion.build_s": incl["expansion.build"],
            "expansion.terms": counts["terms"],
            "expansion.sort_s": incl["expansion.sort"],
            "oracle.char_table_s": incl["oracle._char_table"],
            "oracle.mn_evals": self._cache_totals["oracle._mn.misses"],
            "oracle.character_s": total("oracle.oracle_character_kron", "oracle.oracle_character_coeff"),
            "oracle.signed_s": total("oracle.oracle_tworow_signed_sum", "oracle.oracle_tworow_signed_coeff"),
            "oracle.signed_calls": calls["oracle.oracle_tworow_signed_sum"]
            + calls["oracle.oracle_tworow_signed_coeff"],
            "skew.expand_s": incl["skew.skew_expand"],
            "skew.expand_calls": calls["skew.skew_expand"],
            "skew.times_alpha_s": incl["skew.skew_times_alpha"],
            "formulas.closed_form_s": total(*(f"formulas.{n}" for n in CLOSED_FORMS)),
            "formulas.mfree_s": incl["formulas.is_multiplicity_free"],
            "cli.main_s": incl["cli.main"],
            "cli.output_s": incl["cli.print"],
        }

    def write_spans(self, path) -> None:
        """One JSON array per line after a header line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["id","parent","op","name","start_s","end_s"]\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
