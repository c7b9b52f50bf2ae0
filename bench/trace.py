"""Outside-in tracing of matlogic's layers.

``Tracer.install`` replaces each public function of each layer module with a
wrapper that records a span, at every module binding that refers to it:
``decide.clone_discovery_order`` and ``lindenbaum.clone_discovery_order`` are
patched as well as ``algebra.clone_discovery_order``, and functions that a
module imports lazily inside a function body (``eqlogic`` importing
``g3_prove``) are found through the patched module attribute.  Nothing under
``src/`` changes.  A span holds the function name, start, end, the parent
span and the query id; spans stay in memory until ``write``.

A layer's self time is the time of its spans minus the time of their child
spans.  ``check`` verifies the nesting that self times rely on: every span
lies inside its parent, after its earlier siblings, and belongs to its
parent's query; no self time is negative; each query has one root
``cli.run_command`` span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Dict, List

LAYERS = ("cli", "lang", "algebra", "matrices", "lindenbaum", "decide", "eqlogic", "intprover")

# lang's other public functions build and walk formulas once per node inside
# the kernels (app() runs per clone candidate); a span around each would time
# the tracer rather than the program.  Parsing is lang's boundary call.
WRAP_ONLY = {"lang": ("parse_formula",)}

# Functions whose arguments (or result size) feed the work counters.  Only
# references are kept during the run; the counts are computed afterwards, so
# no counting happens inside a span.
KEEP_ARGS = {"algebra.clone_discovery_order", "matrices.is_valid", "matrices.consequence",
             "eqlogic.ground_closure"}

NAME, START, END, PARENT, QUERY, CAP, INFO = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.qid = -1
        self._stack: List[int] = []
        self._active: set = set()
        self._originals: Dict[str, object] = {}
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding; cheap after the first call, so a run can
        switch tracing on and off around single queries."""
        if not self._patches:
            self._patches = self._find_patches()
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _find_patches(self) -> list:
        import matlogic
        from matlogic.limits import CapExceeded

        modules = {layer: importlib.import_module(f"matlogic.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                if layer in WRAP_ONLY and attr not in WRAP_ONLY[layer]:
                    continue
                name = f"{layer}.{attr}"
                self._originals[name] = obj
                wrappers[obj] = self._wrap(obj, name, CapExceeded)
        patches = []
        for mod in [matlogic, *modules.values()]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        return patches

    def _wrap(self, fn, name: str, cap_exc):
        spans, stack, active = self.spans, self._stack, self._active
        keep = name in KEEP_ARGS

        def wrapper(*args, **kwargs):
            if name in active:  # recursion: the outermost call holds the span
                return fn(*args, **kwargs)
            info = [args, kwargs, None] if keep else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, False, info]
            stack.append(len(spans))
            spans.append(span)
            active.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except cap_exc:
                span[CAP] = True
                raise
            finally:
                span[START], span[END] = start, perf_counter()
                stack.pop()
                active.discard(name)
            if keep and isinstance(result, list):
                info[2] = len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> List[float]:
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def check(self, n_queries: int) -> List[str]:
        """Nesting checks: one root ``run_command`` span per query, every
        span inside its parent's [start, end], after its earlier siblings and
        of its parent's query, and no self time below zero."""
        problems = []
        roots = [s for s in self.spans if s[PARENT] < 0]
        if any(s[NAME] != "cli.run_command" for s in roots):
            problems.append("a span lies outside every run_command span")
        if len(roots) != n_queries:
            problems.append(f"{len(roots)} root spans for {n_queries} queries")
        last_child_end = {}
        for i, s in enumerate(self.spans):
            if s[PARENT] < 0:
                continue
            parent = self.spans[s[PARENT]]
            if not (s[PARENT] < i and parent[START] <= s[START] <= s[END] <= parent[END]):
                problems.append(f"span {i} ({s[NAME]}) is not inside its parent {s[PARENT]} ({parent[NAME]})")
            elif s[START] < last_child_end.get(s[PARENT], parent[START]):
                problems.append(f"span {i} ({s[NAME]}) overlaps an earlier child of span {s[PARENT]}")
            elif s[QUERY] != parent[QUERY]:
                problems.append(f"span {i} ({s[NAME]}) has another query than its parent")
            last_child_end[s[PARENT]] = s[END]
        negative = [i for i, st in enumerate(self.self_times()) if st < -1e-9]
        if negative:
            problems.append(f"{len(negative)} spans have a negative self time, the first span {negative[0]}")
        return problems[:20]

    def _bound(self, span) -> dict:
        args, kwargs, _ = span[INFO]
        sig = inspect.signature(self._originals[span[NAME]])
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def counts(self) -> Dict[str, float]:
        """Work counters computed from the recorded inputs; they depend on
        the inputs only, so they repeat exactly for one seed."""
        from matlogic.lang import subformulas, variables

        clone_calls = clone_functions = repeats = 0
        seen = set()
        scan_tuples = ground_terms = 0
        for s in self.spans:
            name = s[NAME]
            if name == "algebra.clone_discovery_order":
                a = self._bound(s)
                alg = a["alg"]
                key = (tuple((c, t.tobytes()) for c, t in sorted(alg.tables.items())), alg.size, a["n"])
                clone_calls += 1
                repeats += key in seen
                seen.add(key)
                clone_functions += s[INFO][2] or 0
            elif name == "matrices.is_valid":
                a = self._bound(s)
                scan_tuples += a["target"].algebra.size ** len(variables(a["f"]))
            elif name == "matrices.consequence":
                a = self._bound(s)
                vs = set(variables(a["conclusion"]))
                for p in a["premises"]:
                    vs.update(variables(p))
                scan_tuples += a["target"].algebra.size ** len(vs)
            elif name == "eqlogic.ground_closure":
                a = self._bound(s)
                universe = set()
                for e in a["premises"]:
                    universe |= subformulas(e.lhs) | subformulas(e.rhs)
                for t in a["extra_terms"]:
                    universe |= subformulas(t)
                ground_terms += len(universe)
        return {
            "algebra.clone_calls": clone_calls,
            "algebra.clone_functions": clone_functions,
            "algebra.clone_repeat_ratio": repeats / clone_calls if clone_calls else 0.0,
            "matrices.scan_tuples": scan_tuples,
            "eqlogic.ground_terms": ground_terms,
        }

    def metrics(self) -> Dict[str, float]:
        selfs = self.self_times()
        self_by = defaultdict(float)
        total_by = defaultdict(float)
        calls = Counter()
        caps = Counter()
        root_self = []
        for s, st in zip(self.spans, selfs):
            name = s[NAME]
            self_by[name] += st
            total_by[name] += s[END] - s[START]
            calls[name] += 1
            caps[name.split(".")[0]] += s[CAP]
            if name == "cli.run_command":
                root_self.append(st)
        scan = ("matrices.is_valid", "matrices.consequence")
        parse = ("lang.parse_formula", "eqlogic.parse_equality")
        scan_s = sum(self_by[n] for n in scan)
        layer_self = self.layer_self_times()
        out = {
            "cli.self_ms_p50": statistics.median(root_self) * 1e3 if root_self else 0.0,
            "cli.load_spec_s": total_by["cli.load_spec"],
            "lang.parse_s": sum(total_by[n] for n in parse),
            "lang.parse_calls": sum(calls[n] for n in parse),
            "algebra.clone_s": self_by["algebra.clone_discovery_order"],
            "algebra.generating_set_s": total_by["algebra.minimal_generating_set"],
            "algebra.congruence_s": total_by["algebra.greatest_congruence_below"],
            "algebra.direct_product_s": total_by["algebra.direct_product"],
            "matrices.scan_s": scan_s,
            "matrices.scan_calls": sum(calls[n] for n in scan),
            "lindenbaum.self_s": layer_self.get("lindenbaum", 0.0),
            "decide.self_s": layer_self.get("decide", 0.0),
            "eqlogic.ground_s": total_by["eqlogic.ground_closure"],
            "eqlogic.eq_consequence_s": total_by["eqlogic.eq_consequence"],
            "intprover.prove_s": total_by["intprover.g3_prove"],
            "intprover.prove_calls": calls["intprover.g3_prove"],
            "intprover.check_proof_s": total_by["intprover.check_proof"],
        }
        out.update(self.counts())
        out["matrices.scan_tuples_per_s"] = out["matrices.scan_tuples"] / scan_s if scan_s else 0.0
        for layer in LAYERS:
            out[f"{layer}.cap_exceeded"] = caps[layer]
        return out

    def layer_self_times(self) -> Dict[str, float]:
        out = defaultdict(float)
        for s, st in zip(self.spans, self.self_times()):
            out[s[NAME].split(".")[0]] += st
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "query": s[QUERY], "cap": s[CAP]}) + "\n")
