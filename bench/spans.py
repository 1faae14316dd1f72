"""Span tracing of lietau's public functions, installed from the outside.

`Tracer.install()` wraps each function listed in TARGETS in every lietau
module namespace that holds it (so `lietau.ideals.smith_divisors` is wrapped
as well as `lietau.intlinalg.smith_divisors`), and wraps methods on their
class.  A name that no longer exists raises, so a renamed function cannot
silently read as zero calls.

Every call records a span (name, start, end, parent).  Spans are kept in
memory, up to MAX_SPANS, and written out by `Tracer.finish` at the end;
the per-name aggregates (calls, total and self time) are kept for every call.
Self time is a span's duration minus the time covered by its child spans.
"""

import importlib
import json
import sys
import time

MAX_SPANS = 200_000

# span name -> the functions it covers, as (module, attribute path)
TARGETS = {
    "words.construct": [("lietau.words", "Word.__init__")],
    "words.apply": [("lietau.words", "GroupEndomorphism.apply")],
    "words.compose": [("lietau.words", "GroupEndomorphism.compose")],
    "hall.basis": [("lietau.hall", "hall_basis")],
    "hall.basis_block": [("lietau.hall", "basis_block")],
    "lie.bracket": [("lietau.lie", "bracket")],
    "lie.substitute": [("lietau.lie", "substitute")],
    "magnus.expand": [("lietau.magnus", "magnus")],
    "magnus.series_mul": [("lietau.magnus", "MagnusSeries.__mul__")],
    "magnus.weight_of": [("lietau.magnus", "weight_of")],
    "magnus.component_to_lie": [("lietau.magnus", "component_to_lie")],
    "ideals.level": [("lietau.ideals", "GradedIdeal.level")],
    "ideals.reduce": [("lietau.ideals", "GradedIdeal.reduce")],
    "ideals.solve_in_span": [("lietau.ideals", "GradedIdeal.solve_in_span")],
    "intlinalg.smith": [("lietau.intlinalg", "smith_divisors")],
    "intlinalg.lattice_add": [("lietau.intlinalg", "IntLattice.add")],
    "intlinalg.lattice_new": [("lietau.intlinalg", "IntLattice.__init__")],
    "surface.surface_class": [("lietau.surface", "surface_class")],
    "johnson.depth": [("lietau.johnson", "johnson_depth"),
                      ("lietau.johnson", "jprime_depth")],
    "johnson.tau": [("lietau.johnson", "tau"), ("lietau.johnson", "tau1")],
    "symplectic.invariant_search": [
        ("lietau.symplectic", "invariant_lagrangian_report")],
    "obstruction.grade_decompose": [("lietau.obstruction", "grade_decompose")],
    "obstruction.scan": [("lietau.obstruction", "robustness_scan")],
    "region.table": [("lietau.region", "region_table"),
                     ("lietau.region", "rhs_csv"),
                     ("lietau.region", "holds_csv"),
                     ("lietau.region", "region_text_table")],
    "cli.main": [("lietau.cli", "main")],
}


# work counts kept next to the spans, all reported even when zero
COUNTERS = ("ideals.blocks", "ideals.max_block_cols",
            "ideals.level.symplectic_s", "ideals.level.handlebody_s",
            "intlinalg.lattice_add.useful", "magnus.expand.misses",
            "magnus.expand.monomials", "words.apply.letters_out",
            "obstruction.scan.lagrangians", "symplectic.candidates_tested")


def _count_hooks():
    """Hooks run after a call, as (tracer, args, result, duration)."""
    from lietau.magnus import _magnus_cached
    misses = [_magnus_cached.cache_info().misses]

    def lattice_new(tr, args, result, dur):
        if "ideals.level" in tr.open_names():
            tr.bump("ideals.blocks")
            tr.counters["ideals.max_block_cols"] = max(
                tr.counters["ideals.max_block_cols"], args[1])

    def level(tr, args, result, dur):
        kind = "symplectic" if args[0].min_weight == 2 else "handlebody"
        tr.bump("ideals.level.%s_s" % kind, dur)

    def expand(tr, args, result, dur):
        now = _magnus_cached.cache_info().misses
        if now != misses[0]:
            misses[0] = now
            tr.bump("magnus.expand.misses")
            tr.bump("magnus.expand.monomials", len(result.coeffs))

    return {
        "intlinalg.lattice_add": lambda tr, a, r, d: tr.bump(
            "intlinalg.lattice_add.useful", int(r)),
        "intlinalg.lattice_new": lattice_new,
        "ideals.level": level,
        "magnus.expand": expand,
        "words.apply": lambda tr, a, r, d: tr.bump(
            "words.apply.letters_out", len(r)),
        "obstruction.scan": lambda tr, a, r, d: tr.bump(
            "obstruction.scan.lagrangians", r.scanned),
        "symplectic.invariant_search": lambda tr, a, r, d: tr.bump(
            "symplectic.candidates_tested", r.candidates_tested),
    }


class Tracer:
    def __init__(self):
        self.names = []
        self.agg = {}          # name -> [calls, total_s, self_s]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans = []        # (name index, span id, parent id, start, end)
        self.dropped = 0
        self._stack = []       # [span id, time covered by children, name index]
        self._next_id = 0

    def bump(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def open_names(self):
        return [self.names[e[2]] for e in self._stack]

    def _wrap(self, name, fn, post):
        if name not in self.agg:
            self.agg[name] = [0, 0.0, 0.0]
            self.names.append(name)
        agg = self.agg[name]
        idx = self.names.index(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            entry = [sid, 0.0, idx]
            parent = stack[-1][0] if stack else -1
            stack.append(entry)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - entry[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < MAX_SPANS:
                    spans.append((idx, sid, parent, t0, t1))
                else:
                    tracer.dropped += 1
            if post is not None:
                post(tracer, args, result, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target, with the work-count hooks."""
        for targets in TARGETS.values():
            for modname, _ in targets:
                importlib.import_module(modname)
        posts = _count_hooks()
        modules = [mod for name, mod in sys.modules.items()
                   if name == "lietau" or name.startswith("lietau.")]
        for span, targets in TARGETS.items():
            for modname, path in targets:
                owner = sys.modules[modname]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapped = self._wrap(span, orig, posts.get(span))
                if cls_path:
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)

    def finish(self, span_path):
        """Write the spans out; returns the aggregates and counts."""
        from lietau import lie
        self.counters["lie.bracket_memo.size"] = len(lie._bracket_memo)
        with open(span_path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "fields": ["name", "id", "parent", "start", "end"],
                       "spans": self.spans}, fh)
        out = {}
        for name, (calls, total, self_s) in self.agg.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total
            out[name + ".self_s"] = self_s
        out.update(self.counters)
        out["spans.recorded"] = len(self.spans)
        out["spans.dropped"] = self.dropped
        return out
