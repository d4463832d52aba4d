"""Per-layer tracing for the benchmark, from outside the program.

``Tracer.install()`` replaces public functions and methods of the
``lawvere`` modules with wrappers.  A function is replaced in every
``lawvere`` module that bound it by name; a method is replaced on its
class; a distributive law's ``rewrite`` is replaced on every law object,
including laws built later.  Nothing under ``src/`` is edited.

Most boundaries record a span (name, start, end, parent) and a call
count.  Boundaries hit millions of times per pass record counts only, so
that tracing stays affordable: ``terms.substitute``, ``DisjointSet.find``,
``fragments.map`` and ``KeypropComputation.invariant``.  Recursive public
functions count their outermost call only.

``LAYER_METRICS`` lists every per-layer metric with the end-to-end metric
it should move and the workload it should move it on.  ``BENCHMARK.json``
carries the same names, units and directions.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Every per-layer metric: name, unit, better, the end-to-end metric it
# should move, the workloads it should be non-zero on (and move there),
# and the workloads that bypass it, where it must read 0.
FS, CQ, CLI = "fs-sweep", "coend-quotient", "cli-requests"
LAYER_METRICS = [
    ("terms.normalize.calls", "count", "lower",
     "wall_s, peak_rss_mb", (FS,), (CQ,)),
    ("terms.normalize.self_s", "s", "lower", "wall_s", (FS,), (CQ,)),
    ("terms.normalize.repeat_share", "ratio", "lower",
     "wall_s, peak_rss_mb", (FS, CLI), (CQ,)),
    ("terms.substitute.calls", "count", "lower", "wall_s", (FS, CLI), ()),
    ("terms.enumerate_normal.calls", "count", "lower",
     "wall_s", (FS, CLI), ()),
    ("terms.enumerate_normal.self_s", "s", "lower", "wall_s", (FS, CLI), ()),
    ("theory.compose.calls", "count", "lower", "wall_s", (FS,), ()),
    ("theory.compose.self_s", "s", "lower", "wall_s", (FS,), ()),
    ("theory.morphism_check.calls", "count", "lower", "wall_s", (FS,), ()),
    ("theory.morphism_check.self_s", "s", "lower", "wall_s", (FS,), ()),
    ("factorization.factorize.calls", "count", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.factorize.self_s", "s", "lower", "wall_s", (FS,), (CQ,)),
    ("factorization.canonicalize.calls", "count", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.canonicalize.self_s", "s", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.zigzag_equivalent.calls", "count", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.zigzag_equivalent.self_s", "s", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.check_fs_over_base.calls", "count", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.check_fs_over_base.self_s", "s", "lower",
     "wall_s", (FS,), (CQ,)),
    ("factorization.witness.found_ratio", "ratio", "higher",
     "wall_s", (FS,), (CQ,)),
    ("distlaw.rewrite.calls", "count", "lower", "wall_s", (CLI,), ()),
    ("distlaw.rewrite.self_s", "s", "lower", "wall_s", (CLI,), ()),
    ("distlaw.rewrite.repeat_share", "ratio", "lower", "wall_s", (CLI,), ()),
    ("distlaw.layered_normalize.calls", "count", "lower",
     "wall_s", (CLI,), ()),
    ("distlaw.layered_normalize.self_s", "s", "lower", "wall_s", (CLI,), ()),
    ("distlaw.check_law_axioms.self_s", "s", "lower", "wall_s", (CLI,), ()),
    ("distlaw.check_yang_baxter.self_s", "s", "lower", "wall_s", (CLI,), ()),
    ("distlaw.draw.accept_ratio", "ratio", "higher", "wall_s", (CLI,), ()),
    ("sampling.random_term.calls", "count", "lower", "wall_s", (CLI,), ()),
    ("sampling.random_term.self_s", "s", "lower", "wall_s", (CLI,), ()),
    ("profunctor.compose_prof.calls", "count", "lower",
     "wall_s", (CQ,), (FS,)),
    ("profunctor.compose_prof.self_s", "s", "lower", "wall_s", (CQ,), (FS,)),
    ("profunctor.prof_iso.calls", "count", "lower", "wall_s", (CQ,), (FS,)),
    ("profunctor.prof_iso.self_s", "s", "lower", "wall_s", (CQ,), (FS,)),
    ("profunctor.quotient.elements", "count", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("profunctor.quotient.unions", "count", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("profunctor.quotient.merges", "count", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("profunctor.quotient.finds", "count", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("profunctor.quotient.classes", "count", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("profunctor.quotient.self_s", "s", "lower",
     "wall_s, peak_rss_mb", (CQ,), (FS,)),
    ("pcompletion.keyprop.calls", "count", "lower", "wall_s", (CQ,), ()),
    ("pcompletion.keyprop.self_s", "s", "lower", "wall_s", (CQ,), ()),
    ("pcompletion.invariant.calls", "count", "lower", "wall_s", (CQ,), ()),
    ("pcompletion.verify_keyprop.self_s", "s", "lower", "wall_s", (CQ,), ()),
    ("fragments.map.calls", "count", "lower", "wall_s", (CQ,), ()),
    ("fragments.carrier.calls", "count", "lower", "wall_s", (CQ,), ()),
    ("fragments.carrier.self_s", "s", "lower", "wall_s", (CQ,), ()),
    ("correspondence.monad_from_theory.self_s", "s", "lower",
     "wall_s", (CQ,), ()),
    ("correspondence.roundtrip_check.self_s", "s", "lower",
     "wall_s", (CQ,), ()),
    ("correspondence.istar_composite.self_s", "s", "lower",
     "wall_s", (CQ,), ()),
    ("correspondence.composite_correspondence_check.self_s", "s", "lower",
     "wall_s", (CLI,), ()),
    ("correspondence.encode_term.calls", "count", "lower",
     "wall_s", (CLI,), ()),
    ("parser.parse_term.calls", "count", "lower", "request_s.p50", (CLI,), ()),
    ("parser.parse_term.self_s", "s", "lower", "request_s.p50", (CLI,), ()),
    ("parser.format_term.calls", "count", "lower",
     "request_s.p50", (CLI,), ()),
    ("parser.format_term.self_s", "s", "lower", "request_s.p50", (CLI,), ()),
    ("report.to_json.calls", "count", "lower", "request_s.p50", (CLI,), ()),
    ("report.to_json.self_s", "s", "lower", "request_s.p50", (CLI,), ()),
    ("cli.main.calls", "count", "lower", "request_s.p50", (CLI,), ()),
    ("cli.main.self_s", "s", "lower", "request_s.p50", (CLI,), ()),
    ("trace.overhead_ratio", "ratio", "lower",
     "none: the cost of tracing", (FS, CQ, CLI), ()),
]


def _lawvere_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lawvere"
                                  or name.startswith("lawvere."))]


class Tracer:
    """Spans and counters for one pass; install once per worker process."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list = []
        self._stack: list = []
        self._seen: dict = {"terms.normalize": set(),
                            "distlaw.rewrite": set()}

    def reset(self):
        """Forget everything recorded so far (used after set-up)."""
        self.counts.clear()
        self.spans.clear()
        for s in self._seen.values():
            s.clear()

    # -- wrapper factories ------------------------------------------------

    def span(self, name: str, fn, *, outermost: bool = False, key=None):
        """Record a span and a call per call of ``fn``.

        ``outermost``: nested calls of the same wrapper (recursion) record
        nothing.  ``key(args)``: an input key; calls whose key was seen
        earlier in the pass count as repeats.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        seen = self._seen.get(name)
        depth = [0]
        clock = time.perf_counter

        # The bookkeeping survives a RecursionError raised at any call in
        # it: until the try, a failed step leaves at most a count or a
        # zero-length span behind, and the finally block makes only calls
        # that already succeeded at the same stack depth.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            counts[name + ".calls"] += 1
            if key is not None:
                k = key(args)
                if k in seen:
                    counts[name + ".repeats"] += 1
                else:
                    seen.add(k)
            parent = stack[-1] if stack else -1
            start = clock()
            idx = len(spans)
            spans.append((name, start, start, parent))
            stack.append(idx)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                stack.pop()
                spans[idx] = (name, start, clock(), parent)

        wrapper.__traced__ = True
        return wrapper

    def count(self, name: str, fn, *, outermost: bool = False):
        """Count calls of ``fn`` without recording spans."""
        counts = self.counts
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost:
                if depth[0]:
                    return fn(*args, **kwargs)
                depth[0] += 1
                try:
                    counts[name] += 1
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__traced__ = True
        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_function(self, orig, wrapper):
        for mod in _lawvere_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)

    def install(self):
        import lawvere.cli as cli
        import lawvere.correspondence as correspondence
        import lawvere.distlaw as distlaw
        import lawvere.factorization as factorization
        import lawvere.fragments as fragments
        import lawvere.parser as parser
        import lawvere.pcompletion as pcompletion
        import lawvere.profunctor as profunctor
        import lawvere.report as report
        import lawvere.sampling as sampling
        import lawvere.terms as terms
        import lawvere.theory as theory

        fn = self._replace_function
        span, count = self.span, self.count

        # terms
        TS = terms.TheorySpec
        TS.normalize = span("terms.normalize", TS.normalize,
                            key=lambda a: (id(a[0]), a[1]))
        TS.enumerate_normal = span("terms.enumerate_normal",
                                   TS.enumerate_normal)
        fn(terms.substitute, count("terms.substitute.calls", terms.substitute,
                                   outermost=True))
        # theory
        fn(theory.compose, span("theory.compose", theory.compose))
        TM = theory.TheoryMorphism
        TM.__post_init__ = span("theory.morphism_check", TM.__post_init__)
        # factorization
        for name in ("factorize", "canonicalize", "check_fs_over_base"):
            orig = getattr(factorization, name)
            fn(orig, span(f"factorization.{name}", orig))
        fn(factorization.zigzag_equivalent,
           span("factorization.zigzag_equivalent",
                self._witness_counter(factorization.zigzag_equivalent)))
        # distlaw
        for name in ("check_law_axioms", "check_yang_baxter",
                     "layered_normalize"):
            orig = getattr(distlaw, name)
            fn(orig, span(f"distlaw.{name}", orig))
        fn(distlaw.expansion_estimate,
           self._draw_counter(distlaw.expansion_estimate,
                              distlaw._EXPANSION_LIMIT))
        self._trace_laws(distlaw)
        # sampling
        fn(sampling.random_term,
           span("sampling.random_term", sampling.random_term,
                outermost=True))
        # profunctor
        for name in ("compose_prof", "prof_iso"):
            orig = getattr(profunctor, name)
            fn(orig, span(f"profunctor.{name}", orig))
        self._trace_quotient(profunctor.DisjointSet)
        # pcompletion
        KC = pcompletion.KeypropComputation
        KC.__init__ = span("pcompletion.keyprop", KC.__init__)
        KC.invariant = count("pcompletion.invariant.calls", KC.invariant)
        fn(pcompletion.verify_keyprop,
           span("pcompletion.verify_keyprop", pcompletion.verify_keyprop))
        # fragments: map and carrier on every class that defines them
        for cls in _subclasses(fragments.FinitaryMonadFragment):
            if "map" in vars(cls):
                cls.map = count("fragments.map.calls", vars(cls)["map"])
            if "carrier" in vars(cls):
                cls.carrier = span("fragments.carrier", vars(cls)["carrier"])
        # correspondence
        for name in ("monad_from_theory", "roundtrip_check",
                     "istar_composite", "composite_correspondence_check"):
            orig = getattr(correspondence, name)
            fn(orig, span(f"correspondence.{name}", orig))
        fn(correspondence.encode_term,
           count("correspondence.encode_term.calls",
                 correspondence.encode_term, outermost=True))
        # parser, report, cli
        fn(parser.parse_term, span("parser.parse_term", parser.parse_term))
        fn(parser.format_term, span("parser.format_term", parser.format_term,
                                    outermost=True))
        for cls in (report.Report, report.AxiomReport):
            cls.to_json_dict = span("report.to_json", cls.to_json_dict)
        fn(cli.main, span("cli.main", cli.main))

    def _witness_counter(self, orig):
        """Count witness searches (bound > 0 on equivalent pairs) and hits."""
        counts = self.counts

        @functools.wraps(orig)
        def zigzag_equivalent(p, q, bound=0, atom_pool=None):
            equivalent, witness = orig(p, q, bound, atom_pool)
            if bound > 0 and equivalent:
                counts["factorization.witness.attempts"] += 1
                if witness is not None:
                    counts["factorization.witness.found"] += 1
            return equivalent, witness

        return zigzag_equivalent

    def _draw_counter(self, orig, limit: int):
        """Every outermost ``expansion_estimate`` call measures one draw."""
        counts = self.counts
        depth = [0]

        @functools.wraps(orig)
        def expansion_estimate(t):
            if depth[0]:
                return orig(t)
            depth[0] += 1
            try:
                value = orig(t)
            finally:
                depth[0] -= 1
            counts["distlaw.draw.attempts"] += 1
            if value <= limit:
                counts["distlaw.draw.accepted"] += 1
            return value

        expansion_estimate.__traced__ = True
        return expansion_estimate

    def _trace_laws(self, distlaw):
        """Wrap ``rewrite`` on every existing and every future law."""
        tracer = self
        Law = distlaw.DistributiveLawSpec

        def wrap(law):
            if not getattr(law.rewrite, "__traced__", False):
                object.__setattr__(law, "rewrite", tracer.span(
                    "distlaw.rewrite", law.rewrite,
                    key=lambda a, law=law: (id(law), a[0])))

        for mod in _lawvere_modules():
            for value in list(vars(mod).values()):
                if isinstance(value, Law):
                    wrap(value)
                elif isinstance(value, dict):
                    for v in value.values():
                        if isinstance(v, Law):
                            wrap(v)
        init = Law.__init__

        @functools.wraps(init)
        def __init__(law, *args, **kwargs):
            init(law, *args, **kwargs)
            wrap(law)

        Law.__init__ = __init__

    def _trace_quotient(self, DS):
        counts = self.counts
        add, union, find, classes = DS.add, DS.union, DS.find, DS.classes

        def traced_add(ds, x):
            if x not in ds.parent:
                counts["profunctor.quotient.elements"] += 1
            return add(ds, x)

        def traced_union(ds, a, b):
            counts["profunctor.quotient.unions"] += 1
            # untraced finds, so the find count matches an untraced pass
            if find(ds, a) != find(ds, b):
                counts["profunctor.quotient.merges"] += 1
            return union(ds, a, b)

        def traced_classes(ds):
            out = classes(ds)
            counts["profunctor.quotient.classes"] += len(out)
            return out

        DS.add = self.span("profunctor.quotient", traced_add)
        DS.union = self.span("profunctor.quotient", traced_union)
        DS.classes = self.span("profunctor.quotient", traced_classes)
        DS.find = self.count("profunctor.quotient.finds", find)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus direct children."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def layer_metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead_ratio``."""
        c = self.counts
        selfs = self.self_times()
        out = {}
        for name, *_ in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                continue
            base, last = name.rsplit(".", 1)
            if last == "self_s":
                out[name] = selfs.get(base, 0.0)
            elif last == "calls" or base == "profunctor.quotient":
                out[name] = c.get(name, 0)
            elif last == "repeat_share":
                out[name] = _ratio(c[base + ".repeats"], c[base + ".calls"])
            elif name == "factorization.witness.found_ratio":
                out[name] = _ratio(c["factorization.witness.found"],
                                   c["factorization.witness.attempts"])
            elif name == "distlaw.draw.accept_ratio":
                out[name] = _ratio(c["distlaw.draw.accepted"],
                                   c["distlaw.draw.attempts"])
            else:
                raise KeyError(name)
        return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
