"""Per-layer tracing of ttklib from outside the library.

``Tracer.install`` replaces the public entry points of each layer with
timing and counting wrappers, on every ttklib module attribute bound to
them, so that calls made inside the library (``knots`` calling
``jones``, ``alexander`` calling ``det_laurent``) are seen too.
``uninstall`` puts the originals back.  Spans (id, parent, name, start,
end) are kept in memory and written out at the end of the run.

A layer's self time is its spans' time minus the time of the wrapped
spans nested inside them.  ``laurent`` is not wrapped: its arithmetic is
everywhere, so it shows inside the self times of its callers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from ttklib.errors import BudgetError

# (module, function, span name, group).  A group's time counts only the
# outermost span of the group, so nested calls are not counted twice.
WRAPPED = [
    ("braids", "braid_for", "braids.braid_for", "braids"),
    ("braids", "torus_braid", "braids.torus_braid", "braids"),
    ("invariants", "tl_bracket", "tl", "tl"),
    ("invariants", "kauffman_bracket", "kauffman", "kauffman"),
    ("invariants", "burau_matrix", "burau", "burau"),
    ("invariants", "det_laurent", "det", "det"),
    ("invariants", "alexander", "alexander", "alexander"),
    ("invariants", "jones", "jones", "jones"),
    ("knots", "verify_lemma7", "knots.verify_lemma7", "knots.verify"),
    ("knots", "verify_lemma8", "knots.verify_lemma8", "knots.verify"),
    ("knots", "verify_lemma9", "knots.verify_lemma9", "knots.verify"),
    ("knots", "verify_prop12_1", "knots.verify_prop12_1", "knots.verify"),
    ("knots", "corollary_maximal_pair_check", "knots.corollary", "knots.torus"),
    ("knots", "lee_torus_qsmall", "knots.lee_torus_qsmall", "knots.torus"),
    ("horadam", "is_maximal_pair", "horadam.is_maximal_pair", "horadam"),
    ("horadam", "embed_in_unit_sequence", "horadam.embed", "horadam"),
    ("horadam", "euclid_trace", "horadam.euclid_trace", "horadam"),
    ("classify", "pp_families", "classify.pp_families", "classify.families"),
    ("classify", "ps_families", "classify.ps_families", "classify.families"),
    ("classify", "all_triples", "classify.all_triples", "classify.triples"),
    ("classify", "pp_census", "classify.pp_census", "classify.census"),
    ("classify", "ps_census", "classify.ps_census", "classify.census"),
    ("classify", "census_rows", "classify.census_rows", "classify.rows"),
    ("cli", "main", "cli.main", "cli"),
]

# (metric, unit, better) in the order they are reported.
PER_LAYER = [
    ("braids.build_s", "s", "lower"),
    ("braids.crossings", "count", "lower"),
    ("braids.strands_max", "count", "lower"),
    ("tl.s", "s", "lower"),
    ("tl.calls", "count", "lower"),
    ("tl.refused", "count", "lower"),
    ("tl.predicted_ops", "count", "lower"),
    ("tl.strands_max", "count", "lower"),
    ("kauffman.s", "s", "lower"),
    ("kauffman.calls", "count", "lower"),
    ("kauffman.states", "count", "lower"),
    ("burau.s", "s", "lower"),
    ("burau.calls", "count", "lower"),
    ("burau.dim_sum", "count", "lower"),
    ("det.s", "s", "lower"),
    ("det.calls", "count", "lower"),
    ("det.dim_max", "count", "lower"),
    ("alexander.self_s", "s", "lower"),
    ("jones.self_s", "s", "lower"),
    ("knots.self_s", "s", "lower"),
    ("knots.claims", "count", "higher"),
    ("knots.jones_computed", "count", "lower"),
    ("knots.jones_used", "count", "higher"),
    ("knots.jones_useful_ratio", "ratio", "higher"),
    ("knots.jones_skipped", "count", "lower"),
    ("knots.alexander_computed", "count", "lower"),
    ("knots.alexander_useful_ratio", "ratio", "higher"),
    ("knots.torus_detect_s", "s", "lower"),
    ("horadam.s", "s", "lower"),
    ("classify.families_s", "s", "lower"),
    ("classify.families_calls", "count", "lower"),
    ("classify.triples_s", "s", "lower"),
    ("classify.census_s", "s", "lower"),
    ("classify.rows_s", "s", "lower"),
    ("classify.rows", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_out", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.pairs", "count", "higher"),
]

_MAXIMA = ("braids.strands_max", "tl.strands_max", "det.dim_max")


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, start, end)
        self._stack = []         # open frames: [id, name, group, start, child time]
        self._group_depth = Counter()
        self.group_time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.maxima = Counter()
        self._words = set()      # distinct Alexander words of verify_* in this pass
        self._tl_sizes = Counter()  # (strands, crossings) of completed TL calls
        self._installed = []
        self._next_id = 0

    # -- spans ----------------------------------------------------------

    def _enter(self, name, group):
        self._next_id += 1
        self._group_depth[group] += 1
        frame = [self._next_id, name, group, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, record=True):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, group, start, child = frame
        dur = end - start
        self.self_time[group] += dur - child
        self._group_depth[group] -= 1
        if not self._group_depth[group]:
            self.group_time[group] += dur
        if self._stack:
            self._stack[-1][4] += dur
        if record:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((sid, parent, name, start, end))

    def inside(self, group):
        return self._group_depth[group] > 0

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, name, group):
        hook = getattr(self, "_after_" + fn.__name__, None)

        if fn.__name__ == "census_rows":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # each next() is timed; the rows are too many to keep as spans
                it = fn(*args, **kwargs)
                while True:
                    frame = self._enter(name, group)
                    try:
                        row = next(it)
                    except StopIteration:
                        self._leave(frame, record=False)
                        return
                    self._leave(frame, record=False)
                    self.counts["classify.rows"] += 1
                    yield row
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name, group)
            try:
                result = fn(*args, **kwargs)
            except BudgetError:
                self._leave(frame)
                self.counts[group + ".refused"] += 1
                raise
            except BaseException:
                self._leave(frame)
                raise
            self._leave(frame)
            self.counts[group + ".calls"] += 1
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _after_braid_for(self, args, word):
        self.counts["braids.crossings"] += word.crossing_count
        self.maxima["braids.strands_max"] = max(
            self.maxima["braids.strands_max"], word.strands)

    _after_torus_braid = _after_braid_for

    def _after_tl_bracket(self, args, result):
        word = args[0]
        self._tl_sizes[word.strands, word.crossing_count] += 1
        self.maxima["tl.strands_max"] = max(self.maxima["tl.strands_max"], word.strands)

    def _after_kauffman_bracket(self, args, result):
        self.counts["kauffman.states"] += 1 << args[0].crossing_count

    def _after_burau_matrix(self, args, result):
        self.counts["burau.dim_sum"] += args[0].strands - 1

    def _after_det_laurent(self, args, result):
        self.maxima["det.dim_max"] = max(self.maxima["det.dim_max"], len(args[0]))

    def _after_jones(self, args, result):
        if self.inside("knots.verify"):
            self.counts["knots.jones_computed"] += 1

    def _after_alexander(self, args, result):
        if self.inside("knots.verify"):
            self.counts["knots.alexander_computed"] += 1
            self._words.add((args[0].strands, args[0].letters))

    def _after_verify(self, args, report):
        self.counts["knots.claims"] += 1

    _after_verify_lemma7 = _after_verify_lemma8 = _after_verify
    _after_verify_lemma9 = _after_verify_prop12_1 = _after_verify

    def install(self):
        """Wrap every listed function on every ttklib module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "ttklib" or n.startswith("ttklib.")) and m is not None]
        for mod_name, fn_name, name, group in WRAPPED:
            original = getattr(sys.modules["ttklib." + mod_name], fn_name)
            wrapper = self._wrap(original, name, group)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def end_pass(self):
        self.counts["knots.alexander_distinct"] += len(self._words)
        self._words.clear()

    def uninstall(self):
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    # -- results --------------------------------------------------------

    def metrics(self, passes, extra):
        """Per-layer metrics per traced pass.  ``extra`` holds counts the
        workload derives from its outputs (Jones comparisons used and
        skipped, bytes written)."""
        from ttklib.invariants import tl_predicted_ops
        c = Counter(self.counts)
        c.update(extra)
        c["tl.predicted_ops"] = sum(n * tl_predicted_ops(*size)
                                    for size, n in self._tl_sizes.items())
        g, s = self.group_time, self.self_time
        per_pass = {
            "braids.build_s": g["braids"],
            "braids.crossings": c["braids.crossings"],
            "tl.s": g["tl"],
            "tl.calls": c["tl.calls"] + c["tl.refused"],
            "tl.refused": c["tl.refused"],
            "tl.predicted_ops": c["tl.predicted_ops"],
            "kauffman.s": g["kauffman"],
            "kauffman.calls": c["kauffman.calls"] + c["kauffman.refused"],
            "kauffman.states": c["kauffman.states"],
            "burau.s": g["burau"],
            "burau.calls": c["burau.calls"],
            "burau.dim_sum": c["burau.dim_sum"],
            "det.s": g["det"],
            "det.calls": c["det.calls"],
            "alexander.self_s": s["alexander"],
            "jones.self_s": s["jones"],
            "knots.self_s": s["knots.verify"],
            "knots.claims": c["knots.claims"],
            "knots.jones_computed": c["knots.jones_computed"],
            "knots.jones_used": c["knots.jones_used"],
            "knots.jones_skipped": c["knots.jones_skipped"],
            "knots.alexander_computed": c["knots.alexander_computed"],
            "knots.torus_detect_s": s["knots.torus"],
            "horadam.s": g["horadam"],
            "classify.families_s": g["classify.families"],
            "classify.families_calls": c["classify.families.calls"],
            "classify.triples_s": g["classify.triples"],
            "classify.census_s": s["classify.census"],
            "classify.rows_s": s["classify.rows"],
            "classify.rows": c["classify.rows"],
            "cli.self_s": s["cli"],
            "cli.bytes_out": c["cli.bytes_out"],
        }
        out = {k: _per(v, passes) for k, v in per_pass.items()}
        for k in _MAXIMA:
            out[k] = self.maxima[k]
        out["knots.jones_useful_ratio"] = _ratio(c["knots.jones_used"],
                                                 c["knots.jones_computed"])
        out["knots.alexander_useful_ratio"] = _ratio(c["knots.alexander_distinct"],
                                                     c["knots.alexander_computed"])
        return out


def _per(value, passes):
    if isinstance(value, int) and value % passes == 0:
        return value // passes
    return value / passes


def _ratio(num, den):
    return num / den if den else 0.0
