"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``gkhopf`` layer from the
outside, in every ``gkhopf`` module namespace that binds them, so that calls
made through a re-export (``multiply`` inside ``hopfops``, ``normal_form``
inside ``cli``) are seen too.  Each call becomes a span: name, start, end,
parent span and task id, kept in memory and written out when the run ends.

A span's self time is its duration minus the time covered by its child
spans.  Everything runs in one thread, so children never overlap and the
covered time is the sum of the children's durations; the recorder keeps that
sum on a stack of open spans.  Time the recorder spends in its own hooks is
counted as covered, so it lands in no layer's self time.

Scalar operations (``Cyclo`` add/mul/inv and ``RootOfUnity`` arithmetic) run
millions of times per run.  They are timed and counted like every other span
and take part in the self-time arithmetic, but are not stored one by one.

Metric names start with the module name, except that ``_linalg`` metrics are
named ``linalg.*``, since a metric name must start with a letter or digit.
Which end-to-end metric each layer metric should move, on which workload:

==========================================  ==============================  =========================
layer metric                                moves                           on
==========================================  ==============================  =========================
linalg.rref/nullspace calls, self_s,        tasks_per_s, task_ms_p50        primitive-scan; no change
rows, cols, nnz, max_block_cols (_linalg)                                   on the other three
scalars.Cyclo.add/mul/inv, max_conductor    tasks_per_s                     confluence-grid first,
                                                                            then primitive-scan and
                                                                            hopf-window
scalars.order_of                            tasks_per_s                     nichols-batch
scalars.RootOfUnity.ops, heckenberger.*     the nichols-batch remainder;    nichols-batch
                                            must not worsen under a scalar
                                            rewrite
ncpoly.normal_form                          task_ms_tail                    confluence-grid
ncpoly.multiply, product_cache.miss_ratio,  task_ms_p50, peak_rss_mb        hopf-window
hopfops.coproduct/antipode_monomial
presentations.build                         setup_s; per-task time          hopf-window
cli.main, cli.report_bytes                  task_ms_p50                     hopf-window, nichols-batch
==========================================  ==============================  =========================
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
import weakref
from array import array
from collections.abc import Sequence
from pathlib import Path

# Stored spans are capped so that a long traced run cannot exhaust memory;
# spans past the cap still count toward every statistic.
MAX_STORED_SPANS = 1_000_000
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "task")

# (module, attribute, span name, stored one by one)
TARGETS = (
    ("gkhopf.scalars", "Cyclo.__add__", "scalars.Cyclo.add", False),
    ("gkhopf.scalars", "Cyclo.__radd__", "scalars.Cyclo.add", False),
    ("gkhopf.scalars", "Cyclo.__mul__", "scalars.Cyclo.mul", False),
    ("gkhopf.scalars", "Cyclo.__rmul__", "scalars.Cyclo.mul", False),
    ("gkhopf.scalars", "Cyclo.inv", "scalars.Cyclo.inv", False),
    ("gkhopf.scalars", "RootOfUnity.__mul__", "scalars.RootOfUnity.ops", False),
    ("gkhopf.scalars", "RootOfUnity.__pow__", "scalars.RootOfUnity.ops", False),
    ("gkhopf.scalars", "RootOfUnity.__neg__", "scalars.RootOfUnity.ops", False),
    ("gkhopf.scalars", "RootOfUnity.inv", "scalars.RootOfUnity.ops", False),
    ("gkhopf.scalars", "order_of", "scalars.order_of", True),
    ("gkhopf.ncpoly", "normal_form", "ncpoly.normal_form", True),
    ("gkhopf.ncpoly", "multiply", "ncpoly.multiply", True),
    ("gkhopf.ncpoly", "certify_confluence", "ncpoly.certify_confluence", True),
    ("gkhopf.hopfops", "coproduct", "hopfops.coproduct", True),
    ("gkhopf.hopfops", "coproduct_monomial", "hopfops.coproduct_monomial", True),
    ("gkhopf.hopfops", "antipode", "hopfops.antipode", True),
    ("gkhopf.hopfops", "antipode_monomial", "hopfops.antipode_monomial", True),
    ("gkhopf.hopfops", "check_hopf_axioms", "hopfops.check_hopf_axioms", True),
    ("gkhopf.hopfops", "skew_primitives", "hopfops.skew_primitives", True),
    ("gkhopf.hopfops", "weight_commutator", "hopfops.weight_commutator", True),
    ("gkhopf._linalg", "rref", "linalg.rref", True),
    ("gkhopf._linalg", "nullspace", "linalg.nullspace", True),
    ("gkhopf._linalg", "rank", "linalg.rank", True),
    ("gkhopf.presentations", "build", "presentations.build", True),
    ("gkhopf.heckenberger", "lemma41_case", "heckenberger.lemma41_case", True),
    ("gkhopf.heckenberger", "prop42_case", "heckenberger.prop42_case", True),
    ("gkhopf.heckenberger", "supplementary_type", "heckenberger.supplementary_type", True),
    ("gkhopf.heckenberger", "remark43_finite", "heckenberger.remark43_finite", True),
    ("gkhopf.cli", "main", "cli.main", True),
)

# per-layer metrics: (name, unit); every traced run reports all of them
LAYER_METRICS = (
    ("linalg.rref.calls", "count/task"),
    ("linalg.rref.self_s", "s/task"),
    ("linalg.nullspace.calls", "count/task"),
    ("linalg.nullspace.self_s", "s/task"),
    ("linalg.rows", "count/task"),
    ("linalg.cols", "count/task"),
    ("linalg.nnz", "count/task"),
    ("linalg.max_block_cols", "count"),
    ("scalars.Cyclo.add.calls", "count/task"),
    ("scalars.Cyclo.add.self_s", "s/task"),
    ("scalars.Cyclo.mul.calls", "count/task"),
    ("scalars.Cyclo.mul.self_s", "s/task"),
    ("scalars.Cyclo.inv.calls", "count/task"),
    ("scalars.Cyclo.inv.self_s", "s/task"),
    ("scalars.Cyclo.max_conductor", "count"),
    ("scalars.order_of.calls", "count/task"),
    ("scalars.order_of.self_s", "s/task"),
    ("scalars.RootOfUnity.ops.calls", "count/task"),
    ("scalars.RootOfUnity.ops.self_s", "s/task"),
    ("heckenberger.lemma41_case.self_s", "s/task"),
    ("heckenberger.prop42_case.self_s", "s/task"),
    ("heckenberger.supplementary_type.self_s", "s/task"),
    ("heckenberger.remark43_finite.self_s", "s/task"),
    ("ncpoly.normal_form.calls", "count/task"),
    ("ncpoly.normal_form.self_s", "s/task"),
    ("ncpoly.certify_confluence.self_s", "s/task"),
    ("ncpoly.multiply.calls", "count/task"),
    ("ncpoly.multiply.self_s", "s/task"),
    ("ncpoly.multiply.pairs", "count/task"),
    ("ncpoly.product_cache.miss_ratio", "ratio"),
    ("hopfops.coproduct_monomial.calls", "count/task"),
    ("hopfops.coproduct_monomial.self_s", "s/task"),
    ("hopfops.coproduct_monomial.miss_ratio", "ratio"),
    ("hopfops.antipode_monomial.calls", "count/task"),
    ("hopfops.antipode_monomial.self_s", "s/task"),
    ("hopfops.antipode_monomial.miss_ratio", "ratio"),
    ("hopfops.check_hopf_axioms.self_s", "s/task"),
    ("hopfops.skew_primitives.self_s", "s/task"),
    ("hopfops.weight_commutator.self_s", "s/task"),
    ("presentations.build.calls", "count/task"),
    ("presentations.build.self_s", "s/task"),
    ("cli.main.calls", "count/task"),
    ("cli.main.self_s", "s/task"),
    ("cli.report_bytes", "B/task"),
    ("trace.overhead_tasks_per_s", "1/s"),
)


def max_block_cols(rows) -> int:
    """Size of the largest set of columns connected through shared rows.

    Two columns are connected when one row has nonzero entries in both; the
    blocks are the connected components, found by union-find.
    """
    parent: dict = {}

    def find(c):
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    for row in rows:
        cols = iter(row)
        first = next(cols, None)
        if first is None:
            continue
        parent.setdefault(first, first)
        a = find(first)
        for c in cols:
            parent.setdefault(c, c)
            b = find(c)
            if b != a:
                parent[b] = a
    sizes: dict = {}
    for c in parent:
        r = find(c)
        sizes[r] = sizes.get(r, 0) + 1
    return max(sizes.values(), default=0)


class Tracer:
    """Records spans around wrapped callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.task = -1
        self.names: list[str] = []
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.spans = array("d")
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []       # open spans: [id, name, covered_s]
        self._patches: list = []
        self.counters = {"rows": 0, "cols": 0, "nnz": 0, "max_block_cols": 0,
                         "max_conductor": 0, "pairs": 0, "nf_in_multiply": 0}
        self._distinct: dict[str, int] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, stored: bool = True, before=None, after=None):
        """``fn`` recorded as span ``name``.

        ``before(args)`` may return replacement arguments; ``after(result)``
        sees the return value.  Both run outside every span's self time.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name not in self.names:
            self.names.append(name)
        name_id = float(self.names.index(name))
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                h0 = clock()
                args = before(args) or args
                if stack:
                    stack[-1][2] += clock() - h0
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if stored:
                    if len(self.spans) < 6 * MAX_STORED_SPANS:
                        self.spans.extend((span_id, name_id, t0, t1, parent, self.task))
                    else:
                        self.dropped += 1
            if after is not None:
                h0 = clock()
                after(result)
                if stack:
                    stack[-1][2] += clock() - h0
            return result

        return traced

    def parent_name(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def inside(self, name: str) -> bool:
        return any(frame[1] == name for frame in self._stack)

    # -- installation --------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the span names not found."""
        for modname in sorted({t[0] for t in TARGETS}):
            with contextlib.suppress(ImportError):
                importlib.import_module(modname)
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gkhopf" or n.startswith("gkhopf."))]
        missing = []
        hooks = self._hooks()
        for modname, attr, name, stored in TARGETS:
            module = sys.modules.get(modname)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(member) if owner is not None else None
            if original is None:
                missing.append(name)
                continue
            before, after = hooks.get(name, (None, None))
            wrapped = self.wrap(name, original, stored, before, after)
            if owner_name:
                self._patch(owner, member, original, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapped)
        return sorted(set(missing))

    def _patch(self, owner, key, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- layer hooks ---------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def linalg_rows(args):
            rows = args[0]
            if not isinstance(rows, Sequence):
                rows = list(rows)   # a one-shot iterable must reach rref intact
            if not self.parent_name().startswith("linalg."):
                cols = set()
                for row in rows:
                    cols.update(row)
                c["rows"] += len(rows)
                c["cols"] += len(cols)
                c["nnz"] += sum(len(row) for row in rows)
                c["max_block_cols"] = max(c["max_block_cols"], max_block_cols(rows))
            return (rows,) + tuple(args[1:])

        def conductor(result):
            cond = getattr(result, "conductor", 0)
            if cond > c["max_conductor"]:
                c["max_conductor"] = cond

        def multiply_pairs(args):
            c["pairs"] += len(args[0].terms) * len(args[1].terms)

        def normal_form_enter(_args):
            if self.inside("ncpoly.multiply"):
                c["nf_in_multiply"] += 1

        return {
            "linalg.rref": (linalg_rows, None),
            "linalg.nullspace": (linalg_rows, None),
            "linalg.rank": (linalg_rows, None),
            "scalars.Cyclo.add": (None, conductor),
            "scalars.Cyclo.mul": (None, conductor),
            "scalars.Cyclo.inv": (None, conductor),
            "ncpoly.multiply": (multiply_pairs, None),
            "ncpoly.normal_form": (normal_form_enter, None),
            "hopfops.coproduct_monomial": (self._distinct_pair("hopfops.coproduct_monomial"), None),
            "hopfops.antipode_monomial": (self._distinct_pair("hopfops.antipode_monomial"), None),
        }

    def _distinct_pair(self, name: str):
        """Counts distinct (built presentation, monomial) arguments of ``name``."""
        seen: dict[int, set] = {}
        self._distinct[name] = 0

        def hook(args):
            m, built = args[0], args[1]
            key = id(built)
            monos = seen.get(key)
            if monos is None:
                monos = seen[key] = set()
                weakref.finalize(built, seen.pop, key, None)
            if m not in monos:
                monos.add(m)
                self._distinct[name] += 1

        return hook

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, tasks: int, report_bytes: int, overhead: float) -> dict:
        """Every per-layer metric, normalised per traced task."""
        n = max(tasks, 1)
        c = self.counters

        def stat(name, i):
            return self.stats.get(name, [0, 0.0, 0.0])[i]

        def ratio(num, den):
            return num / den if den else 0.0

        values = {}
        for metric, unit in LAYER_METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = stat(base, 0) / n
            elif kind == "self_s":
                values[metric] = stat(base, 2) / n
        values.update({
            "linalg.rows": c["rows"] / n,
            "linalg.cols": c["cols"] / n,
            "linalg.nnz": c["nnz"] / n,
            "linalg.max_block_cols": c["max_block_cols"],
            "scalars.Cyclo.max_conductor": c["max_conductor"],
            "ncpoly.multiply.pairs": c["pairs"] / n,
            "ncpoly.product_cache.miss_ratio": ratio(c["nf_in_multiply"], c["pairs"]),
            "hopfops.coproduct_monomial.miss_ratio": ratio(
                self._distinct.get("hopfops.coproduct_monomial", 0),
                stat("hopfops.coproduct_monomial", 0)),
            "hopfops.antipode_monomial.miss_ratio": ratio(
                self._distinct.get("hopfops.antipode_monomial", 0),
                stat("hopfops.antipode_monomial", 0)),
            "cli.report_bytes": report_bytes / n,
            "trace.overhead_tasks_per_s": overhead,
        })
        return {metric: {"value": values[metric], "unit": unit} for metric, unit in LAYER_METRICS}

    def write(self, prefix: Path, header: dict) -> None:
        """Writes ``<prefix>.json`` (names, layout, totals) and ``<prefix>.f64``
        (the stored spans as native doubles, six per span)."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        meta = dict(header, fields=SPAN_FIELDS, names=self.names,
                    stored=len(self.spans) // 6, dropped=self.dropped,
                    totals={k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                            for k, v in sorted(self.stats.items())})
        prefix.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")
        with open(prefix.with_suffix(".f64"), "wb") as fh:
            self.spans.tofile(fh)
