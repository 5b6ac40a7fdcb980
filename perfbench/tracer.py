"""Spans around kroutecut's public entry points, installed from outside.

Nothing in the package changes: `Tracer.install` replaces each traced
function at every module attribute that holds it (a name imported with
`from .graph import connectivity` is bound in several modules) and in the
SOLVERS table, and `FlowNet.max_flow` on its class. Spans are folded into
per-name totals as they close, so memory stays bounded however many flows an
operation runs. Self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

clock = time.process_time  # the clock run.py times operations with


class Stat:
    __slots__ = ("calls", "total", "self_time", "flows")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.flows = 0  # max_flow calls made inside the span


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.children: dict[tuple[str, str], int] = defaultdict(int)
        self.computed: dict[str, int] = defaultdict(int)
        # Open spans: [name, op id, span id, parent span id, start,
        # child time, max_flow calls at entry].
        self.stack: list[list] = []
        self.op_id = 0
        self.next_span = 0
        self.flows = 0
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """`name` is a string or a function of the call's arguments."""
        stack, stats, children = self.stack, self.stats, self.children

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            if before is not None:
                before(self, *args, **kwargs)
            parent = stack[-1][2] if stack else None
            self.next_span += 1
            frame = [label, self.op_id, self.next_span, parent, clock(), 0.0,
                     self.flows]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[4]
                st = stats[label]
                st.calls += 1
                st.total += took
                st.self_time += took - frame[5]
                st.flows += self.flows - frame[6]
                if stack:
                    stack[-1][5] += took
                    children[(stack[-1][0], label)] += 1
            if after is not None:
                after(self, result)
            return result

        return span

    def count_flow(self, *_args, **_kwargs):
        self.flows += 1

    # -- installation --------------------------------------------------------

    def install(self, mods) -> None:
        graph, oracles, solvers = mods.graph, mods.oracles, mods.solvers
        exact, reductions, cli = mods.exact, mods.reductions, mods.cli
        computed = self.computed

        def cut_mode(g, demands, kind, cfg, *a, **kw):
            return f"oracles.sparsest_cut.{cfg.mode}"

        def before_cut(_t, g, demands, kind, cfg, *a, **kw):
            if cfg.mode == "exact":
                computed["masks"] += 1 << g.vertex_count
            else:
                computed["orderings"] += max(1, cfg.sweep_restarts)

        def before_vertex(_t, g, demands, k, kind, cfg):
            n = g.vertex_count
            sizes = [(math.comb(n, j), n - j) for j in range(k)]
            computed["separators"] += sum(count for count, _ in sizes)
            if cfg.mode == "exact":
                computed["masks"] += sum(count << rest for count, rest in sizes)
            else:
                computed["orderings"] += (max(1, cfg.sweep_restarts)
                                          * sum(count for count, _ in sizes))

        def after_image(_t, result):
            computed["image_edges"] += result[0].graph.edge_count

        targets = [
            (graph, "num_edge_disjoint_paths", "graph.edge_paths", None, None),
            (graph, "num_vertex_disjoint_paths", "graph.vertex_paths", None, None),
            (graph, "min_weight_edge_st_cut", "graph.st_cut", None, None),
            (graph, "min_weight_vertex_st_cut", "graph.st_cut", None, None),
            (graph, "connectivity", "graph.connectivity", None, None),
            (graph, "is_feasible", "graph.is_feasible", None, None),
            (oracles, "sparsest_cut", cut_mode, before_cut, None),
            (oracles, "k_route_sparsest_cut", "oracles.k_route", None, None),
            (oracles, "vertex_k_route_sparsest_cut", "oracles.vertex_k_route",
             before_vertex, None),
            (oracles, "l_multicut", "oracles.l_multicut", None, None),
            (oracles, "k_route_sparsest_cut_bicriteria", "oracles.bicriteria",
             None, None),
            (oracles, "laminar_min_cut_family", "oracles.laminar", None, None),
            (exact, "brute_force_opt", "exact.brute_force_opt", None, None),
            (exact, "ratio_report", "exact.ratio_report", None, None),
            (reductions, "ec_to_vc", "reductions.ec_to_vc", None, after_image),
            (cli, "gen_instance", "cli.gen_instance", None, None),
            (cli, "render_instance", "cli.render_instance", None, None),
            (cli, "parse_instance", "cli.parse_instance", None, None),
            (cli, "build_report", "cli.build_report", None, None),
        ]
        for alg, fn in solvers.SOLVERS.items():
            targets.append((solvers, fn.__name__, f"solvers.{alg}", None, None))

        for home, attr, name, before, after in targets:
            original = getattr(home, attr)
            self._rebind(mods.all, original,
                         self.wrap(original, name, before, after))
        table = solvers.SOLVERS
        for alg, fn in list(table.items()):
            wrapped = next(w for m in mods.all for a, w in vars(m).items()
                           if getattr(w, "__wrapped__", None) is fn)
            self._undo.append((table, alg, fn, True))
            table[alg] = wrapped

        cls = graph.FlowNet
        original = cls.max_flow
        self._undo.append((cls, "max_flow", original, False))
        cls.max_flow = self.wrap(original, "graph.max_flow", self.count_flow)

    def _rebind(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original, False))
                    setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for holder, key, original, is_item in reversed(self._undo):
            if is_item:
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    # -- summaries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def flows_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.stats[name].flows / calls if calls else 0.0

    def self_s(self, prefix: str) -> float:
        """Self time of the named spans and of those named below them."""
        return sum(st.self_time for n, st in self.stats.items()
                   if n == prefix or n.startswith(prefix + "."))
