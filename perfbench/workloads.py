"""The four workloads: verify_trials, construct, measure and route.

Each workload has a set-up (input generation, graph building, warm-up) that
``run.py`` repeats several times, and a timed part made of ops.  Every op is
checked.  The outputs of a fixed, seed-determined prefix of the ops (the
*digest window*) are folded into the run's digest, and the exact counters
that the traced run reports are taken over the same window, so both repeat
for a given seed however many ops fit into the run.

Every point set comes from ``gen_random``: it guarantees an empty
``general_position_report``, which the G9 and Theta-family routers rely on.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import math
import random

from harness import median as _median
from harness import percentile as _percentile
from harness import require

ALGOS = ("stateless", "stateful", "g12", "g9")
KINDS = ("half_theta6", "g12", "g9", "theta", "yao", "rotated_union", "mst")
#: Step cases a RoutingTrace records.
CASES = ("A", "B", "C", "D")


def _coords(ps):
    return [(p.id, p.x, p.y) for p in ps]


def _edges(g):
    return g.edge_list()


def _record_edges(rec, graphs) -> None:
    for kind, g in graphs.items():
        rec.values[f"edges.{kind}"] = len(g.edges)


def _check_degrees(rec, g12, g9) -> None:
    require(rec.call("build.adjacency", g12.max_degree) <= 12, "G12 degree above 12")
    require(rec.call("build.adjacency", g9.max_degree) <= 9, "G9 degree above 9")


def _check_subgraphs(h, g12, g9) -> None:
    require(g12.edges <= h.edges, "G12 is not a subgraph of half-Theta-6")
    require(g9.edges <= g12.edges, "G9 is not a subgraph of G12")


class Workload:
    name = ""
    #: Size of the point set the headline op works on.
    n = 0

    def __init__(self, sk):
        self.sk = sk

    def setup(self, rec, seed):
        """Build the inputs; returns (state, outputs to fold into the digest)."""
        raise NotImplementedError

    def run(self, rec, state, seed: int, seconds: float) -> None:
        raise NotImplementedError

    def headline(self, rec):
        """(latency_ms_p50 samples in s, work items, seconds spent on them)."""
        raise NotImplementedError

    def named(self, rec):
        """The workload's own metrics: [(name, value, unit, samples)]."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class VerifyTrials(Workload):
    """The ``verify`` CLI trial loop: gen -> h6 -> G12 -> G9 -> verify_bound(h6)."""

    name = "verify_trials"
    n = 384
    warmup_n = 128
    window = 2

    def _trial(self, rec, n, seed, tag=""):
        sk = self.sk
        ps = rec.call("cli_io.gen_random" + tag, sk.gen_random, n, seed)
        h = rec.call("build.half_theta6" + tag, sk.build_half_theta6, ps)
        g12 = rec.call("build.g12" + tag, sk.build_g12, h)
        g9 = rec.call("build.g9" + tag, sk.build_g9, h)
        rep = rec.call("analysis.verify_bound" + tag, sk.verify_bound, h)
        return ps, h, g12, g9, rep

    def _check(self, rec, out) -> None:
        _ps, h, g12, g9, rep = out
        require(rep.passed is True, f"half-Theta-6 ratio {rep.max_ratio!r} above its bound")
        _check_degrees(rec, g12, g9)
        _check_subgraphs(h, g12, g9)

    @staticmethod
    def _outputs(out):
        ps, h, g12, g9, rep = out
        return [_coords(ps), _edges(h), _edges(g12), _edges(g9), rep.max_ratio, rep.witness]

    def setup(self, rec, seed):
        # Warm-up: one small trial, so lazy imports and first-call costs are
        # paid before timing, as they would be by a long verify run.
        out = self._trial(rec, self.warmup_n, seed, f"/n{self.warmup_n}")
        self._check(rec, out)
        return None, self._outputs(out)

    def run(self, rec, state, seed, seconds):
        n = self.n

        def step(i):
            s = seed + i
            gc.collect()  # each long op starts with empty collector generations
            out = rec.op("trial", lambda: self._trial(rec, n, s),
                         lambda o: self._check(rec, o), {"n": n, "seed": s})
            if out is None or i >= self.window:
                return
            rec.fold(*self._outputs(out))
            _ps, h, g12, g9, rep = out
            rec.counts["kernels.cone_edges.pair_cone_evals"] += n * (n - 1)
            if i == 0:
                _record_edges(rec, {"half_theta6": h, "g12": g12, "g9": g9})
                rec.values["ratio_n"] = n

        rec.loop("trials", seconds, self.window, step)

    def headline(self, rec):
        s = rec.samples["trial"]
        return s, len(s), sum(s)

    def named(self, rec):
        s = rec.samples["trial"]
        return [
            ("verify_trials_per_s", len(s) / sum(s), "1/s", len(s)),
            ("verify_trial_s_p50", _median(s), "s", len(s)),
        ]


# ---------------------------------------------------------------------------


class Construct(Workload):
    """Every construction on one n=768 set, with adjacency and JSON round trips."""

    name = "construct"
    n = 768
    window = 1

    def setup(self, rec, seed):
        ps = rec.call("cli_io.gen_random", self.sk.gen_random, self.n, seed)
        return ps, [_coords(ps)]

    def _suite(self, rec, ps):
        sk = self.sk
        h = rec.call("build.half_theta6", sk.build_half_theta6, ps)
        graphs = {
            "half_theta6": h,
            "g12": rec.call("build.g12", sk.build_g12, h),
            "g9": rec.call("build.g9", sk.build_g9, h),
            "theta": rec.call("build.theta", sk.build_theta, ps, 7),
            "yao": rec.call("build.yao", sk.build_yao, ps, 6),
            "rotated_union": rec.call("build.rotated_union", sk.build_rotated_union, ps, 2),
            "mst": rec.call("build.mst", sk.build_mst, ps),
        }
        degrees = {k: rec.call("build.adjacency", g.max_degree) for k, g in graphs.items()}
        texts = {k: rec.call("build.graph_json", g.to_json) for k, g in graphs.items()}
        loaded = {k: rec.call("build.graph_from_json", sk.graph_from_json, t)
                  for k, t in texts.items()}
        ptext = rec.call("geometry.points_json", sk.points_to_json, ps)
        ploaded = rec.call("geometry.points_json", sk.points_from_json, ptext)
        return graphs, degrees, loaded, ploaded

    def run(self, rec, ps, seed, seconds):
        n = self.n
        first = []

        def check(out):
            graphs, degrees, loaded, ploaded = out
            require(degrees["g12"] <= 12, "G12 degree above 12")
            require(degrees["g9"] <= 9, "G9 degree above 9")
            _check_subgraphs(graphs["half_theta6"], graphs["g12"], graphs["g9"])
            require(graphs["half_theta6"].edges <= graphs["rotated_union"].edges,
                    "rotated union misses its unrotated half-Theta-6 copy")
            require(len(graphs["mst"].edges) == n - 1, "MST does not have n-1 edges")
            for kind, g in graphs.items():
                require(loaded[kind] == g, f"{kind} changed in a JSON round trip")
            require(ploaded == ps, "points changed in a JSON round trip")
            # Every suite builds from the same points, so it must repeat the first.
            digest = hashlib.sha256(repr(sorted(
                (k, _edges(g)) for k, g in graphs.items())).encode()).hexdigest()
            if first:
                require(digest == first[0], "suite output differs from the first suite")
            else:
                first.append(digest)

        def step(i):
            gc.collect()  # each long op starts with empty collector generations
            out = rec.op("suite", lambda: self._suite(rec, ps), check, {"n": n, "seed": seed})
            if out is None or i >= self.window:
                return
            graphs, degrees, _loaded, _ploaded = out
            for kind in sorted(graphs):
                rec.fold(kind, _edges(graphs[kind]), degrees[kind])
            _record_edges(rec, graphs)
            # half_theta6, theta and yao scan once; the rotated union scans m=2 times.
            rec.counts["kernels.cone_edges.pair_cone_evals"] += 5 * n * (n - 1)

        rec.loop("suites", seconds, self.window, step)

    def headline(self, rec):
        s = rec.samples["suite"]
        return s, len(s), sum(s)

    def named(self, rec):
        s = rec.samples["suite"]
        return [("construct_s_p50", _median(s), "s", len(s))]


# ---------------------------------------------------------------------------


class Measure(Workload):
    """Exact ratios at n=768 and per-pair certification on ten n=64 graphs.

    Pairs are certified positive-cone endpoint first, exactly as acceptance
    criterion 01 orients them: ``restricted_pair_check`` raises
    InternalInvariantViolation on some reversed pairs (for example 176 -> 118
    on ``build_half_theta6(gen_random(256, 7))``, where 118 lies in negative
    cone 3 of 176).
    """

    name = "measure"
    n = 768
    small_n = 64
    small_sets = 10
    #: Relative slack for "unrestricted path no longer than the restricted
    #: one": the two Dijkstra runs sum equal paths in different orders.
    path_rel_tol = 1e-12

    def setup(self, rec, seed):
        sk = self.sk
        ps = rec.call("cli_io.gen_random", sk.gen_random, self.n, seed)
        h = rec.call("build.half_theta6", sk.build_half_theta6, ps)
        g12 = rec.call("build.g12", sk.build_g12, h)
        g9 = rec.call("build.g9", sk.build_g9, h)
        _check_degrees(rec, g12, g9)
        _check_subgraphs(h, g12, g9)
        cs = sk.ConeSystem(6)
        smalls, pairs = [], []
        for i in range(self.small_sets):
            tag = f"/n{self.small_n}"
            sps = rec.call("cli_io.gen_random" + tag, sk.gen_random, self.small_n, seed + i)
            sh = rec.call("build.half_theta6" + tag, sk.build_half_theta6, sps)
            smalls.append(sh)
            ids = sorted(p.id for p in sh.points)
            for a, u in enumerate(ids):
                for w in ids[a + 1:]:
                    c = rec.call("geometry.cone_of", cs.cone_of, sh.points[u], sh.points[w])
                    pairs.append((i, u, w) if c % 2 == 0 else (i, w, u))
        big = (("half_theta6", h), ("g12", g12), ("g9", g9))
        # One round: before each small graph's pairs, the ratio of one large
        # graph in turn, so both kinds of op run all through the run.
        plan = []
        for i in range(self.small_sets):
            plan.append(("ratio", big[i % len(big)][0]))
            plan += [("certify", *p) for p in pairs if p[0] == i]
        outputs = [_edges(g) for _, g in big] + [_edges(sh) for sh in smalls] + [pairs]
        return {"big": dict(big), "smalls": smalls, "plan": plan}, outputs

    def run(self, rec, state, seed, seconds):
        sk = self.sk
        big, smalls, plan = state["big"], state["smalls"], state["plan"]
        ratios: dict[str, tuple] = {}
        order = {"half_theta6": None, "g12": "half_theta6", "g9": "g12"}
        _record_edges(rec, big)
        rec.values["ratio_n"] = self.n

        def ratio_op(kind):
            g = big[kind]
            if kind == "half_theta6":
                return rec.call("analysis.verify_bound", sk.verify_bound, g)
            return rec.call("analysis.spanning_ratio/" + kind, sk.spanning_ratio, g)

        def ratio_check(kind, rep):
            require(math.isfinite(rep.max_ratio) and rep.max_ratio >= 1.0,
                    f"{kind} ratio {rep.max_ratio!r} is not a finite ratio >= 1")
            if kind == "half_theta6":
                require(rep.passed is True, f"half-Theta-6 ratio {rep.max_ratio!r} above its bound")
            else:
                # G12 and G9 have no registered bound; as subgraphs they can
                # only stretch more than the graph they came from.
                require(rep.max_ratio >= ratios[order[kind]][0],
                        f"{kind} ratio below that of its supergraph")
            got = (rep.max_ratio, rep.witness)
            require(ratios.setdefault(kind, got) == got, f"{kind} ratio changed between rounds")

        def certify_op(gi, s, t):
            h = smalls[gi]
            res = rec.call("analysis.restricted_pair_check", sk.restricted_pair_check, h, s, t)
            path, length = rec.call("analysis.shortest_path", sk.shortest_path, h, s, t)
            return res, path, length

        def certify_check(s, t, out):
            res, path, length = out
            require(res["ok"] is True, f"pair ({s}, {t}) fails its per-pair bound")
            require(res["path"][0] == s and res["path"][-1] == t, "restricted path has wrong ends")
            require(path[0] == s and path[-1] == t, "shortest path has wrong ends")
            require(length <= res["length"] * (1.0 + self.path_rel_tol),
                    f"pair ({s}, {t}): shortest path {length!r} longer than "
                    f"restricted path {res['length']!r}")

        def step(i):
            item = plan[i % len(plan)]
            if item[0] == "ratio":
                kind = item[1]
                gc.collect()  # each long op starts with empty collector generations
                rep = rec.op("ratio." + kind, lambda: ratio_op(kind),
                             lambda r: ratio_check(kind, r), {"graph": kind, "n": self.n, "seed": seed})
                if rep is not None and i < len(plan):
                    rec.fold(kind, rep.max_ratio, rep.witness)
                return
            _, gi, s, t = item
            out = rec.op("certify", lambda: certify_op(gi, s, t),
                         lambda o: certify_check(s, t, o),
                         {"set": gi, "n": self.small_n, "seed": seed + gi, "pair": [s, t]})
            if out is not None and i < len(plan):
                res, path, length = out
                rec.fold(gi, s, t, res["path"], res["length"], res["bound"], path, length)
                rec.counts["analysis.restricted_pair_check.calls"] += 1
                rec.counts["kernels.point_in_tri.calls"] += self.small_n

        rec.loop("measure", seconds, len(plan), step)

    def _ratio_samples(self, rec):
        return [x for k in ("half_theta6", "g12", "g9") for x in rec.samples["ratio." + k]]

    def headline(self, rec):
        c = rec.samples["certify"]
        return self._ratio_samples(rec), len(c), sum(c)

    def named(self, rec):
        r = self._ratio_samples(rec)
        c = rec.samples["certify"]
        return [
            ("ratio_s_p50", _median(r), "s", len(r)),
            ("certify_pairs_per_s", len(c) / sum(c), "1/s", len(c)),
        ]


# ---------------------------------------------------------------------------


class Route(Workload):
    """Warm routes with trace JSON, cold CLI-shaped sessions, detour instances."""

    name = "route"
    n = 512
    warm_window = 200
    cold_window = 8
    #: Shares of the run's seconds given to the warm, cold and detour phases.
    split = (0.55, 0.35, 0.10)

    def __init__(self, sk):
        super().__init__(sk)
        self.engines = {"stateless": sk.route_stateless, "stateful": sk.route_stateful,
                        "g12": sk.route_g12, "g9": sk.route_g9}

    @staticmethod
    def _graph_for(algo, h, g12, g9):
        return {"stateless": h, "stateful": h, "g12": g12, "g9": g9}[algo]

    def _route(self, rec, algo, g, s, t):
        return rec.call("routing." + algo, self.engines[algo], g, s, t)

    @staticmethod
    def _check_trace(trace, s, t) -> None:
        require(trace.passed is True, f"{trace.algorithm} {s}->{t} spends more than its bound")
        path = trace.path()
        require(path[0] == s and path[-1] == t, f"{trace.algorithm} {s}->{t} ends elsewhere")

    def setup(self, rec, seed):
        sk = self.sk
        ps = rec.call("cli_io.gen_random", sk.gen_random, self.n, seed)
        h = rec.call("build.half_theta6", sk.build_half_theta6, ps)
        g12 = rec.call("build.g12", sk.build_g12, h)
        g9 = rec.call("build.g9", sk.build_g9, h)
        _check_degrees(rec, g12, g9)
        _check_subgraphs(h, g12, g9)
        texts = [rec.call("build.graph_json", g.to_json) for g in (h, g12, g9)]
        s, t = random.Random(f"warmup:{seed}").sample([p.id for p in ps], 2)
        outputs = [_edges(h), _edges(g12), _edges(g9)]
        for algo in ALGOS:
            trace = self._route(rec, algo, self._graph_for(algo, h, g12, g9), s, t)
            self._check_trace(trace, s, t)
            outputs.append(trace.to_json())
        detour = []
        for variant in ("positive", "negative_a", "negative_b"):
            vps = rec.call("analysis.gen_routing_lb", sk.gen_routing_lb, variant)
            vh = rec.call("build.half_theta6/lb", sk.build_half_theta6, vps)
            vg12 = rec.call("build.g12/lb", sk.build_g12, vh)
            vg9 = rec.call("build.g9/lb", sk.build_g9, vh)
            outputs += [_coords(vps), _edges(vh), _edges(vg12), _edges(vg9)]
            for u, w in itertools.permutations(sorted(p.id for p in vps), 2):
                for algo in ALGOS:
                    detour.append((variant, algo, self._graph_for(algo, vh, vg12, vg9), u, w))
        state = {"ids": [p.id for p in ps], "graphs": (h, g12, g9), "texts": texts,
                 "detour": detour}
        return state, outputs

    def run(self, rec, state, seed, seconds):
        sk = self.sk
        h, g12, g9 = state["graphs"]
        ids = state["ids"]
        _record_edges(rec, {"half_theta6": h, "g12": g12, "g9": g9})
        warm_s, cold_s, detour_s = (seconds * f for f in self.split)

        # Warm: every router on each seeded ordered pair, trace serialized.
        warm_rng = random.Random(f"warm:{seed}")

        def warm_check(s, t, out):
            trace, text = out
            self._check_trace(trace, s, t)
            require(rec.call("routing.trace_from_json", sk.trace_from_json, text) == trace,
                    "trace changed in a JSON round trip")

        def warm_step(i):
            s, t = warm_rng.sample(ids, 2)
            for algo in ALGOS:
                g = self._graph_for(algo, h, g12, g9)

                def op(algo=algo, g=g):
                    trace = self._route(rec, algo, g, s, t)
                    return trace, rec.call("routing.trace_json", trace.to_json)

                out = rec.op("warm." + algo, op, lambda o: warm_check(s, t, o),
                             {"algo": algo, "n": self.n, "seed": seed, "pair": [s, t]})
                if out is None:
                    continue
                trace, text = out
                rec.counts[f"routing.{algo}.steps_all"] += len(trace.steps)
                if i >= self.warm_window:
                    continue
                rec.fold(text)
                rec.counts[f"routing.{algo}.steps"] += len(trace.steps)
                for st in trace.steps:
                    rec.counts[f"routing.{algo}.case.{st.case}"] += 1
                rec.counts[f"routing.{algo}.productive"] += trace.total_path_length
                rec.counts[f"routing.{algo}.exploration"] += trace.exploration_travel

        rec.loop("warm", warm_s, self.warm_window, warm_step)

        # Cold: the shape of one CLI invocation per router, three graph loads
        # then one route each on freshly parsed graphs.
        cold_rng = random.Random(f"cold:{seed}")
        texts = state["texts"]

        def session(s, t):
            loaded = [rec.call("build.graph_from_json", sk.graph_from_json, x) for x in texts]
            for g in loaded:
                rec.call("build.adjacency", g.max_degree)
            lh, l12, l9 = loaded
            traces = [self._route(rec, algo, self._graph_for(algo, lh, l12, l9), s, t)
                      for algo in ALGOS]
            return loaded, traces

        def cold_check(s, t, out):
            loaded, traces = out
            for g, ref in zip(loaded, (h, g12, g9)):
                require(g == ref, f"{ref.kind} changed in a JSON round trip")
            for trace in traces:
                self._check_trace(trace, s, t)

        def cold_step(i):
            s, t = cold_rng.sample(ids, 2)
            gc.collect()  # as a CLI call does, a session starts with empty generations
            out = rec.op("cold", lambda: session(s, t), lambda o: cold_check(s, t, o),
                         {"n": self.n, "seed": seed, "pair": [s, t]})
            if out is not None and i < self.cold_window:
                rec.fold(*(trace.to_json() for trace in out[1]))

        rec.loop("cold", cold_s, self.cold_window, cold_step)

        # Detour: all ordered pairs of the three adversarial instances.
        detour = state["detour"]

        def detour_step(i):
            variant, algo, g, s, t = detour[i % len(detour)]
            trace = rec.op("detour." + algo, lambda: self._route(rec, algo, g, s, t),
                           lambda o: self._check_trace(o, s, t),
                           {"instance": variant, "algo": algo, "pair": [s, t]})
            if trace is None or i >= len(detour):
                return
            rec.fold(variant, trace.to_json())
            spend = (trace.total_path_length + trace.exploration_travel) / trace.bound
            key = f"routing.{algo}.spend_over_bound_max"
            rec.values[key] = max(rec.values.get(key, 0.0), spend)

        rec.loop("detour", detour_s, len(detour), detour_step)

    def _warm_samples(self, rec):
        return [x for a in ALGOS for x in rec.samples["warm." + a]]

    def headline(self, rec):
        w = self._warm_samples(rec)
        return rec.samples["cold"], len(w), sum(w)

    def named(self, rec):
        w = self._warm_samples(rec)
        c = rec.samples["cold"]
        return [
            ("routes_per_s", len(w) / sum(w), "1/s", len(w)),
            ("route_us_p50", _median(w) * 1e6, "us", len(w)),
            ("route_us_p99", _percentile(w, 99.0)[0] * 1e6, "us", len(w)),
            ("cold_route_ms_p50", _median(c) * 1e3, "ms", len(c)),
        ]


WORKLOADS = {w.name: w for w in (VerifyTrials, Construct, Measure, Route)}
