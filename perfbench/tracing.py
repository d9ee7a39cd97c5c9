"""Per-layer spans recorded from outside the program.

The tracer replaces public gcfcp names at the place where their caller looks
them up (a module global, or a class attribute) with a wrapper that records a
span: name, operation id, parent span, start and end. Spans are kept in memory
and written out when the run ends. Nothing is installed for untraced runs.

A layer is the module prefix of a span name. A span's self time is its
duration minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

from gcfcp import cli, conformal, datagen, federation, harness, pinball, tdigest

NAME, OP, PARENT, START, END, LABEL = range(6)
OP_SPAN = "bench.op"
# ops-weighted units for the per-layer metrics; see METRICS.md
PER_OP_MS = "ms/op"
PER_OP = "count/op"

_KIND_OF_CALIBRATOR = {
    "gcfcp_centralized": "central",
    "gcfcp_coreset": "coreset",
    "fcp_marginal": "marginal",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.max_mass_ratio = 0.0
        self._patches: list[tuple[object, str, object]] = []
        self._data_kind: dict[int, tuple[object, str]] = {}
        self._fresh_solvers: set[int] = set()

    # -- recording -------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self.stack = [len(self.spans)]
        self.spans.append([OP_SPAN, op, -1, perf_counter(), 0.0, None])

    def end_op(self) -> None:
        self.spans[self.stack[0]][END] = perf_counter()
        self.stack = []
        self.op = None
        self._data_kind.clear()
        self._fresh_solvers.clear()

    def _wrap(self, fn, name, label=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            rec = [name, tracer.op, tracer.stack[-1], 0.0, 0.0, None]
            if label is not None:
                rec[LABEL] = label(args, kwargs)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, label=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            new = classmethod(self._wrap(original.__func__, name, label, after))
        else:
            new = self._wrap(original, name, label, after)
        setattr(owner, attr, new)
        self._patches.append((owner, attr, original))

    # -- hooks -----------------------------------------------------------

    def _ancestor_label(self, name):
        for idx in reversed(self.stack):
            if self.spans[idx][NAME] == name:
                return self.spans[idx][LABEL]
        return None

    def _tag_data(self, default):
        def after(rec, args, kwargs, result):
            kind = _KIND_OF_CALIBRATOR.get(self._ancestor_label("conformal.calibrate_baseline"), default)
            self._data_kind[id(result)] = (result, kind)

        return after

    def _search_kind(self, args, kwargs):
        entry = self._data_kind.get(id(args[0]))
        return entry[1] if entry is not None else "other"

    def _search_done(self, rec, args, kwargs, result):
        hi = kwargs.get("search_hi", args[4] if len(args) > 4 else None)
        if hi is None:
            hi = args[0].default_bracket()[1]
        if result == hi:
            self.counts["bracket_hits"] += 1

    def _solver_created(self, rec, args, kwargs, result):
        self._fresh_solvers.add(id(args[0]))

    def _solve_kind(self, args, kwargs):
        if id(args[0]) in self._fresh_solvers:
            self._fresh_solvers.discard(id(args[0]))
            return "cold"
        return "warm"

    def _rows(self, rec, args, kwargs, result):
        self.counts["groups.rows"] += len(args[0])

    def _one_row(self, rec, args, kwargs, result):
        self.counts["groups.rows"] += 1

    def _built(self, rec, args, kwargs, result):
        self.counts["tdigest.build_samples"] += len(args[0])

    def _merged(self, rec, args, kwargs, result):
        self.counts["tdigest.merge_clusters_in"] += sum(len(d) for d in args[0])
        self.counts["tdigest.clusters_out"] += len(result)
        w = result.weights()
        ratio = float(w.max() / w.sum()) / math.sin(math.pi / result.compression)
        self.max_mass_ratio = max(self.max_mass_ratio, ratio)

    def _round_done(self, rec, args, kwargs, result):
        self.counts["federation.messages"] += len(result.messages)
        self.counts["federation.wire_bytes"] += result.wire_bytes
        self.counts["federation.coreset_rows"] += len(result.coreset)

    # -- install ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced public name where its caller looks it up."""
        for fn in (
            "make_training_set",
            "fit_linear",
            "sample_covariates",
            "generate_response",
            "score_absolute",
            "sample_mixture_clients",
            "substream",
        ):
            self._patch(datagen, fn, f"datagen.{fn}")
        self._patch(harness, "substream", "datagen.substream")

        self._patch(federation, "enumerate_atoms", "groups.enumerate_atoms", after=self._rows)
        self._patch(harness, "membership_matrix", "groups.membership_matrix", after=self._rows)
        self._patch(conformal, "membership_matrix", "groups.membership_matrix", after=self._rows)
        self._patch(cli, "membership_vector", "groups.membership_vector", after=self._one_row)

        self._patch(tdigest, "build_digest_arrays", "tdigest.build_digest_arrays", after=self._built)
        self._patch(tdigest, "merge", "tdigest.merge", after=self._merged)

        for owner in (federation, conformal, harness, cli):
            self._patch(owner, "run_round", "federation.run_round", after=self._round_done)
        for fn in ("client_build_messages", "message_to_json", "message_from_json", "server_assemble"):
            self._patch(federation, fn, f"federation.{fn}")

        self._patch(
            harness,
            "calibrate_baseline",
            "conformal.calibrate_baseline",
            label=lambda args, kwargs: args[0],
        )
        self._patch(conformal.CalibrationData, "from_coreset", "conformal.from_coreset", after=self._tag_data("coreset"))
        self._patch(conformal.CalibrationData, "from_datasets", "conformal.from_datasets", after=self._tag_data("central"))
        self._patch(conformal.ConditionalCalibrator, "threshold", "conformal.threshold")
        self._patch(
            conformal,
            "threshold_search",
            "conformal.threshold_search",
            label=self._search_kind,
            after=self._search_done,
        )

        self._patch(pinball.AugmentedQrSolver, "__init__", "pinball.init", after=self._solver_created)
        self._patch(pinball.AugmentedQrSolver, "solve_at", "pinball.solve_at", label=self._solve_kind)

        self._patch(harness, "run_experiment", "harness.run_experiment")
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def table(self, scale: float = 1.0) -> list[dict]:
        """Calls, total and self time per span name, per operation; times multiplied by ``scale``."""
        ops = max(1, sum(1 for s in self.spans if s[NAME] == OP_SPAN))
        own = self.self_times()
        rows: dict[str, dict] = {}
        for s, t_self in zip(self.spans, own):
            r = rows.setdefault(s[NAME], {"span": s[NAME], "calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            r["calls"] += 1
            # nested calls of the same name are counted once in the total
            if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != s[NAME]:
                r["total_ms"] += 1e3 * scale * (s[END] - s[START])
            r["self_ms"] += 1e3 * scale * t_self
        for r in rows.values():
            for key in ("calls", "total_ms", "self_ms"):
                r[key] /= ops
        return sorted(rows.values(), key=lambda r: -r["self_ms"])

    def metrics(self, scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit), times multiplied by ``scale``; METRICS.md defines each."""
        spans = self.spans
        ops = max(1, sum(1 for s in spans if s[NAME] == OP_SPAN))
        own = self.self_times()
        dur = [s[END] - s[START] for s in spans]

        def layer(s):
            return s[NAME].split(".", 1)[0]

        def outer(prefix):
            # spans of the layer not nested directly in another span of it
            return [d for s, d in zip(spans, dur) if layer(s) == prefix and layer(spans[s[PARENT]]) != prefix]

        def named(name, label=None):
            return [d for s, d in zip(spans, dur) if s[NAME] == name and label in (None, s[LABEL])]

        def self_of(pred):
            return sum(t for s, t in zip(spans, own) if pred(s))

        def ms(seconds):
            return 1e3 * scale * seconds / ops, PER_OP_MS

        def count(n):
            return n / ops, PER_OP

        def p50(values):
            return (1e3 * scale * statistics.median(values) if values else 0.0), "ms"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        searches = named("conformal.threshold_search")
        lookups = named("conformal.threshold")
        fresh = sum(
            1 for s in spans
            if s[NAME] == "conformal.threshold_search" and spans[s[PARENT]][NAME] == "conformal.threshold"
        )
        central = named("conformal.threshold_search", "central")
        coreset = named("conformal.threshold_search", "coreset")
        cold = named("pinball.solve_at", "cold")
        warm = named("pinball.solve_at", "warm")
        c = self.counts
        return {
            "datagen.ms": ms(sum(outer("datagen"))),
            "datagen.calls": count(len(outer("datagen"))),
            "groups.stratify_ms": ms(sum(named("groups.enumerate_atoms"))),
            "groups.membership_ms": ms(sum(named("groups.membership_matrix") + named("groups.membership_vector"))),
            "groups.rows": count(c["groups.rows"]),
            "tdigest.build_ms": ms(sum(named("tdigest.build_digest_arrays"))),
            "tdigest.build_samples": count(c["tdigest.build_samples"]),
            "tdigest.merge_ms": ms(sum(named("tdigest.merge"))),
            "tdigest.merge_clusters_in": count(c["tdigest.merge_clusters_in"]),
            "tdigest.clusters_out": count(c["tdigest.clusters_out"]),
            "tdigest.max_mass_ratio": (self.max_mass_ratio, "ratio"),
            "federation.round_ms": ms(sum(named("federation.run_round"))),
            "federation.encode_ms": ms(sum(named("federation.message_to_json"))),
            "federation.decode_ms": ms(sum(named("federation.message_from_json"))),
            "federation.assemble_self_ms": ms(self_of(lambda s: s[NAME] == "federation.server_assemble")),
            "federation.messages": count(c["federation.messages"]),
            "federation.wire_bytes": (c["federation.wire_bytes"] / ops, "B/op"),
            "federation.coreset_rows": count(c["federation.coreset_rows"]),
            "conformal.searches": count(len(searches)),
            "conformal.central_search_ms_p50": p50(central),
            "conformal.coreset_search_ms_p50": p50(coreset),
            "conformal.marginal_search_ms_p50": p50(named("conformal.threshold_search", "marginal")),
            "conformal.coreset_speedup": (
                ratio(statistics.median(central), statistics.median(coreset))
                if central and coreset else ratio(0.0, 0.0)
            ),
            "conformal.cache_hit_ratio": ratio(len(lookups) - fresh, len(lookups)),
            "conformal.bracket_hits": count(c["bracket_hits"]),
            "conformal.self_ms": ms(self_of(lambda s: layer(s) == "conformal")),
            "conformal.coreset_to_arrays_ms": ms(sum(named("conformal.from_coreset"))),
            "pinball.solves": count(len(cold) + len(warm)),
            "pinball.solves_per_search": ratio(len(cold) + len(warm), len(searches)),
            "pinball.init_ms": ms(sum(named("pinball.init"))),
            "pinball.cold_solve_ms_p50": p50(cold),
            "pinball.warm_solve_ms_p50": p50(warm),
            "pinball.cold_share": ratio(sum(cold), sum(searches)),
            "pinball.op_share": ratio(sum(outer("pinball")), sum(named(OP_SPAN))),
            "harness.self_ms": ms(self_of(lambda s: layer(s) == "harness")),
            "cli.self_ms": ms(self_of(lambda s: layer(s) == "cli")),
        }

    def write_spans(self, path) -> None:
        """One JSON span per line; times in seconds from the start of the first operation."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "parent": s[PARENT] if s[PARENT] >= 0 else None,
                    "name": s[NAME],
                    "op": s[OP],
                    "start_s": s[START] - t0,
                    "end_s": s[END] - t0,
                }
                if s[LABEL] is not None:
                    rec["label"] = s[LABEL]
                fh.write(json.dumps(rec) + "\n")
