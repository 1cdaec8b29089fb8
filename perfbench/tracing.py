"""In-memory spans around the pipeline's calls into each selfrank layer.

A traced round replaces the public functions of data_io, kernels, ranking,
decoding, losses, evaluation and cli at the module names the pipeline calls
them through, records one span per call (name, start, end, parent) and
restores every original afterwards. The per-layer metrics are derived from
the spans of that round alone.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np

from selfrank import cli, data_io, decoding, evaluation, losses, ranking

# (span name, objects whose attribute is replaced, attribute). Each object is
# a module or class through which the pipeline looks the callee up at call
# time: the cli module imports its callees by name, and the step search
# reaches fit_rank_lowrank through ranking. decoding.Tournament itself stays, because decoding builds
# tournaments through it; the pipeline's constructions go through evaluation
# and cli. decoding.fas_greedy is reached through the benchmark's own decode.
TARGETS = (
    ("data_io.parse", (data_io, cli), "parse_movielens"),
    ("data_io.split", (data_io, cli), "top_items"),
    ("data_io.split", (data_io, cli), "split_per_user"),
    ("data_io.features", (data_io, cli), "user_feature_map"),
    ("data_io.pair_tasks", (data_io, cli), "build_pair_tasks"),
    ("kernels.gram", (ranking,), "gram"),
    ("kernels.cross_vector", (ranking,), "cross_vector"),
    ("ranking.pair_data", (ranking, cli), "build_pair_task_data"),
    ("ranking.step_search", (ranking, cli), "halving_step_search_rank"),
    ("ranking.fit", (ranking, cli), "fit_rank_lowrank"),
    ("ranking.weights", (ranking.LowRankRankModel,), "tournament_weights"),
    ("decoding.tournament", (evaluation, cli), "Tournament"),
    ("decoding.fas", (decoding,), "fas_greedy"),
    ("losses.rank_loss", (losses, evaluation), "pairwise_rank_loss"),
    ("evaluation.eval", (evaluation,), "evaluate_ranking"),
    ("cli", (cli,), "run"),
)

# name, unit, better, the end-to-end metric it should move, through which
# stage of the record (stages: setup, train, eval, and decode on cli30)
LAYER_METRICS = (
    ("data_io.parse_s", "s", "lower", "setup_s; pipeline_s via every cli30 command (each parses)"),
    ("data_io.split_s", "s", "lower", "setup_s (top items and split)"),
    ("data_io.features_s", "s", "lower", "setup_s"),
    ("data_io.pair_tasks_s", "s", "lower", "setup_s, mostly on full60-eval"),
    ("kernels.gram_s", "s", "lower", "setup_s"),
    ("kernels.cross_vector_calls", "count", "lower", "pipeline_s via eval (one call per query)"),
    ("ranking.pair_data_s", "s", "lower", "setup_s"),
    ("ranking.step_search_s", "s", "lower", "pipeline_s via train"),
    ("ranking.step_probes", "count", "lower", "pipeline_s via train"),
    ("ranking.step_accept_ratio", "ratio", "higher", "pipeline_s via train"),
    ("ranking.fits", "count", "lower", "pipeline_s via train"),
    ("ranking.train_iters", "count", "lower", "pipeline_s via train"),
    ("ranking.train_ms_per_iter", "ms", "lower", "pipeline_s via train"),
    ("ranking.weights_s", "s", "lower", "pipeline_s via eval, and decode on cli30"),
    ("decoding.tournament_s", "s", "lower", "pipeline_s via eval"),
    ("decoding.fas_calls", "count", "lower", "pipeline_s via eval"),
    ("decoding.fas_ms_p50", "ms", "lower", "pipeline_s via eval on full60-eval; eval and decode on cli30"),
    ("decoding.fas_ms_tail", "ms", "lower", "pipeline_s via eval on full60-eval; eval and decode on cli30"),
    ("decoding.contradicted_share", "ratio", "lower", "losses.test_loss (ranking quality)"),
    ("losses.rank_loss_s", "s", "lower", "pipeline_s via eval"),
    ("losses.test_loss", "ratio", "lower", "none: output quality, the same on every run of a seed"),
    ("cli.checkpoint_bytes", "bytes", "lower", "pipeline_s via train, eval and decode on cli30"),
    ("cli.train_self_s", "s", "lower", "pipeline_s via train on cli30"),
    ("cli.eval_self_s", "s", "lower", "pipeline_s via eval on cli30"),
    ("cli.decode_self_s", "s", "lower", "pipeline_s via decode on cli30"),
    ("trace.overhead_s", "s", "lower", "none: the traced round minus the fastest untraced round"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    notes: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `open_spans` is the current call stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self.open_spans: list[int] = []
        self.decode_backward = 0.0
        self.decode_total = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self.open_spans[-1] if self.open_spans else None
        record = Span(name, parent, time.perf_counter())
        self.spans.append(record)
        self.open_spans.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.open_spans.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.open_spans)

    def wrap(self, name: str, fn):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span_name = name
            if name == "cli":
                span_name = f"cli.{args[0] if args else kwargs['command']}"
            elif name == "ranking.fit" and self.inside("ranking.step_search"):
                span_name = "ranking.probe_fit"
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
                if span_name == "ranking.fit":
                    record.notes["iters"] = result.iters_run
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Replace every target with its traced wrapper; always restore."""
        saved = []
        try:
            for name, owners, attr in TARGETS:
                for owner in owners:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def to_json(self) -> list:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, **s.notes}
            for s in self.spans
        ]

    def layer_metrics(self, measured: dict) -> dict:
        """Every per-layer metric of LAYER_METRICS: from the spans, or `measured` by the pass."""
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)

        def total(*names):
            return float(sum(s.seconds for n in names for s in by_name.get(n, [])))

        in_children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                in_children[s.parent] += s.seconds

        def self_time(name):
            return float(
                sum(s.seconds - in_children[i] for i, s in enumerate(self.spans) if s.name == name)
            )

        fits = by_name.get("ranking.fit", [])
        iters = sum(s.notes.get("iters", 0) for s in fits)
        searches = by_name.get("ranking.step_search", [])
        probes = len(by_name.get("ranking.probe_fit", []))
        fas_ms = np.sort([s.seconds * 1e3 for s in by_name.get("decoding.fas", [])])
        values = {
            "data_io.parse_s": total("data_io.parse"),
            "data_io.split_s": total("data_io.split"),
            "data_io.features_s": total("data_io.features"),
            "data_io.pair_tasks_s": total("data_io.pair_tasks"),
            "kernels.gram_s": total("kernels.gram"),
            "kernels.cross_vector_calls": len(by_name.get("kernels.cross_vector", [])),
            "ranking.pair_data_s": total("ranking.pair_data"),
            "ranking.step_search_s": total("ranking.step_search"),
            "ranking.step_probes": probes,
            "ranking.step_accept_ratio": len(searches) / probes if probes else 0.0,
            "ranking.fits": len(fits),
            "ranking.train_iters": iters,
            "ranking.train_ms_per_iter": total("ranking.fit") * 1e3 / iters if iters else 0.0,
            "ranking.weights_s": total("ranking.weights"),
            "decoding.tournament_s": total("decoding.tournament"),
            "decoding.fas_calls": len(fas_ms),
            "decoding.fas_ms_p50": float(np.median(fas_ms)) if len(fas_ms) else 0.0,
            "decoding.fas_ms_tail": tail(fas_ms),
            "decoding.contradicted_share": (
                self.decode_backward / self.decode_total if self.decode_total else 0.0
            ),
            "losses.rank_loss_s": total("losses.rank_loss"),
            "cli.train_self_s": self_time("cli.train"),
            "cli.eval_self_s": self_time("cli.eval"),
            "cli.decode_self_s": self_time("cli.decode"),
            **measured,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in LAYER_METRICS}


def tail(sorted_values) -> float:
    """The highest order statistic with at least ten samples beyond it; the max below 11."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    return float(sorted_values[n - 11] if n > 10 else sorted_values[-1])
