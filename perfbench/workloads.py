"""The benchmark's workloads: generated inputs, timed rounds, output checks.

Every workload simulates a Movielens-like table from the benchmark seed, writes
it as a `u.data` file and ranks with the linear kernel. The seed also drives
the per-user split and the trainer initialisation, so one seed fixes every
input; the program sees only the generated file.

A run repeats rounds. A round is a fixed list of timed units, each one call
into the program or one CLI command, and every round repeats the same units
on the same inputs, so a run times each unit several times. Each unit's time
is a sample of one stage: setup, train, eval or decode.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from selfrank import cli, data_io, decoding, evaluation, ranking
from selfrank.kernels import KernelSpec
from selfrank.learners import TrainConfig

KERNEL = KernelSpec("linear")
CLI_ARTIFACTS = ("checkpoint.json", "objective_trace.json", "eval_report.json", "orderings.json")


@dataclass(frozen=True)
class Workload:
    name: str
    n_users: int  # users of the simulated table
    n_items: int  # items of the simulated table
    top: int  # the ranked items: the most-rated ones
    iters: int  # the fixed iteration count of the fit
    rank: int = 10
    lam: float = 1e-3
    chunk: int = 16  # test queries per evaluate_ranking call (full60-eval)
    chunks: int = 16  # evaluate_ranking calls per round (full60-eval)
    min_rounds: int = 3  # a warm-up round and two sampled ones


WORKLOADS = {
    "full": {
        "full60-eval": Workload("full60-eval", 943, 1682, 60, 20, chunks=8),
        "cli30": Workload("cli30", 943, 1682, 30, 50),
    },
    # The 40-user, 25-item, top-6 table of acceptance criteria 4 and 10.
    "smoke": {
        "full60-eval": Workload("full60-eval", 40, 25, 6, 20, rank=2, chunk=8, chunks=2),
        "cli30": Workload("cli30", 40, 25, 6, 20, rank=2),
    },
}


class RoundAborted(Exception):
    """An operation of a round raised or exited non-zero; the round cannot go on."""


@dataclass
class Problem:
    split: object
    items: list
    tasks: object
    features: dict
    data: ranking.PairTaskData


@dataclass
class RoundResult:
    samples: dict  # stage -> the seconds of each of its units in this round
    seconds: float  # the whole round
    test_loss: float  # over the queries this round evaluated
    counts: dict  # exact workload counts; every round must repeat them


def ordering_defect(t: decoding.Tournament, docs: np.ndarray) -> str | None:
    """Why `docs` (top to bottom) is not a decode of `t`, or None when it is.

    A decode is a permutation that no adjacent swap improves: every weight
    between neighbours points down the order.
    """
    if not np.array_equal(np.sort(docs), np.arange(t.size)):
        return f"not a permutation of {t.size} documents: {docs.tolist()}"
    if not np.all(t.weights[docs[:-1], docs[1:]] >= 0):
        return "an adjacent swap lowers the contradicted weight"
    return None


def trace_defect(trace) -> str | None:
    values = np.asarray(trace, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        return f"objective trace of {values.size} values is empty or not finite"
    return None


def digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()[:16]


def split_test_chunks(p: Problem, size: int, count: int) -> list:
    """The first `count` splits of `size` test queries each, in user order.

    A query is a test user with features and at least two rated items among
    the ranked ones, the users evaluate_ranking scores.
    """
    test = p.split.test
    items = set(p.items)
    rated: dict = {}
    for (user, item), value in test.ratings.items():
        if item in items:
            rated.setdefault(user, {})[(user, item)] = value
    queries = [u for u in test.users if len(rated.get(u, ())) >= 2 and u in p.features]
    chunks = []
    for start in range(0, min(len(queries) - size + 1, count * size), size):
        users = queries[start:start + size]
        ratings = {k: v for u in users for k, v in rated[u].items()}
        chunks.append(replace(p.split, test=data_io.RatingsTable(users, test.items, ratings)))
    return chunks


class Run:
    """One benchmark run: operation counts, failures, output checks, the tracer."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None
        self.problem: Problem | None = None
        self.chunks: list | None = None
        self.first: RoundResult | None = None
        self.units: dict = {}  # the current round's samples

    def check(self, name: str, defect: str | None) -> bool:
        """Count one checked operation; `defect` explains a failure."""
        self.attempted += 1
        if defect is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {defect}")
        return defect is None

    def unit(self, stage: str, name: str, fn, *args, **kwargs):
        """One call as a timed operation; its seconds are one sample of `stage`.

        A raise fails the operation and aborts the round.
        """
        t = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # any raise of the program under test is a failed operation
            traceback.print_exc(file=sys.stderr)
            self.check(name, f"raised {exc!r}")
            raise RoundAborted(name) from exc
        self.units.setdefault(stage, []).append(time.perf_counter() - t)
        self.check(name, None)
        return result

    def decode(self, t: decoding.Tournament) -> decoding.Ordering:
        """fas_greedy through its module name, with the ordering checked."""
        ordering = decoding.fas_greedy(t)
        docs = ordering.docs_by_rank()
        self.check("decode", ordering_defect(t, docs))
        if self.tracer is not None:
            self.tracer.decode_backward += decoding.backward_weight(t, ordering)
            self.tracer.decode_total += float(np.abs(np.triu(t.weights, k=1)).sum())
        return ordering

    # -- inputs and set-up -------------------------------------------------

    def write_inputs(self) -> Path:
        w = self.workload
        table = data_io.simulate_movielens_table(n_users=w.n_users, n_items=w.n_items, seed=self.seed)
        path = self.workdir / "u.data"
        data_io.write_movielens(table, path)
        return path

    def setup(self, path: Path) -> Problem:
        """Ratings file to a ready PairTaskData, in the CLI's order of calls; each step a setup_s unit."""
        w = self.workload
        table = self.unit("setup", "parse_movielens", data_io.parse_movielens, path)
        items = self.unit("setup", "top_items", data_io.top_items, table, w.top)
        split = self.unit("setup", "split_per_user", data_io.split_per_user, table, seed=self.seed)
        tasks = self.unit("setup", "build_pair_tasks", data_io.build_pair_tasks, split.train, items)
        features = self.unit("setup", "user_feature_map", data_io.user_feature_map, split.train, items)
        data = self.unit("setup", "build_pair_task_data", ranking.build_pair_task_data, tasks, features, KERNEL)
        self.problem = Problem(split, items, tasks, features, data)
        return self.problem

    def base_counts(self, p: Problem) -> dict:
        return {"users": len(p.data.users), "tasks": p.data.n_tasks, "rows": p.data.n_rows}

    # -- rounds ----------------------------------------------------------------

    def run_round(self, path: Path) -> RoundResult:
        """One round; every round must repeat the first one's counts."""
        self.units = {}
        t = time.perf_counter()
        test_loss, counts = {
            "full60-eval": self.full60_eval_round,
            "cli30": self.cli30_round,
        }[self.workload.name](path)
        result = RoundResult(self.units, time.perf_counter() - t, test_loss, counts)
        if self.first is None:
            self.first = result
        same = result.counts == self.first.counts
        self.check("repeated round", None if same else f"{result.counts} != {self.first.counts}")
        return result

    def full60_eval_round(self, path: Path) -> tuple:
        """Set-up, one auto-step low-rank fit, then test evals of the first chunks.

        Each chunk is one evaluate_ranking call on a split whose test table
        holds `chunk` queries; its loss must repeat in every round.
        """
        w = self.workload
        p = self.setup(path)
        base = TrainConfig(lam=w.lam, rank=w.rank, step=1.0, max_iters=w.iters, seed=self.seed)
        step = self.unit("train", "halving_step_search_rank", ranking.halving_step_search_rank, p.data, base)
        model = self.unit("train", "fit_rank_lowrank", ranking.fit_rank_lowrank, p.data, replace(base, step=step))
        self.check("objective trace", trace_defect(model.objective_trace))
        if self.chunks is None:
            self.chunks = split_test_chunks(p, w.chunk, w.chunks)
            self.check("test chunks", None if len(self.chunks) == w.chunks else f"{len(self.chunks)} chunks")
        losses = []
        for chunk in self.chunks:
            report = self.unit(
                "eval", "evaluate_ranking", evaluation.evaluate_ranking,
                model, chunk, p.tasks, p.features, decode=self.decode, on="test",
            )
            losses.append(report.mean)
            self.check("queries per chunk", None if report.n_queries == w.chunk else f"{report.n_queries}")
        counts = {
            **self.base_counts(p), "queries": len(self.chunks) * w.chunk, "iters": model.iters_run,
            "step": step, "trace_digest": digest(model.objective_trace), "chunk_losses": losses,
        }
        return float(np.mean(losses)), counts

    def command(self, name: str, overrides: list, out: Path) -> None:
        """One CLI command as a timed operation, a unit of the stage of its name.

        It fails on a raise or a non-zero exit.
        """
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.run(name, overrides=overrides, out=str(out), seed=self.seed)
        except Exception as exc:  # any raise of the program under test is a failed operation
            traceback.print_exc(file=sys.stderr)
            status = repr(exc)
        self.units.setdefault(name, []).append(time.perf_counter() - t)
        if not self.check(f"selfrank {name}", None if status == 0 else f"exit {status}"):
            raise RoundAborted(name)

    @contextlib.contextmanager
    def cli_decode_hooks(self):
        """Route the CLI's decodes through the checked decode; collect `decode`'s orderings.

        cmd_eval relies on evaluate_ranking's default decode, so the hook passes
        the checked one explicitly; cmd_decode calls fas_greedy by its cli name.
        """
        decoded: list[np.ndarray] = []

        def fas_greedy(t):
            ordering = self.decode(t)
            decoded.append(ordering.docs_by_rank())
            return ordering

        def evaluate_ranking(*args, **kwargs):
            return evaluation.evaluate_ranking(*args, decode=self.decode, **kwargs)

        saved = cli.fas_greedy, cli.evaluate_ranking
        cli.fas_greedy, cli.evaluate_ranking = fas_greedy, evaluate_ranking
        try:
            yield decoded
        finally:
            cli.fas_greedy, cli.evaluate_ranking = saved

    def cli30_round(self, path: Path) -> tuple:
        """In-process set-up, then `selfrank train`, `eval` and `decode`, each parsing anew."""
        w = self.workload
        out = self.workdir / "cli"
        overrides = [
            f"data.ratings={path}", f"items.top={w.top}", f"train.rank={w.rank}",
            f"train.lambda={w.lam}", f"train.iters={w.iters}",
        ]
        with_checkpoint = overrides + [f"checkpoint={out / 'checkpoint.json'}"]
        p = self.setup(path)
        with self.cli_decode_hooks() as decoded:
            self.command("train", overrides, out)
            self.command("eval", with_checkpoint, out)
            self.command("decode", with_checkpoint, out)
        blobs = {name: (out / name).read_bytes() for name in CLI_ARTIFACTS}
        checkpoint = json.loads(blobs["checkpoint.json"])
        report = json.loads(blobs["eval_report.json"])
        self.check("objective trace", trace_defect(json.loads(blobs["objective_trace.json"])["objective_trace"]))
        self.check("orderings", self.orderings_defect(json.loads(blobs["orderings.json"]), decoded))
        counts = {
            **self.base_counts(p), "queries": report["n_queries"],
            "decoded": len(decoded), "iters": checkpoint["iters_run"],
            "checkpoint_bytes": len(blobs["checkpoint.json"]),
            "hashes": {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()},
        }
        return report["mean"], counts

    def orderings_defect(self, written: dict, decoded: list) -> str | None:
        """orderings.json holds, per test user, the checked decode of that user, in items."""
        p = self.problem
        users = [u for u in p.split.test.users if u in p.features]
        if len(users) != len(decoded) or sorted(written["orderings"]) != sorted(map(str, users)):
            return f"{len(written['orderings'])} orderings written, {len(decoded)} decoded, {len(users)} users"
        for user, docs in zip(users, decoded):
            if written["orderings"][str(user)] != [p.items[j] for j in docs.tolist()]:
                return f"user {user}: written ordering differs from the decoded one"
        return None
