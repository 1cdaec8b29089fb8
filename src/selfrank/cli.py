"""Command-line entry point: train, eval, grid, decode, synth, verify.

Every artifact is a JSON document embedding the resolved configuration that
produced it, written with sorted keys so identical (command, config, seed)
runs are byte-identical. It is one compact line (no indent, so CPython's C
encoder writes it) and replaces an earlier artifact of its name only once
written whole. Readers ignore whitespace, so indented schema-2 checkpoints
of earlier versions still load. Exit codes: 0 success, 2 bad configuration or
input data (among them a path key that names no file or a directory, a
config or checkpoint file that is not a UTF-8 JSON object, and a ratings or
features file that is not UTF-8 text), 3 divergence or another numerical
failure (every grid cell failed, no descending step found), 4 verification
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .data_io import (
    build_pair_tasks,
    parse_movielens,
    parse_ratings_csv,
    parse_user_features_csv,
    split_per_user,
    subsample_users,
    top_items,
    user_feature_map,
)
# Tournament stays a cli attribute: perfbench's tracer patches cli.Tournament.
from .decoding import Tournament, fas_greedy  # noqa: F401
from .errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    NumericalError,
    RatingsParseError,
)
from .evaluation import (
    DEFAULT_ITERS,
    DEFAULT_LAMBDAS,
    DEFAULT_RANKS,
    decode_queries,
    evaluate_ranking,
    grid_cells,
    grid_search,
    synthetic_comparison,
)
from .kernels import KERNEL_KINDS, KernelSpec
from .learners import TrainConfig
from .ranking import (
    HsRankModel,
    LowRankRankModel,
    build_pair_task_data,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)
from .verify import run_verification

COMMANDS = ("train", "eval", "grid", "decode", "synth", "verify")
CHECKPOINT_SCHEMA = 2


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite float, or an integer within the float range."""
    return isinstance(v, float) and math.isfinite(v) or _is_int(v) and abs(v) <= sys.float_info.max


def _list_of(check):
    return lambda v: isinstance(v, list) and len(v) > 0 and all(check(x) for x in v)


def _one_of(*values):
    return (lambda v: v in values), " or ".join(f'"{v}"' for v in values)


def _is_out_dir(v) -> bool:
    """A path artifacts can be written under: an existing directory, or a path
    not made yet whose nearest existing ancestor is a directory."""
    if not isinstance(v, str) or v == "":
        return False
    path = os.path.abspath(v)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    return os.path.isdir(path)


_is_positive_list = _list_of(lambda x: _is_number(x) and x > 0)

_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_COUNTS = (_list_of(lambda x: _is_int(x) and x >= 1), "a non-empty list of integers >= 1")
_NON_NEGATIVE = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")
_POSITIVE_NUMBERS = (_is_positive_list, "a non-empty list of positive numbers")
_OPTIONAL_NUMBER = (lambda v: v is None or _is_number(v), "null or a finite number")
_OPTIONAL_PATH = (lambda v: v is None or isinstance(v, str), "null or a path")

# key -> (default, check, what the value must be, is_path). Unknown keys are
# rejected outright, and every value is checked before a command runs, so a
# malformed one exits 2 naming its key; a path must also name a file.
CONFIG_KEYS = {
    "data.ratings": (None, *_OPTIONAL_PATH, True),
    "data.format": ("movielens", *_one_of("movielens", "csv"), False),
    "data.features": (None, *_OPTIONAL_PATH, True),
    "kernel.kind": ("linear", *_one_of(*KERNEL_KINDS), False),
    "kernel.bandwidth": (None, *_OPTIONAL_NUMBER, False),
    "learner": ("lowrank", *_one_of("lowrank", "hs"), False),
    "train.lambda": (0.01, *_NON_NEGATIVE, False),
    "train.rank": (5, *_COUNT, False),
    "train.step": ("auto", lambda v: v == "auto" or (_is_number(v) and v > 0), '"auto" or a positive number', False),
    "train.iters": (1000, *_COUNT, False),
    "grid.lambdas": (list(DEFAULT_LAMBDAS), *_POSITIVE_NUMBERS, False),
    "grid.ranks": (list(DEFAULT_RANKS), *_COUNTS, False),
    "grid.steps": (
        "auto", lambda v: v == "auto" or _is_positive_list(v), '"auto" or a non-empty list of positive numbers', False,
    ),
    "grid.iters": (list(DEFAULT_ITERS), *_COUNTS, False),
    "items.top": (30, lambda v: _is_int(v) and v >= 2, "an integer >= 2", False),
    "users.max": (None, lambda v: v is None or (_is_int(v) and v >= 1), "null or an integer >= 1", False),
    "seed": (0, lambda v: _is_int(v) and v >= 0, "an integer >= 0", False),
    "out": ("out", _is_out_dir, "a path that is or can become a directory", False),
    "checkpoint": (None, *_OPTIONAL_PATH, True),
    "synth.n": (100, *_COUNT, False),
    "synth.d": (20, *_COUNT, False),
    "synth.tasks": (20, *_COUNT, False),
    "synth.rank": (2, *_COUNT, False),
    "synth.noise": (0.1, *_NON_NEGATIVE, False),
    "synth.seeds": (10, *_COUNT, False),
    "synth.lambdas": ([1e-3, 1e-2, 1e-1], *_POSITIVE_NUMBERS, False),
    "synth.ranks": ([2, 5], *_COUNTS, False),
    "synth.iters": (1500, *_COUNT, False),
}


def load_config(config_path: str | None, overrides: list[str], out: str | None, seed: int | None) -> dict:
    """Merge file config, --set overrides, and flag shortcuts; validate keys, values and paths."""
    cfg = {key: default for key, (default, *_) in CONFIG_KEYS.items()}
    if config_path is not None:
        _check_file(config_path, "config file")
        for key, value in _json_object(config_path, "config").items():
            if key not in CONFIG_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except ValueError:  # not JSON, or an integer over CPython's digit limit: kept as text
            cfg[key] = raw
    if out is not None:
        cfg["out"] = out
    if seed is not None:
        cfg["seed"] = int(seed)
    for key, (_, check, what, is_path) in CONFIG_KEYS.items():
        if not check(cfg[key]):
            raise ConfigError(f"{key} must be {what}, got {cfg[key]!r}")
        if is_path and cfg[key] is not None:
            _check_file(cfg[key], f"path for {key!r}")
    try:
        KernelSpec.from_config(cfg)
    except InvalidInputError as exc:  # kernel.kind passed, so KernelSpec rejected its "bandwidth"
        raise ConfigError(f"kernel.{exc}") from None
    most = min(cfg["synth.d"], cfg["synth.tasks"])
    if cfg["synth.rank"] > most:
        raise ConfigError(f"synth.rank must be at most min(synth.d, synth.tasks) = {most}, got {cfg['synth.rank']!r}")
    return cfg


def _check_file(path: str, what: str) -> None:
    if not os.path.exists(path):
        raise ConfigError(f"{what} does not exist: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"{what} is not a file: {path}")


def _json_object(path: str, what: str) -> dict:
    """The JSON object a UTF-8 file holds; a ConfigError naming `what` and the cause otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for bytes that are not UTF-8
        raise ConfigError(f"{what} {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _write_json(cfg: dict, name: str, payload: dict) -> str:
    """Write payload to `name` in the out directory as one line of sorted-key JSON.

    The text goes to a temporary file beside it, which then replaces the
    artifact whole, so a write that fails leaves an earlier artifact intact.
    """
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], name)
    text = json.dumps(payload, sort_keys=True) + "\n"  # no indent: CPython's C encoder
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return path


class InputDataError(InvalidInputError):
    """The configured data files are at fault, not the config's values: e.g. a
    features file that lacks a user of the ratings file."""


def _load_ranking_problem(cfg: dict):
    """The configured (split, user features, PairTaskData); the pair tasks
    are `data.tasks` and the ranked items `data.tasks.items`."""
    if cfg["data.ratings"] is None:
        raise ConfigError("data.ratings is required for this command")
    kernel = KernelSpec.from_config(cfg)
    parse = parse_movielens if cfg["data.format"] == "movielens" else parse_ratings_csv
    try:
        table = parse(cfg["data.ratings"])
        provided = None if cfg["data.features"] is None else parse_user_features_csv(cfg["data.features"])
        if cfg["users.max"] is not None:
            table = subsample_users(table, int(cfg["users.max"]), seed=int(cfg["seed"]))
        items = top_items(table, int(cfg["items.top"]))
        split = split_per_user(table, seed=int(cfg["seed"]))
        tasks = build_pair_tasks(split.train, items)
        features = user_feature_map(split.train, items, provided)
        data = build_pair_task_data(tasks, features, kernel)
    except InvalidInputError as exc:  # the config's values passed their checks
        raise InputDataError(str(exc)) from exc
    return split, features, data


def cmd_train(cfg: dict) -> int:
    if cfg["learner"] == "hs" and cfg["train.lambda"] == 0:
        raise ConfigError(f"train.lambda must be > 0 for the hs learner, got {cfg['train.lambda']!r}")
    data = _load_ranking_problem(cfg)[-1]
    lam, seed = float(cfg["train.lambda"]), int(cfg["seed"])
    checkpoint = {
        "schema_version": CHECKPOINT_SCHEMA,
        "config": cfg,
        "learner": cfg["learner"],
        "lambda": lam,
        "seed": seed,
        **_data_fields(data),
    }
    if cfg["learner"] == "hs":
        checkpoint["beta"] = fit_rank_hs(data, lam).beta.tolist()
    else:
        base = TrainConfig(
            lam=lam, rank=int(cfg["train.rank"]), step=1.0, max_iters=int(cfg["train.iters"]), seed=seed,
        )
        step = float(halving_step_search_rank(data, base) if cfg["train.step"] == "auto" else cfg["train.step"])
        model = fit_rank_lowrank(data, replace(base, step=step))
        checkpoint.update(
            rank=base.rank, step=step, iters_run=model.iters_run,
            A=model.A.ravel().tolist(), W=model.W.ravel().tolist(),
        )
        _write_json(cfg, "objective_trace.json", {"config": cfg, "objective_trace": model.objective_trace})
    path = _write_json(cfg, "checkpoint.json", checkpoint)
    print(f"wrote {path}")
    return 0


def _data_fields(data) -> dict:
    """The kernel and data a checkpoint is bound to, in the checkpoint's JSON form."""
    tasks = data.tasks
    return {
        "kernel": data.kernel.to_config(),
        "items": tasks.items,
        "pairs": [[tasks.items[a], tasks.items[b]] for a, b in zip(tasks.a.tolist(), tasks.b.tolist())],
        "users": tasks.users,
        "task_sizes": tasks.sizes.tolist(),
    }


def _number_array(values, size: int) -> np.ndarray | None:
    """A checkpoint list of `size` finite JSON numbers as floats; None for anything else.

    JSON null, true/false and strings are not numbers, and NaN or an
    overflowing integer is not finite.
    """
    if not isinstance(values, list) or len(values) != size or not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:
        return None
    return array if np.isfinite(array).all() else None


def _checkpoint_problem(cfg: dict, command: str):
    """The configured (split, user features) and the model the schema-2
    checkpoint holds, built from its arrays alone, on `model.data.tasks`."""
    if cfg["checkpoint"] is None:
        raise ConfigError(f"{command} requires a checkpoint path")
    split, features, data = _load_ranking_problem(cfg)
    ck = _json_object(cfg["checkpoint"], "checkpoint")
    schema = ck.get("schema_version")
    if type(schema) is not int:
        raise ConfigError(f"checkpoint field 'schema_version' must be an integer, got {schema!r}")
    if schema != CHECKPOINT_SCHEMA:
        raise ConfigError(
            f"unsupported checkpoint schema {schema}; retrain to write a schema {CHECKPOINT_SCHEMA} checkpoint"
        )
    for field, value in _data_fields(data).items():
        if ck.get(field) != value:
            raise ConfigError(
                f"checkpoint field {field!r} differs from the configured data; "
                "config/seed mismatch"
            )
    learner = ck.get("learner")
    if learner not in ("lowrank", "hs"):
        raise ConfigError(f"checkpoint field 'learner' must be 'lowrank' or 'hs', got {learner!r}")
    if learner == "hs":
        beta = _number_array(ck.get("beta"), data.n_rows)
        if beta is None:
            raise ConfigError(
                f"HS checkpoint field 'beta' must hold sum(task_sizes) = {data.n_rows} finite numbers; retrain it"
            )
        model = HsRankModel(data=data, beta=beta)
    else:
        for field, least in (("rank", 1), ("iters_run", 0)):
            value = ck.get(field)
            if type(value) is not int or value < least:
                raise ConfigError(f"low-rank checkpoint field {field!r} must be an integer >= {least}, got {value!r}")
        r = ck["rank"]
        factors = {}
        for field, rows in (("A", len(data.users)), ("W", data.n_tasks)):
            values = _number_array(ck.get(field), rows * r)
            if values is None:
                raise ConfigError(
                    f"low-rank checkpoint field {field!r} must hold {rows} x rank = {rows * r} finite numbers"
                )
            factors[field] = values.reshape(rows, r)
        model = LowRankRankModel(data=data, **factors, iters_run=ck["iters_run"], objective_trace=[])
    return split, features, model


def cmd_eval(cfg: dict) -> int:
    split, features, model = _checkpoint_problem(cfg, "eval")
    report = evaluate_ranking(model, split, model.data.tasks, features, on="test", config=cfg)
    path = _write_json(cfg, "eval_report.json", report.to_dict())
    print(f"wrote {path} (mean={report.mean:.4f}, n={report.n_queries}, skipped={report.skipped})")
    return 0


def cmd_grid(cfg: dict) -> int:
    split, features, data = _load_ranking_problem(cfg)
    cells = grid_cells(
        data,
        cfg["learner"],
        lambdas=cfg["grid.lambdas"],
        ranks=cfg["grid.ranks"],
        steps=None if cfg["grid.steps"] == "auto" else cfg["grid.steps"],
        iters=cfg["grid.iters"],
        seed=int(cfg["seed"]),
    )
    best, report, table = grid_search(cells, data, split, features)
    _write_json(cfg, "grid_table.json", {"config": cfg, "cells": table})
    path = _write_json(
        cfg,
        "best_config.json",
        {"config": cfg, "best": best, "validation": report.to_dict()},
    )
    print(f"wrote {path} (best validation mean={report.mean:.4f})")
    return 0


def cmd_decode(cfg: dict) -> int:
    _, features, model = _checkpoint_problem(cfg, "decode")
    items = model.data.tasks.items
    users = list(features)  # every user: the split tables keep the full user list
    X = np.vstack([np.asarray(features[u], dtype=float) for u in users])
    decoded = decode_queries(model.data.tasks, model.tournament_weights(X), decode=fas_greedy)
    orderings = {
        str(user): [items[j] for j in ordering.docs_by_rank().tolist()]
        for user, ordering in zip(users, decoded)
    }
    path = _write_json(cfg, "orderings.json", {"config": cfg, "items": items, "orderings": orderings})
    print(f"wrote {path} ({len(orderings)} queries)")
    return 0


def cmd_synth(cfg: dict) -> int:
    report = synthetic_comparison(
        n=int(cfg["synth.n"]),
        d=int(cfg["synth.d"]),
        T=int(cfg["synth.tasks"]),
        true_rank=int(cfg["synth.rank"]),
        noise=float(cfg["synth.noise"]),
        seeds=tuple(range(int(cfg["synth.seeds"]))),
        lambdas=tuple(cfg["synth.lambdas"]),
        ranks=tuple(cfg["synth.ranks"]),
        iters=int(cfg["synth.iters"]),
    )
    report["config"] = cfg
    path = _write_json(cfg, "synth_report.json", report)
    print(
        f"wrote {path} (low-rank wins {report['lowrank_wins']}/{report['n_seeds']})"
    )
    return 0


def cmd_verify(cfg: dict) -> int:
    report = run_verification(seed=int(cfg["seed"]))
    report["config"] = cfg
    _write_json(cfg, "verify_report.json", report)
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        print(f"[{status}] {check['name']}: value={check['value']:.3e} threshold={check['threshold']:.3e}")
    if not report["passed"]:
        print("verification FAILED")
        return 4
    print("verification passed")
    return 0


def run(command: str, config_path: str | None = None, overrides: list[str] | None = None,
        out: str | None = None, seed: int | None = None) -> int:
    """Dispatch a command; returns the process exit status."""
    if command not in COMMANDS:
        print(f"unknown command {command!r}; expected one of {COMMANDS}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(config_path, overrides or [], out, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    handler = {
        "train": cmd_train,
        "eval": cmd_eval,
        "grid": cmd_grid,
        "decode": cmd_decode,
        "synth": cmd_synth,
        "verify": cmd_verify,
    }[command]
    try:
        return handler(cfg)
    except (RatingsParseError, InputDataError) as exc:  # DuplicateRatingError included
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selfrank",
        description="Kernel structured prediction with low-rank surrogate regression",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a flat JSON config")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a config key (repeatable)",
    )
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--seed", type=int, help="random seed override")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.overrides, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
