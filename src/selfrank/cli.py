"""Command-line entry point: train, eval, grid, decode, synth, verify.

Every artifact is a JSON document embedding the resolved configuration that
produced it, written with sorted keys so identical (command, config, seed)
runs are byte-identical. Exit codes: 0 success, 2 bad configuration or
input data, 3 divergence, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
    DuplicateRatingError,
    InvalidInputError,
    RatingsParseError,
)
from .evaluation import (
    DEFAULT_ITERS,
    DEFAULT_LAMBDAS,
    DEFAULT_RANKS,
    GridSpec,
    decode_queries,
    evaluate_ranking,
    grid_search,
    resolve_grid,
    synthetic_comparison,
)
from .kernels import KernelSpec
from .learners import TrainConfig
from .ranking import (
    LowRankRankModel,
    build_pair_task_data,
    fit_rank_hs,
    fit_rank_lowrank,
    halving_step_search_rank,
)
from .verify import run_verification

COMMANDS = ("train", "eval", "grid", "decode", "synth", "verify")

# key -> (default, is_path). Unknown keys are rejected outright.
KNOWN_KEYS = {
    "data.ratings": (None, True),
    "data.format": ("movielens", False),
    "data.features": (None, True),
    "kernel.kind": ("linear", False),
    "kernel.bandwidth": (None, False),
    "loss.name": ("pair_sign", False),
    "learner": ("lowrank", False),
    "train.lambda": (0.01, False),
    "train.rank": (5, False),
    "train.step": ("auto", False),
    "train.iters": (1000, False),
    "train.tol": (1e-9, False),
    "train.init_scale": (None, False),
    "grid.lambdas": (list(DEFAULT_LAMBDAS), False),
    "grid.ranks": (list(DEFAULT_RANKS), False),
    "grid.steps": ("auto", False),
    "grid.iters": (list(DEFAULT_ITERS), False),
    "items.top": (30, False),
    "users.max": (None, False),
    "seed": (0, False),
    "out": ("out", False),
    "checkpoint": (None, True),
    "synth.n": (100, False),
    "synth.d": (20, False),
    "synth.tasks": (20, False),
    "synth.rank": (2, False),
    "synth.noise": (0.1, False),
    "synth.seeds": (10, False),
    "synth.lambdas": ([1e-3, 1e-2, 1e-1], False),
    "synth.ranks": ([2, 5], False),
    "synth.iters": (1500, False),
}


def load_config(config_path: str | None, overrides: list[str], out: str | None, seed: int | None) -> dict:
    """Merge file config, --set overrides, and flag shortcuts; validate keys and paths."""
    cfg = {k: v for k, (v, _) in KNOWN_KEYS.items()}
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a flat JSON object")
        for key, value in loaded.items():
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[key] = value
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if out is not None:
        cfg["out"] = out
    if seed is not None:
        cfg["seed"] = int(seed)
    for key, (_, is_path) in KNOWN_KEYS.items():
        if is_path and cfg[key] is not None and not os.path.exists(str(cfg[key])):
            raise ConfigError(f"path for {key!r} does not exist: {cfg[key]}")
    return cfg


def _write_json(cfg: dict, name: str, payload: dict) -> str:
    os.makedirs(cfg["out"], exist_ok=True)
    path = os.path.join(cfg["out"], name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _kernel_from(cfg: dict) -> KernelSpec:
    try:
        return KernelSpec(kind=cfg["kernel.kind"], bandwidth=cfg["kernel.bandwidth"])
    except InvalidInputError as exc:
        raise ConfigError(str(exc)) from exc


def _load_ranking_problem(cfg: dict):
    if cfg["data.ratings"] is None:
        raise ConfigError("data.ratings is required for this command")
    if cfg["loss.name"] != "pair_sign":
        raise ConfigError(
            f"the ranking pipeline requires loss.name=pair_sign, got {cfg['loss.name']!r}"
        )
    fmt = cfg["data.format"]
    if fmt == "movielens":
        table = parse_movielens(cfg["data.ratings"])
    elif fmt == "csv":
        table = parse_ratings_csv(cfg["data.ratings"])
    else:
        raise ConfigError(f"data.format must be movielens or csv, got {fmt!r}")
    if cfg["data.features"] is not None:
        table.user_features = parse_user_features_csv(cfg["data.features"])
    if cfg["users.max"] is not None:
        table = subsample_users(table, int(cfg["users.max"]), seed=int(cfg["seed"]))
    items = top_items(table, int(cfg["items.top"]))
    split = split_per_user(table, seed=int(cfg["seed"]))
    tasks = build_pair_tasks(split.train, items)
    features = user_feature_map(split.train, items)
    kernel = _kernel_from(cfg)
    return split, items, tasks, features, kernel


def _train_model(cfg: dict, data, seed: int):
    if cfg["learner"] == "hs":
        return fit_rank_hs(data, float(cfg["train.lambda"])), None
    if cfg["learner"] != "lowrank":
        raise ConfigError(f"learner must be lowrank or hs, got {cfg['learner']!r}")
    base = TrainConfig(
        lam=float(cfg["train.lambda"]),
        rank=int(cfg["train.rank"]),
        step=1.0,
        max_iters=int(cfg["train.iters"]),
        seed=seed,
        tol=float(cfg["train.tol"]),
        init_scale=cfg["train.init_scale"],
    )
    step = cfg["train.step"]
    if step == "auto":
        step = halving_step_search_rank(data, base)
    train_cfg = TrainConfig(
        lam=base.lam, rank=base.rank, step=float(step), max_iters=base.max_iters,
        seed=seed, tol=base.tol, init_scale=base.init_scale,
    )
    return fit_rank_lowrank(data, train_cfg), train_cfg


def cmd_train(cfg: dict) -> int:
    split, items, tasks, features, kernel = _load_ranking_problem(cfg)
    data = build_pair_task_data(tasks, features, kernel)
    seed = int(cfg["seed"])
    model, train_cfg = _train_model(cfg, data, seed)
    checkpoint = {
        "schema_version": 1,
        "config": cfg,
        "learner": cfg["learner"],
        "kernel": kernel.to_config(),
        "lambda": float(cfg["train.lambda"]),
        "seed": seed,
        "items": items,
        "pairs": [list(t.pair) for t in tasks.tasks],
        "task_sizes": data.task_sizes.tolist(),
        "row_users": [data.users[k] for k in data.row_user.tolist()],
    }
    if cfg["learner"] == "lowrank":
        n_blocks = []
        offset = 0
        for n_t in data.task_sizes.tolist():
            n_blocks.append(model.N[offset : offset + n_t].ravel().tolist())
            offset += n_t
        checkpoint.update(
            {
                "rank": train_cfg.rank,
                "step": train_cfg.step,
                "iters_run": model.iters_run,
                "M": model.M.ravel().tolist(),
                "N_blocks": n_blocks,
            }
        )
        _write_json(
            cfg,
            "objective_trace.json",
            {"config": cfg, "objective_trace": model.objective_trace},
        )
    path = _write_json(cfg, "checkpoint.json", checkpoint)
    print(f"wrote {path}")
    return 0


def _model_from_checkpoint(cfg: dict, data):
    with open(cfg["checkpoint"], "r", encoding="utf-8") as fh:
        ck = json.load(fh)
    if ck.get("schema_version") != 1:
        raise ConfigError(f"unsupported checkpoint schema {ck.get('schema_version')!r}")
    expected_rows = sum(ck["task_sizes"])
    if data.n_rows != expected_rows:
        raise ConfigError(
            f"checkpoint was trained on {expected_rows} stacked samples but the "
            f"configured data yields {data.n_rows}; config/seed mismatch"
        )
    if ck["learner"] == "hs":
        return fit_rank_hs(data, float(ck["lambda"]))
    r = int(ck["rank"])
    M = np.asarray(ck["M"], dtype=float).reshape(data.n_rows, r)
    N = np.vstack(
        [
            np.asarray(block, dtype=float).reshape(n_t, r)
            for block, n_t in zip(ck["N_blocks"], ck["task_sizes"])
        ]
    )
    train_cfg = TrainConfig(
        lam=float(ck["lambda"]), rank=r, step=float(ck["step"]),
        max_iters=max(int(ck["iters_run"]), 1), seed=int(ck["seed"]),
    )
    return LowRankRankModel(
        data=data, M=M, N=N, cfg=train_cfg,
        iters_run=int(ck["iters_run"]), objective_trace=[],
    )


def cmd_eval(cfg: dict) -> int:
    if cfg["checkpoint"] is None:
        raise ConfigError("eval requires a checkpoint path")
    split, items, tasks, features, kernel = _load_ranking_problem(cfg)
    data = build_pair_task_data(tasks, features, kernel)
    model = _model_from_checkpoint(cfg, data)
    report = evaluate_ranking(model, split, tasks, features, on="test", config=cfg)
    path = _write_json(cfg, "eval_report.json", report.to_dict())
    print(f"wrote {path} (mean={report.mean:.4f}, n={report.n_queries}, skipped={report.skipped})")
    return 0


def cmd_grid(cfg: dict) -> int:
    split, items, tasks, features, kernel = _load_ranking_problem(cfg)
    data = build_pair_task_data(tasks, features, kernel)
    seed = int(cfg["seed"])
    if cfg["learner"] == "lowrank":
        steps = None if cfg["grid.steps"] == "auto" else tuple(cfg["grid.steps"])
        grid, step_by_rank = resolve_grid(
            data,
            lambdas=tuple(cfg["grid.lambdas"]),
            ranks=tuple(cfg["grid.ranks"]),
            steps=steps,
            iters=tuple(cfg["grid.iters"]),
            seed=seed,
        )
    else:
        grid = GridSpec(
            lambdas=tuple(cfg["grid.lambdas"]), ranks=(1,), steps=(1.0,), iters=(1,)
        )
        step_by_rank = {}
    best, report, table = grid_search(
        grid, split, tasks, features, kernel, cfg["learner"],
        seed=seed, step_by_rank=step_by_rank or None,
    )
    _write_json(cfg, "grid_table.json", {"config": cfg, "cells": table})
    path = _write_json(
        cfg,
        "best_config.json",
        {"config": cfg, "best": best, "validation": report.to_dict()},
    )
    print(f"wrote {path} (best validation mean={report.mean:.4f})")
    return 0


def cmd_decode(cfg: dict) -> int:
    if cfg["checkpoint"] is None:
        raise ConfigError("decode requires a checkpoint path")
    split, items, tasks, features, kernel = _load_ranking_problem(cfg)
    data = build_pair_task_data(tasks, features, kernel)
    model = _model_from_checkpoint(cfg, data)
    users = [u for u in split.test.users if u in features]
    X = np.vstack([np.asarray(features[u], dtype=float) for u in users])
    decoded = decode_queries(tasks, model.tournament_weights(X), decode=fas_greedy)
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
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (RatingsParseError, DuplicateRatingError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
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
