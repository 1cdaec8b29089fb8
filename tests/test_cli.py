import base64
import errno
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import selfrank
from selfrank import ranking
from selfrank.cli import _COUNT, _COUNTS, CONFIG_KEYS, _load_ranking_problem, load_config, main, run
from selfrank.data_io import simulate_movielens_table, write_movielens
from selfrank.errors import ConfigError, NumericalError
from selfrank.evaluation import evaluate_ranking, fit_cell, grid_cells
from selfrank.ranking import PairTaskData, build_pair_task_data, fit_rank_hs


def floats(text: str) -> np.ndarray:
    """The floats of a checkpoint array: base64 text of little-endian float64 bytes."""
    return np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")


def bad_encodings(text: str) -> list:
    """(name, value) pairs that a checkpoint array `text` must not be replaced
    by: its floats as a JSON list, null, text that is not base64 or not ASCII,
    its bytes one short or one float long, and a NaN or an inf packed as <f8
    in place of its first float."""
    raw = base64.b64decode(text)
    pack = lambda b: base64.b64encode(b).decode("ascii")
    return [
        ("list", floats(text).tolist()),
        ("null", None),
        ("not base64", "not base64!"),
        ("not ascii", "\u00e9" + text[1:]),
        ("one byte short", pack(raw[:-1])),
        ("one float long", pack(raw + np.float64(0.0).tobytes())),
        ("nan", pack(np.array([np.nan], dtype="<f8").tobytes() + raw[8:])),
        ("inf", pack(np.array([np.inf], dtype="<f8").tobytes() + raw[8:])),
    ]


# a config value that is an integer past the float range
HUGE = 10**400
# the config keys whose values are counts: integers >= 1, or lists of them
COUNT_KEYS = (
    "train.rank", "train.iters", "synth.n", "synth.d", "synth.tasks", "synth.rank", "synth.seeds",
    "synth.iters", "synth.ranks", "grid.ranks", "grid.iters",
)

# Runs low-rank train, eval and decode, then hs train, in one fresh interpreter
# and prints after each whether scipy.linalg has been imported.
SCIPY_LINALG_PROBE = """
import json, sys, warnings
from selfrank.cli import run
warnings.simplefilter("ignore")
overrides, out = json.loads(sys.argv[1]), sys.argv[2]
loaded = {}
for command in ("train", "eval", "decode"):
    extra = [] if command == "train" else [f"checkpoint={out}/lowrank/checkpoint.json"]
    assert run(command, overrides=overrides + extra, out=f"{out}/lowrank") == 0
    loaded[command] = "scipy.linalg" in sys.modules
assert run("train", overrides=overrides + ["learner=hs"], out=f"{out}/hs") == 0
loaded["hs train"] = "scipy.linalg" in sys.modules
print(json.dumps(loaded))
"""

# In one fresh interpreter, the scipy modules loaded after importing
# selfrank.cli, then after a low-rank eval and decode of a saved checkpoint.
SCIPY_SPARSE_PROBE = """
import json, sys, warnings
from selfrank.cli import run
warnings.simplefilter("ignore")
overrides, out = json.loads(sys.argv[1]), sys.argv[2]
scipy = lambda: [m for m in ("scipy.sparse", "scipy.linalg") if m in sys.modules]
loaded = {"import": scipy()}
for command in ("eval", "decode"):
    assert run(command, overrides=overrides + [f"checkpoint={out}/checkpoint.json"], out=out) == 0
    loaded[command] = scipy()
print(json.dumps(loaded))
"""

# Rewrites the checkpoint in sys.argv[1], with `A` repeated, under a file-size
# limit of half the new text, so the write fails partway, and prints the
# failure's errno.
PARTIAL_WRITE_PROBE = """
import json, resource, signal, sys
from selfrank.cli import _write_json
out = sys.argv[1]
payload = json.load(open(f"{out}/checkpoint.json"))
payload["A"] = payload["A"] * 2
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)  # a write past the limit then fails with EFBIG
limit = len(json.dumps(payload)) // 2
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    _write_json({"out": out}, "checkpoint.json", payload)
except OSError as exc:
    print(exc.errno)
"""


@pytest.fixture(scope="module")
def ratings_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "u.data"
    table = simulate_movielens_table(n_users=40, n_items=25, seed=3)
    write_movielens(table, path)
    return str(path)


def base_overrides(ratings_file, extra=()):
    return [
        f"data.ratings={ratings_file}",
        "items.top=6",
        "train.iters=150",
        "train.rank=2",
        'grid.lambdas=[0.01, 0.1]',
        "grid.ranks=[2]",
        "grid.iters=[100]",
    ] + list(extra)


class TestConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["bogus.key=1"], None, None)

    @pytest.mark.parametrize("setting", ["loss.name=pair_sign", "train.init_scale=0.1", "train.tol=1e-3"])
    def test_removed_key_exits_2(self, tmp_path, ratings_file, capsys, setting):
        """Keys that once took a single value are gone; naming one is an unknown key."""
        rc = run("train", overrides=base_overrides(ratings_file, [setting]), out=str(tmp_path))
        assert rc == 2
        key = setting.split("=")[0]
        assert f"config error: unknown config key {key!r}" in capsys.readouterr().err

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["data.ratings=/nonexistent/file"], None, None)

    @pytest.mark.parametrize("key", ["data.ratings", "data.features", "checkpoint"])
    def test_directory_path_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"^path for '{key}' is not a file: "):
            load_config(None, [f"{key}={tmp_path}"], None, None)

    @pytest.mark.parametrize("content, message", [
        (b'{"items.top": 7', "config .* is not UTF-8 JSON: Expecting"),
        (b'{"items.top": "\xff"}', "config .* is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[7]", "config must be a JSON object, got list"),
    ])
    def test_config_file_must_hold_a_json_object(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=f"^{message}"):
            load_config(str(path), [], None, None)

    def test_config_file_merging(self, tmp_path, ratings_file):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"data.ratings": ratings_file, "items.top": 7}))
        cfg = load_config(str(cfg_path), ["items.top=9"], "outdir", 42)
        assert cfg["items.top"] == 9
        assert cfg["out"] == "outdir"
        assert cfg["seed"] == 42

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rate.limit": 3}))
        with pytest.raises(ConfigError):
            load_config(str(cfg_path), [], None, None)


    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["items.top=abc"], "items.top"),
            (["items.top=-3"], "items.top"),
            (["items.top=1"], "items.top"),
            (["train.rank=x"], "train.rank"),
            (["train.iters=1.5"], "train.iters"),
            (["train.step=fast"], "train.step"),
            (["train.step=0"], "train.step"),
            (["train.lambda=true"], "train.lambda"),
            (["train.iters=0"], "train.iters"),
            (["kernel.kind=gaussian", "kernel.bandwidth=wide"], "kernel.bandwidth"),
            (["seed=1.5"], "seed"),
            (["seed=-1"], "seed"),
            (["users.max=0"], "users.max"),
            (['grid.lambdas=[0.1, "a"]'], "grid.lambdas"),
            (["grid.ranks=[]"], "grid.ranks"),
            (["grid.steps=[0.1, -1]"], "grid.steps"),
            (["grid.iters=100"], "grid.iters"),
            (["synth.seeds=ten"], "synth.seeds"),
            (["synth.n=-100"], "synth.n"),
            (["synth.d=0"], "synth.d"),
            (["synth.tasks=0"], "synth.tasks"),
            (["synth.rank=0"], "synth.rank"),
            (["synth.iters=0"], "synth.iters"),
            (["synth.seeds=-2"], "synth.seeds"),
            (["synth.noise=-0.1"], "synth.noise"),
            (["synth.lambdas=[0.1, 0]"], "synth.lambdas"),
            (["synth.ranks=[2, 0]"], "synth.ranks"),
            (["data.format=tsv"], "data.format"),
            (["data.features=7"], "data.features"),
            (["kernel.kind=poly"], "kernel.kind"),
            (["learner=svm"], "learner"),
            (["train.rank=0"], "train.rank"),
            (["train.lambda=-0.1"], "train.lambda"),
            (["grid.lambdas=[0.1, 0]"], "grid.lambdas"),
            (["grid.ranks=[2, 0]"], "grid.ranks"),
            (["grid.iters=[100, 0]"], "grid.iters"),
            (["kernel.kind=gaussian", "kernel.bandwidth=-1"], "kernel.bandwidth"),
            (["kernel.kind=abel"], "kernel.bandwidth"),
            (["synth.rank=6", "synth.d=8", "synth.tasks=5"], "synth.rank"),
            (["kernel.kind=gaussian", "kernel.bandwidth=1e200"], "kernel.bandwidth"),
            (["kernel.kind=gaussian", "kernel.bandwidth=1e-200", "learner=hs"], "kernel.bandwidth"),
            # integers past the float range, and one past CPython's 4,300-digit parse limit
            ([f"train.lambda={HUGE}"], "train.lambda"),
            ([f"train.step={HUGE}"], "train.step"),
            (["kernel.kind=gaussian", f"kernel.bandwidth={HUGE}"], "kernel.bandwidth"),
            ([f"grid.lambdas=[0.1, {HUGE}]"], "grid.lambdas"),
            ([f"grid.steps=[{HUGE}]"], "grid.steps"),
            ([f"synth.noise={HUGE}"], "synth.noise"),
            ([f"synth.lambdas=[{HUGE}]"], "synth.lambdas"),
            ([f"train.lambda=1{'0' * 4300}"], "train.lambda"),
        ],
    )
    def test_malformed_numeric_value_exits_2(self, tmp_path, ratings_file, capsys, overrides, key):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            load_config(None, [f"data.ratings={ratings_file}", *overrides], None, None)
        rc = run("train", overrides=base_overrides(ratings_file, overrides), out=str(tmp_path))
        assert rc == 2
        assert f"config error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key", COUNT_KEYS)
    def test_count_past_the_float_range_is_rejected(self, ratings_file, key):
        """A count key takes only integers within the float range, as the
        number keys do: a huge count would fail deep inside a command."""
        value = [HUGE] if isinstance(CONFIG_KEYS[key][0], list) else HUGE
        with pytest.raises(ConfigError, match=f"^{key} must be .*within the float range, got "):
            load_config(None, [f"data.ratings={ratings_file}", f"{key}={value}"], None, None)

    def test_count_keys_are_the_keys_checked_as_counts(self):
        checks = (_COUNT[0], _COUNTS[0])
        assert {key for key, (_, check, *_) in CONFIG_KEYS.items() if check in checks} == set(COUNT_KEYS)

    @pytest.mark.parametrize("command, overrides, key", [
        ("verify", ["kernel.kind=gaussian", "kernel.bandwidth=-1"], "kernel.bandwidth"),
        ("synth", ["kernel.kind=abel"], "kernel.bandwidth"),
        ("train", ["kernel.kind=gaussian"], "kernel.bandwidth"),
        ("train", ["learner=hs", "train.lambda=0"], "train.lambda"),
        ("synth", ["synth.rank=30"], "synth.rank"),
    ])
    def test_malformed_value_exits_2_before_parsing(
        self, tmp_path, ratings_file, capsys, monkeypatch, command, overrides, key
    ):
        """Each command rejects the value naming its key, before the ratings are read."""

        def no_parse(path):
            raise AssertionError("the ratings were parsed")

        monkeypatch.setattr("selfrank.cli.parse_movielens", no_parse)
        assert run(command, overrides=base_overrides(ratings_file, overrides), out=str(tmp_path)) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("train", ["train.lambda=0"]),
        ("grid", ["learner=hs", "train.lambda=0"]),
        ("train", ["kernel.kind=delta", "kernel.bandwidth=-1"]),
    ], ids=["lowrank-lambda-0", "hs-grid-lambda-0", "delta-bandwidth"])
    def test_lambda_0_and_ignored_bandwidth_stay_valid(self, tmp_path, ratings_file, command, overrides):
        """A low-rank lambda of 0 is valid, grid reads grid.lambdas rather than
        train.lambda, and the delta kernel ignores kernel.bandwidth."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(command, overrides=base_overrides(ratings_file, overrides), out=str(tmp_path)) == 0

    def test_set_without_equals_exits_2(self, tmp_path, ratings_file, capsys):
        assert run("train", overrides=base_overrides(ratings_file, ["train.rank"]), out=str(tmp_path)) == 2
        assert "config error: --set expects key=value, got 'train.rank'" in capsys.readouterr().err

    def test_synth_rank_up_to_min_of_d_and_tasks(self):
        cfg = load_config(None, ["synth.rank=30", "synth.d=30", "synth.tasks=40"], None, None)
        assert cfg["synth.rank"] == 30

    @pytest.mark.parametrize("case", ["number", "file", "under_file"])
    def test_bad_out_exits_2(self, ratings_file, capsys, case):
        if case == "number":
            rc, value = run("train", overrides=base_overrides(ratings_file, ["out=5"])), 5
        else:
            value = ratings_file if case == "file" else os.path.join(ratings_file, "sub")
            rc = run("train", overrides=base_overrides(ratings_file), out=value)
        assert rc == 2
        assert f"config error: out must be a path that is or can become a directory, got {value!r}" in (
            capsys.readouterr().err
        )


class TestCommands:
    def test_unknown_command_exits_2(self):
        assert run("explode") == 2

    def test_train_without_data_exits_2(self, tmp_path):
        assert run("train", out=str(tmp_path)) == 2

    def test_train_missing_dataset_exits_2(self, tmp_path):
        rc = run("train", overrides=["data.ratings=/no/such/file"], out=str(tmp_path))
        assert rc == 2

    def test_wrong_loss_exits_2(self, tmp_path, ratings_file):
        rc = run(
            "train",
            overrides=base_overrides(ratings_file, ["loss.name=zero_one"]),
            out=str(tmp_path),
        )
        assert rc == 2

    def test_non_finite_rating_exits_2(self, tmp_path, ratings_file, capsys):
        bad = tmp_path / "u.data"
        lines = open(ratings_file, encoding="utf-8").read().splitlines()
        user, item, _, stamp = lines[3].split("\t")
        lines[3] = "\t".join([user, item, "nan", stamp])
        bad.write_text("\n".join(lines) + "\n")
        rc = run("train", overrides=base_overrides(str(bad)), out=str(tmp_path / "out"))
        assert rc == 2
        assert "line 4: non-finite rating" in capsys.readouterr().err

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("fields", [(3, 5), (5, 3)])
    def test_offsetting_field_counts_exit_2(self, tmp_path, ratings_file, capsys, fields, blank):
        """A line one tab short and one a tab over still average three tabs a line."""
        bad = tmp_path / "u.data"
        lines = open(ratings_file, encoding="utf-8").read().splitlines()
        for k, n in zip((3, 4), fields):
            lines[k] = "\t".join((lines[k].split("\t") + ["0"])[:n])
        if blank:
            lines.insert(4, "")
        bad.write_text("\n".join(lines) + "\n")
        rc = run("train", overrides=base_overrides(str(bad)), out=str(tmp_path / "out"))
        assert rc == 2
        assert f"line 4: expected 4 tab-separated fields, got {fields[0]}" in capsys.readouterr().err

    def test_directory_for_a_file_exits_2(self, tmp_path, ratings_file, capsys):
        out = str(tmp_path / "out")
        assert run("train", overrides=base_overrides(str(tmp_path)), out=out) == 2
        assert "config error: path for 'data.ratings' is not a file" in capsys.readouterr().err
        assert run("eval", overrides=base_overrides(ratings_file, [f"checkpoint={tmp_path}"]), out=out) == 2
        assert "config error: path for 'checkpoint' is not a file" in capsys.readouterr().err
        assert run("train", config_path=str(tmp_path), out=out) == 2
        assert "config error: config file is not a file" in capsys.readouterr().err

    @pytest.mark.parametrize("file, text, extra", [
        ("u.data", b"1\t5\t3\t0\n2\t6\t4\t\xff\n", []),
        ("r.csv", b"user,item,rating\n1,5,3\n\xff,6,4\n", ["data.format=csv"]),
        ("f.csv", b"user,f1\n1,0.5\n\xff,1\n", None),
    ])
    def test_non_utf8_input_exits_2(self, tmp_path, ratings_file, capsys, file, text, extra):
        """A byte that is not UTF-8 in a ratings or features file is an input error naming the file."""
        path = tmp_path / file
        path.write_bytes(text)
        overrides = [f"data.ratings={ratings_file}", f"data.features={path}"] if extra is None else [
            f"data.ratings={path}", *extra
        ]
        assert run("train", overrides=overrides, out=str(tmp_path / "out")) == 2
        line = 2 if file == "u.data" else 3
        assert f"input error: line {line}: {path} is not UTF-8 text" in capsys.readouterr().err

    def test_repeated_features_user_exits_2(self, tmp_path, ratings_file, capsys):
        path = tmp_path / "f.csv"
        path.write_text("user,f1\n1,0.5\n1,0.7\n")
        overrides = base_overrides(ratings_file, [f"data.features={path}"])
        assert run("train", overrides=overrides, out=str(tmp_path / "out")) == 2
        assert "input error: line 3: duplicate features for user '1'" in capsys.readouterr().err

    def test_features_without_feature_columns_exits_2(self, tmp_path, ratings_file, capsys):
        path = tmp_path / "f.csv"
        path.write_text("user\n1\n2\n")
        overrides = base_overrides(ratings_file, [f"data.features={path}"])
        assert run("train", overrides=overrides, out=str(tmp_path / "out")) == 2
        assert "input error: line 1: expected at least one feature column after `user`" in capsys.readouterr().err

    def test_features_missing_a_user_is_an_input_error(self, tmp_path, ratings_file, capsys):
        """A features file that parses but lacks a user of the ratings file is a
        fault in the data, not in the config."""
        path = tmp_path / "f.csv"
        path.write_text("user,f1\n1,0.5\n")
        overrides = base_overrides(ratings_file, [f"data.features={path}"])
        assert run("train", overrides=overrides, out=str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: no provided features for user ") and "config error" not in err

    def test_divergent_step_exits_3(self, tmp_path, ratings_file):
        rc = run(
            "train",
            overrides=base_overrides(ratings_file, ["train.step=1000.0", "train.iters=300"]),
            out=str(tmp_path),
        )
        assert rc == 3

    def test_train_eval_decode_round_trip(self, tmp_path, ratings_file):
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out, seed=1) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        assert ck["schema_version"] == 3
        assert ck["config"]["seed"] == 1
        assert len(floats(ck["A"])) == len(ck["users"]) * ck["rank"]
        assert len(floats(ck["W"])) == len(ck["pairs"]) * ck["rank"]
        trace = json.load(open(f"{out}/objective_trace.json"))
        assert len(trace["objective_trace"]) >= 2

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(
                "eval",
                overrides=base_overrides(ratings_file, [f"checkpoint={out}/checkpoint.json"]),
                out=out,
                seed=1,
            )
        assert rc == 0
        report = json.load(open(f"{out}/eval_report.json"))
        assert 0.0 <= report["mean"] <= 1.0
        assert report["config"]["checkpoint"] == f"{out}/checkpoint.json"

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(
                "decode",
                overrides=base_overrides(ratings_file, [f"checkpoint={out}/checkpoint.json"]),
                out=out,
                seed=1,
            )
        assert rc == 0
        orderings = json.load(open(f"{out}/orderings.json"))
        items = orderings["items"]
        for docs in orderings["orderings"].values():
            assert sorted(docs) == sorted(items)

    def test_users_max_binds_the_checkpoint(self, tmp_path, ratings_file, capsys):
        """train with users.max=N binds its checkpoint to at most N users and
        repeats byte for byte; eval accepts it with the same keys and rejects it
        under another users.max."""
        out = str(tmp_path / "run")
        overrides = base_overrides(ratings_file, ["users.max=25"])
        written = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(2):
                assert run("train", overrides=overrides, out=out, seed=1) == 0
                written.append([open(f"{out}/{f}", "rb").read() for f in ("checkpoint.json", "objective_trace.json")])
            assert written[0] == written[1]
            ck = json.loads(written[0][0])
            assert ck["config"]["users.max"] == 25 and 2 <= len(ck["users"]) <= 25
            checkpoint = [f"checkpoint={out}/checkpoint.json"]
            assert run("eval", overrides=overrides + checkpoint, out=out, seed=1) == 0
            capsys.readouterr()
            other = base_overrides(ratings_file, ["users.max=30", *checkpoint])
            assert run("eval", overrides=other, out=out, seed=1) == 2
        assert "differs from the configured data" in capsys.readouterr().err

    def test_mismatched_checkpoint_exits_2(self, tmp_path, ratings_file, capsys):
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out, seed=1) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        swapped = dict(ck, items=[ck["items"][1], ck["items"][0]] + ck["items"][2:])
        renamed = dict(ck, users=ck["users"][:-1] + [ck["users"][-1] + 1000])
        for field, edited in (("items", swapped), ("users", renamed)):
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(edited))
            for command in ("eval", "decode"):
                rc = run(
                    command,
                    overrides=base_overrides(ratings_file, [f"checkpoint={path}"]),
                    out=out,
                    seed=1,
                )
                assert rc == 2
                assert f"checkpoint field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "decode"])
    @pytest.mark.parametrize("trained, configured", [
        ([], ["kernel.kind=gaussian", "kernel.bandwidth=0.5"]),
        (["kernel.kind=gaussian", "kernel.bandwidth=1.0"], ["kernel.kind=gaussian", "kernel.bandwidth=0.5"]),
    ], ids=["kind", "bandwidth"])
    def test_checkpoint_of_another_kernel_exits_2(self, tmp_path, ratings_file, capsys, command, trained, configured):
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file, trained), out=out) == 0
        checkpoint = [f"checkpoint={out}/checkpoint.json"]
        assert run(command, overrides=base_overrides(ratings_file, configured + checkpoint), out=out) == 2
        assert "checkpoint field 'kernel' differs" in capsys.readouterr().err
        assert not os.path.exists(f"{out}/eval_report.json") and not os.path.exists(f"{out}/orderings.json")

    def test_linear_checkpoint_binds_no_bandwidth(self, tmp_path, ratings_file):
        """The linear kernel ignores kernel.bandwidth, so one set at train time binds nothing."""
        out = str(tmp_path / "run")
        checkpoint = [f"checkpoint={out}/checkpoint.json"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file, ["kernel.bandwidth=0.5"]), out=out) == 0
            for command in ("eval", "decode"):
                assert run(command, overrides=base_overrides(ratings_file, checkpoint), out=out) == 0
        assert os.path.exists(f"{out}/eval_report.json") and os.path.exists(f"{out}/orderings.json")

    def test_lowrank_checkpoint_with_bad_fields_exits_2(self, tmp_path, ratings_file, capsys):
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out, seed=1) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        cases = [(key, {k: v for k, v in ck.items() if k != key}, "") for key in ("rank", "iters_run", "learner")]
        cases += [
            (key, dict(ck, **{key: bad}), f"; {name}: ") for key in ("A", "W") for name, bad in bad_encodings(ck[key])
        ]
        for field, edited, case in cases:
            path = tmp_path / f"{field}.json"
            path.write_text(json.dumps(edited))
            for command in ("eval", "decode"):
                rc = run(command, overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=out, seed=1)
                assert rc == 2, f"{field}{case}{command}"
                assert f"field {field!r}" in capsys.readouterr().err, f"{field}{case}{command}"

    @pytest.mark.parametrize("content, message", [
        (b"{not json", "is not UTF-8 JSON: Expecting property name"),
        (b'{"learner": "\xff"}', "is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
        (b"[1, 2]", "checkpoint must be a JSON object, got list"),
    ])
    def test_corrupt_checkpoint_exits_2(self, tmp_path, ratings_file, capsys, content, message):
        path = tmp_path / "checkpoint.json"
        path.write_bytes(content)
        for command in ("eval", "decode"):
            rc = run(command, overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=str(tmp_path))
            assert rc == 2
            assert message in capsys.readouterr().err

    def test_schema_1_checkpoint_exits_2(self, tmp_path, ratings_file, capsys):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({"schema_version": 1, "learner": "lowrank"}))
        rc = run(
            "eval", overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=str(tmp_path)
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "schema 1" in err and "retrain" in err

    def test_schema_2_checkpoint_exits_2(self, tmp_path, ratings_file, capsys):
        """A schema 2 checkpoint, whose A and W are lists of JSON numbers, asks
        for a retrain, though it matches the data."""
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(
            dict(ck, schema_version=2, A=floats(ck["A"]).tolist(), W=floats(ck["W"]).tolist()), sort_keys=True,
        ))
        for command in ("eval", "decode"):
            assert run(command, overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=out) == 2
            err = capsys.readouterr().err
            assert "unsupported checkpoint schema 2; retrain to write a schema 3 checkpoint" in err

    @pytest.mark.parametrize("command", ["eval", "decode"])
    def test_missing_checkpoint_path_exits_2(self, tmp_path, ratings_file, capsys, command):
        assert run(command, overrides=base_overrides(ratings_file), out=str(tmp_path)) == 2
        assert f"config error: {command} requires a checkpoint path" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", [1, 2, 4])
    def test_unsupported_schema_exits_2(self, tmp_path, ratings_file, capsys, schema):
        """A checkpoint of any other schema, even one matching the data, asks for a retrain."""
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out) == 0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(json.load(open(f"{out}/checkpoint.json")), schema_version=schema)))
        for command in ("eval", "decode"):
            assert run(command, overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=out) == 2
            assert (
                f"config error: unsupported checkpoint schema {schema}; retrain to write a schema 3 checkpoint"
                in capsys.readouterr().err
            )

    @pytest.mark.parametrize("schema", [True, 3.0, "3"], ids=["true", "3.0", "string"])
    def test_non_integer_schema_exits_2(self, tmp_path, ratings_file, capsys, schema):
        """JSON true is not schema 1, and 3.0 or "3" is not schema 3, though == says so."""
        out = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out, seed=1) == 0
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(json.load(open(f"{out}/checkpoint.json")), schema_version=schema)))
        for command in ("eval", "decode"):
            rc = run(command, overrides=base_overrides(ratings_file, [f"checkpoint={path}"]), out=out, seed=1)
            assert rc == 2
            assert (
                f"config error: checkpoint field 'schema_version' must be an integer, got {schema!r}"
                in capsys.readouterr().err
            )

    def test_hs_train_and_eval(self, tmp_path, ratings_file):
        out = str(tmp_path / "hs")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(
                "train", overrides=base_overrides(ratings_file, ["learner=hs"]), out=out, seed=2
            ) == 0
            rc = run(
                "eval",
                overrides=base_overrides(
                    ratings_file, ["learner=hs", f"checkpoint={out}/checkpoint.json"]
                ),
                out=out,
                seed=2,
            )
        assert rc == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        assert len(floats(ck["beta"])) == sum(ck["task_sizes"])
        # the checkpoint's beta reproduces the in-memory model's losses exactly
        cfg = load_config(None, base_overrides(ratings_file, ["learner=hs"]), out, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split, features, data = _load_ranking_problem(cfg)
        model = fit_rank_hs(data, cfg["train.lambda"])
        report = evaluate_ranking(model, split, data.tasks, features, on="test")
        assert json.load(open(f"{out}/eval_report.json"))["per_query"] == report.per_query

    def test_only_hs_loads_scipy_linalg(self, tmp_path, ratings_file):
        """Low-rank train, eval and decode run without importing scipy.linalg; hs
        train imports it, and its beta is scipy's Cholesky solution of each
        task's ridge system (K_t + n_t lam I) beta_t = z_t."""
        src = os.path.dirname(os.path.dirname(selfrank.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_LINALG_PROBE, json.dumps(base_overrides(ratings_file)), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == {"train": False, "eval": False, "decode": False, "hs train": True}

        from scipy.linalg import cho_factor, cho_solve

        cfg = load_config(None, base_overrides(ratings_file, ["learner=hs"]), None, None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = _load_ranking_problem(cfg)[-1]
        lam, want, lo = cfg["train.lambda"], [], 0
        for n in data.tasks.sizes.tolist():
            rows = data.tasks.user[lo:lo + n]
            system = data.K_u[np.ix_(rows, rows)] + n * lam * np.eye(n)
            want += cho_solve(cho_factor(system), data.tasks.z[lo:lo + n]).tolist()
            lo += n
        ck = json.loads((tmp_path / "hs" / "checkpoint.json").read_text())
        assert floats(ck["beta"]).tobytes() == np.array(want).tobytes()

    def test_cli_import_and_lowrank_eval_load_no_scipy_sparse(self, tmp_path, ratings_file):
        """Importing selfrank.cli loads neither scipy.sparse nor scipy.linalg, and
        a low-rank eval and decode in that process load neither either."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=str(tmp_path)) == 0
        src = os.path.dirname(os.path.dirname(selfrank.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_SPARSE_PROBE, json.dumps(base_overrides(ratings_file)), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "eval": [], "decode": []}

    def test_hs_checkpoint_without_valid_beta_exits_2(self, tmp_path, ratings_file, capsys):
        out = str(tmp_path / "hs")
        hs = base_overrides(ratings_file, ["learner=hs"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=hs, out=out, seed=2) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        missing = {k: v for k, v in ck.items() if k != "beta"}
        message = "field 'beta' must be base64 text of sum(task_sizes)"
        for name, edited in (
            ("missing", missing),
            *((name, dict(ck, beta=bad)) for name, bad in bad_encodings(ck["beta"])),
        ):
            path = tmp_path / "edited.json"
            path.write_text(json.dumps(edited))
            for command in ("eval", "decode"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    rc = run(command, overrides=hs + [f"checkpoint={path}"], out=out, seed=2)
                assert rc == 2, name
                err = capsys.readouterr().err
                assert message in err and "retrain" in err, name

    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    def test_eval_and_decode_build_no_gram(self, tmp_path, ratings_file, monkeypatch, learner):
        """eval and decode never build the user Gram; a linear-kernel low-rank
        train (auto step search and fit, or a fixed step) does not either."""
        out = str(tmp_path / learner)
        overrides = base_overrides(ratings_file, [f"learner={learner}"])

        def no_gram(data):
            raise AssertionError("the user Gram was built")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if learner == "lowrank":
                monkeypatch.setattr(PairTaskData, "K_u", property(no_gram))
                fixed = str(tmp_path / "fixed_step")
                assert run("train", overrides=overrides + ["train.step=0.05"], out=fixed, seed=3) == 0
            assert run("train", overrides=overrides, out=out, seed=3) == 0
            monkeypatch.setattr(PairTaskData, "K_u", property(no_gram))
            for command in ("eval", "decode"):
                rc = run(command, overrides=overrides + [f"checkpoint={out}/checkpoint.json"],
                         out=out, seed=3)
                assert rc == 0

    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    def test_linear_prediction_builds_no_users_by_queries_matrix(self, tmp_path, ratings_file, monkeypatch, learner):
        """Under the linear kernel eval (evaluate_ranking) and decode take the
        weights through the features: no query's kernel vector is built. A
        gaussian-kernel eval still builds the users x queries matrix, one
        cross_vector per query."""

        def no_query_vector(P, x, spec):
            raise AssertionError("a users x queries kernel matrix was built")

        monkeypatch.setattr(ranking, "cross_vector", no_query_vector)
        gaussian = ["kernel.kind=gaussian", "kernel.bandwidth=2.0"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for kernel, out in (([], str(tmp_path / "linear")), (gaussian, str(tmp_path / "gaussian"))):
                overrides = base_overrides(ratings_file, [f"learner={learner}", *kernel])
                assert run("train", overrides=overrides, out=out, seed=3) == 0
                overrides.append(f"checkpoint={out}/checkpoint.json")
                if not kernel:
                    assert run("eval", overrides=overrides, out=out, seed=3) == 0
                    assert run("decode", overrides=overrides, out=out, seed=3) == 0
                else:
                    with pytest.raises(AssertionError, match="users x queries"):
                        run("eval", overrides=overrides, out=out, seed=3)

    def test_grid_artifacts(self, tmp_path, ratings_file):
        out = str(tmp_path / "grid")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run("grid", overrides=base_overrides(ratings_file), out=out, seed=0)
        assert rc == 0
        table = json.load(open(f"{out}/grid_table.json"))
        best = json.load(open(f"{out}/best_config.json"))
        ok_means = [row["mean"] for row in table["cells"] if row["status"] == "ok"]
        assert best["validation"]["mean"] == min(ok_means)

    @pytest.mark.parametrize("learner", ["lowrank", "hs"])
    def test_grid_builds_one_problem(self, tmp_path, ratings_file, monkeypatch, learner):
        """The step search and every grid cell share the one PairTaskData the command builds."""
        built = []
        init = PairTaskData.__init__

        def counted(self, *args, **kwargs):
            built.append(len(built))
            init(self, *args, **kwargs)

        monkeypatch.setattr(PairTaskData, "__init__", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run("grid", overrides=base_overrides(ratings_file, [f"learner={learner}"]),
                     out=str(tmp_path / "grid"), seed=0)
        assert rc == 0
        assert len(built) == 1

    def test_grid_cells_record_why_the_fit_stopped(self, tmp_path, ratings_file):
        """Each low-rank cell records iters_run and stop_reason. The 2000-iteration
        cells resume from their 100-iteration siblings; every row must agree with
        a fresh fit of its cell."""
        out = str(tmp_path / "grid")
        overrides = base_overrides(ratings_file, ["grid.lambdas=[0.01, 1.0]", "grid.iters=[100, 2000]"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("grid", overrides=overrides, out=out, seed=0) == 0
            cfg = load_config(None, overrides, out, 0)
            _, features, data = _load_ranking_problem(cfg)
        reasons = {}
        for row in json.load(open(f"{out}/grid_table.json"))["cells"]:
            cell = row["config"]
            fresh = fit_cell(build_pair_task_data(data.tasks, features, data.kernel), cell)
            assert (row["iters_run"], row["stop_reason"]) == (fresh.iters_run, fresh.stop_reason)
            reasons[cell["lambda"], cell["iters"]] = row["stop_reason"]
        assert reasons == {
            (0.01, 100): "max_iters", (0.01, 2000): "max_iters",
            (1.0, 100): "max_iters", (1.0, 2000): "tol",
        }

    def test_train_fits_a_grid_cell_as_the_grid_does(self, tmp_path, ratings_file):
        """selfrank train set to a grid cell's (lambda, rank, step, iters, seed)
        writes the A and W of fit_cell on that cell, bit for bit: the same stop
        rule ends both, on tol or at max_iters."""
        overrides = base_overrides(ratings_file)
        problem = lambda: _load_ranking_problem(load_config(None, overrides, None, 3))[-1]
        reasons = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k, cell in enumerate(grid_cells(problem(), "lowrank", [0.01, 1.0], [2], iters=[100, 2000], seed=3)):
                setting = [f"train.lambda={cell['lambda']}", f"train.rank={cell['rank']}",
                           f"train.step={cell['step']!r}", f"train.iters={cell['iters']}"]
                assert run("train", overrides=overrides + setting, out=str(tmp_path / str(k)), seed=cell["seed"]) == 0
                ck = json.load(open(tmp_path / str(k) / "checkpoint.json"))
                model = fit_cell(problem(), cell)
                assert ck["iters_run"] == model.iters_run
                assert floats(ck["A"]).tobytes() == model.A.tobytes()
                assert floats(ck["W"]).tobytes() == model.W.tobytes()
                reasons.append(model.stop_reason)
        assert reasons == ["max_iters", "max_iters", "max_iters", "tol"]

    @pytest.mark.parametrize("extra, stopped_early", [(["train.lambda=1.0", "train.iters=2000"], True), ([], False)])
    def test_checkpoint_fields_independent_of_stop_reason(self, tmp_path, ratings_file, extra, stopped_early):
        out = str(tmp_path / "train")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file, extra), out=out, seed=3) == 0
        ck = json.load(open(f"{out}/checkpoint.json"))
        assert (ck["iters_run"] < ck["config"]["train.iters"]) == stopped_early
        assert sorted(ck) == [
            "A", "W", "config", "items", "iters_run", "kernel", "lambda", "learner", "pairs",
            "rank", "schema_version", "seed", "step", "task_sizes", "users",
        ]

    def test_grid_with_every_cell_failing_exits_3(self, tmp_path, ratings_file, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run(
                "grid",
                overrides=base_overrides(ratings_file, ["grid.steps=[1e6]"]),
                out=str(tmp_path / "grid"),
                seed=0,
            )
        assert rc == 3
        assert "numerical failure: every grid cell failed" in capsys.readouterr().err

    def test_synth_report(self, tmp_path):
        out = str(tmp_path / "synth")
        rc = run(
            "synth",
            overrides=[
                "synth.seeds=2",
                "synth.n=60",
                "synth.d=8",
                "synth.tasks=8",
                'synth.lambdas=[0.01]',
                "synth.ranks=[2]",
                "synth.iters=400",
            ],
            out=out,
        )
        assert rc == 0
        report = json.load(open(f"{out}/synth_report.json"))
        assert report["n_seeds"] == 2

    def test_synth_with_every_lowrank_cell_failing_exits_3(self, tmp_path, monkeypatch, capsys):
        def no_step(*args, **kwargs):
            raise NumericalError("no descending step found after 40 halvings")

        monkeypatch.setattr("selfrank.evaluation.halving_step_search", no_step)
        rc = run("synth", overrides=["synth.seeds=1", "synth.n=20"], out=str(tmp_path / "synth"))
        assert rc == 3
        assert "numerical failure: every low-rank cell failed for seed 0" in capsys.readouterr().err

    def test_verify_writes_report(self, tmp_path):
        out = str(tmp_path / "verify")
        assert run("verify", out=out) == 0
        report = json.load(open(f"{out}/verify_report.json"))
        assert report["passed"] is True
        # Every check, in order, with its threshold: none may be dropped or loosened.
        assert [(c["name"], c["threshold"]) for c in report["checks"]] == [
            ("lowrank_hand_step", 1e-12),
            ("loss_trick_factor_equivalence", 1e-08),
            ("loss_trick_weight_equivalence", 1e-08),
            ("hs_normal_equation_residual", 1e-10),
            ("monotone_descent_max_rise", 0.0),
            ("gram_balance_ratio", 0.001),
            ("variational_objective_gap", 0.01),
            ("svt_exactness", 1e-12),
            ("ista_descent_max_rise", 1e-10),
            ("fas_greedy_never_undercuts_exact", 1e-12),
            ("fas_greedy_match_shortfall", 0.1),
            ("fas_greedy_loop_equivalence", 0.0),
            ("decode_finite_oracle_mismatches", 0.0),
            ("mtl_t1_reduction", 1e-08),
            ("trace_norm_domination_violation", 1e-10),
            ("pairtask_reduced_state_equivalence", 1e-10),
            ("pairtask_hs_equivalence", 1e-08),
            ("factored_gram_product", 1e-12),
            ("streamed_initial_state", 0.0),
            ("pairtask_long_run_max_rise", 1e-12),
            ("pairtask_update_gradient_step", 1e-06),
        ]
        assert all(c["pass"] for c in report["checks"])

    def test_failed_verification_exits_4(self, tmp_path, monkeypatch, capsys):
        failing = {"name": "lowrank_hand_step", "pass": False, "value": 1.0, "threshold": 1e-12}
        monkeypatch.setattr("selfrank.cli.run_verification", lambda seed: {"checks": [failing], "passed": False})
        assert run("verify", out=str(tmp_path)) == 4
        printed = capsys.readouterr().out
        assert "[FAIL] lowrank_hand_step" in printed and "verification FAILED" in printed
        assert json.load(open(tmp_path / "verify_report.json"))["passed"] is False

    def test_determinism_byte_identical(self, tmp_path, ratings_file):
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for out in (out1, out2):
                assert run("train", overrides=base_overrides(ratings_file), out=out, seed=7) == 0
                assert run(
                    "eval",
                    overrides=base_overrides(ratings_file, [f"checkpoint={out}/checkpoint.json"]),
                    out=out,
                    seed=7,
                ) == 0
        a = open(f"{out1}/eval_report.json", "rb").read()
        b = open(f"{out2}/eval_report.json", "rb").read()
        # the embedded checkpoint paths differ; compare with them normalized
        a = a.replace(b"d1", b"dX")
        b = b.replace(b"d2", b"dX")
        assert a == b
        t1 = open(f"{out1}/objective_trace.json", "rb").read().replace(b"d1", b"dX")
        t2 = open(f"{out2}/objective_trace.json", "rb").read().replace(b"d2", b"dX")
        assert t1 == t2

    def test_every_artifact_is_one_line_of_sorted_key_json(self, tmp_path, ratings_file, monkeypatch):
        passed = {"checks": [], "passed": True}
        monkeypatch.setattr("selfrank.cli.run_verification", lambda seed: passed)
        runs = [
            ("train", base_overrides(ratings_file), "lowrank"),
            ("eval", base_overrides(ratings_file, [f"checkpoint={tmp_path}/lowrank/checkpoint.json"]), "lowrank"),
            ("decode", base_overrides(ratings_file, [f"checkpoint={tmp_path}/lowrank/checkpoint.json"]), "lowrank"),
            ("train", base_overrides(ratings_file, ["learner=hs"]), "hs"),
            ("grid", base_overrides(ratings_file), "grid"),
            ("synth", ["synth.seeds=1", "synth.n=30", "synth.iters=50"], "synth"),
            ("verify", [], "verify"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for command, overrides, out in runs:
                assert run(command, overrides=overrides, out=str(tmp_path / out)) == 0
        names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
        assert names == [
            "grid/best_config.json", "grid/grid_table.json",
            "hs/checkpoint.json", "lowrank/checkpoint.json", "lowrank/eval_report.json",
            "lowrank/objective_trace.json", "lowrank/orderings.json",
            "synth/synth_report.json", "verify/verify_report.json",
        ]
        for name in names:
            text = (tmp_path / name).read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True) + "\n", name

    def test_indented_checkpoint_loads_as_the_compact_one(self, tmp_path, ratings_file):
        """Readers ignore whitespace: an `indent=2` checkpoint gives eval and
        decode artifacts byte-identical to the compact one's."""
        out, checkpoint = str(tmp_path), tmp_path / "checkpoint.json"
        overrides = base_overrides(ratings_file, [f"checkpoint={checkpoint}"])
        artifacts = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=out) == 0
            compact = checkpoint.read_text(encoding="utf-8")
            indented = json.dumps(json.loads(compact), sort_keys=True, indent=2) + "\n"
            for text in (compact, indented):
                checkpoint.write_text(text, encoding="utf-8")
                assert run("eval", overrides=overrides, out=out) == 0
                assert run("decode", overrides=overrides, out=out) == 0
                artifacts[text] = [(tmp_path / name).read_bytes() for name in ("eval_report.json", "orderings.json")]
        assert indented.count("\n") > 1 and compact.count("\n") == 1
        assert artifacts[indented] == artifacts[compact]

    def test_failed_write_leaves_the_earlier_artifact_intact(self, tmp_path, ratings_file):
        """A checkpoint write that fails partway (here past a file-size limit)
        leaves the earlier checkpoint whole and no temporary file behind."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run("train", overrides=base_overrides(ratings_file), out=str(tmp_path)) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        src = os.path.dirname(os.path.dirname(selfrank.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", PARTIAL_WRITE_PROBE, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        assert proc.stdout.split() == [str(errno.EFBIG)]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestMain:
    """The console entry point `selfrank` installs: argparse onto run."""

    def test_flags_reach_the_artifact_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"synth.seeds": 1, "synth.n": 20, "synth.lambdas": [0.1], "synth.ranks": [2]}))
        out = str(tmp_path / "synth")
        argv = ["synth", "--config", str(config), "--set", "synth.iters=50", "--out", out, "--seed", "3"]
        assert main(argv) == 0
        cfg = json.load(open(f"{out}/synth_report.json"))["config"]
        assert (cfg["synth.seeds"], cfg["synth.n"], cfg["synth.iters"], cfg["out"], cfg["seed"]) == (1, 20, 50, out, 3)

    def test_returns_the_command_exit_status(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == 2  # no data.ratings

    def test_unknown_command_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2
        assert "invalid choice: 'explode'" in capsys.readouterr().err

    def test_module_help_exits_0(self):
        src = os.path.dirname(os.path.dirname(selfrank.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "selfrank.cli", "--help"], env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: selfrank")


def test_every_config_key_is_read(tmp_path, ratings_file, monkeypatch):
    """No option sits unread: together train (low rank and hs), eval, decode,
    grid, synth and verify read every config key on the 40-user table."""
    read = set()

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    monkeypatch.setattr("selfrank.cli.load_config", lambda *args: Recording(load_config(*args)))
    # verify reads its config in cmd_verify alone; the checks themselves take only the seed
    monkeypatch.setattr("selfrank.cli.run_verification", lambda seed: {"checks": [], "passed": True})
    out = str(tmp_path / "run")
    checkpoint = [f"checkpoint={out}/checkpoint.json"]
    synth = ["synth.seeds=1", "synth.n=20", "synth.iters=50", "synth.lambdas=[0.1]", "synth.ranks=[2]"]
    runs = [
        ("train", []), ("eval", checkpoint), ("decode", checkpoint), ("grid", []),
        ("train", ["learner=hs"]), ("synth", synth), ("verify", []),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for command, extra in runs:
            assert run(command, overrides=base_overrides(ratings_file, extra), out=out) == 0
    assert sorted(set(CONFIG_KEYS) - read) == []
