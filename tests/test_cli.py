import json
import warnings

import pytest

from selfrank.cli import load_config, run
from selfrank.data_io import simulate_movielens_table, write_movielens
from selfrank.errors import ConfigError


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

    def test_missing_path_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["data.ratings=/nonexistent/file"], None, None)

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
        assert ck["schema_version"] == 1
        assert ck["config"]["seed"] == 1
        assert len(ck["M"]) == sum(ck["task_sizes"]) * ck["rank"]
        assert [len(b) for b in ck["N_blocks"]] == [n * ck["rank"] for n in ck["task_sizes"]]
        assert len(ck["row_users"]) == sum(ck["task_sizes"])
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

    def test_verify_writes_report(self, tmp_path):
        out = str(tmp_path / "verify")
        assert run("verify", out=out) == 0
        report = json.load(open(f"{out}/verify_report.json"))
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert "loss_trick_factor_equivalence" in names
        assert all(c["pass"] for c in report["checks"])

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
