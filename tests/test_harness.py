import dataclasses
import json
import math
import os

import numpy as np
import pytest
from click.testing import CliRunner

from cldlab import (cld_core, diffkit as dk, harness, metrics, objectives as ob,
                    oracle, pairgen)
from cldlab.cli import main as cli_main
from cldlab.errors import ConfigError, NonFiniteActivation
from cldlab.objectives import EXTRAS, KINDS
from cldlab.rng import derive_seed

CSV_HEADER = ("run_id,config_hash,step,domain_id,split,loss_nats,accuracy,"
              "ci_index,penalty_value,penalty_kind,seed")


def base_doc(out, **overrides):
    doc = {
        "family": "CANON-D",
        "source": "source",
        "target": "target",
        "objective": {"kind": "ERM"},
        "model": {"widths": [4]},
        "trainer": {"optimizer": "gd", "lr": 0.5, "steps": 5,
                    "train_n": 40, "seed": 0},
        "eval": {"ci_pairs": 50},
        "pairs": {"n": 10},
        "out": str(out),
    }
    doc.update(overrides)
    return doc


def broken_family_path(tmp_path):
    """CLD2 pair whose domains disagree on the core marginal."""
    family, source, _ = cld_core.canonical_fixture("CANON-D")
    bad = cld_core.make_domain(family, "CLD2", domain_id="target",
                               p_cn=np.array([[0.35, 0.35], [0.15, 0.15]]))
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(cld_core.family_to_dict(family, [source, bad])))
    return str(path)


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = harness.config_from_dict(
            {"family": "CANON-D", "source": "source", "target": "target"})
        assert cfg.objective.kind == "ERM"
        assert cfg.model.widths == (16,)
        assert cfg.trainer.optimizer == "gd"
        assert cfg.eval.exact is True

    def test_source_list_becomes_tuple(self, tmp_path):
        cfg = harness.config_from_dict(base_doc(
            tmp_path, source=["source", "target"],
            objective={"kind": "VREX", "lambda": 1.0}))
        assert cfg.sources == ("source", "target")

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.pop("family"), "family"),
        (lambda d: d["trainer"].update(cadence=3), "trainer.cadence"),
        (lambda d: d["trainer"].update(lr=0.0), "trainer.lr"),
        (lambda d: d["trainer"].update(optimizer="lbfgs"), "trainer.optimizer"),
        (lambda d: d["trainer"].update(head_only_steps=99),
         "trainer.head_only_steps"),
        (lambda d: d["model"].update(embedding="learned"), "model.embedding"),
        (lambda d: d["eval"].update(ci_style="shuffled"), "eval.ci_style"),
        (lambda d: d.update(objective={"kind": "GROUP_DRO"}), "source"),
        (lambda d: d.update(source=["source", "target"],
                            objective={"kind": "MMD", "lambda": 1.0},
                            trainer={"data_mode": "population"}),
         "trainer.data_mode"),
        (lambda d: d["trainer"].update(batch_size=8,
                                       data_mode="population"),
         "trainer.batch_size"),
        (lambda d: d["trainer"].update(batch_size=8, optimizer="gd"),
         "trainer.batch_size"),
        (lambda d: d.update(source=["source", "target"],
                            objective={"kind": "FISHR", "lambda": 1.0},
                            trainer={"train_n": 1}),
         "trainer.train_n"),
        (lambda d: d.update(source=["source", "target"],
                            objective={"kind": "CORAL", "lambda": 1.0},
                            trainer={"optimizer": "sgd", "batch_size": 1}),
         "trainer.batch_size"),
        pytest.param(lambda d: d.update(
            source=["source", "target"],
            objective={"kind": "MMD", "lambda": 1.0},
            trainer={"optimizer": "sgd", "batch_size": 2, "train_n": 1}),
            "trainer.train_n", id="<lambda>-trainer.train_n-under-batch_size"),
    ])
    def test_invalid_configs_name_the_field(self, tmp_path, mutate, field):
        doc = base_doc(tmp_path)
        mutate(doc)
        with pytest.raises(ConfigError) as err:
            harness.config_from_dict(doc)
        assert err.value.field == field

    def test_round_trip_is_stable(self, tmp_path):
        cfg = harness.config_from_dict(base_doc(tmp_path))
        again = harness.config_from_dict(harness.config_to_dict(cfg))
        assert harness.config_to_dict(again) == harness.config_to_dict(cfg)


class TestConfigHash:
    def test_key_order_does_not_matter(self, tmp_path):
        doc = base_doc(tmp_path)
        shuffled = {k: doc[k] for k in reversed(list(doc))}
        a = harness.config_from_dict(doc)
        b = harness.config_from_dict(shuffled)
        assert harness.config_hash(a, 0) == harness.config_hash(b, 0)

    def test_stamped_seed_replaces_config_seed(self, tmp_path):
        a = harness.config_from_dict(base_doc(tmp_path))
        b = harness.config_from_dict(
            base_doc(tmp_path, trainer={"optimizer": "gd", "lr": 0.5,
                                        "steps": 5, "train_n": 40,
                                        "seed": 17}))
        assert harness.config_hash(a, 3) == harness.config_hash(b, 3)
        assert harness.config_hash(a, 3) != harness.config_hash(a, 4)

    def test_canonical_json_is_sorted_and_compact(self):
        assert harness.canonical_json({"b": 1, "a": [1, 2]}) \
            == '{"a":[1,2],"b":1}'


class TestResolve:
    def test_fixture_name(self):
        family, domains = harness.resolve_family("CANON-D")
        assert [d.domain_id for d in domains] == ["source", "target"]

    def test_json_path(self, tmp_path, canon_d):
        family, source, target = canon_d
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(
            cld_core.family_to_dict(family, [source, target])))
        loaded, domains = harness.resolve_family(str(path))
        assert np.array_equal(loaded.p_x_given_cn, family.p_x_given_cn)
        assert len(domains) == 2

    def test_missing_path(self):
        with pytest.raises(ConfigError) as err:
            harness.resolve_family("/nonexistent/family.json")
        assert err.value.field == "family"

    def test_out_dir_precedence(self, tmp_path, monkeypatch):
        env_dir, flag_dir, cfg_dir = (str(tmp_path / n) for n in "efc")
        monkeypatch.delenv("CLDLAB_OUT", raising=False)
        assert harness.resolve_out_dir(None, cfg_dir) == cfg_dir
        assert harness.resolve_out_dir(flag_dir, cfg_dir) == flag_dir
        monkeypatch.setenv("CLDLAB_OUT", env_dir)
        assert harness.resolve_out_dir(flag_dir, cfg_dir) == env_dir
        assert os.path.isdir(env_dir)


class TestRunExperiment:
    def test_artifacts_and_schema(self, tmp_path):
        cfg = harness.config_from_dict(base_doc(tmp_path / "r"))
        rec = harness.run_experiment(cfg)
        assert os.path.exists(rec.csv_path)
        assert os.path.exists(rec.summary_path)
        assert os.path.exists(rec.checkpoint_path)
        lines = open(rec.csv_path).read().splitlines()
        assert lines[0] == CSV_HEADER
        # final step writes one source row and one target row
        assert len(lines) == 3
        summary = json.load(open(rec.summary_path))
        assert summary["status"] == "ok"
        assert summary["run_id"] == rec.run_id
        splits = [r["split"] for r in rec.rows]
        assert splits == ["source", "target"]

    def test_rerun_is_byte_identical(self, tmp_path):
        # identical config document, two separate output directories
        cfg = harness.config_from_dict(base_doc(tmp_path / "c"))
        recs = [harness.run_experiment(cfg, out_dir=str(tmp_path / n))
                for n in ("a", "b")]
        assert recs[0].run_id == recs[1].run_id
        by = [{os.path.basename(p): open(p, "rb").read()
               for p in (r.csv_path, r.summary_path, r.checkpoint_path)}
              for r in recs]
        assert by[0] == by[1]

    def test_eval_every_inserts_midstream_rows(self, tmp_path):
        doc = base_doc(tmp_path, trainer={"optimizer": "gd", "lr": 0.5,
                                          "steps": 4, "train_n": 40,
                                          "seed": 0, "eval_every": 2})
        rec = harness.run_experiment(harness.config_from_dict(doc))
        steps = sorted({r["step"] for r in rec.rows})
        assert steps == [2, 4]
        assert len(rec.rows) == 4

    def test_unknown_domain(self, tmp_path):
        cfg = harness.config_from_dict(base_doc(tmp_path, target="nope"))
        with pytest.raises(ConfigError) as err:
            harness.run_experiment(cfg)
        assert err.value.field == "target"

    def test_numeric_failure_leaves_diagnostic(self, tmp_path):
        doc = base_doc(tmp_path, trainer={"optimizer": "gd", "lr": 1e200,
                                          "steps": 5, "train_n": 40,
                                          "seed": 0})
        cfg = harness.config_from_dict(doc)
        from cldlab.errors import NonFiniteActivation
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteActivation):
                harness.run_experiment(cfg)
        diags = [p for p in os.listdir(tmp_path)
                 if p.startswith("run-") and p.endswith(".json")]
        assert len(diags) == 1
        doc = json.load(open(tmp_path / diags[0]))
        assert doc["status"] == "numeric-failure"
        assert doc["error"].startswith("step 2: ")

    @pytest.mark.parametrize("head_only", [0, 5])
    def test_head_only_steps_freeze_the_extractor(self, tmp_path, head_only):
        doc = base_doc(tmp_path, trainer={"optimizer": "gd", "lr": 0.5,
                                          "steps": 5, "train_n": 40, "seed": 0,
                                          "head_only_steps": head_only})
        cfg = harness.config_from_dict(doc)
        rec = harness.run_experiment(cfg)
        trained = dk.load_checkpoint(rec.checkpoint_path)
        init = dk.init_model(4, cfg.model.widths, 2,
                             embedding=cfg.model.embedding,
                             seed=derive_seed(0, "init"))
        frozen = head_only == 5
        assert np.array_equal(trained.weights[0], init.weights[0]) == frozen
        assert np.array_equal(trained.biases[0], init.biases[0]) == frozen
        assert not np.array_equal(trained.head, init.head)


class TestVerifySuite:
    def test_canonical_family_passes(self, tmp_path):
        report, path = harness.verify_suite("CANON-D",
                                            out_dir=str(tmp_path))
        assert report.all_pass
        stored = json.load(open(path))
        assert stored["all_pass"] is True
        assert len(stored["claims"]) == len(report.claims)

    def test_incoherent_family_fails(self, tmp_path):
        report, _ = harness.verify_suite(broken_family_path(tmp_path),
                                         out_dir=str(tmp_path))
        assert not report.all_pass
        failed = {c.id for c in report.claims if c.status == "FAIL"}
        assert failed  # the shared-core guarantees are the ones that break


class TestSweep:
    def test_grid_product_rows(self, tmp_path):
        doc = base_doc(tmp_path, eval={"ci_pairs": 0})
        grid = {"trainer.lr": [0.1, 0.2], "model.widths": [[4], [6]]}
        records = harness.sweep(doc, grid, out_dir=str(tmp_path))
        assert len(records) == 4
        assert len({r.run_id for r in records}) == 4
        lines = open(tmp_path / "sweep.csv").read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            assert ",target," in line

    def test_empty_grid_is_single_run(self, tmp_path):
        records = harness.sweep(base_doc(tmp_path), {},
                                out_dir=str(tmp_path))
        assert len(records) == 1

    def test_explicit_seed_axis(self, tmp_path):
        doc = base_doc(tmp_path, eval={"ci_pairs": 0})
        records = harness.sweep(doc, {"trainer.seed": [3, 9]},
                                out_dir=str(tmp_path))
        assert [r.rows[0]["seed"] for r in records] == [3, 9]

    def test_malformed_grid(self, tmp_path):
        with pytest.raises(ConfigError):
            harness.sweep(base_doc(tmp_path), {"trainer.lr": []})

    def test_whole_grid_is_validated_before_the_first_run(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError) as err:
            harness.sweep(base_doc(out), {"objective.lambda": [0.1, -1.0]},
                          out_dir=str(out))
        assert err.value.field == "objective.lambda"
        assert not out.exists() or os.listdir(out) == []


def _files(out) -> dict:
    return {name: (out / name).read_bytes() for name in os.listdir(out)}


def _lambda_runs(tmp_path, kind, trainer, lams, **extra):
    """(sweep's files, the files of one run_experiment per lambda, and each
    side's error) for a lambda grid on one explicit seed."""
    doc = base_doc("results", objective={"kind": kind, "lambda": lams[0]},
                   trainer=trainer, **extra)
    sides = []
    for name in ("sweep", "runs"):
        out = tmp_path / name
        out.mkdir()
        error = None
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                if name == "sweep":
                    harness.sweep(doc, {"objective.lambda": lams,
                                        "trainer.seed": [trainer["seed"]]},
                                  out_dir=str(out))
                    (out / "sweep.csv").unlink()
                else:
                    for lam in lams:
                        one = json.loads(json.dumps(doc))
                        one["objective"]["lambda"] = lam
                        harness.run_experiment(harness.config_from_dict(one),
                                               out_dir=str(out))
            except Exception as exc:  # compared below
                error = (type(exc), str(exc))
        sides.append((_files(out), error))
    return sides


GROUP_TRAINERS = {
    "gd": {"optimizer": "gd", "lr": 0.3, "eval_every": 4},
    "sgd-16": {"optimizer": "sgd", "lr": 0.3, "batch_size": 16,
               "head_only_steps": 3},
    "adam": {"optimizer": "adam", "lr": 0.05, "eval_every": 5,
             "head_only_steps": 2},
}


@pytest.mark.parametrize("opt", sorted(GROUP_TRAINERS))
@pytest.mark.parametrize("kind", sorted(harness.STACKED_KINDS))
def test_lambda_group_matches_one_run_per_lambda(tmp_path, monkeypatch,
                                                 kind, opt):
    """A sweep trains its lambda values as one stack, and each run's
    files are byte for byte those of its own run_experiment."""
    stacks = []
    real = dk.stack_runs
    monkeypatch.setattr(dk, "stack_runs",
                        lambda m, r: stacks.append(r) or real(m, r))
    trainer = {"steps": 12, "train_n": 60, "seed": 3, **GROUP_TRAINERS[opt]}
    (swept, err_a), (single, err_b) = _lambda_runs(
        tmp_path, kind, trainer, [0.1, 1.0, 10.0], pairs={"n": 30})
    assert stacks == [3]
    assert err_a is None and err_b is None
    assert len(swept) == 12
    assert swept == single


# PAIR_LOGIT at 1e200 overflows a training forward; PAIR_PROB at 1e10
# trains to an infinite source loss in the final evaluation.
@pytest.mark.parametrize("kind, lam", [("PAIR_LOGIT", 1e200),
                                       ("PAIR_PROB", 1e10)])
def test_a_diverging_lambda_leaves_the_files_of_one_run_at_a_time(
        tmp_path, kind, lam):
    trainer = {"optimizer": "gd", "lr": 0.5, "steps": 5, "train_n": 40,
               "seed": 0}
    (swept, err_a), (single, err_b) = _lambda_runs(
        tmp_path, kind, trainer, [0.1, lam, 1.0])
    assert err_a is not None and err_a == err_b
    assert err_a[0] is NonFiniteActivation
    assert swept == single
    statuses = sorted(json.loads(v)["status"] for k, v in swept.items()
                      if k.startswith("run-") and k.endswith(".json"))
    assert statuses == ["numeric-failure", "ok"]


def test_a_plain_lambda_grid_is_one_paired_stack(tmp_path, monkeypatch):
    """Without trainer.seed in the grid, the runs that differ only in
    lambda share the seed, so a plain lambda grid trains as one stack; each
    other combination takes the next seed."""
    stacks = []
    real = dk.stack_runs
    monkeypatch.setattr(dk, "stack_runs",
                        lambda m, r: stacks.append(r) or real(m, r))
    doc = base_doc(tmp_path, objective={"kind": "PAIR_FEAT", "lambda": 0.1},
                   eval={"ci_pairs": 0})
    doc["trainer"]["seed"] = 7
    records = harness.sweep(doc, {"objective.lambda": [0.1, 1.0, 10.0]},
                            out_dir=str(tmp_path / "lam"))
    assert stacks == [3]
    assert [r.rows[0]["seed"] for r in records] == [7, 7, 7]
    stacks.clear()
    records = harness.sweep(doc, {"objective.lambda": [0.1, 1.0],
                                  "trainer.lr": [0.1, 0.2]},
                            out_dir=str(tmp_path / "lam-lr"))
    assert stacks == [2, 2]
    assert [(r.rows[0]["seed"], json.loads(open(
        tmp_path / "lam-lr" / f"config-{r.config_hash}.json").read())
        ["trainer"]["lr"]) for r in records] == [(7, 0.1), (8, 0.2)] * 2


@pytest.mark.parametrize("kind", ["PAIR_FEAT", "LAM"])
def test_population_pairs_are_the_exact_pair_law(tmp_path, monkeypatch, kind):
    """A population-mode pair run draws no pairs: it trains on the exact
    pair law, so pairs.n does not move its rows."""
    def refuse(*args, **kwargs):
        raise AssertionError("population mode sampled pairs")

    monkeypatch.setattr(harness, "sample_pairs", refuse)
    rows = []
    for n in (10, 500):
        doc = base_doc(tmp_path / str(n), objective={"kind": kind, "lambda": 1.0},
                       pairs={"n": n})
        doc["trainer"].update(data_mode="population", steps=20)
        rec = harness.run_experiment(harness.config_from_dict(doc))
        rows.append([[r[k] for k in ("step", "domain_id", "loss_nats", "accuracy",
                                     "ci_index", "penalty_value")]
                     for r in rec.rows])
    assert rows[0] == rows[1]


def _nodes(monkeypatch, run) -> int:
    """Graph nodes built while run() runs."""
    count = [0]
    real = dk.Node.__init__

    def counted(node, *args, **kwargs):
        count[0] += 1
        real(node, *args, **kwargs)

    monkeypatch.setattr(dk.Node, "__init__", counted)
    run()
    monkeypatch.setattr(dk.Node, "__init__", real)
    return count[0]


@pytest.mark.parametrize("kind", sorted(harness.STACKED_KINDS))
def test_a_stacked_step_builds_as_many_nodes_as_one_run(tmp_path,
                                                         monkeypatch, kind):
    """A second step of a 3-run stack adds exactly the nodes that a second
    step of one run adds."""
    def step_nodes(lams):
        counts = []
        for steps in (1, 2):
            doc = base_doc(tmp_path, objective={"kind": kind,
                                                "lambda": lams[0]},
                           eval={"ci_pairs": 0})
            doc["trainer"]["steps"] = steps
            out = tmp_path / f"{len(lams)}-{steps}"
            counts.append(_nodes(monkeypatch, lambda: harness.sweep(
                doc, {"objective.lambda": lams, "trainer.seed": [0]},
                out_dir=str(out))))
        return counts[1] - counts[0]

    one = step_nodes([0.5])
    assert one > 0
    assert step_nodes([0.1, 0.5, 2.0]) == one


class TestGenerateArtifacts:
    def test_jsonl_outputs(self, tmp_path):
        cfg = harness.config_from_dict(base_doc(tmp_path))
        paths = harness.generate_artifacts(cfg)
        names = [os.path.basename(p) for p in paths]
        assert names == ["dataset-source.jsonl", "dataset-target.jsonl",
                         "pairs-source.jsonl"]
        rows = [json.loads(l) for l in open(paths[0])]
        assert len(rows) == cfg.trainer.train_n
        for r in rows:
            assert r["x"] == 2 * r["xc"] + r["xn"]
        pair_rows = [json.loads(l) for l in open(paths[2])]
        assert len(pair_rows) == cfg.pairs.n
        for r in pair_rows:
            assert r["x_tilde"] == 2 * r["xc"] + r["xn_tilde"]


class TestCli:
    def invoke(self, *args):
        return CliRunner().invoke(cli_main, list(args))

    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_verify_passes_on_fixture(self, tmp_path):
        res = self.invoke("verify", "--family", "CANON-D",
                          "--out", str(tmp_path))
        assert res.exit_code == 0
        assert "P1: PASS" in res.output
        assert "report: " in res.output

    def test_verify_fails_on_incoherent_family(self, tmp_path):
        res = self.invoke("verify", "--family", broken_family_path(tmp_path),
                          "--out", str(tmp_path))
        assert res.exit_code == 1
        assert ": FAIL" in res.output

    @pytest.mark.parametrize("doc", [
        [],
        {"spaces": 5},
        {"spaces": {"n_core": 2, "n_noncore": 2, "n_obs": 4, "n_classes": 2},
         "p_x_given_cn": np.eye(4).reshape(2, 2, 4).tolist(),
         "p_y_given_c": [[0.5, 0.5], [0.5, 0.5]], "domains": [5]},
    ], ids=["list", "int-spaces", "int-domain"])
    def test_verify_refuses_a_malformed_family(self, tmp_path, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        res = self.invoke("verify", "--family", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert "config error: family: " in res.output

    @pytest.mark.parametrize("spaces", [{"n_core": 2.9}, {"n_obs": 4.5}])
    def test_verify_refuses_a_fractional_cardinality(self, tmp_path, canon_d,
                                                     spaces):
        doc = cld_core.family_to_dict(canon_d[0], list(canon_d[1:]))
        doc["spaces"].update(spaces)
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(doc))
        res = self.invoke("verify", "--family", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert "config error: family: " in res.output
        assert f"spaces.{next(iter(spaces))}" in res.output

    def test_verify_refuses_a_nan_probability(self, tmp_path, canon_d):
        doc = cld_core.family_to_dict(canon_d[0], list(canon_d[1:]))
        doc["p_y_given_c"][1][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))  # json writes and reads NaN
        res = self.invoke("verify", "--family", str(path), "--out", str(tmp_path))
        assert res.exit_code == 2
        assert "config error: family: " in res.output
        assert "p_y_given_c" in res.output

    def test_missing_config_is_a_usage_error(self):
        res = self.invoke("train", "--config", "/nope.json")
        assert res.exit_code == 2
        assert "config error" in res.output

    def test_train_echoes_csv(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc(tmp_path))
        res = self.invoke("train", "--config", cfgp)
        assert res.exit_code == 0
        assert res.output.splitlines()[0] == CSV_HEADER

    def test_evaluate_and_ci_index_roundtrip(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc(tmp_path))
        assert self.invoke("train", "--config", cfgp).exit_code == 0
        ckpt = [p for p in os.listdir(tmp_path)
                if p.startswith("model-")][0]
        res = self.invoke("evaluate", "--config", cfgp,
                          "--model", str(tmp_path / ckpt), "--format", "json")
        assert res.exit_code == 0
        rows = json.loads(res.output)
        assert {r["split"] for r in rows} == {"source", "target"}
        res = self.invoke("ci-index", "--config", cfgp,
                          "--model", str(tmp_path / ckpt))
        assert res.exit_code == 0
        assert res.output.splitlines()[0] \
            == "domain_id,ci_index,stderr,n_pairs,style"

    def test_evaluate_without_model_is_config_error(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc(tmp_path))
        res = self.invoke("evaluate", "--config", cfgp)
        assert res.exit_code == 2

    def test_numeric_blowup_exits_three(self, tmp_path):
        doc = base_doc(tmp_path, trainer={"optimizer": "gd", "lr": 1e200,
                                          "steps": 5, "train_n": 40,
                                          "seed": 0})
        cfgp = self.write_config(tmp_path, doc)
        with np.errstate(over="ignore", invalid="ignore"):
            res = self.invoke("train", "--config", cfgp)
        assert res.exit_code == 3

    def test_generate_lists_artifacts(self, tmp_path):
        cfgp = self.write_config(tmp_path, base_doc(tmp_path))
        res = self.invoke("generate", "--config", cfgp)
        assert res.exit_code == 0
        assert res.output.strip().splitlines()[-1].endswith("pairs-source.jsonl")

    def test_sweep_echoes_run_ids(self, tmp_path):
        doc = base_doc(tmp_path, eval={"ci_pairs": 0})
        cfgp = self.write_config(tmp_path, doc)
        gridp = tmp_path / "grid.json"
        gridp.write_text(json.dumps({"trainer.lr": [0.1, 0.2]}))
        res = self.invoke("sweep", "--config", cfgp, "--grid", str(gridp))
        assert res.exit_code == 0
        assert len(res.output.strip().splitlines()) == 2
        assert os.path.exists(tmp_path / "sweep.csv")

    @pytest.mark.parametrize("grid, field", [
        ("{\"trainer.lr\": [0.1,", "--grid"),
        ('{"trainer.lr.x": [1]}', "grid.trainer.lr.x"),
    ], ids=["invalid-json", "through-a-number"])
    def test_sweep_refuses_a_bad_grid(self, tmp_path, grid, field):
        cfgp = self.write_config(tmp_path, base_doc(tmp_path))
        gridp = tmp_path / "grid.json"
        gridp.write_text(grid)
        res = self.invoke("sweep", "--config", cfgp, "--grid", str(gridp))
        assert res.exit_code == 2
        assert f"config error: {field}" in res.output

    def test_non_finite_result_row_exits_three(self, tmp_path):
        """FISH at lambda 1 drives a target loss to inf by step 50 with
        finite logits; the run fails as a numeric failure naming the step."""
        family, domains = cld_core.random_family(7, variant="CLD2",
                                                 n_domains=3)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(cld_core.family_to_dict(family, domains)))
        doc = base_doc(tmp_path, family=str(fam), source=["d0", "d1"],
                       target="d2", objective={"kind": "FISH", "lambda": 1.0},
                       model={"widths": [16]},
                       trainer={"lr": 0.1, "steps": 50, "seed": 0})
        res = self.invoke("train", "--config", self.write_config(tmp_path, doc))
        assert res.exit_code == 3
        (summary,) = [p for p in os.listdir(tmp_path)
                      if p.startswith("run-") and p.endswith(".json")]
        got = json.loads((tmp_path / summary).read_text())
        assert got["status"] == "numeric-failure"
        assert got["error"].startswith("step 50, domain ")


def _accepted_modes(kind):
    """Every optimizer setup the validator accepts for kind."""
    modes = [{"optimizer": "gd"}, {"optimizer": "sgd", "batch_size": 8},
             {"optimizer": "sgd", "batch_size": 2}, {"optimizer": "adam"}]
    if kind not in harness.TWO_ROW_KINDS:
        modes.append({"optimizer": "adam", "batch_size": 2, "train_n": 1})
    if kind not in harness.RAW_ROW_KINDS:
        modes.append({"optimizer": "gd", "data_mode": "population"})
    return modes


GATE_CASES = [(kind, mode) for kind in KINDS
              for mode in _accepted_modes(kind)]


@pytest.mark.parametrize(
    "kind,mode", GATE_CASES,
    ids=[f"{k}-{m['optimizer']}-{m.get('batch_size', m.get('data_mode', 'full'))}"
         for k, m in GATE_CASES])
def test_every_accepted_config_runs(tmp_path, kind, mode):
    """Each kind trains a few steps under each accepted optimizer setup,
    writes finite rows and reruns byte for byte."""
    trainer = {"lr": 0.1, "steps": 3, "train_n": 40, "seed": 1, **mode}
    doc = base_doc(tmp_path, source=["source", "target"],
                   objective={"kind": kind, "lambda": 0.5},
                   trainer=trainer, eval={"ci_pairs": 20})
    cfg = harness.config_from_dict(doc)
    recs = [harness.run_experiment(cfg, out_dir=str(tmp_path / n))
            for n in ("a", "b")]
    for row in recs[0].rows:
        vals = [row[k] for k in ("loss_nats", "accuracy", "ci_index",
                                 "penalty_value")]
        assert all(np.isfinite(v) for v in vals), row
    files = [[open(p, "rb").read() for p in
              (r.csv_path, r.summary_path, r.checkpoint_path)] for r in recs]
    assert files[0] == files[1]


def test_unknown_objective_extra_names_the_key(tmp_path):
    doc = base_doc(tmp_path, objective={"kind": "RSC", "extras": {"qq": 0.2}})
    with pytest.raises(ConfigError) as err:
        harness.config_from_dict(doc)
    assert err.value.field == "objective.extras.qq"


def test_cli_evaluate_and_ci_index_reproduce_train(tmp_path):
    """With sampled evaluation, evaluate and ci-index on the checkpoint give
    the numbers train wrote in its final rows."""
    doc = base_doc(tmp_path, eval={"exact": False, "n_samples": 500,
                                   "ci_pairs": 50})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rec = harness.run_experiment(harness.config_from_dict(doc))
    res = CliRunner().invoke(cli_main, ["evaluate", "--config", str(path),
                                        "--model", rec.checkpoint_path,
                                        "--format", "json"])
    assert res.exit_code == 0, res.output
    evaluated = json.loads(res.output)
    assert [(r["domain_id"], r["loss_nats"], r["accuracy"], r["ci_index"])
            for r in evaluated] == \
        [(r["domain_id"], r["loss_nats"], r["accuracy"], r["ci_index"])
         for r in rec.rows]
    res = CliRunner().invoke(cli_main, ["ci-index", "--config", str(path),
                                        "--model", rec.checkpoint_path,
                                        "--format", "json"])
    assert res.exit_code == 0, res.output
    ci = json.loads(res.output)
    assert {d: v["value"] for d, v in ci.items()} == \
        {r["domain_id"]: r["ci_index"] for r in rec.rows}


def test_cli_ci_index_reproduces_train_under_exact_eval(tmp_path):
    """With exact evaluation, ci-index on the checkpoint prints the closed-
    form index train wrote in its final rows, with stderr 0 and n_pairs 0."""
    doc = base_doc(tmp_path, eval={"exact": True, "ci_pairs": 50})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    rec = harness.run_experiment(harness.config_from_dict(doc))
    res = CliRunner().invoke(cli_main, ["ci-index", "--config", str(path),
                                        "--model", rec.checkpoint_path,
                                        "--format", "json"])
    assert res.exit_code == 0, res.output
    ci = json.loads(res.output)
    assert {d: v["value"] for d, v in ci.items()} == \
        {r["domain_id"]: r["ci_index"] for r in rec.rows}
    assert {(v["stderr"], v["n_pairs"]) for v in ci.values()} == {(0.0, 0)}


@pytest.mark.parametrize("family, style", [("CANON-D", "marginal"),
                                           ("CANON-N", "uniform")])
def test_exact_rows_hold_the_closed_form_ci_index(tmp_path, monkeypatch,
                                                  family, style):
    """Under eval.exact every row's ci_index is exact_ci_index of the run's
    final table, bitwise: for one run_experiment and for each run of a
    3-run stacked sweep."""
    stacks = []
    real = dk.stack_runs
    monkeypatch.setattr(dk, "stack_runs",
                        lambda m, r: stacks.append(r) or real(m, r))
    doc = base_doc(tmp_path, family=family,
                   objective={"kind": "PAIR_PROB", "lambda": 0.1},
                   eval={"ci_pairs": 50, "ci_style": style})
    records = [harness.run_experiment(harness.config_from_dict(doc)),
               *harness.sweep(doc, {"objective.lambda": [0.1, 1.0, 10.0]},
                              out_dir=str(tmp_path / "sweep"))]
    assert stacks == [3]
    fam, *domains = cld_core.canonical_fixture(family)
    by_id = {d.domain_id: d for d in domains}
    for rec in records:
        table = metrics.tabulate(dk.load_checkpoint(rec.checkpoint_path), fam)
        assert len(rec.rows) == 2
        for row in rec.rows:
            assert row["ci_index"] == oracle.exact_ci_index(
                fam, by_id[row["domain_id"]], table, style)


@pytest.mark.parametrize("exact", [True, False])
def test_zero_ci_pairs_write_an_empty_index(tmp_path, exact):
    doc = base_doc(tmp_path, eval={"exact": exact, "ci_pairs": 0})
    rec = harness.run_experiment(harness.config_from_dict(doc))
    assert [r["ci_index"] for r in rec.rows] == [None, None]
    lines = open(rec.csv_path, encoding="utf-8").read().splitlines()
    col = CSV_HEADER.split(",").index("ci_index")
    assert [line.split(",")[col] for line in lines[1:]] == ["", ""]


@pytest.mark.parametrize("kind", sorted(harness.STACKED_KINDS))
def test_a_stack_evaluates_as_its_runs(tmp_path, kind):
    """One forward and one penalty build of a 3-run stack give each run's
    predictor table and penalty bitwise."""
    cfg = harness.config_from_dict(base_doc(
        tmp_path, objective={"kind": kind, "lambda": 1.0},
        trainer={"data_mode": "population"}))
    family, sources, _ = harness._resolve_domains(cfg)
    stack = dk.stack_runs(dk.init_model(family.spaces.n_obs, (4,), 2,
                                        seed=1), 3)
    rng = np.random.default_rng(4)
    for _, arr in stack.param_blocks():
        arr += rng.normal(scale=0.5, size=arr.shape)
    run = harness._RunState(cfg, 0, np.ones(3))
    run.pairs = pairgen.pair_law(family, sources[0])
    batches = harness._train_batches(family, sources, cfg, 0)
    tables = metrics._run_tables(stack, family)
    pens = harness._eval_penalty(stack, run, batches)
    assert len(tables) == len(pens) == 3
    for r in range(3):
        one = stack.run(r)
        assert np.array_equal(tables[r].p_yhat_given_x,
                              metrics.tabulate(one, family).p_yhat_given_x)
        assert [pens[r]] == harness._eval_penalty(one, run, batches)
    assert (kind == "ERM") == (pens == [0.0] * 3)


@pytest.mark.parametrize("kind", ["VREX", "GROUP_DRO", "FISH", "IGA", "IRM",
                                  "SD", "CORAL", "MMD", "AND_MASK"])
def test_a_domain_steps_lookups_do_not_grow_with_the_sources(
        tmp_path, monkeypatch, kind):
    """The domain terms read the run's weight table W on the observation
    table, so a step makes as many `obs_rows` calls with 3 sources as with
    2."""
    family, domains = cld_core.random_family(3, variant="CLD2", n_domains=4)
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps(cld_core.family_to_dict(family, domains)))
    calls = []
    real = dk.obs_rows
    monkeypatch.setattr(dk, "obs_rows",
                        lambda *a: calls.append(1) or real(*a))
    per_step = []
    for sources in (["d0", "d1"], ["d0", "d1", "d2"]):
        counts = []
        for steps in (1, 2):
            doc = base_doc(tmp_path / f"{len(sources)}-{steps}",
                           family=str(fam), source=sources, target="d3",
                           objective={"kind": kind, "lambda": 0.5},
                           trainer={"lr": 0.1, "steps": steps, "train_n": 40,
                                    "seed": 2},
                           eval={"ci_pairs": 0})
            calls.clear()
            harness.run_experiment(harness.config_from_dict(doc))
            counts.append(len(calls))
        per_step.append(counts[1] - counts[0])
    assert per_step[0] == per_step[1] >= 1


@pytest.mark.parametrize("optimizer,kind,built", [
    ("gd", "VREX", 0), ("sgd", "MIXUP", 0), ("sgd", "VREX", 1)])
def test_a_step_builds_its_weight_table_only_when_it_needs_one(
        tmp_path, monkeypatch, optimizer, kind, built):
    """A full-batch run hands its one weight table to every step; a
    minibatch step builds W from its minibatch on first read, and MIXUP,
    which never reads W, builds none."""
    calls = []
    real = ob.weight_table
    monkeypatch.setattr(ob, "weight_table",
                        lambda *a: calls.append(1) or real(*a))
    counts = []
    for steps in (1, 2):
        trainer = {"optimizer": optimizer, "lr": 0.1, "steps": steps,
                   "train_n": 40, "seed": 2}
        if optimizer == "sgd":
            trainer["batch_size"] = 8
        doc = base_doc(tmp_path / str(steps), source=["source", "target"],
                       objective={"kind": kind, "lambda": 0.5},
                       trainer=trainer, eval={"ci_pairs": 0})
        calls.clear()
        harness.run_experiment(harness.config_from_dict(doc))
        counts.append(len(calls))
    assert counts[1] - counts[0] == built


# Values of the wrong JSON type for each field annotation.
NUMBERS = ["0.5", True, False, math.nan, math.inf, -math.inf, [1]]
ILL_TYPED = {
    "int": NUMBERS + [None, 2.5],
    "int | None": NUMBERS + [2.5],
    "float": NUMBERS + [None],
    "float | None": NUMBERS,
    "bool": ["false", "true", 0, 1, None, [True]],
    "str": [5, True, None, ["gd"]],
    "tuple": [16, "16", None, True, [2.5], [True], ["16"], [math.nan]],
}
SPECS = {"model": harness.ModelSpec, "trainer": harness.TrainerSpec,
         "eval": harness.EvalSpec, "pairs": harness.PairSpec}


def _ill_typed_cases():
    """(field path, value, objective section) for every spec field, the
    objective's lambda and every extras key."""
    for section, cls in SPECS.items():
        for f in dataclasses.fields(cls):
            for value in ILL_TYPED[f.type]:
                yield f"{section}.{f.name}", value, {"kind": "ERM"}
    for value in ILL_TYPED["float"]:
        yield "objective.lambda", value, {"kind": "ERM", "lambda": value}
    for kind, extras in EXTRAS.items():
        for key, default in extras.items():
            annotation = ob._EXTRA_TYPES.get(key, type(default).__name__)
            for value in ILL_TYPED[annotation]:
                yield (f"objective.extras.{key}", value,
                       {"kind": kind, "lambda": 0.5, "extras": {key: value}})


ILL_TYPED_CASES = list(_ill_typed_cases())


@pytest.mark.parametrize("path,value,objective", ILL_TYPED_CASES,
                         ids=[f"{o['kind']}-{p}={v!r}"
                              for p, v, o in ILL_TYPED_CASES])
def test_ill_typed_values_name_the_field(tmp_path, path, value, objective):
    doc = base_doc(tmp_path, source=["source", "target"], objective=objective)
    section, _, name = path.partition(".")
    if section in SPECS:
        doc[section][name] = value
    with pytest.raises(ConfigError) as err:
        harness.config_from_dict(doc)
    assert err.value.field == path


def test_integral_numbers_are_stored_typed(tmp_path):
    doc = base_doc(tmp_path, model={"widths": [16.0, 4]},
                   objective={"kind": "SWA", "lambda": 1,
                              "extras": {"burn_in": 2.0}})
    doc["trainer"].update(optimizer="sgd", lr=1, steps=3.0, batch_size=8.0)
    cfg = harness.config_from_dict(doc)
    typed = (cfg.model.widths, cfg.trainer.lr, cfg.trainer.steps,
             cfg.trainer.batch_size, cfg.objective.lam,
             cfg.objective.extra("burn_in"))
    assert typed == ((16, 4), 1.0, 3, 8, 1.0, 2)
    assert [type(v) for v in typed] == [tuple, float, int, int, float, int]


def test_ci_reps_is_not_a_config_field(tmp_path):
    # the CI index reads the fused rows exactly, so there is nothing to redraw
    doc = base_doc(tmp_path, eval={"exact": False, "ci_reps": 4})
    with pytest.raises(ConfigError) as err:
        harness.config_from_dict(doc)
    assert err.value.field == "eval.ci_reps"


def test_unknown_objective_key_is_refused(tmp_path):
    doc = base_doc(tmp_path, source=["source", "target"],
                   objective={"kind": "VREX", "lamda": 10})
    with pytest.raises(ConfigError) as err:
        harness.config_from_dict(doc)
    assert err.value.field == "objective.lamda"


def test_cli_refuses_an_ill_typed_value(tmp_path):
    doc = base_doc(tmp_path)
    doc["trainer"]["lr"] = "fast"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    res = CliRunner().invoke(cli_main, ["train", "--config", str(path)])
    assert res.exit_code == 2
    assert "config error: trainer.lr" in res.output


def _forward_calls(monkeypatch, doc, steps, out):
    """The tapes and model kinds of every dk.forward call in one run."""
    real = dk.forward
    calls = []

    def counted(model, inputs, tape=None, **kwargs):
        calls.append((tape, "adversary" if model.embedding is None else "model"))
        return real(model, inputs, tape, **kwargs)

    monkeypatch.setattr(dk, "forward", counted)
    doc = json.loads(json.dumps(doc))
    doc["trainer"]["steps"] = steps
    harness.run_experiment(harness.config_from_dict(doc), out_dir=str(out))
    monkeypatch.setattr(dk, "forward", real)
    return calls


FORWARD_MODES = [{"optimizer": "gd"}, {"optimizer": "sgd", "batch_size": 8}]


@pytest.mark.parametrize("mode", FORWARD_MODES, ids=["gd", "sgd-8"])
@pytest.mark.parametrize("kind", KINDS)
def test_one_forward_per_step(tmp_path, monkeypatch, kind, mode):
    """A training step forwards the model once, whatever its terms, and
    each adversary that runs once: a second step adds exactly one model
    forward, and no tape (one per step and model) sees two forwards."""
    trainer = {"lr": 0.1, "train_n": 40, "seed": 2, **mode}
    doc = base_doc(tmp_path, source=["source", "target"],
                   objective={"kind": kind, "lambda": 0.5},
                   trainer=trainer, eval={"ci_pairs": 0})
    runs = [_forward_calls(monkeypatch, doc, steps, tmp_path / str(steps))
            for steps in (1, 2)]
    added = {role: sum(r == role for _, r in runs[1])
             - sum(r == role for _, r in runs[0])
             for role in ("model", "adversary")}
    assert added["model"] == 1
    n_adv = {"DANN": 1, "CDANN": 3}.get(kind, 0)  # CANON-D has 2 classes
    # a minibatch may miss a class, whose CDANN adversary then sits out
    low = 1 if kind == "CDANN" and mode["optimizer"] == "sgd" else n_adv
    assert low <= added["adversary"] <= n_adv
    for calls in runs:
        tapes = [id(t) for t, _ in calls if t is not None]
        assert len(tapes) == len(set(tapes)), "a tape saw two forwards"


@pytest.mark.parametrize("mode", FORWARD_MODES, ids=["gd", "sgd-8"])
@pytest.mark.parametrize("kind", KINDS)
def test_one_backward_per_step(tmp_path, monkeypatch, kind, mode):
    """A training step runs one backward pass for the model (none for
    AND_MASK, which masks the closed-form domain gradients) and one per
    adversary that ran: a second step adds exactly that many dk.grad_nodes
    calls, gradient penalties included."""
    trainer = {"lr": 0.1, "train_n": 40, "seed": 2, **mode}
    doc = base_doc(tmp_path, source=["source", "target"],
                   objective={"kind": kind, "lambda": 0.5},
                   trainer=trainer, eval={"ci_pairs": 0})
    real = dk.grad_nodes
    backwards = []

    def counted(root, wrt):
        backwards.append(root)
        return real(root, wrt)

    monkeypatch.setattr(dk, "grad_nodes", counted)
    runs = []
    for steps in (1, 2):
        start = len(backwards)
        calls = _forward_calls(monkeypatch, doc, steps, tmp_path / str(steps))
        runs.append((len(backwards) - start,
                     sum(r == "adversary" for _, r in calls)))
    added_adversaries = runs[1][1] - runs[0][1]
    model_backwards = 0 if kind == "AND_MASK" else 1
    assert runs[1][0] - runs[0][0] == model_backwards + added_adversaries


# Kinds whose terms read only the observation table: a step's total is one
# closed-form term on the fused forward node.
TABLE_KINDS = ["ERM", "SWA", "PAIR_PROB", "PAIR_LOGIT", "PAIR_FEAT", "LAM",
               "VREX", "GROUP_DRO", "SD", "IRM"]


@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_a_table_step_backs_up_through_the_forward_alone(tmp_path,
                                                          monkeypatch, kind):
    """A gd step's total node has as ancestors only the fused forward node
    and the parameter leaves."""
    seen = []
    real = dk.backward
    monkeypatch.setattr(dk, "backward",
                        lambda tape, node: seen.append((tape, node))
                        or real(tape, node))
    doc = base_doc(tmp_path, source=["source", "target"],
                   objective={"kind": kind, "lambda": 0.5},
                   eval={"ci_pairs": 0})
    doc["trainer"]["steps"] = 1
    harness.run_experiment(harness.config_from_dict(doc))
    [(tape, total)] = seen
    ancestors = {id(n) for n in dk._topo(total)} - {id(total)}
    assert ancestors == ({id(n) for n in tape.param_nodes}
                         | {id(tape.table._node)})
    assert set(map(id, tape.table._node.parents)) <= ancestors


@pytest.mark.parametrize("mode", ["gd", "sgd-16", "population"])
@pytest.mark.parametrize("kind", TABLE_KINDS)
def test_a_table_total_passes_finite_differences(tmp_path, kind, mode):
    """The one-node total lam * pen + base of a table kind has the
    gradient of its central differences."""
    trainer = {"data_mode": "population"} if mode == "population" else {}
    cfg = harness.config_from_dict(base_doc(
        tmp_path, source=["source", "target"],
        objective={"kind": kind, "lambda": 0.7}, trainer=trainer))
    family, sources, _ = harness._resolve_domains(cfg)
    batches = harness._train_batches(family, sources, cfg, 0)
    if mode == "sgd-16":
        rng = np.random.default_rng(3)
        batches = [harness._minibatch(b, rng, 16) for b in batches]
    model = dk.init_model(family.spaces.n_obs, (4,), family.spaces.n_classes,
                          seed=2)
    run = harness._RunState(cfg, 0, cfg.objective.lam)
    run.pairs = pairgen.pair_law(family, sources[0])

    def total(m, bs, tape):
        node, _ = harness._penalty_and_total(harness._Step(m, tape, run, bs, 1))
        assert isinstance(node, dk.Term)
        return node

    assert dk.finite_diff_check(model, batches, total, eps=1e-5) < 1e-5
