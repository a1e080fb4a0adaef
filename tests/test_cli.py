"""End-to-end tests for the command-line interface.

Each stage subcommand is exercised against real files in a tmp workdir; the
hermetic mock backends make every invocation deterministic and offline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from instructsmith.cli import main
from instructsmith.emitter import read_dataset
from instructsmith.ioutil import read_json


def write_corpus(path: Path, n: int = 40) -> None:
    rows = []
    for i in range(n):
        code = (f"def fn_{i}(x):\n    # compute variant {i}\n"
                f"    total = x * {i} + {i * i}\n"
                f"    return total + len(str(x)) * {i % 7}\n")
        rows.append({
            "id": f"r{i:03d}",
            "code": code,
            "language": "Python" if i % 2 else "Java",
            "source": "unit-test",
        })
    path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                    encoding="utf-8")


def write_config(path: Path, corpus: Path, workdir: Path, **overrides) -> None:
    config = {
        "corpus_path": str(corpus),
        "workdir": str(workdir),
        "coreset": {"k": 30, "seed": 1},
        "target_accepted": 12,
        "embedding_backend": {"kind": "mock", "dim": 16},
        "discrimination_backend": {
            "kind": "mock",
            "extra": {"role": "discrimination", "bad_modulus": 5},
        },
        "seed": 7,
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path)
    return path


class TestExitCodes:
    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_missing_input_file_is_operational_error(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "absent.jsonl"),
                   "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_config_json_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["run", "--config", str(bad)]) == 2

    def test_select_k_zero_is_usage_error(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.npy"
        assert main(["embed", "--input", str(corpus), "--output", str(emb)]) == 0
        capsys.readouterr()
        rc = main(["select", "--embeddings", str(emb),
                   "--output", str(tmp_path / "sel.json"), "--k", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coreset.k" in err

    @pytest.mark.parametrize("command", ["audit", "decontaminate"])
    def test_bench_line_without_id_is_usage_error(self, tmp_path, command,
                                                  capsys):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({
            "instruction": "Write it.", "input": "", "output": "def f(): pass",
            "_task": "CodeGeneration", "_source_id": "r1"}) + "\n",
            encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"canonical_solution": "def g(): pass"})
                         + "\n", encoding="utf-8")
        args = [command, "--train", str(train), "--bench", str(bench)]
        if command == "decontaminate":
            args += ["--out-dir", str(tmp_path / "out")]
        else:
            args += ["--report", str(tmp_path / "report.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bench}:1" in err and "bench_id" in err

    @pytest.mark.parametrize("command", ["audit", "decontaminate"])
    def test_dataset_line_without_task_is_error(self, tmp_path, command,
                                                capsys):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({
            "instruction": "Write it.", "input": "", "output": "def f(): pass",
            "_source_id": "r1"}) + "\n", encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"bench_id": "b1",
                                     "canonical_solution": "def g(): pass"})
                         + "\n", encoding="utf-8")
        args = [command, "--train", str(train), "--bench", str(bench)]
        if command == "decontaminate":
            args += ["--out-dir", str(tmp_path / "out")]
        else:
            args += ["--report", str(tmp_path / "report.json")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{train}:1" in err and "_task" in err

    def test_emit_missing_exemplars_is_error(self, tmp_path, capsys):
        missing = tmp_path / "absent" / "exemplars.jsonl"
        out = tmp_path / "dataset.jsonl"
        rc = main(["emit", "--exemplars", str(missing), "--output", str(out)])
        assert rc == 1
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists() and not missing.parent.exists()
        assert not out.exists()

    @pytest.mark.parametrize("flag,name", [("--n", "n_per_item"),
                                           ("--top-k", "top_k")])
    def test_decontaminate_zero_count_writes_nothing(self, tmp_path, flag,
                                                     name, capsys):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({
            "instruction": "Write it.", "input": "", "output": "def f(): pass",
            "_task": "CodeGeneration", "_source_id": "r1"}) + "\n",
            encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"bench_id": "b1",
                                     "canonical_solution": "def g(): pass"})
                         + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["decontaminate", "--train", str(train), "--bench", str(bench),
                   "--out-dir", str(out), flag, "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err
        assert list(out.iterdir()) == []

    def test_decontaminate_n_above_top_k_writes_nothing(self, tmp_path,
                                                        capsys):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({
            "instruction": "Write it.", "input": "", "output": "def f(): pass",
            "_task": "CodeGeneration", "_source_id": "r1"}) + "\n",
            encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"bench_id": "b1",
                                     "canonical_solution": "def g(): pass"})
                         + "\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["decontaminate", "--train", str(train), "--bench", str(bench),
                   "--out-dir", str(out), "--top-k", "3", "--n", "5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "n_per_item" in err and "top_k" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key,override", [
        pytest.param(key, override, id=key) for key, override in [
            ("target_accepted", {"target_accepted": "many"}),
            ("seed", {"seed": "s"}),
            ("concurrency.max_in_flight",
             {"concurrency": {"max_in_flight": "two"}}),
            ("retries.generation", {"retries": {"generation": "x"}}),
            ("mix.CodeGeneration", {"mix": {"CodeGeneration": "lots"}}),
            ("generation_backend.timeout",
             {"generation_backend": {"kind": "mock", "timeout": "x"}}),
            ("generation_backend.retry",
             {"generation_backend": {"kind": "mock",
                                     "retry": {"max_attempts": "3"}}}),
            ("discrimination_backend.retry",
             {"discrimination_backend": {"kind": "mock", "retry": "x"}}),
            ("discrimination_backend.extra.bad_modulus",
             {"discrimination_backend": {
                 "kind": "mock",
                 "extra": {"role": "discrimination", "bad_modulus": "x"}}}),
            ("generation_backend.extra.no_information_modulus",
             {"generation_backend": {
                 "kind": "mock", "extra": {"no_information_modulus": 1.5}}}),
            ("embedding_backend.dim",
             {"embedding_backend": {"kind": "mock", "dim": 2.5}}),
            ("coreset.seed", {"coreset": {"k": 30, "seed": "a"}}),
        ]])
    def test_non_numeric_config_value_is_usage_error(self, tmp_path, corpus,
                                                     key, override, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, corpus, tmp_path / "work", **override)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()


    @pytest.mark.parametrize("key,override", [
        pytest.param(key, override, id=key) for key, override in [
            ("filter", {"filter": "x"}),
            ("discrimination_backend", {"discrimination_backend": "x"}),
            ("generation_backend", {"generation_backend": "x"}),
            ("embedding_backend", {"embedding_backend": "x"}),
            ("rulesets", {"rulesets": "x"}),
            ("corpus_path", {"corpus_path": 5}),
            ("task_file", {"task_file": 5}),
            ("exemplar_db", {"exemplar_db": 5}),
            ("output_path", {"output_path": 5}),
            ("generation_backend.kind", {"generation_backend": {"kind": "bogus"}}),
            ("generation_backend.extra",
             {"generation_backend": {"kind": "mock", "extra": "x"}}),
            ("filter.blacklist", {"filter": {"blacklist": "abc"}}),
        ]])
    def test_malformed_config_value_is_usage_error(self, tmp_path, corpus,
                                                   key, override, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, corpus, tmp_path / "work", **override)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()

    def test_select_truncated_cache_is_usage_error(self, tmp_path, corpus,
                                                   capsys):
        emb = tmp_path / "emb.npy"
        assert main(["embed", "--input", str(corpus), "--output", str(emb)]) == 0
        emb.write_bytes(emb.read_bytes()[:-9])
        capsys.readouterr()
        rc = main(["select", "--embeddings", str(emb),
                   "--output", str(tmp_path / "sel.json"), "--k", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(emb) in err
        assert not (tmp_path / "sel.json").exists()

    def test_resume_old_jsonl_workdir_is_error(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        (workdir / "embeddings.npy").rename(workdir / "embeddings.jsonl")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "embeddings.npy is missing" in err


class TestStageCommands:
    def test_ingest_normalizes(self, tmp_path, corpus, capsys):
        out = tmp_path / "ingested.jsonl"
        assert main(["ingest", "--input", str(corpus),
                     "--output", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 40
        assert out.exists()

    def test_filter_writes_report(self, tmp_path, corpus, capsys):
        out = tmp_path / "filtered.jsonl"
        report = tmp_path / "report.json"
        assert main(["filter", "--input", str(corpus), "--output", str(out),
                     "--report", str(report), "--min-code-chars", "10"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["input_count"] == 40
        assert read_json(report) == payload

    def test_filter_rejects_short_code(self, tmp_path, corpus, capsys):
        out = tmp_path / "filtered.jsonl"
        assert main(["filter", "--input", str(corpus), "--output", str(out),
                     "--min-code-chars", "2000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kept_count"] == 0

    def test_filter_bad_bounds_is_usage_error(self, tmp_path, corpus):
        rc = main(["filter", "--input", str(corpus),
                   "--output", str(tmp_path / "f.jsonl"),
                   "--min-code-chars", "10000"])
        assert rc == 2

    def test_embed_select_assign_chain(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.npy"
        sel = tmp_path / "sel.json"
        asg = tmp_path / "asg.json"
        assert main(["embed", "--input", str(corpus),
                     "--output", str(emb)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["embedded"] == 40

        assert main(["select", "--embeddings", str(emb), "--output", str(sel),
                     "--k", "10", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected"] == 10
        selection = read_json(sel)
        assert len(selection["selected_ids"]) == 10
        assert selection["seed"] == 3

        assert main(["assign", "--selection", str(sel), "--output", str(asg),
                     "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["assigned"] == 10
        assignment = read_json(asg)
        assert set(assignment["assignment"]) == set(selection["selected_ids"])

    def test_select_cosine_metric(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.npy"
        sel = tmp_path / "sel.json"
        main(["embed", "--input", str(corpus), "--output", str(emb)])
        capsys.readouterr()
        assert main(["select", "--embeddings", str(emb), "--output", str(sel),
                     "--k", "5", "--metric", "cosine_distance"]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == 5
        assert read_json(sel)["metric"] == "cosine_distance"

    def test_stage_chain_matches_run(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        chain = tmp_path / "chain"
        chain.mkdir()
        steps = [
            ["filter", "--config", str(config), "--input", str(corpus),
             "--output", str(chain / "filtered.jsonl")],
            ["embed", "--config", str(config),
             "--input", str(chain / "filtered.jsonl"),
             "--output", str(chain / "embeddings.npy")],
            ["select", "--embeddings", str(chain / "embeddings.npy"),
             "--output", str(chain / "selection.json"), "--k", "30",
             "--seed", "1"],
            ["assign", "--config", str(config),
             "--selection", str(chain / "selection.json"),
             "--output", str(chain / "assignments.json"), "--seed", "7"],
            ["emit", "--exemplars", str(workdir / "exemplars.jsonl"),
             "--output", str(chain / "dataset.jsonl"), "--target", "12"],
        ]
        for step in steps:
            assert main(step) == 0, step
        capsys.readouterr()
        for name in ("filtered.jsonl", "embeddings.npy", "selection.json",
                     "assignments.json", "dataset.jsonl"):
            assert (chain / name).read_bytes() == (workdir / name).read_bytes(), name

    def test_select_stratified_needs_records(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.npy"
        main(["embed", "--input", str(corpus), "--output", str(emb)])
        capsys.readouterr()
        rc = main(["select", "--embeddings", str(emb),
                   "--output", str(tmp_path / "sel.json"),
                   "--k", "6", "--stratify-by-language"])
        assert rc == 2

    def test_select_stratified_with_records(self, tmp_path, corpus, capsys):
        emb = tmp_path / "emb.npy"
        sel = tmp_path / "sel.json"
        main(["embed", "--input", str(corpus), "--output", str(emb)])
        capsys.readouterr()
        assert main(["select", "--embeddings", str(emb), "--output", str(sel),
                     "--k", "6", "--stratify-by-language",
                     "--records", str(corpus)]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == 6


class TestRunCommand:
    def test_run_writes_dataset_and_summary(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"]["emitted"] == 12
        assert summary["counts"]["good"] == 12
        dataset = read_dataset(workdir / "dataset.jsonl")
        assert len(dataset) == 12

    def test_run_seed_override_changes_fingerprint(self, tmp_path, corpus,
                                                   capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config), "--seed", "99"]) == 0
        capsys.readouterr()
        # Resuming with the original seed must be refused: different config.
        rc = main(["run", "--config", str(config), "--resume"])
        assert rc == 1
        assert "different config" in capsys.readouterr().err

    def test_run_refuses_existing_workdir_without_resume(self, tmp_path,
                                                         corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        rc = main(["run", "--config", str(config)])
        assert rc == 2
        assert "resume" in capsys.readouterr().err

    def test_generate_then_emit(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["generate", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exemplars"] >= 12
        assert not (workdir / "dataset.jsonl").exists()

        out = tmp_path / "dataset.jsonl"
        assert main(["emit", "--exemplars", str(workdir / "exemplars.jsonl"),
                     "--output", str(out), "--target", "12"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 12
        assert len(read_dataset(out)) == 12

    def test_stats_before_and_after(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["stats", "--workdir", str(workdir)]) == 1
        capsys.readouterr()

        assert main(["generate", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["stats", "--workdir", str(workdir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "exemplars" in payload

        assert main(["run", "--config", str(config), "--resume"]) == 0
        capsys.readouterr()
        assert main(["stats", "--workdir", str(workdir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["emitted"] == 12


class TestAuditCommands:
    @pytest.fixture
    def dataset(self, tmp_path, corpus):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        return workdir / "dataset.jsonl"

    @pytest.fixture
    def bench(self, tmp_path, dataset):
        leak = read_dataset(dataset)[0].output
        path = tmp_path / "bench.jsonl"
        rows = [
            {"bench_id": "b0", "canonical_solution": leak,
             "benchmark": "unit"},
            {"bench_id": "b1", "canonical_solution": "unrelated bench text",
             "benchmark": "unit"},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                        encoding="utf-8")
        return path

    def test_audit_writes_report(self, tmp_path, dataset, bench, capsys):
        capsys.readouterr()
        report_path = tmp_path / "leakage.json"
        assert main(["audit", "--train", str(dataset), "--bench", str(bench),
                     "--top-k", "3", "--report", str(report_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench_items"] == 2
        report = read_json(report_path)
        top1 = report["per_item"][0]["neighbors"][0]["similarity"]
        assert top1 >= 0.999
        assert report_path.with_suffix(".csv").exists()

    def test_decontaminate_removes_leak(self, tmp_path, dataset, bench,
                                        capsys):
        capsys.readouterr()
        out_dir = tmp_path / "decon"
        assert main(["decontaminate", "--train", str(dataset),
                     "--bench", str(bench), "--out-dir", str(out_dir),
                     "--n", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["removed"] == 2
        leak = read_dataset(dataset)[0].output
        cleaned = read_dataset(out_dir / "dataset.cleaned.jsonl")
        assert all(ex.output != leak for ex in cleaned)
