"""End-to-end tests for the command-line interface.

Each stage subcommand is exercised against real files in a tmp workdir; the
hermetic mock backends make every invocation deterministic and offline.
"""

from __future__ import annotations

import json
import re
import shlex
from collections import Counter
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_args, get_origin, is_typeddict

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from entry_dicts import read_dataset
from instructsmith import cli
from instructsmith.cli import main
from instructsmith.discriminator import default_ruleset_path
from instructsmith.embedding import read_embedding_cache
from instructsmith.exemplar_db import ExemplarDB
from instructsmith.ioutil import read_json
from instructsmith.pipeline import PipelineConfig
from instructsmith.schema import config_keys
from instructsmith.taskspec import TASK_KINDS, MixPolicy, default_task_file_path
from test_pipeline import readme_config


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


def _nested(key: str, value) -> dict:
    """A config override that sets dotted ``key`` to ``value``."""
    head, _, rest = key.partition(".")
    return {head: _nested(rest, value) if rest else value}


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


TRAIN_ROW = {"instruction": "Write it.", "input": "", "output": "def f(): pass",
             "_task": "CodeGeneration", "_source_id": "r1"}
BENCH_ITEM = {"bench_id": "b1", "canonical_solution": "def g(): pass"}


def audit_argv(command: str, train: Path, bench: Path, tmp_path: Path) -> list:
    """`audit` or `decontaminate` of ``train`` against ``bench``, writing
    under ``tmp_path``."""
    args = [command, "--train", str(train), "--bench", str(bench)]
    if command == "decontaminate":
        return args + ["--out-dir", str(tmp_path / "out"), "--n", "1", "--top-k", "1"]
    return args + ["--report", str(tmp_path / "report.json")]


def _edited(path: Path, edit) -> str:
    """The JSON text of file ``path`` after ``edit`` changed its value."""
    obj = read_json(path)
    edit(obj)
    return json.dumps(obj, indent=2)


def _set(obj: dict, **values):
    obj.update(values)


#: the pipeline functions that compute a stage's artifact
STAGE_FUNCTIONS = ("apply_filters", "embed_batch", "kcenter_greedy",
                   "assign_tasks")

#: the workdir files a run writes, less the checkpoint and the summary,
#: which hold the workdir's path and the stage timings
STAGE_ARTIFACTS = ("filtered.jsonl", "filter_report.json", "embeddings.npy",
                   "selection.json", "assignments.json", "exemplars.jsonl",
                   "quarantine.jsonl", "dataset.jsonl")


def _counting(calls: Counter, name: str, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def call(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return call


def _snapshot(workdir: Path) -> dict:
    """Each file of ``workdir``: its bytes and modification time."""
    return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in workdir.iterdir()}


def _bundle_config(tmp_path: Path, corpus: Path) -> tuple[Path, dict]:
    """A config whose task file and CodeGeneration ruleset are copies of the
    shipped ones: its path, and the copies' paths by name."""
    files = {"task_file": tmp_path / "tasks.json",
             "ruleset": tmp_path / "ruleset.json"}
    files["task_file"].write_bytes(default_task_file_path().read_bytes())
    files["ruleset"].write_bytes(
        default_ruleset_path("code_generation").read_bytes())
    config = tmp_path / "config.json"
    write_config(config, corpus, tmp_path / "work",
                 task_file=str(files["task_file"]),
                 rulesets={"CodeGeneration": str(files["ruleset"])})
    return config, files


#: test id -> (the config key naming a task or ruleset file, the file's
#: damaged text or an edit of the shipped file, the error line's text)
DAMAGED_INPUTS = {
    "task_file": ("task_file", '{"tasks": [', "not JSON"),
    "rulesets.CodeGeneration": ("rulesets.CodeGeneration", '{"tasks": [',
                                "not JSON"),
    "task-extra-not-an-object": (
        "task_file", lambda o: _set(o["tasks"][0], extra="x"),
        "tasks[0].extra must be an object, got a string"),
    "task-entry-a-string": (
        "task_file", lambda o: o["tasks"].__setitem__(1, "CodeSummarization"),
        "tasks[1] must be an object, got a string"),
    "task-requirements-a-string": (
        "task_file", lambda o: _set(o["tasks"][0], requirements="Be short"),
        "tasks[0].requirements must be a list, got a string"),
    "task-target-language-not-text": (
        "task_file", lambda o: _set(o["tasks"][2]["extra"], target_language=5),
        "tasks[2].extra.target_language must be a string, got an integer"),
    "task-kind-unknown": (
        "task_file", lambda o: _set(o["tasks"][3], kind="CodeGolf"),
        "tasks[3].kind must be one of"),
    "task-prompt-missing": (
        "task_file", lambda o: o["tasks"][0].pop("prompt"),
        "missing required key 'tasks[0].prompt'"),
    "task-key-unknown": (
        "task_file", lambda o: _set(o["tasks"][0], prompts=[]),
        "unknown key 'tasks[0].prompts'"),
    "task-file-without-tasks": (
        "task_file", lambda o: o.pop("tasks"), "missing required key 'tasks'"),
    "ruleset-rule-id-a-number": (
        "rulesets.CodeGeneration",
        lambda o: _set(o["steps"][1]["rules"][0], id=5),
        "steps[1].rules[0].id must be a string, got an integer"),
    "ruleset-step-name-missing": (
        "rulesets.CodeGeneration", lambda o: o["steps"][0].pop("name"),
        "missing required key 'steps[0].name'"),
    "ruleset-key-unknown": (
        "rulesets.CodeGeneration",
        lambda o: _set(o["steps"][0]["rules"][0], weight=1),
        "unknown key 'steps[0].rules[0].weight'"),
}

#: (workdir file, damage) -> (None to write the damage as the file's text,
#: or an edit of the file's JSON value; the error line's text)
DAMAGED_ARTIFACTS = {
    ("checkpoint.json", "[]"): (
        None, "the top level must be an object, got an array"),
    ("checkpoint.json", "{not json"): (None, "not JSON"),
    ("assignments.json", "{}"): (None, "missing required key 'seed'"),
    ("assignments.json", '{"assignment": {}}'): (
        None, "missing required key 'seed'"),
    ("filter_report.json", '{"kept_count": 3}'): (
        None, "missing required key 'input_count'"),
    ("filter_report.json", "{not json"): (None, "not JSON"),
    ("checkpoint.json", "stage-a-number"): (
        lambda o: _set(o, stage=5), "stage must be a string, got an integer"),
    ("checkpoint.json", "stage-unknown"): (
        lambda o: _set(o, stage="warp"), "stage must be one of"),
    ("checkpoint.json", "stage-missing"): (
        lambda o: o.pop("stage"), "missing required key 'stage'"),
    ("checkpoint.json", "key-unknown"): (
        lambda o: _set(o, step=1), "unknown key 'step'"),
    ("filter_report.json", "count-a-string"): (
        lambda o: _set(o, kept_count="40"),
        "kept_count must be an integer, got a string"),
    ("filter_report.json", "rejection-null"): (
        lambda o: _set(o["rejected"], empty=None),
        "rejected.empty must be an integer, got null"),
    ("filter_report.json", "key-unknown"): (
        lambda o: _set(o, dropped=0), "unknown key 'dropped'"),
    ("selection.json", "ids-a-string"): (
        lambda o: _set(o, selected_ids="r001"),
        "selected_ids must be a list, got a string"),
    ("selection.json", "k-missing"): (
        lambda o: o.pop("k"), "missing required key 'k'"),
    ("selection.json", "key-unknown"): (
        lambda o: _set(o, order=[]), "unknown key 'order'"),
    ("assignments.json", "kinds-null"): (
        lambda o: o["assignment"].update(dict.fromkeys(o["assignment"])),
        "assignment.r0"),
    ("assignments.json", "kind-unknown"): (
        lambda o: o["assignment"].update(dict.fromkeys(o["assignment"],
                                                       "CodeGolf")),
        "assignment.r0"),
    ("assignments.json", "seed-a-string"): (
        lambda o: _set(o, seed="7"), "seed must be an integer, got a string"),
    ("assignments.json", "key-unknown"): (
        lambda o: _set(o, mix={}), "unknown key 'mix'"),
}


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

    @pytest.mark.parametrize("text,damage", [
        (b'{"seed": 1, "x": "\xff"}', "not UTF-8: 'utf-8' codec"),
        (b'{"embedding_backend": {"model_name": "m\\ud800"}}',
         "not text: a lone surrogate escape"),
        (b'{"seed": ' + b"1" * 5000 + b"}", "not JSON: Exceeds the limit"),
        (b"[" * 100_000, "not JSON: maximum recursion depth")],
        ids=["not-utf8", "lone-surrogate", "huge-int", "deep-nesting"])
    def test_config_that_is_no_text_is_one_line_usage_error(self, tmp_path,
                                                            capsys, text, damage):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        assert main(["run", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bad}: {damage}" in err

    @pytest.mark.parametrize("key", list(DAMAGED_INPUTS))
    def test_damaged_task_or_ruleset_file_is_one_line_usage_error(
            self, tmp_path, corpus, capsys, key):
        config_key, damage, expected = DAMAGED_INPUTS[key]
        damaged = tmp_path / "damaged.json"
        damaged.write_text(damage if isinstance(damage, str) else _edited(
            default_task_file_path() if config_key == "task_file"
            else default_ruleset_path("code_generation"), damage),
            encoding="utf-8")
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work",
                     **_nested(config_key, str(damaged)))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{damaged}: {expected}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()  # checked before any stage

    @pytest.mark.parametrize("case,expected", [
        ("task-without-rule-set", "rulesets.CodeRepair: ruleset not found: ''"),
        ("ruleset-named-empty", "rulesets.CodeRepair: ruleset not found: ''"),
        ("ruleset-file-missing", "rulesets.CodeRepair: ruleset not found"),
        ("ruleset-a-directory", "rulesets.CodeRepair: ruleset not found"),
        ("ruleset-without-steps",
         "rulesets.CodeRepair: {path}: steps must be non-empty")],
        ids=["task-without-rule-set", "ruleset-named-empty",
             "ruleset-file-missing", "ruleset-a-directory",
             "ruleset-without-steps"])
    def test_broken_task_bundle_is_usage_error_before_any_stage(
            self, tmp_path, corpus, capsys, case, expected):
        tasks = read_json(default_task_file_path())
        task_file = tmp_path / "tasks.json"
        ruleset = tmp_path / "ruleset.json"
        ruleset.write_text('{"id": "code_repair", "steps": []}', encoding="utf-8")
        rulesets = {"ruleset-named-empty": "",
                    "ruleset-file-missing": str(tmp_path / "absent.json"),
                    "ruleset-a-directory": str(tmp_path),
                    "ruleset-without-steps": str(ruleset)}
        overrides = {"task_file": str(task_file)}
        if case == "task-without-rule-set":
            for taskdef in tasks["tasks"]:
                if taskdef["kind"] == "CodeRepair":
                    del taskdef["rule_set"]
        else:
            overrides["rulesets"] = {"CodeRepair": rulesets[case]}
        task_file.write_text(json.dumps(tasks), encoding="utf-8")
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work", **overrides)
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert expected.format(path=ruleset) in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("line,expected", [
        ('{"task": "CodeRepair"}', "missing required key 'record_id'"),
        ("[1, 2]", "the top level must be an object, got an array"),
        ('{"record_id": 7, "task": "CodeRepair", "stage": "generation", '
         '"error": "no reply", "attempts": 3}',
         "record_id must be a string, got an integer")],
        ids=["no-record-id", "an-array", "record-id-an-integer"])
    def test_damaged_quarantine_line_is_one_line_error(self, tmp_path, corpus,
                                                       capsys, line, expected):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["generate", "--config", str(config)]) == 0
        quarantine = workdir / "quarantine.jsonl"
        quarantine.write_text(json.dumps({
            "record_id": "r999", "task": "CodeRepair", "stage": "generation",
            "error": "no reply", "attempts": 3}) + "\n" + line + "\n",
            encoding="utf-8")
        capsys.readouterr()
        for argv in (["run", "--config", str(config), "--resume"],
                     ["stats", "--workdir", str(workdir)]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert f"{quarantine}:2: bad quarantine entry: {expected}" in err

    @pytest.mark.parametrize("edit,expected", [
        (lambda o: _set(o, label="Maybe"), "label must be one of"),
        (lambda o: _set(o, entry_id=5), "entry_id must be a string, got an integer"),
        (lambda o: _set(o, task_kind="CodeGolf"), "CodeGolf is not a task kind"),
        (lambda o: _set(o["instance"], instruction=7),
         "instance.instruction must be a string, got an integer"),
        (lambda o: _set(o["instance"], task_kind="CodeGolf"),
         "instance.task_kind must equal task_kind")],
        ids=["label-unknown", "entry-id-an-integer", "kind-unknown",
             "instruction-an-integer", "instance-kind-unknown"])
    def test_stats_refuses_the_log_lines_a_resume_refuses(
            self, tmp_path, corpus, capsys, edit, expected):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["generate", "--config", str(config)]) == 0
        log = workdir / "exemplars.jsonl"
        lines = log.read_text(encoding="utf-8").splitlines()
        damaged = json.loads(lines[1])
        edit(damaged)
        lines[1] = json.dumps(damaged)
        log.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for argv in (["stats", "--workdir", str(workdir)],
                     ["run", "--config", str(config), "--resume"]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert f"{log}:2: bad exemplar entry: {expected}" in err

    def test_damaged_selection_is_one_line_error(self, tmp_path, corpus,
                                                 capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["select", "--config", str(config)]) == 0
        capsys.readouterr()
        damaged = workdir / "selection.json"
        selection = {"k": 2, "seed": 0, "metric": "euclidean",
                     "selected_ids": ["r001", "r002"], "radius_trace": [1.0, 0.5]}
        for damage, expected in (
                ("{not json", "not JSON"),
                ({**selection, "selected_ids": "r001"},
                 "selected_ids must be a list, got a string"),
                ({**selection, "k": "2"}, "k must be an integer, got a string"),
                ({**selection, "radius_trace": [1.0, None]},
                 "radius_trace[1] must be a number, got null"),
                ({k: v for k, v in selection.items() if k != "seed"},
                 "missing required key 'seed'"),
                ({**selection, "ids": []}, "unknown key 'ids'"),
                ({**selection, "selected_ids": ["r001", "r999"]},
                 "selected_ids must be distinct ids of filtered records"),
                ({**selection, "selected_ids": ["r001", "r001"]},
                 "selected_ids must be distinct ids of filtered records")):
            damaged.write_text(damage if isinstance(damage, str)
                               else json.dumps(damage), encoding="utf-8")
            assert main(["assign", "--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{damaged}: {expected}" in err
            assert "Traceback" not in err
            assert not (workdir / "assignments.json").exists()

    def test_select_k_zero_is_usage_error(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work", coreset={"k": 0})
        rc = main(["select", "--config", str(config)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "coreset.k" in err
        assert not (tmp_path / "work").exists()

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

    @pytest.mark.parametrize("command", ["audit", "decontaminate"])
    @pytest.mark.parametrize("damaged", ["train", "bench"])
    def test_line_not_utf8_is_one_line_error(self, tmp_path, command, damaged,
                                             capsys):
        # a dataset line is the program's data (exit 1); a benchmark line is
        # user input (exit 2)
        row = {"instruction": "Write it.", "input": "", "output": "def f(): pass",
               "_task": "CodeGeneration", "_source_id": "r1"}
        item = {"bench_id": "b1", "canonical_solution": "def g(): pass"}
        paths = {"train": tmp_path / "train.jsonl", "bench": tmp_path / "bench.jsonl"}
        for name, obj in (("train", row), ("bench", item)):
            line = (json.dumps(obj) + "\n").encode("utf-8")
            damage = line.replace(b"(): pass", b"(): pass \xff")
            paths[name].write_bytes(line + (damage if name == damaged else b""))
        args = [command, "--train", str(paths["train"]), "--bench", str(paths["bench"])]
        if command == "decontaminate":
            args += ["--out-dir", str(tmp_path / "out")]
        else:
            args += ["--report", str(tmp_path / "report.json")]
        assert main(args) == (1 if damaged == "train" else 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{paths[damaged]}:2: not UTF-8" in err

    @pytest.mark.parametrize("command", ["audit", "decontaminate"])
    @pytest.mark.parametrize("damaged", ["train", "bench"])
    def test_lone_surrogate_is_one_line_error(self, tmp_path, command, damaged,
                                              capsys):
        # JSON allows the escape "\ud800", but no UTF-8 text holds it, so
        # the row can be neither embedded nor written
        lines = {"train": [TRAIN_ROW, dict(TRAIN_ROW, output="return '\ud800'")],
                 "bench": [BENCH_ITEM, dict(BENCH_ITEM, canonical_solution="'\udfff'")]}
        paths = {}
        for name, (good, bad) in lines.items():
            paths[name] = tmp_path / f"{name}.jsonl"
            rows = [good, bad] if name == damaged else [good]
            paths[name].write_text("".join(json.dumps(r) + "\n" for r in rows),
                                   encoding="ascii")
        args = audit_argv(command, paths["train"], paths["bench"], tmp_path)
        assert main(args) == (1 if damaged == "train" else 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"{paths[damaged]}:2: not text: a lone surrogate escape" in err

    @pytest.mark.parametrize("key,value", [
        ("output", 123), ("input", None), ("instruction", ["Write it."]),
        ("_task", None), ("_source_id", None), ("_source_id", True),
        ("_source_id", 1.0), ("_source_id", ["r1"])])
    def test_dataset_field_of_wrong_type_is_error(self, tmp_path, key, value,
                                                  capsys):
        train, bench = tmp_path / "train.jsonl", tmp_path / "bench.jsonl"
        train.write_text(json.dumps(dict(TRAIN_ROW, **{key: value})) + "\n",
                         encoding="utf-8")
        bench.write_text(json.dumps(BENCH_ITEM) + "\n", encoding="utf-8")
        assert main(audit_argv("audit", train, bench, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{train}:1: bad dataset row: {key} must" in err

    @pytest.mark.parametrize("key,value", [
        ("canonical_solution", 5), ("bench_id", None), ("bench_id", False),
        ("benchmark", ["HumanEval"])])
    def test_bench_field_of_wrong_type_is_usage_error(self, tmp_path, key,
                                                      value, capsys):
        train, bench = tmp_path / "train.jsonl", tmp_path / "bench.jsonl"
        train.write_text(json.dumps(TRAIN_ROW) + "\n", encoding="utf-8")
        bench.write_text(json.dumps(dict(BENCH_ITEM, **{key: value})) + "\n",
                         encoding="utf-8")
        assert main(audit_argv("decontaminate", train, bench, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bench}:1: bad benchmark item: {key} must" in err
        assert list((tmp_path / "out").iterdir()) == []

    def test_integer_ids_are_read_as_text(self, tmp_path, capsys):
        train, bench = tmp_path / "train.jsonl", tmp_path / "bench.jsonl"
        train.write_text(json.dumps(dict(TRAIN_ROW, _source_id=7)) + "\n",
                         encoding="utf-8")
        bench.write_text(json.dumps(dict(BENCH_ITEM, bench_id=3)) + "\n",
                         encoding="utf-8")
        assert main(audit_argv("decontaminate", train, bench, tmp_path)) == 0
        plan = read_json(tmp_path / "out" / "decontam_plan.json")
        assert plan["per_item_contributions"] == {"3": ["0:7"]}

    @pytest.mark.parametrize("argv,hint", [
        (["run", "--config", "config.json"],
         "`instructsmith run --config config.json --resume`"),
        (["stats", "--workdir", "work"], None)])
    def test_ctrl_c_is_one_line_and_130(self, monkeypatch, capsys, argv, hint):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, f"cmd_{argv[0]}", interrupted)
        assert main(argv) == 130
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith("interrupted")
        assert (hint in captured.err) if hint else "--resume" not in captured.err

    @pytest.mark.parametrize("command", ["run", *cli.STAGE_COMMANDS])
    def test_ctrl_c_hint_is_a_command_that_resumes(self, tmp_path, corpus,
                                                   monkeypatch, capsys,
                                                   command):
        config = tmp_path / "my config.json"
        write_config(config, corpus, tmp_path / "work")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.pipeline, "run", interrupted)
        assert main([command, "--config", str(config)]) == 130
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        hinted = shlex.split(err.split("`")[1])
        assert hinted[0] == "instructsmith"
        args = cli.build_parser().parse_args(hinted[1:])
        assert (args.command, args.config) == (command, str(config))
        if command == "run":
            assert args.resume
        else:  # a stage command always continues its workdir
            assert args.stage == cli.STAGE_COMMANDS[command][0]

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
            ("mix.CodeRepair", {"mix": {"CodeRepair": 10 ** 400}}),
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

    def test_select_truncated_cache_is_error(self, tmp_path, corpus, capsys):
        # a damaged workdir artifact, so exit 1
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir, coreset={"k": 3})
        assert main(["embed", "--config", str(config)]) == 0
        emb = workdir / "embeddings.npy"
        emb.write_bytes(emb.read_bytes()[:-9])
        capsys.readouterr()
        rc = main(["select", "--config", str(config)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(emb) in err
        assert not (workdir / "selection.json").exists()

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

    @pytest.mark.parametrize("key,override", [
        pytest.param(key, override, id=f"{key}={value}")
        for key, value, override in [
            (key, value, _nested(key, value)) for key, value in [
                ("target_accepted", 2.9), ("target_accepted", True),
                ("seed", "7"), ("retries.generation", 1.5),
                ("concurrency.max_in_flight", 2.5),
                ("filter.min_code_chars", 10.5), ("sampling.n_good", 1.5),
                ("generation_backend.retry.max_attempts", 2.5),
                ("discrimination_backend.retry.max_attempts", 2.5),
                ("embedding_backend.retry.max_attempts", 2.5),
                ("retries.generatoin", 1), ("concurrency.max_inflight", 2),
                ("generation_backend.endpont", "http://x"),
                ("generation_backend.role", "generation"),
                ("generation_backend.endpoint", 5),
                ("generation_backend.timeout", -5),
                ("generation_backend.timeout", True),
                ("embedding_backend.model_name", 5),
                ("sampling.same_task_only", "no"),
                ("coreset.stratify_by_language", "yes"),
                ("coreset.stratify_by_language", False),
                ("rulesets.CodeGeneration", 5), ("mix.CodeGeneration", True),
                ("rulesets.CodeGeneraton", "codegen-default"),
                ("generation_backend.extra.role", "judge"),
            ]]])
    def test_rejected_config_value_is_usage_error(self, tmp_path, corpus,
                                                  key, override, capsys):
        cfg = tmp_path / "config.json"
        write_config(cfg, corpus, tmp_path / "work", **override)
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("log", ["exemplars.jsonl", "quarantine.jsonl"])
    def test_resume_over_corrupt_log_line_is_error(self, tmp_path, corpus, log,
                                                   capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        path = workdir / log
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)[:5]
        damaged = "".join(lines) + "{garbage\n"
        path.write_text(damaged, encoding="utf-8")
        checkpoint = read_json(workdir / "checkpoint.json")
        (workdir / "checkpoint.json").write_text(
            json.dumps({**checkpoint, "stage": "assigned"}), encoding="utf-8")
        capsys.readouterr()
        for _ in range(2):  # the first resume must not append past the line
            assert main(["run", "--config", str(config), "--resume"]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"{path}:{len(lines) + 1}" in err
            assert "Traceback" not in err
            assert path.read_text(encoding="utf-8") == damaged

    @pytest.mark.parametrize("name,damaged", list(DAMAGED_ARTIFACTS))
    def test_resume_over_damaged_artifact_is_one_line(self, tmp_path, corpus,
                                                      name, damaged, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        edit, expected = DAMAGED_ARTIFACTS[name, damaged]
        path = workdir / name
        path.write_text(damaged if edit is None else _edited(path, edit),
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{path}: {expected}" in err
        assert "Traceback" not in err

    def test_stats_over_damaged_summary_is_one_line(self, tmp_path, capsys):
        workdir = tmp_path / "work"
        workdir.mkdir()
        summary = {
            "counts": {"ingested": 3, "emitted": 1},
            "realized_mix": {"CodeGeneration": {"count": 1, "percent": 100.0}},
            "stage_seconds": {"filter": 0.001},
            "dataset_path": "work/dataset.jsonl", "target_accepted": 1}
        share = summary["realized_mix"]["CodeGeneration"]
        for damage, expected in (
                ("{not json", "not JSON"), ("[" * 100_000, "not JSON"),
                ('{"counts": "\\udc00"}', "not text: a lone surrogate"),
                ({**summary, "counts": "3"}, "counts must be an object"),
                ({**summary, "realized_mix": {"CodeGeneration": {
                    **share, "count": 1.0}}},
                 "realized_mix.CodeGeneration.count must be an integer"),
                ({**summary, "realized_mix": {"CodeGeneration": {"count": 1}}},
                 "missing required key 'realized_mix.CodeGeneration.percent'"),
                ({k: v for k, v in summary.items() if k != "dataset_path"},
                 "missing required key 'dataset_path'"),
                ({**summary, "stage_seconds": {"filter": None}},
                 "stage_seconds.filter must be a number"),
                ({**summary, "stage_seconds": {"filter": 10 ** 400}},
                 "stage_seconds.filter must be a number"),
                ({**summary, "seed": 7}, "unknown key 'seed'")):
            (workdir / "summary.json").write_text(
                damage if isinstance(damage, str) else json.dumps(damage),
                encoding="utf-8")
            assert main(["stats", "--workdir", str(workdir)]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert f"{workdir / 'summary.json'}: {expected}" in err
            assert "Traceback" not in err

    def test_audit_non_json_bench_line_is_error(self, tmp_path, capsys):
        train = tmp_path / "train.jsonl"
        train.write_text(json.dumps({
            "instruction": "Write it.", "input": "", "output": "def f(): pass",
            "_task": "CodeGeneration", "_source_id": "r1"}) + "\n",
            encoding="utf-8")
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({"bench_id": "b1",
                                     "canonical_solution": "def g(): pass"})
                         + "\n{garbage\n", encoding="utf-8")
        rc = main(["audit", "--train", str(train), "--bench", str(bench),
                   "--report", str(tmp_path / "report.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{bench}:2" in err
        assert not (tmp_path / "report.json").exists()


def _leaf_keys(cls, prefix=()):
    """(JSON key path, JSON type) of every key of the config schema under
    config class ``cls``, objects included, from the parser's own walk."""
    for key, _, tp in config_keys(cls):
        path = prefix + (key,)
        if type(None) in get_args(tp):
            tp = get_args(tp)[0]
        if tp is MixPolicy:  # the JSON holds the raw weights
            tp = dict[str, float]
        if is_dataclass(tp) or is_typeddict(tp):
            yield path, dict
            yield from _leaf_keys(tp, path)
        elif get_origin(tp) is dict:
            yield path, dict
            for kind in TASK_KINDS:
                yield path + (kind,), get_args(tp)[1]
        else:
            yield path, get_origin(tp) or tp


SCHEMA = dict(_leaf_keys(PipelineConfig))

#: values of the wrong JSON type for each schema type
WRONG = {
    int: [2.5, "7", True, None, [1]],
    float: ["1.5", True, None, {}],
    str: [5, True, None, ["a"]],
    bool: ["no", 1, None],
    Path: [5, True, ["a.jsonl"]],
    dict: ["x", 5, True, ["x"]],
    list: ["abc", [5], {}],
    tuple: ["timeout", [5]],
}


def _typos(key: str) -> list[str]:
    swapped = key[1] + key[0] + key[2:] if len(key) > 1 else key
    return [key + "s", key[1:] or "x" + key, swapped]


@st.composite
def bad_override(draw):
    """(dotted key, config override) with one wrong-typed value or one
    misspelled key."""
    if draw(st.booleans()):
        path = draw(st.sampled_from(sorted(SCHEMA)))
        value = draw(st.sampled_from(WRONG[SCHEMA[path]]))
    else:
        parent = draw(st.sampled_from(
            [()] + sorted(p for p, tp in SCHEMA.items() if tp is dict)))
        siblings = {p[-1] for p in SCHEMA if p[:-1] == parent}
        name = draw(st.sampled_from(sorted(siblings)))
        typo = draw(st.sampled_from(_typos(name)))
        assume(typo not in siblings)
        path, value = parent + (typo,), 1
    key = ".".join(path)
    return key, _nested(key, value)


class TestConfigSchema:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=bad_override())
    def test_any_bad_key_or_type_is_usage_error(self, tmp_path, corpus, bad,
                                                capsys):
        key, override = bad
        cfg = tmp_path / "config.json"
        write_config(cfg, corpus, tmp_path / "work")
        cfg.write_text(json.dumps({**read_json(cfg), **override}),
                       encoding="utf-8")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "work").exists()

    def test_schema_covers_every_section(self):
        assert {path[0] for path in SCHEMA} == {
            "corpus_path", "workdir", "output_path", "filter",
            "embedding_backend", "coreset", "mix", "task_file", "rulesets",
            "generation_backend", "discrimination_backend", "exemplar_db",
            "sampling", "target_accepted", "concurrency", "retries", "seed"}
        assert SCHEMA[("concurrency", "max_in_flight")] is int
        assert SCHEMA[("generation_backend", "extra", "bad_modulus")] is int


class TestStageCommands:
    def test_ingest_normalizes(self, tmp_path, corpus, capsys):
        out = tmp_path / "ingested.jsonl"
        assert main(["ingest", "--input", str(corpus),
                     "--output", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 40
        assert out.exists()

    def test_filter_writes_report(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir, filter={"min_code_chars": 10})
        assert main(["filter", "--config", str(config)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == read_json(workdir / "checkpoint.json")
        assert payload["stage"] == "filtered"
        assert read_json(workdir / "filter_report.json")["input_count"] == 40
        assert sorted(p.name for p in workdir.iterdir()) == [
            "checkpoint.json", "filter_report.json", "filtered.jsonl"]

    def test_filter_rejects_short_code(self, tmp_path, corpus, capsys):
        # as in run, a filter that keeps nothing is an error; its report
        # is written, the checkpoint is not
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir, filter={"min_code_chars": 2000})
        assert main(["filter", "--config", str(config)]) == 1
        assert "no records survive filtering" in capsys.readouterr().err
        assert read_json(workdir / "filter_report.json")["kept_count"] == 0
        assert not (workdir / "checkpoint.json").exists()

    def test_filter_bad_bounds_is_usage_error(self, tmp_path, corpus):
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work",
                     filter={"min_code_chars": 10000})
        assert main(["filter", "--config", str(config)]) == 2
        assert not (tmp_path / "work").exists()

    def test_embed_select_assign_chain(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir,
                     coreset={"k": 10, "seed": 3}, seed=3)
        assert main(["embed", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == "embedded"
        ids, vectors = read_embedding_cache(workdir / "embeddings.npy")
        assert len(ids) == len(vectors) == 40

        assert main(["select", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == "selected"
        selection = read_json(workdir / "selection.json")
        assert len(selection["selected_ids"]) == 10
        assert selection["seed"] == 3

        assert main(["assign", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == "assigned"
        assignment = read_json(workdir / "assignments.json")
        assert set(assignment["assignment"]) == set(selection["selected_ids"])
        assert not (workdir / "exemplars.jsonl").exists()

    def test_select_cosine_metric(self, tmp_path, corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir,
                     coreset={"k": 5, "metric": "cosine_distance"})
        assert main(["select", "--config", str(config)]) == 0
        selection = read_json(workdir / "selection.json")
        assert len(selection["selected_ids"]) == 5
        assert selection["metric"] == "cosine_distance"

    def test_stage_chain_matches_run(self, tmp_path, corpus, capsys,
                                     monkeypatch):
        # each stage command continues the workdir the one before it left,
        # so the chain computes each stage once and writes run's bytes; the
        # config's seed and coreset.seed (7 and 1) are not 0, so a stage
        # that ignored them would write other bytes
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        calls = Counter()
        for name in STAGE_FUNCTIONS:
            monkeypatch.setattr(cli.pipeline, name, _counting(
                calls, name, getattr(cli.pipeline, name)))
        chain_config = tmp_path / "chain.json"
        chain = tmp_path / "chain"
        write_config(chain_config, corpus, chain)
        emitted = tmp_path / "emitted.jsonl"
        steps = [[command, "--config", str(chain_config)]
                 for command in cli.STAGE_COMMANDS]
        steps += [["run", "--config", str(chain_config), "--resume"],
                  ["emit", "--config", str(chain_config),
                   "--exemplars", str(chain / "exemplars.jsonl"),
                   "--output", str(emitted)]]
        for step in steps:
            assert main(step) == 0, step
        assert calls == dict.fromkeys(STAGE_FUNCTIONS, 1)
        for name in STAGE_ARTIFACTS:
            assert (chain / name).read_bytes() == (workdir / name).read_bytes(), name
        assert emitted.read_bytes() == (workdir / "dataset.jsonl").read_bytes()

    def test_patched_selection_is_what_generation_reads(self, tmp_path, corpus,
                                                        capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["select", "--config", str(config)]) == 0
        path = workdir / "selection.json"
        selection = read_json(path)
        dropped = selection["selected_ids"].pop(0)  # the first one generated
        path.write_text(json.dumps(selection), encoding="utf-8")
        for command in ("assign", "generate"):
            assert main([command, "--config", str(config)]) == 0, command
        assert dropped not in read_json(workdir / "assignments.json")["assignment"]
        rows = ExemplarDB.read(workdir / "exemplars.jsonl").entries()
        assert rows and dropped not in {row.source_record_id for row in rows}

    @pytest.mark.parametrize("command", list(cli.STAGE_COMMANDS))
    def test_stage_command_refuses_another_configs_workdir(
            self, tmp_path, corpus, capsys, command):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir, seed=99)
        assert main(["filter", "--config", str(config)]) == 0
        before = _snapshot(workdir)
        write_config(config, corpus, workdir)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "different config" in err
        assert _snapshot(workdir) == before

    @pytest.mark.parametrize("command", list(cli.STAGE_COMMANDS))
    def test_stage_command_past_its_stage_only_reads(self, tmp_path, corpus,
                                                     capsys, command):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["run", "--config", str(config)]) == 0
        before = _snapshot(workdir)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["stage"] == "done"
        assert _snapshot(workdir) == before

    @pytest.mark.parametrize("edited,edit", [
        ("task_file", lambda o: _set(o["tasks"][0], prompt="Write a function.")),
        ("ruleset", lambda o: _set(o["steps"][0]["rules"][0], text="It runs."))],
        ids=["task-prompt", "rule-text"])
    def test_edited_task_bundle_is_refused(self, tmp_path, corpus, capsys,
                                           edited, edit):
        # the checkpoint's fingerprint covers the parsed task bundle
        config, files = _bundle_config(tmp_path, corpus)
        assert main(["assign", "--config", str(config)]) == 0
        path = files[edited]
        path.write_text(_edited(path, edit), encoding="utf-8")
        capsys.readouterr()
        for argv in (["generate", "--config", str(config)],
                     ["run", "--config", str(config), "--resume"]):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "different config" in err

    def test_reindented_task_bundle_resumes(self, tmp_path, corpus, capsys):
        config, files = _bundle_config(tmp_path, corpus)
        assert main(["assign", "--config", str(config)]) == 0
        for path in files.values():
            path.write_text(json.dumps(read_json(path), indent=7),
                            encoding="utf-8")
        assert main(["generate", "--config", str(config)]) == 0
        assert main(["run", "--config", str(config), "--resume"]) == 0

    @pytest.mark.parametrize("flags", [["--stratify-by-language"],
                                       ["--records", "corpus.jsonl"]])
    def test_select_stratify_flags_are_gone(self, tmp_path, corpus, flags,
                                            capsys):
        # per-language selection was removed; its flags are unknown now
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work", coreset={"k": 6})
        with pytest.raises(SystemExit) as exc:
            main(["select", "--config", str(config), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("command,flags", [
        ("filter", ["--min-code-chars", "10"]),
        ("filter", ["--max-code-chars", "5000"]),
        ("select", ["--k", "6"]), ("select", ["--seed", "1"]),
        ("select", ["--metric", "cosine_distance"]),
        ("assign", ["--seed", "7"]), ("emit", ["--target", "12"]),
        ("run", ["--seed", "99"]), ("generate", ["--seed", "99"])])
    def test_flags_that_copied_a_config_key_are_gone(self, tmp_path, corpus,
                                                     command, flags, capsys):
        # a stage's settings come only from its config
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work")
        files = {"emit": ["--exemplars", str(tmp_path / "exemplars.jsonl"),
                          "--output", str(tmp_path / "out")]}
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), *files.get(command, []),
                  *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command,flag", [
        ("filter", "--input"), ("filter", "--output"), ("filter", "--report"),
        ("embed", "--input"), ("embed", "--output"),
        ("select", "--embeddings"), ("select", "--output"),
        ("assign", "--selection"), ("assign", "--output"),
        ("generate", "--resume")])
    def test_file_flags_of_stage_commands_are_gone(self, tmp_path, corpus,
                                                   command, flag, capsys):
        # a stage command reads and writes its config's workdir
        config = tmp_path / "config.json"
        write_config(config, corpus, tmp_path / "work")
        argv = [command, "--config", str(config), flag]
        if flag != "--resume":
            argv.append(str(tmp_path / "file"))
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and "Traceback" not in err
        assert sorted(tmp_path.iterdir()) == before

    def test_stats_shows_the_checkpoint_before_generation(self, tmp_path,
                                                          corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["assign", "--config", str(config)]) == 0
        printed = capsys.readouterr().out
        assert main(["stats", "--workdir", str(workdir)]) == 0
        assert capsys.readouterr().out == printed


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

    def test_corpus_line_not_utf8_is_skipped(self, tmp_path, corpus, capsys,
                                             caplog):
        clean = tmp_path / "clean.json"
        write_config(clean, corpus, tmp_path / "clean")
        assert main(["run", "--config", str(clean)]) == 0
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(corpus.read_bytes() + json.dumps({
            "id": "r999", "code": "def bad(): return '?'"}).encode().replace(
            b"'?'", b"'\xff'") + b"\n")
        config = tmp_path / "config.json"
        write_config(config, damaged, tmp_path / "work")
        with caplog.at_level("WARNING", logger="instructsmith.corpus"):
            assert main(["run", "--config", str(config)]) == 0
        assert f"{damaged}:41: skipped (not UTF-8" in caplog.text
        assert ((tmp_path / "work" / "dataset.jsonl").read_bytes()
                == (tmp_path / "clean" / "dataset.jsonl").read_bytes())

    @pytest.mark.parametrize("bad,reason", [
        ({"id": "r999", "code": "def bad():\n    return '\ud800'"},
         "not text: a lone surrogate escape"),
        ({"id": "r999", "code": ["def bad():", "    return 1"]},
         "code must be a string, got an array"),
        ({"id": "r999", "code": "def bad(): return 1", "language": 5},
         "language must be a string, got an integer"),
        ({"id": None, "code": "def bad(): return 1"},
         "id must be a string or an integer, got null")])
    def test_bad_corpus_line_is_skipped(self, tmp_path, corpus, capsys, caplog,
                                        bad, reason):
        clean = tmp_path / "clean.json"
        write_config(clean, corpus, tmp_path / "clean")
        assert main(["run", "--config", str(clean)]) == 0
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_bytes(corpus.read_bytes() + json.dumps(bad).encode() + b"\n")
        config = tmp_path / "config.json"
        write_config(config, damaged, tmp_path / "work")
        with caplog.at_level("WARNING", logger="instructsmith.corpus"):
            assert main(["run", "--config", str(config)]) == 0
        assert f"{damaged}:41: skipped ({reason})" in caplog.text
        assert ((tmp_path / "work" / "dataset.jsonl").read_bytes()
                == (tmp_path / "clean" / "dataset.jsonl").read_bytes())
        caplog.clear()
        stage = tmp_path / "stage.json"
        write_config(stage, damaged, tmp_path / "stage")
        with caplog.at_level("WARNING", logger="instructsmith.corpus"):
            assert main(["filter", "--config", str(stage)]) == 0
        assert f"{damaged}:41: skipped ({reason})" in caplog.text
        assert ((tmp_path / "stage" / "filtered.jsonl").read_bytes()
                == (tmp_path / "clean" / "filtered.jsonl").read_bytes())

    def test_run_seed_override_changes_fingerprint(self, tmp_path, corpus,
                                                   capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir, seed=99)
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        # Resuming with another seed must be refused: different config.
        write_config(config, corpus, workdir)
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
        assert payload == read_json(workdir / "checkpoint.json")
        assert payload["stage"] == "generating"
        assert len(ExemplarDB.read(workdir / "exemplars.jsonl").entries()) >= 12
        assert not (workdir / "dataset.jsonl").exists()

        out = tmp_path / "dataset.jsonl"
        assert main(["emit", "--config", str(config),
                     "--exemplars", str(workdir / "exemplars.jsonl"),
                     "--output", str(out)]) == 0
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
        out = capsys.readouterr().out
        # the summary as written, realized_mix counts still integers
        assert out == (workdir / "summary.json").read_text(encoding="utf-8")
        assert json.loads(out)["counts"]["emitted"] == 12

    def test_stats_reads_a_torn_log_without_changing_it(self, tmp_path,
                                                        corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["generate", "--config", str(config)]) == 0
        log = workdir / "exemplars.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        # a repeated entry, then 19 bytes of a torn append
        torn = b"".join(lines) + lines[0] + lines[1][:19]
        log.write_bytes(torn)
        capsys.readouterr()
        assert main(["stats", "--workdir", str(workdir)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert log.read_bytes() == torn
        repaired = tmp_path / "repaired.jsonl"
        repaired.write_bytes(torn)
        db = ExemplarDB.load(repaired)
        expected = Counter(f"{row.task_kind}/{row.label}" for row in db.entries())
        db.close()
        assert {key: n for key, n in payload["exemplars"].items() if n} == expected
        assert len(payload["exemplars"]) == 8  # zero-filled
        assert sum(expected.values()) == len(lines)

    def test_emit_reads_a_torn_log_without_changing_it(self, tmp_path,
                                                       corpus, capsys):
        config = tmp_path / "config.json"
        workdir = tmp_path / "work"
        write_config(config, corpus, workdir)
        assert main(["generate", "--config", str(config)]) == 0
        log = workdir / "exemplars.jsonl"
        torn = log.read_bytes() + b'{"entry_id": "torn'
        log.write_bytes(torn)
        repaired = tmp_path / "repaired.jsonl"
        repaired.write_bytes(torn)
        ExemplarDB.load(repaired).close()
        for source, out in ((log, "dataset.jsonl"),
                            (repaired, "dataset.repaired.jsonl")):
            assert main(["emit", "--config", str(config), "--exemplars",
                         str(source), "--output", str(tmp_path / out)]) == 0
        assert log.read_bytes() == torn
        assert len(read_dataset(tmp_path / "dataset.jsonl")) == 12
        assert ((tmp_path / "dataset.jsonl").read_bytes()
                == (tmp_path / "dataset.repaired.jsonl").read_bytes())

    def test_stats_counts_a_bare_dataset(self, tmp_path, capsys):
        workdir = tmp_path / "work"
        workdir.mkdir()
        rows = [{"instruction": f"Do {i}.", "input": "", "output": f"x = {i}",
                 "_task": kind, "_source_id": f"r{i}"}
                for i, kind in enumerate(["CodeRepair", "CodeGeneration",
                                          "CodeRepair"])]
        (workdir / "dataset.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        assert main(["stats", "--workdir", str(workdir)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "dataset_examples": 3,
            "per_task": {"CodeRepair": 2, "CodeGeneration": 1}}


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


def readme_blocks() -> list[list[list[str]]]:
    """Per shell block of the README, the arguments of each of its
    ``instructsmith`` lines, continuation lines joined."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(
        encoding="utf-8")
    return [[shlex.split(line)[1:]
             for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("instructsmith ")]
            for block in re.findall(r"```sh\n(.*?)```", readme, re.S)]


def readme_commands() -> list[list[str]]:
    return [argv for block in readme_blocks() for argv in block]


def test_readme_shows_every_stage_command():
    assert {argv[0] for argv in readme_commands()} >= {
        "filter", "embed", "select", "assign", "generate", "emit", "run",
        "stats", "audit", "decontaminate"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_parses(argv):
    # a removed or misspelt flag in the docs exits 2 here
    cli.build_parser().parse_args(argv)


def test_readme_stage_chain_writes_runs_bytes(tmp_path, monkeypatch, capsys):
    # the README's stage chain, run line by line on the quick start's config
    chain, = (block for block in readme_blocks()
              if block and block[0][0] == "filter")
    for name in ("chain", "run"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "config.json").write_text(readme_config(),
                                                     encoding="utf-8")
        write_corpus(tmp_path / name / "corpus.jsonl", n=700)
    monkeypatch.chdir(tmp_path / "chain")
    for argv in chain:
        assert main(argv) == 0, argv
    monkeypatch.chdir(tmp_path / "run")
    assert main(["run", "--config", "config.json"]) == 0
    for name in STAGE_ARTIFACTS:
        assert ((tmp_path / "chain" / "out" / name).read_bytes()
                == (tmp_path / "run" / "out" / name).read_bytes()), name
