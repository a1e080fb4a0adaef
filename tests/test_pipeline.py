"""End-to-end pipeline tests: staging, accounting, resume, determinism."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from instructsmith import pipeline
from instructsmith.emitter import read_dataset
from instructsmith.coreset import read_selection
from instructsmith.embedding import read_embedding_cache
from instructsmith.errors import BackendError, ConfigError, ConsistencyError
from instructsmith.exemplar_db import ExemplarDB
from instructsmith.hermetic import (
    canned_discrimination_backend,
    canned_generation_backend,
)
from instructsmith.llm_backend import MockChatBackend, ScriptEntry
from instructsmith.pipeline import (
    STAGES,
    CheckpointState,
    PipelineConfig,
    audit_and_plan,
    load_pipeline_config,
    run,
)
from sensitive import (
    Jitter,
    Recorder,
    exemplar_sensitive_backend,
    few_shot_section,
)


def write_corpus(path, n=60):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            code = (f"def fn_{i}(x):\n    # compute variant {i}\n"
                    f"    total = x * {i} + {i * i}\n"
                    f"    return total + len(str(x)) * {i % 7}\n")
            fh.write(json.dumps({
                "id": f"r{i:03d}", "code": code,
                "language": "Python" if i % 3 else "Java"}) + "\n")
    return path


@pytest.fixture
def corpus(tmp_path):
    return write_corpus(tmp_path / "corpus.jsonl")


def make_config(corpus_path, workdir, **overrides):
    d = {
        "corpus_path": str(corpus_path),
        "workdir": str(workdir),
        "coreset": {"k": 40, "seed": 1},
        "target_accepted": 25,
        "embedding_backend": {"kind": "mock", "dim": 16},
        "discrimination_backend": {
            "kind": "mock",
            "extra": {"role": "discrimination", "bad_modulus": 5}},
        "seed": 7,
    }
    d.update(overrides)
    return PipelineConfig.from_dict(d)


class TestConfig:
    def test_defaults(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w")
        assert config.output_path == tmp_path / "w" / "dataset.jsonl"
        assert config.exemplar_db == tmp_path / "w" / "exemplars.jsonl"
        assert config.retries == {"generation": 2, "discrimination": 2}
        assert config.max_in_flight == 1
        assert "image" in config.filter.blacklist
        assert abs(sum(config.mix.weights.values()) - 1.0) < 1e-12

    def test_unknown_key_rejected(self, corpus, tmp_path):
        for key in ("typo_key", "checkpoint_every"):
            with pytest.raises(ConfigError, match=key):
                make_config(corpus, tmp_path / "w", **{key: 1})

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="corpus_path"):
            PipelineConfig.from_dict({"workdir": "w", "coreset": {"k": 1},
                                      "target_accepted": 1})

    def test_invalid_values(self, corpus, tmp_path):
        with pytest.raises(ConfigError):
            make_config(corpus, tmp_path / "w", target_accepted=0)
        with pytest.raises(ConfigError):
            make_config(corpus, tmp_path / "w", concurrency={"max_in_flight": 0})
        with pytest.raises(ConfigError):
            make_config(corpus, tmp_path / "w", coreset={"k": 0})

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        d = {"corpus_path": "corpus.jsonl", "workdir": "work",
             "coreset": {"k": 5}, "target_accepted": 3}
        config = PipelineConfig.from_dict(d, base_dir=tmp_path / "proj")
        assert config.corpus_path == tmp_path / "proj" / "corpus.jsonl"
        assert config.workdir == tmp_path / "proj" / "work"

    def test_fingerprint_tracks_content(self, corpus, tmp_path):
        a = make_config(corpus, tmp_path / "w")
        b = make_config(corpus, tmp_path / "w")
        c = make_config(corpus, tmp_path / "w", seed=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_load_from_file(self, corpus, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "corpus_path": "corpus.jsonl", "workdir": "work",
            "coreset": {"k": 10}, "target_accepted": 5}))
        config = load_pipeline_config(cfg_path)
        assert config.corpus_path == tmp_path / "corpus.jsonl"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_pipeline_config(tmp_path / "nope.json")

    def test_load_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_pipeline_config(bad)

    def test_checkpoint_state_validation(self):
        with pytest.raises(ConsistencyError):
            CheckpointState(stage="warp")


class TestRun:
    def test_counts_and_artifacts(self, corpus, tmp_path):
        workdir = tmp_path / "work"
        summary = run(make_config(corpus, workdir))
        counts = summary.counts
        assert counts["emitted"] == counts["good"] == 25
        assert counts["good"] + counts["bad"] + counts["quarantined"] \
            == counts["generated"]
        assert counts["selected"] == 40
        for name in ("filtered.jsonl", "filter_report.json",
                     "embeddings.npy", "selection.json",
                     "assignments.json", "exemplars.jsonl",
                     "checkpoint.json", "summary.json", "dataset.jsonl"):
            assert (workdir / name).exists(), name
        assert len(read_dataset(workdir / "dataset.jsonl")) == 25
        saved = json.loads((workdir / "summary.json").read_text())
        assert saved == summary.to_dict()
        assert saved["counts"] == counts

    @pytest.mark.parametrize("n_records", [60, 2000])
    def test_checkpoint_written_once_per_stage(self, tmp_path, monkeypatch,
                                               n_records):
        corpus = write_corpus(tmp_path / "corpus.jsonl", n=n_records)
        workdir = tmp_path / "w"
        writes = []
        real_write = pipeline.atomic_write_json

        def counting_write(path, obj, **kwargs):
            if path == workdir / "checkpoint.json":
                writes.append(obj)
            real_write(path, obj, **kwargs)

        monkeypatch.setattr(pipeline, "atomic_write_json", counting_write)
        summary = run(make_config(corpus, workdir,
                                  coreset={"k": n_records, "seed": 1},
                                  target_accepted=n_records // 2))
        assert summary.counts["generated"] > n_records // 2
        # one write per stage boundary, however many records are generated
        assert [w["stage"] for w in writes] == list(STAGES)
        assert all(set(w) == {"stage", "config_fingerprint"} for w in writes)

    def test_realized_mix_reported(self, corpus, tmp_path):
        summary = run(make_config(corpus, tmp_path / "w"))
        total = sum(v["count"] for v in summary.realized_mix.values())
        assert total == summary.counts["emitted"]

    def test_fresh_run_refuses_used_workdir(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w")
        run(config)
        with pytest.raises(ConfigError, match="resume"):
            run(make_config(corpus, tmp_path / "w"))

    def test_two_fresh_runs_byte_identical(self, corpus, tmp_path):
        for width in (1, 4):
            a, b = tmp_path / f"a{width}", tmp_path / f"b{width}"
            for workdir in (a, b):
                run(make_config(corpus, workdir,
                                concurrency={"max_in_flight": width}))
            for name in ("dataset.jsonl", "exemplars.jsonl"):
                assert (a / name).read_bytes() == (b / name).read_bytes(), \
                    (width, name)

    def test_concurrency_matches_serial(self, corpus, tmp_path):
        run(make_config(corpus, tmp_path / "serial"))
        run(make_config(corpus, tmp_path / "conc",
                        concurrency={"max_in_flight": 4}))
        assert ((tmp_path / "serial" / "dataset.jsonl").read_bytes()
                == (tmp_path / "conc" / "dataset.jsonl").read_bytes())

    def test_pool_exhaustion_stops_short(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w", target_accepted=500)
        summary = run(config)
        assert summary.counts["emitted"] < 500
        assert summary.counts["emitted"] == summary.counts["good"]
        assert summary.counts["generated"] == 40

    def test_stop_leaves_remaining_unprocessed(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w", target_accepted=5)
        summary = run(config)
        assert summary.counts["good"] == 5
        assert summary.counts["generated"] < 40

    def test_after_record_called_per_record(self, corpus, tmp_path):
        seen = []
        config = make_config(corpus, tmp_path / "w", target_accepted=8)
        run(config, after_record=lambda rid, outcome: seen.append((rid, outcome)))
        assert len(seen) == len(set(r for r, _ in seen))
        outcomes = {o for _, o in seen}
        assert outcomes <= {"good", "bad", "quarantined"}
        assert sum(1 for _, o in seen if o == "good") == 8

    def test_quarantine_on_unparseable_generation(self, corpus, tmp_path):
        # first record's prompt draws garbage replies; everything else canned
        gen = MockChatBackend([
            ScriptEntry(lambda text: "fn_0" in text, "not a labeled reply",
                        times=None),
            ScriptEntry(None,
                        lambda req: canned_generation_backend().send(req).content,
                        times=None),
        ])
        config = make_config(corpus, tmp_path / "w", target_accepted=10,
                             coreset={"k": 40, "seed": 1})
        summary = run(config, generation_backend=gen,
                      discrimination_backend=canned_discrimination_backend())
        quarantine = (tmp_path / "w" / "quarantine.jsonl").read_text()
        if "r000" in {e["record_id"] for e in map(json.loads, quarantine.splitlines())}:
            assert summary.counts["quarantined"] >= 1
            for ex in read_dataset(tmp_path / "w" / "dataset.jsonl"):
                assert ex.source_record_id != "r000"
        else:
            # r000 was not among the records processed before the target hit
            assert summary.counts["quarantined"] == 0


class Boom(RuntimeError):
    pass


def crash_after(n):
    seen = {"count": 0}

    def hook(rid, outcome):
        seen["count"] += 1
        if seen["count"] >= n:
            raise Boom(f"injected crash after {n} records")
    return hook


class TestResume:
    def run_with_crashes(self, corpus, workdir, crash_points,
                         gen=None, disc=None):
        config = make_config(corpus, workdir)
        for point in crash_points:
            with pytest.raises(Boom):
                run(config, resume=workdir.joinpath("checkpoint.json").exists(),
                    generation_backend=gen or canned_generation_backend(),
                    discrimination_backend=disc or canned_discrimination_backend(bad_modulus=5),
                    after_record=crash_after(point))
        return run(config, resume=True,
                   generation_backend=gen or canned_generation_backend(),
                   discrimination_backend=disc or canned_discrimination_backend(bad_modulus=5))

    def test_resumed_run_matches_uninterrupted(self, corpus, tmp_path):
        baseline = run(make_config(corpus, tmp_path / "base"))
        resumed = self.run_with_crashes(corpus, tmp_path / "crashy", [3, 5])
        for name in ("dataset.jsonl", "exemplars.jsonl"):
            assert ((tmp_path / "base" / name).read_bytes()
                    == (tmp_path / "crashy" / name).read_bytes()), name
        assert resumed.counts == baseline.counts

    def test_no_record_generated_twice(self, corpus, tmp_path):
        gen = Recorder(canned_generation_backend())
        disc = canned_discrimination_backend(bad_modulus=5)
        self.run_with_crashes(corpus, tmp_path / "w", [4], gen=gen, disc=disc)
        prompts = [req.user_text for req in gen.transcript]
        assert len(prompts) == len(set(prompts))

    def test_crash_on_first_record(self, corpus, tmp_path):
        baseline = run(make_config(corpus, tmp_path / "base"))
        resumed = self.run_with_crashes(corpus, tmp_path / "w", [1])
        assert resumed.counts == baseline.counts

    def test_resume_done_run_is_idempotent(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w")
        first = run(config)
        before = (tmp_path / "w" / "dataset.jsonl").read_bytes()
        again = run(config, resume=True)
        assert (tmp_path / "w" / "dataset.jsonl").read_bytes() == before
        assert again.counts == first.counts

    def test_resume_with_different_config_refused(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w")
        run(config)
        changed = make_config(corpus, tmp_path / "w", seed=99)
        with pytest.raises(ConsistencyError):
            run(changed, resume=True)

    def test_resume_skips_completed_stages(self, corpus, tmp_path):
        workdir = tmp_path / "w"
        self.run_with_crashes(corpus, workdir, [2])
        # the embedding cache was produced once; resume must not regrow it
        ids, _ = read_embedding_cache(workdir / "embeddings.npy")
        assert len(ids) == len(set(ids))

    def test_old_jsonl_cache_refuses_resume(self, corpus, tmp_path):
        # a workdir from before the binary cache holds embeddings.jsonl only
        config = make_config(corpus, tmp_path / "w")
        with pytest.raises(Boom):
            run(config, after_record=crash_after(2))
        cache = tmp_path / "w" / "embeddings.npy"
        ids, vectors = read_embedding_cache(cache)
        cache.with_suffix(".jsonl").write_text("".join(
            json.dumps({"id": rid, "model": "mock-embed",
                        "vector": [float(x) for x in vec]}) + "\n"
            for rid, vec in zip(ids, vectors)), encoding="utf-8")
        cache.unlink()
        with pytest.raises(ConsistencyError, match="embeddings.npy is missing"):
            run(config, resume=True)

    def test_truncated_cache_refuses_resume(self, corpus, tmp_path):
        config = make_config(corpus, tmp_path / "w")
        with pytest.raises(Boom):
            run(config, after_record=crash_after(2))
        cache = tmp_path / "w" / "embeddings.npy"
        cache.write_bytes(cache.read_bytes()[:-7])
        with pytest.raises(ConsistencyError, match=re.escape(str(cache))):
            run(config, resume=True)

    def test_db_survives_crash_and_resume(self, corpus, tmp_path):
        self.run_with_crashes(corpus, tmp_path / "w", [3])
        db = ExemplarDB.load(tmp_path / "w" / "exemplars.jsonl")
        try:
            seqs = [e.created_seq for e in db.entries()]
        finally:
            db.close()
        assert seqs == list(range(len(seqs)))


class TestExemplarSensitive:
    """Determinism with a generation backend whose reply depends on the
    few-shot exemplars in its prompt, at max_in_flight 4."""

    def run_sensitive(self, corpus, workdir, jitter_seed, *, resume=False,
                      after_record=None):
        jitter = Jitter(jitter_seed)
        return run(make_config(corpus, workdir,
                               concurrency={"max_in_flight": 4}),
                   resume=resume,
                   generation_backend=jitter.wrap(exemplar_sensitive_backend()),
                   discrimination_backend=jitter.wrap(
                       canned_discrimination_backend(bad_modulus=5)),
                   after_record=after_record)

    def test_exemplars_change_the_replies(self, corpus, tmp_path):
        gen = Recorder(exemplar_sensitive_backend())
        run(make_config(corpus, tmp_path / "w", concurrency={"max_in_flight": 4}),
            generation_backend=gen,
            discrimination_backend=canned_discrimination_backend(bad_modulus=5))
        sections = {few_shot_section(req.user_text) for req in gen.transcript}
        assert len(sections) > 10

    def test_jitter_does_not_change_bytes(self, corpus, tmp_path):
        for seed in (1, 2):
            self.run_sensitive(corpus, tmp_path / f"j{seed}", seed)
        assert ((tmp_path / "j1" / "dataset.jsonl").read_bytes()
                == (tmp_path / "j2" / "dataset.jsonl").read_bytes())

    def test_resumed_run_matches_uninterrupted(self, corpus, tmp_path):
        baseline = self.run_sensitive(corpus, tmp_path / "base", 1)
        workdir = tmp_path / "crashy"
        for i, point in enumerate([6, 11]):
            with pytest.raises(Boom):
                self.run_sensitive(corpus, workdir, 2 + i, resume=i > 0,
                                   after_record=crash_after(point))
        resumed = self.run_sensitive(corpus, workdir, 4, resume=True)
        assert ((tmp_path / "base" / "dataset.jsonl").read_bytes()
                == (workdir / "dataset.jsonl").read_bytes())
        assert resumed.counts == baseline.counts


class Probe:
    """Wraps a chat backend: records the thread of every send and, at
    max_in_flight 1, raises ``fail_with`` on send number ``fail_at``."""

    def __init__(self, inner, fail_at=None, fail_with=None):
        self.inner = inner
        self.model_name = inner.model_name
        self.fail_at = fail_at
        self.fail_with = fail_with
        self.sends = 0
        self.threads = set()

    def send(self, request):
        self.threads.add(threading.get_ident())
        self.sends += 1
        if self.sends == self.fail_at:
            raise self.fail_with
        return self.inner.send(request)


def logged_record_ids(workdir):
    """The record ids in the exemplar log and in the quarantine log."""
    db = ExemplarDB.load(workdir / "exemplars.jsonl")
    try:
        ids = [e.instance.source_record_id for e in db.entries()]
    finally:
        db.close()
    quarantine = workdir / "quarantine.jsonl"
    if quarantine.exists():
        ids += [json.loads(line)["record_id"]
                for line in quarantine.read_text().splitlines()]
    return ids


class TestCallingThread:
    """At max_in_flight 1 the generate stage runs each record on the thread
    that called ``run``; errors surface there as they would from a pool."""

    def test_sends_run_on_the_calling_thread(self, corpus, tmp_path):
        caller = threading.get_ident()
        for width in (1, 2):
            gen = Probe(canned_generation_backend())
            disc = Probe(canned_discrimination_backend(bad_modulus=5))
            run(make_config(corpus, tmp_path / f"w{width}",
                            concurrency={"max_in_flight": width}),
                generation_backend=gen, discrimination_backend=disc)
            threads = gen.threads | disc.threads
            if width == 1:
                assert threads == {caller}
            else:
                assert threads - {caller}

    def test_backend_error_aborts_and_resume_matches(self, corpus, tmp_path):
        run(make_config(corpus, tmp_path / "base"))
        workdir = tmp_path / "w"
        config = make_config(corpus, workdir)
        error = BackendError("HTTP 400 for the fifth record")
        committed = []
        with pytest.raises(BackendError) as excinfo:
            run(config,
                generation_backend=Probe(canned_generation_backend(),
                                         fail_at=5, fail_with=error),
                discrimination_backend=canned_discrimination_backend(
                    bad_modulus=5),
                after_record=lambda rid, outcome: committed.append(rid))
        assert excinfo.value is error
        order = read_selection(workdir / "selection.json").selected_ids
        assert committed == order[:4]
        assert sorted(logged_record_ids(workdir)) == sorted(order[:4])
        run(config, resume=True)
        for name in ("dataset.jsonl", "exemplars.jsonl"):
            assert ((tmp_path / "base" / name).read_bytes()
                    == (workdir / name).read_bytes()), name

    def test_keyboard_interrupt_propagates_unwrapped(self, corpus, tmp_path):
        interrupt = KeyboardInterrupt()
        with pytest.raises(KeyboardInterrupt) as excinfo:
            run(make_config(corpus, tmp_path / "w"),
                generation_backend=Probe(canned_generation_backend(),
                                         fail_at=3, fail_with=interrupt),
                discrimination_backend=canned_discrimination_backend(
                    bad_modulus=5))
        assert excinfo.value is interrupt
        order = read_selection(tmp_path / "w" / "selection.json").selected_ids
        assert sorted(logged_record_ids(tmp_path / "w")) == sorted(order[:2])


def test_scheduler_stress_commits_in_position_order(tmp_path):
    """More threads than cores and a tiny switch interval: commits stay in
    position order, nothing is lost or duplicated, and no more than
    max_in_flight requests are ever outstanding."""
    corpus = write_corpus(tmp_path / "corpus.jsonl", n=120)
    workdir = tmp_path / "w"
    config = make_config(corpus, workdir, coreset={"k": 100, "seed": 1},
                         target_accepted=70, concurrency={"max_in_flight": 8})
    jitter = Jitter(5, max_delay_s=0.003)
    committed = []
    outcome = {}

    def target():
        try:
            outcome["summary"] = run(
                config, generation_backend=jitter.wrap(exemplar_sensitive_backend()),
                discrimination_backend=jitter.wrap(
                    canned_discrimination_backend(bad_modulus=5)),
                after_record=lambda rid, result: committed.append(rid))
        except Exception as exc:  # re-raised in the test's thread below
            outcome["error"] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "run did not finish within 120 s"
    if "error" in outcome:
        raise outcome["error"]
    summary = outcome["summary"]
    order = read_selection(workdir / "selection.json").selected_ids
    assert committed == order[:len(committed)]
    assert len(committed) == summary.counts["generated"]
    db = ExemplarDB.load(workdir / "exemplars.jsonl")
    stored = [e.instance.source_record_id for e in db.entries()]
    db.close()
    quarantine = workdir / "quarantine.jsonl"
    quarantined = [json.loads(line)["record_id"]
                   for line in quarantine.read_text().splitlines()]
    assert sorted(stored + quarantined) == sorted(committed)
    assert stored == [rid for rid in committed if rid not in set(quarantined)]
    assert 1 < jitter.peak_in_flight <= 8


class TestAuditDriver:
    def test_audit_and_plan_flow(self, corpus, tmp_path):
        workdir = tmp_path / "w"
        run(make_config(corpus, workdir, target_accepted=12))
        dataset = workdir / "dataset.jsonl"
        leaked = read_dataset(dataset)[0].output
        bench = tmp_path / "bench.jsonl"
        bench.write_text(json.dumps({
            "bench_id": "b1", "canonical_solution": leaked,
            "benchmark": "toy"}) + "\n")
        result = audit_and_plan(dataset, bench, tmp_path / "audit",
                                top_k=3, n_per_item=3)
        assert result["removed"] == 3
        assert result["remaining"] == 12 - 3
        assert (tmp_path / "audit" / "leakage_report.json").exists()
        assert (tmp_path / "audit" / "leakage_histogram.csv").exists()
        assert (tmp_path / "audit" / "decontam_plan.json").exists()
        cleaned = read_dataset(tmp_path / "audit" / "dataset.cleaned.jsonl")
        assert all(ex.output != leaked for ex in cleaned)


OFFLINE_RUN = """
import sys
import instructsmith
corpus, work, bench = sys.argv[1:]
instructsmith.run(instructsmith.PipelineConfig.from_dict({
    "corpus_path": corpus, "workdir": work, "coreset": {"k": 20, "seed": 1},
    "target_accepted": 6, "embedding_backend": {"kind": "mock", "dim": 16},
    "seed": 7}))
instructsmith.audit_and_plan(work + "/dataset.jsonl", bench, work + "/audit")
if "requests" in sys.modules:
    sys.exit("requests was imported")
"""


def test_offline_run_never_imports_requests(corpus, tmp_path):
    # requests is imported on the first HTTP send, so a mock run and an
    # audit in a fresh interpreter never load it
    bench = tmp_path / "bench.jsonl"
    bench.write_text(json.dumps({"bench_id": "b1",
                                 "canonical_solution": "def f(): pass"}) + "\n")
    src = Path(pipeline.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", OFFLINE_RUN, str(corpus), str(tmp_path / "w"),
         str(bench)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "w" / "audit" / "decontam_plan.json").exists()


def test_package_root_exports_only_the_entry_points():
    import instructsmith

    assert sorted(instructsmith.__all__) == [
        "PipelineConfig", "__version__", "audit_and_plan", "run"]
    assert instructsmith.PipelineConfig is PipelineConfig
    assert instructsmith.run is run
    assert instructsmith.audit_and_plan is audit_and_plan
    assert instructsmith.__version__ == "0.1.0"
