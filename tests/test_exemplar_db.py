"""Tests for the exemplar store: inserts, seeded sampling, persistence."""

import json
import random
import threading

import pytest

from instructsmith.discriminator import DiscriminationReport, RuleVerdict
from instructsmith.errors import ConsistencyError
from instructsmith.exemplar_db import (
    ExemplarDB,
    ExemplarEntry,
    SamplingPolicy,
    make_entry,
)
from instructsmith.generator import InstructionInstance


def entry(entry_id, label="Good", task="CodeGeneration"):
    instance = InstructionInstance(
        task_name=f"Task {entry_id}",
        instruction=f"Do the thing for {entry_id} in Python.",
        information="",
        solution=f"def f_{entry_id.replace('-', '_')}():\n    return 1",
        source_record_id=f"rec-{entry_id}", task_kind=task)
    answer = "yes" if label == "Good" else "no"
    report = DiscriminationReport(
        instance_ref=instance.source_record_id,
        verdicts=[RuleVerdict("r1", answer, "checked")],
        overall=answer)
    return ExemplarEntry(entry_id=entry_id, instance=instance, report=report,
                         label=label, task_kind=task)


def filled_db(db=None):
    db = db if db is not None else ExemplarDB()
    for i in range(3):
        db.insert(entry(f"g{i}", "Good"))
    for i in range(2):
        db.insert(entry(f"b{i}", "Bad"))
    db.insert(entry("other-good", "Good", task="CodeRepair"))
    return db


class TestInsert:
    def test_first_insert_updates_stats(self):
        db = ExemplarDB()
        db.insert(entry("e1", "Good"))
        stats = db.stats()
        assert stats[("CodeGeneration", "Good")] == 1
        assert stats[("CodeGeneration", "Bad")] == 0

    def test_duplicate_id_rejected(self):
        db = ExemplarDB()
        db.insert(entry("e1"))
        with pytest.raises(ValueError, match="e1"):
            db.insert(entry("e1"))

    def test_created_seq_strictly_increasing(self):
        db = ExemplarDB()
        seqs = [db.insert(entry(f"e{i}")).created_seq for i in range(5)]
        assert seqs == sorted(set(seqs))
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_label_report_consistency_enforced(self):
        good = entry("x", "Good")
        with pytest.raises(ValueError):
            ExemplarEntry(entry_id="y", instance=good.instance,
                          report=good.report, label="Bad",
                          task_kind="CodeGeneration")

    def test_make_entry_defaults(self):
        base = entry("z", "Bad")
        built = make_entry(base.instance, base.report)
        assert built.label == "Bad"
        assert built.task_kind == "CodeGeneration"
        assert built.entry_id == "rec-z:CodeGeneration"


class TestSample:
    def test_empty_db(self):
        assert ExemplarDB().sample("CodeGeneration", SamplingPolicy(), 0) == []

    def test_one_good_one_bad_deterministic(self):
        db = filled_db()
        policy = SamplingPolicy(n_good=1, n_bad=1)
        first = db.sample("CodeGeneration", policy, seed=9)
        again = db.sample("CodeGeneration", policy, seed=9)
        assert first == again
        assert [e.label for e in first] == ["Good", "Bad"]

    def test_different_seeds_can_differ(self):
        db = filled_db()
        policy = SamplingPolicy(n_good=2, n_bad=1)
        draws = {tuple(e.entry_id for e in db.sample("CodeGeneration", policy, s))
                 for s in range(30)}
        assert len(draws) > 1

    def test_pool_exhaustion(self):
        db = filled_db()
        got = db.sample("CodeGeneration", SamplingPolicy(n_good=5, n_bad=5), 0)
        labels = [e.label for e in got]
        assert labels == ["Good"] * 3 + ["Bad"] * 2

    def test_no_bad_when_n_bad_zero(self):
        db = filled_db()
        for seed in range(20):
            got = db.sample("CodeGeneration",
                            SamplingPolicy(n_good=2, n_bad=0), seed)
            assert all(e.label == "Good" for e in got)

    def test_no_repeats_within_call(self):
        db = filled_db()
        got = db.sample("CodeGeneration", SamplingPolicy(n_good=3, n_bad=2), 4)
        ids = [e.entry_id for e in got]
        assert len(set(ids)) == len(ids)

    def test_same_task_only_filters(self):
        db = filled_db()
        got = db.sample("CodeRepair", SamplingPolicy(n_good=5, n_bad=5), 1)
        assert [e.entry_id for e in got] == ["other-good"]

    def test_cross_task_when_flag_off(self):
        db = filled_db()
        policy = SamplingPolicy(n_good=10, n_bad=0, same_task_only=False)
        got = db.sample("CodeRepair", policy, 1)
        assert len(got) == 4

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SamplingPolicy(n_good=-1)


def mixed_db(db=None, n=40):
    """n entries over two tasks and both labels, in a seeded order."""
    db = db if db is not None else ExemplarDB()
    rng = random.Random(3)
    for i in range(n):
        db.insert(entry(f"m{i}", rng.choice(["Good", "Bad"]),
                        task=rng.choice(["CodeGeneration", "CodeRepair"])))
    return db


def unbounded_sample(entries, task, policy, seed):
    """The draw without a bound: rng.sample over whole insertion-ordered
    pools, as the store sampled before it took a bound."""
    rng = random.Random(seed)

    def pool(label):
        return [e for e in entries if e.label == label
                and (e.task_kind == task or not policy.same_task_only)]

    goods, bads = pool("Good"), pool("Bad")
    return (rng.sample(goods, min(policy.n_good, len(goods)))
            + rng.sample(bads, min(policy.n_bad, len(bads))))


POLICIES = [SamplingPolicy(1, 1), SamplingPolicy(2, 3),
            SamplingPolicy(4, 0, same_task_only=False)]


class TestSampleBound:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_bound_and_full_bound_match_unbounded_draw(self, policy):
        db = mixed_db()
        for seed in range(50):
            want = unbounded_sample(db.entries(), "CodeGeneration", policy, seed)
            assert db.sample("CodeGeneration", policy, seed) == want
            assert db.sample("CodeGeneration", policy, seed,
                             before_seq=len(db)) == want

    @pytest.mark.parametrize("policy", POLICIES)
    def test_entries_at_or_past_bound_never_drawn(self, policy):
        db = mixed_db()
        entries = db.entries()
        for bound in range(len(entries) + 1):
            for seed in range(10):
                got = db.sample("CodeRepair", policy, seed, before_seq=bound)
                assert all(e.created_seq < bound for e in got)
                # later inserts do not change a bounded draw
                assert got == unbounded_sample(entries[:bound], "CodeRepair",
                                               policy, seed)

    def test_bound_survives_load(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = mixed_db(ExemplarDB.load(path))
        db.close()
        loaded = ExemplarDB.load(path)
        loaded.close()
        policy = SamplingPolicy(2, 2)
        for bound in (0, 7, 23, 40):
            for seed in range(10):
                assert ([e.entry_id for e in loaded.sample("CodeGeneration", policy,
                                                           seed, before_seq=bound)]
                        == [e.entry_id for e in db.sample("CodeGeneration", policy,
                                                          seed, before_seq=bound)])

    def test_load_rejects_out_of_order_seq(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = filled_db(ExemplarDB.load(path))
        db.close()
        lines = path.read_text().splitlines()
        first = json.loads(lines[0])
        first["created_seq"] = 9
        lines[0] = json.dumps(first)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConsistencyError, match=f"{path}:2"):
            ExemplarDB.load(path)


class TestStats:
    def test_empty_all_zeros(self):
        stats = ExemplarDB().stats()
        assert set(stats.values()) == {0}
        assert len(stats) == 8

    def test_counts_sum_to_inserts(self):
        stats = filled_db().stats()
        assert sum(stats.values()) == 6
        assert stats[("CodeGeneration", "Good")] == 3
        assert stats[("CodeGeneration", "Bad")] == 2
        assert stats[("CodeRepair", "Good")] == 1


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = filled_db(ExemplarDB.load(path))
        db.close()
        loaded = ExemplarDB.load(path)
        loaded.close()
        assert [e.entry_id for e in loaded.entries()] == [
            e.entry_id for e in db.entries()]
        assert loaded.stats() == db.stats()
        assert loaded.entries() == db.entries()

    def test_appends_continue_after_load(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = ExemplarDB.load(path)
        db.insert(entry("e0"))
        db.insert(entry("e1"))
        db.close()
        loaded = ExemplarDB.load(path)
        new = loaded.insert(entry("e2"))
        assert new.created_seq == 2
        loaded.close()
        final = ExemplarDB.load(path)
        final.close()
        assert [e.entry_id for e in final.entries()] == ["e0", "e1", "e2"]

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = ExemplarDB.load(path)
        db.insert(entry("e0"))
        db.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"entry_id": "e1", "instance"')
        loaded = ExemplarDB.load(path)
        loaded.close()
        assert [e.entry_id for e in loaded.entries()] == ["e0"]

    def test_parseable_torn_tail_dropped_and_rewritable(self, tmp_path):
        # A crash can land exactly before the newline, leaving a fragment
        # that parses; load must drop it so the entry can be redone without
        # the file ever holding a duplicate or a fused line.
        path = tmp_path / "exemplars.jsonl"
        db = ExemplarDB.load(path)
        db.insert(entry("e0"))
        db.insert(entry("e1"))
        db.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # strip the final newline only
        loaded = ExemplarDB.load(path)
        assert [e.entry_id for e in loaded.entries()] == ["e0"]
        loaded.insert(entry("e1"))
        loaded.close()
        final = ExemplarDB.load(path)
        final.close()
        assert [e.entry_id for e in final.entries()] == ["e0", "e1"]
        assert [e.created_seq for e in final.entries()] == [0, 1]

    def test_sampling_matches_memory_db(self, tmp_path):
        path = tmp_path / "exemplars.jsonl"
        db = filled_db(ExemplarDB.load(path))
        db.close()
        loaded = ExemplarDB.load(path)
        loaded.close()
        policy = SamplingPolicy(n_good=2, n_bad=1)
        for seed in range(10):
            assert ([e.entry_id for e in db.sample("CodeGeneration", policy, seed)]
                    == [e.entry_id for e in loaded.sample("CodeGeneration", policy, seed)])


def test_concurrent_readers_during_inserts():
    db = ExemplarDB()
    db.insert(entry("seed-entry"))
    errors = []

    def reader():
        try:
            for s in range(200):
                got = db.sample("CodeGeneration", SamplingPolicy(2, 2), s)
                assert len(got) >= 1
        except Exception as exc:  # surfaced to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for i in range(100):
        db.insert(entry(f"c{i}", "Good" if i % 2 == 0 else "Bad"))
    for t in threads:
        t.join()
    assert errors == []
    assert len(db) == 101
