"""Tests for the leakage audit: oracle exactness, planting, plans, IO."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instructsmith import decontam
from instructsmith.decontam import (
    BenchmarkItem,
    DecontamPlan,
    ItemNeighbors,
    LeakageReport,
    Neighbor,
    apply_plan,
    audit,
    plan_removal,
    read_benchmark_file,
    top1_histogram,
    top_k_indices,
    write_histogram_csv,
    write_leakage_report,
)
from instructsmith.embedding import EmbeddingBackendConfig, mock_vector
from instructsmith.errors import ConfigError
from vector_oracles import cosine_similarity

CONFIG = EmbeddingBackendConfig(kind="mock", model_name="mock-embed", dim=32)


def bench(i, text=None, name="minibench"):
    return BenchmarkItem(bench_id=f"bench-{i}",
                         canonical_solution=text or f"def solve_{i}():\n    return {i}",
                         benchmark_name=name)


def train_set(n, prefix="train"):
    return [(f"{prefix}-{i}", f"def helper_{i}(x):\n    return x + {i}")
            for i in range(n)]


def naive_neighbors(train, bench_items, top_k):
    """Per-pair cosine via the scalar helper; ties break to earlier rows."""
    out = {}
    for item in bench_items:
        bv = mock_vector(item.canonical_solution, CONFIG.model_name, CONFIG.dim)
        scored = []
        for idx, (tid, text) in enumerate(train):
            tv = mock_vector(text, CONFIG.model_name, CONFIG.dim)
            scored.append((-cosine_similarity(bv, tv), idx, tid))
        scored.sort()
        out[item.bench_id] = [(tid, -neg) for neg, _, tid in scored[:top_k]]
    return out


class TestAudit:
    def test_exact_copy_is_top1_with_unit_similarity(self):
        leak_text = "def leaked():\n    return 42"
        train = train_set(20) + [("copy-0", leak_text)]
        report = audit(train, [bench(0, leak_text)], CONFIG, top_k=3)
        top = report.per_item[0].neighbors[0]
        assert top.train_id == "copy-0"
        assert top.similarity == pytest.approx(1.0, abs=1e-6)

    def test_top_k_truncates_to_train_size(self):
        report = audit(train_set(2), [bench(0)], CONFIG, top_k=10)
        assert len(report.per_item[0].neighbors) == 2

    def test_four_point_instance_matches_hand_computation(self):
        train = [("t-a", "alpha code"), ("t-b", "beta code")]
        items = [bench(0, "gamma code"), bench(1, "delta code")]
        report = audit(train, items, CONFIG, top_k=2)
        expected = naive_neighbors(train, items, top_k=2)
        for item in report.per_item:
            got = [(n.train_id, n.similarity) for n in item.neighbors]
            want = expected[item.bench_id]
            assert [tid for tid, _ in got] == [tid for tid, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, abs=1e-9)

    def test_matches_naive_oracle_at_moderate_scale(self):
        train = train_set(120)
        items = [bench(i) for i in range(15)]
        report = audit(train, items, CONFIG, top_k=5)
        expected = naive_neighbors(train, items, top_k=5)
        for item in report.per_item:
            want = expected[item.bench_id]
            assert [n.train_id for n in item.neighbors] == [t for t, _ in want]
            for n, (_, ws) in zip(item.neighbors, want):
                assert n.similarity == pytest.approx(ws, abs=1e-9)
        want_avg = sum(expected[i.bench_id][0][1] for i in items) / len(items)
        assert report.average_top1 == pytest.approx(want_avg, abs=1e-9)

    def test_neighbors_sorted_descending(self):
        report = audit(train_set(30), [bench(i) for i in range(5)], CONFIG,
                       top_k=10)
        for item in report.per_item:
            sims = [n.similarity for n in item.neighbors]
            assert sims == sorted(sims, reverse=True)

    def test_deterministic_across_runs(self):
        train = train_set(25)
        items = [bench(i) for i in range(4)]
        assert (audit(train, items, CONFIG).to_dict()
                == audit(train, items, CONFIG).to_dict())

    def test_argument_errors(self):
        with pytest.raises(ConfigError):
            audit([], [bench(0)], CONFIG)
        with pytest.raises(ConfigError):
            audit(train_set(3), [], CONFIG)
        with pytest.raises(ConfigError):
            audit(train_set(3), [bench(0)], CONFIG, top_k=0)

    def test_duplicate_train_ids_rejected(self):
        train = train_set(3) + [("train-0", "dup text")]
        with pytest.raises(ConfigError):
            audit(train, [bench(0)], CONFIG)


@st.composite
def tied_matrix_and_k(draw):
    """A small-integer matrix (so full of ties) and a k in [1, columns]."""
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 12))
    values = draw(st.lists(st.integers(-3, 3), min_size=n_rows * n_cols,
                           max_size=n_rows * n_cols))
    k = draw(st.integers(1, n_cols))
    return np.array(values, dtype=np.float64).reshape(n_rows, n_cols), k


class TestTopKIndices:
    @settings(max_examples=400, deadline=None)
    @given(case=tied_matrix_and_k())
    def test_matches_stable_argsort(self, case):
        sims, k = case
        want = np.stack([np.argsort(-row, kind="stable")[:k] for row in sims])
        np.testing.assert_array_equal(top_k_indices(sims, k), want)

    def test_k_equals_columns_and_single_row(self):
        sims = np.array([[0.5, 1.0, 0.5, -1.0, 1.0]])
        np.testing.assert_array_equal(top_k_indices(sims, 5), [[1, 4, 0, 2, 3]])

    def test_all_equal_row_keeps_first_columns(self):
        np.testing.assert_array_equal(top_k_indices(np.zeros((2, 6)), 3),
                                      [[0, 1, 2], [0, 1, 2]])

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            top_k_indices(np.zeros((2, 3)), k)


class TestBlockedAudit:
    def test_duplicate_texts_tie_and_earlier_row_wins(self):
        leak = "def leaked(values):\n    return sorted(values)[::-1]"
        # ten rows: the copies sit first, in the middle and last, so BLAS
        # computes their products in different kernel positions
        train = train_set(10)
        for pos in (0, 5, 9):
            train[pos] = (f"copy-{pos}", leak)
        items = [bench(i) for i in range(6)] + [bench(6, leak)]
        report = audit(train, items, CONFIG, top_k=2)
        top = report.per_item[-1].neighbors
        assert [n.train_id for n in top] == ["copy-0", "copy-5"]
        assert top[0].similarity == top[1].similarity

    def test_tie_at_kth_place_with_single_item(self):
        leak = "def leaked(values):\n    return sorted(values)[::-1]"
        train = train_set(7) + [("copy-late", leak), ("copy-last", leak)]
        train.insert(3, ("copy-early", leak))
        report = audit(train, [bench(0, leak)], CONFIG, top_k=2)
        assert ([n.train_id for n in report.per_item[0].neighbors]
                == ["copy-early", "copy-late"])

    @pytest.mark.parametrize("budget", [120 * 4, 120 * 5 + 7, 1])
    def test_many_blocks_match_naive_oracle(self, monkeypatch, budget):
        heights = []
        real = decontam.similarity_matrix

        def counted(a, b):
            heights.append(len(a))
            return real(a, b)

        monkeypatch.setattr(decontam, "BLOCK_SIMILARITIES", budget)
        monkeypatch.setattr(decontam, "similarity_matrix", counted)
        train = train_set(120)
        items = [bench(i) for i in range(15)]
        report = audit(train, items, CONFIG, top_k=5)
        assert len(heights) >= 3 and sum(heights) == 15
        assert max(heights) == max(1, budget // 120)
        expected = naive_neighbors(train, items, top_k=5)
        assert [item.bench_id for item in report.per_item] == [
            item.bench_id for item in items]
        for item in report.per_item:
            want = expected[item.bench_id]
            assert [n.train_id for n in item.neighbors] == [t for t, _ in want]
            for n, (_, ws) in zip(item.neighbors, want):
                assert n.similarity == pytest.approx(ws, abs=1e-9)


class TestHistogram:
    def test_counts_sum_and_bins(self):
        hist = top1_histogram([1.0, 0.97, -1.0, 0.0])
        assert sum(c for _, c in hist) == 4
        assert len(hist) == 40
        assert hist[0][0] == -1.0
        assert hist[-1][0] == 0.95
        as_map = dict(hist)
        assert as_map[0.95] == 2
        assert as_map[-1.0] == 1
        assert as_map[0.0] == 1

    def test_configurable_width(self):
        hist = top1_histogram([0.6, -0.2], bin_width=0.5)
        assert [low for low, _ in hist] == [-1.0, -0.5, 0.0, 0.5]
        assert dict(hist)[0.5] == 1
        assert dict(hist)[-0.5] == 1

    def test_invalid_width(self):
        with pytest.raises(ConfigError):
            top1_histogram([0.0], bin_width=0.0)

    def test_audit_histogram_totals_bench_count(self):
        report = audit(train_set(10), [bench(i) for i in range(7)], CONFIG)
        assert sum(c for _, c in report.histogram) == 7


class TestPlanRemoval:
    def report_from(self, mapping):
        per_item = [
            ItemNeighbors(bid, [Neighbor(t, 1.0 - 0.01 * i)
                                for i, t in enumerate(tids)])
            for bid, tids in mapping.items()
        ]
        return LeakageReport(per_item=per_item, average_top1=1.0,
                             histogram=[(-1.0, 0)])

    def test_shared_neighbor_counted_once(self):
        report = self.report_from({"b1": ["t-x"], "b2": ["t-x"]})
        plan = plan_removal(report, n_per_item=1)
        assert plan.remove_train_ids == {"t-x"}
        assert plan.per_item_contributions == {"b1": ["t-x"], "b2": ["t-x"]}

    def test_distinct_neighbors_hit_upper_bound(self):
        mapping = {f"b{i}": [f"t-{i}-{j}" for j in range(3)] for i in range(10)}
        plan = plan_removal(self.report_from(mapping), n_per_item=3)
        assert len(plan.remove_train_ids) == 30

    def test_union_bound_holds(self):
        mapping = {f"b{i}": [f"t-{(i * 7 + j) % 12}" for j in range(5)]
                   for i in range(10)}
        plan = plan_removal(self.report_from(mapping), n_per_item=3)
        assert len(plan.remove_train_ids) <= 3 * 10

    def test_takes_at_most_n_per_item(self):
        report = self.report_from({"b1": ["t-1", "t-2", "t-3", "t-4"]})
        plan = plan_removal(report, n_per_item=2)
        assert plan.per_item_contributions["b1"] == ["t-1", "t-2"]

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            plan_removal(self.report_from({"b1": ["t-1"]}), n_per_item=0)

    def test_plan_invariant_enforced(self):
        with pytest.raises(ValueError):
            DecontamPlan(remove_train_ids={"t-1", "t-extra"},
                         per_item_contributions={"b1": ["t-1"]})


class TestApplyPlan:
    def plan(self, *ids):
        return DecontamPlan(remove_train_ids=set(ids),
                            per_item_contributions={"b": list(ids)})

    def test_removes_exactly_planned_ids(self):
        train = train_set(10)
        kept = apply_plan(self.plan("train-1", "train-4", "train-7"), train)
        assert len(kept) == 7
        kept_ids = {tid for tid, _ in kept}
        assert kept_ids.isdisjoint({"train-1", "train-4", "train-7"})

    def test_order_preserved(self):
        train = train_set(6)
        kept = apply_plan(self.plan("train-2"), train)
        assert [tid for tid, _ in kept] == [
            "train-0", "train-1", "train-3", "train-4", "train-5"]

    def test_empty_plan_is_identity(self):
        train = train_set(4)
        plan = DecontamPlan(remove_train_ids=set(), per_item_contributions={})
        assert apply_plan(plan, train) == list(train)

    def test_absent_id_warns_not_fatal(self, caplog):
        train = train_set(3)
        with caplog.at_level("WARNING"):
            kept = apply_plan(self.plan("ghost-id"), train)
        assert len(kept) == 3
        assert any("ghost-id" in r.message for r in caplog.records)


class TestPlantedLeakEndToEnd:
    def test_plant_audit_clean_reaudit(self):
        leak = "def secret_answer():\n    return 'leak'"
        train = train_set(40) + [("planted-0", leak)]
        items = [bench(0, leak), bench(1)]
        before = audit(train, items, CONFIG, top_k=3)
        top = before.per_item[0].neighbors[0]
        assert top.train_id == "planted-0"
        assert top.similarity >= 0.999

        plan = plan_removal(before, n_per_item=1)
        assert "planted-0" in plan.remove_train_ids
        cleaned = apply_plan(plan, train)
        after = audit(cleaned, items, CONFIG, top_k=3)
        seen = {n.train_id for item in after.per_item for n in item.neighbors}
        assert "planted-0" not in seen
        assert after.average_top1 < before.average_top1


class TestFileIO:
    def test_benchmark_round_trip(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        items = [bench(i) for i in range(3)]
        path.write_text("".join(
            json.dumps({"bench_id": b.bench_id,
                        "canonical_solution": b.canonical_solution,
                        "benchmark": b.benchmark_name}) + "\n" for b in items))
        assert read_benchmark_file(path) == items

    def test_empty_benchmark_file_rejected(self, tmp_path):
        path = tmp_path / "bench.jsonl"
        path.write_text("")
        with pytest.raises(ConfigError):
            read_benchmark_file(path)

    def test_benchmark_validation(self):
        with pytest.raises(ValueError):
            BenchmarkItem(bench_id="b", canonical_solution="   ")

    def test_report_round_trip(self, tmp_path):
        report = audit(train_set(8), [bench(0)], CONFIG, top_k=2)
        path = tmp_path / "report.json"
        write_leakage_report(path, report)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_histogram_csv(self, tmp_path):
        report = audit(train_set(5), [bench(0)], CONFIG)
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_low,count"
        assert len(lines) == 41
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 1

    def test_sorted_invariant_enforced_on_load(self):
        with pytest.raises(ValueError):
            ItemNeighbors("b", [Neighbor("t1", 0.2), Neighbor("t2", 0.9)])
