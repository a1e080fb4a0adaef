"""
Benchmark leakage audit and removal
===================================

Plants verbatim copies of benchmark solutions inside a training set, finds
them with an exact nearest-neighbor audit over embeddings, and removes the
offending rows. Mock embeddings keep the whole run deterministic.
"""

from instructsmith.decontam import BenchmarkItem, apply_plan, audit, plan_removal
from instructsmith.embedding import EmbeddingBackendConfig

backend = EmbeddingBackendConfig(kind="mock", model_name="mock-embed", dim=32)

# Training data is (id, text) pairs; for a real dataset the text would be
# each example's output code.
train = [(f"t{i:03d}", f"def util_{i}(row):\n    return row[{i} % 4] * {i}\n")
         for i in range(200)]
bench = [BenchmarkItem(bench_id=f"b{j}",
                       canonical_solution=(f"def reference_{j}(xs):\n"
                                           f"    return max(xs) - {j}\n"),
                       benchmark_name="demo-bench")
         for j in range(6)]

# Plant exact copies of two benchmark solutions inside the training set.
train[17] = ("t017", bench[0].canonical_solution)
train[141] = ("t141", bench[3].canonical_solution)
print("planted copies of b0 and b3 at t017 and t141")

# The audit embeds both sides and ranks each benchmark item's nearest
# training rows by cosine similarity. Identical text embeds identically,
# so a verbatim copy surfaces with similarity 1.0 at the top.
report = audit(train, bench, backend, top_k=3)
print(f"average top-1 similarity: {report.average_top1:.4f}")
for item in report.per_item:
    top = item.neighbors[0]
    print(f"  {item.bench_id}: top-1 {top.train_id} at {top.similarity:.4f}")

# Removal takes each item's nearest n rows (a shared row counts once),
# then the plan filters the training list in place-preserving order.
plan = plan_removal(report, n_per_item=1)
print(f"plan removes {sorted(plan.remove_train_ids)}")
cleaned = apply_plan(plan, train)
print(f"training rows: {len(train)} -> {len(cleaned)}")

re_report = audit(cleaned, bench, backend, top_k=3)
print(f"average top-1 after removal: {re_report.average_top1:.4f}")
survivors = {n.train_id for item in re_report.per_item
             for n in item.neighbors} & {"t017", "t141"}
print(f"planted ids still in any neighbor list: {survivors or 'none'}")
