"""
Diverse coreset selection with greedy k-center
==============================================

Embeds a batch of code snippets with the deterministic mock backend, picks
a spread-out subset with the greedy k-center rule, and compares the greedy
covering radius against the exact optimum on a small instance.
"""

import numpy as np

from instructsmith.coreset import (
    kcenter_greedy,
    kcenter_optimal_bruteforce,
    kcenter_radius,
)
from instructsmith.embedding import EmbeddingBackendConfig, embed_batch

# The mock backend maps text deterministically onto the unit sphere, so
# everything below reproduces bit-for-bit on every run.
backend = EmbeddingBackendConfig(kind="mock", model_name="mock-embed", dim=8)
texts = [f"def handler_{i}(payload):\n    return payload[{i} % len(payload)]\n"
         for i in range(40)]
vectors = embed_batch(texts, backend)
print(f"embedded {len(vectors)} snippets at dim {vectors.shape[1]}")

# Greedy k-center: start from a seeded pick, then repeatedly take the point
# farthest from the chosen set. The radius after each pick traces how well
# the selection covers the collection — it can only shrink.
selection = kcenter_greedy(vectors, k=8, seed=3)
print(f"selected indices: {selection.selected_indices}")
trace = ", ".join(f"{r:.3f}" for r in selection.radius_trace)
print(f"radius trace (non-increasing): {trace}")

# On instances small enough to enumerate, compare against the true optimum.
# Greedy is guaranteed to land within a factor of two.
rng = np.random.default_rng(12)
points = rng.standard_normal((10, 3))
greedy = kcenter_greedy(points, k=3, seed=0)
greedy_radius = kcenter_radius(points, greedy.selected_indices)
optimal_centers, optimal_radius = kcenter_optimal_bruteforce(points, k=3)
print(f"greedy radius  {greedy_radius:.4f} at centers "
      f"{sorted(greedy.selected_indices)}")
print(f"optimal radius {optimal_radius:.4f} at centers "
      f"{list(optimal_centers)}")
print(f"ratio {greedy_radius / optimal_radius:.3f} (bound: 2.0)")
