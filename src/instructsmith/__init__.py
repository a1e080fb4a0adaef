"""instructsmith: synthesize multi-task code instruction-tuning datasets.

The pipeline filters a raw open-source code corpus, picks a diverse coreset
by embedding distance, drives a generate-then-discriminate LLM loop seeded
with judged exemplars, and emits an Alpaca-format dataset. A separate tool
audits and removes train/test leakage by embedding similarity.

The package root exports the end-to-end entry points only; every other name
is imported from its module (``instructsmith.exemplar_db``, ``.decontam``,
...).
"""

from .pipeline import PipelineConfig, audit_and_plan, run

__version__ = "0.1.0"

__all__ = ["PipelineConfig", "__version__", "audit_and_plan", "run"]
