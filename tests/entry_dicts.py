"""Dict forms of the exemplar log's objects, and a whole dataset as a list,
for tests.

The program writes an entry's log line with `ExemplarEntry.to_json` and reads
it back through the schema as a `LogLine`, so it keeps no dict form of an
entry, an instance or a report. These give the dict a log line is the JSON text of,
field for field in the line's order, and rebuild a report from its dict.
The program streams a dataset file row by row (`iter_dataset`); the tests
compare it whole, with `read_dataset`.
"""

from __future__ import annotations

from instructsmith.discriminator import DiscriminationReport, RuleVerdict
from instructsmith.emitter import TrainingExample, iter_dataset
from instructsmith.exemplar_db import ExemplarEntry
from instructsmith.generator import InstructionInstance


def instance_dict(instance: InstructionInstance) -> dict:
    return {
        "task_name": instance.task_name,
        "instruction": instance.instruction,
        "information": instance.information,
        "solution": instance.solution,
        "source_record_id": instance.source_record_id,
        "task_kind": instance.task_kind,
        "generation_meta": dict(instance.generation_meta),
    }


def report_dict(report: DiscriminationReport) -> dict:
    return {
        "instance_ref": report.instance_ref,
        "verdicts": [{"rule_id": v.rule_id, "answer": v.answer,
                      "reason": v.reason} for v in report.verdicts],
        "overall": report.overall,
        "overall_reasons": report.overall_reasons,
        "label": report.label,
    }


def report_from_dict(d: dict) -> DiscriminationReport:
    return DiscriminationReport(
        instance_ref=str(d.get("instance_ref", "")),
        verdicts=[RuleVerdict(rule_id=str(v["rule_id"]), answer=str(v["answer"]),
                              reason=str(v["reason"]))
                  for v in d.get("verdicts", [])],
        overall=str(d["overall"]),
        overall_reasons=str(d.get("overall_reasons", "")),
        label=str(d.get("label", "")),
    )


def entry_dict(entry: ExemplarEntry) -> dict:
    return {
        "entry_id": entry.entry_id,
        "instance": instance_dict(entry.instance),
        "report": report_dict(entry.report),
        "label": entry.label,
        "task_kind": entry.task_kind,
        "created_seq": entry.created_seq,
    }


def read_dataset(path) -> list[TrainingExample]:
    """Every example of a dataset file, in file order (strict: no torn
    tails)."""
    return [example for _, example in iter_dataset(path)]
