"""
The generate-then-discriminate loop
===================================

Drafts an instruction instance from a code record, judges it against the
task's decomposed rules, and stores the judged result as an exemplar that
seeds the next generation prompt. Runs entirely on the deterministic
canned backends — no network.
"""

from instructsmith.corpus import RawCodeRecord
from instructsmith.discriminator import discriminate, load_ruleset
from instructsmith.exemplar_db import ExemplarDB, SamplingPolicy, make_entry
from instructsmith.generator import build_generation_prompt, generate_instance
from instructsmith.hermetic import (
    canned_discrimination_backend,
    canned_generation_backend,
)
from instructsmith.taskspec import load_task_definitions

# Task definitions pair each task kind with its prompt wording and the id
# of the rule set used to judge its outputs.
taskdefs = load_task_definitions()
taskdef = taskdefs["CodeGeneration"]
ruleset = load_ruleset(taskdef.rule_set_id)
print(f"task {taskdef.kind!r} is judged by {len(ruleset.all_rules())} rules")

# The canned generation backend derives its reply from the raw-code block in
# the prompt; the canned discriminator marks every seventh solution Bad, so
# both labels show up in a longer run.
gen_backend = canned_generation_backend()
disc_backend = canned_discrimination_backend(bad_modulus=7)

db = ExemplarDB()  # in-memory; ExemplarDB.load(path) persists every insert
records = [
    RawCodeRecord(id=f"rec-{i:02d}",
                  code=(f"def merge_{i}(left, right):\n"
                        f"    out = list(left)\n"
                        f"    out.extend(right[{i} % 3:])\n"
                        f"    return sorted(out)\n"),
                  language="Python")
    for i in range(6)
]

for record in records:
    # Generation retries with freshly sampled exemplars when a reply fails
    # to parse; the canned backend always parses on the first attempt.
    instance = generate_instance(record, taskdef, db, gen_backend, seed=42)
    report = discriminate(instance, ruleset, disc_backend)
    db.insert(make_entry(instance, report))
    print(f"{record.id}: task={instance.task_name!r} label={report.label}")

# Every rule gets its own verdict; the label is the conjunction of the
# overall answer and the per-rule answers.
last = report
print("\nlast report:")
for verdict in last.verdicts:
    print(f"  [{verdict.rule_id}] {verdict.answer}")
print(f"  overall: {last.overall} -> label {last.label}")

# Judged instances feed back into later prompts as few-shot exemplars.
sampled = db.sample("CodeGeneration",
                    SamplingPolicy(n_good=1, n_bad=1), seed=7)
print(f"\nsampled {len(sampled)} exemplars for the next prompt: "
      f"{[(e.entry_id, e.label) for e in sampled]}")
prompt = build_generation_prompt(records[0], taskdef, sampled)
print(f"prompt embeds a GOOD and a BAD exemplar block: "
      f"{'GOOD EXAMPLE:' in prompt.user_text} / "
      f"{'BAD EXAMPLE:' in prompt.user_text}")
