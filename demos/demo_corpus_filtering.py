"""
Corpus ingestion, filtering, and language statistics
====================================================

Builds a small raw-code corpus file, runs the length/blacklist filters
over it, and prints the language distribution of what survives.
"""

import json
import tempfile
from pathlib import Path

from instructsmith.corpus import (
    FilterConfig,
    apply_filters,
    default_blacklist,
    ingest_records,
    language_distribution,
)

workdir = Path(tempfile.mkdtemp(prefix="demo-corpus-"))
corpus_path = workdir / "corpus.jsonl"

# A corpus file is one JSON object per line with at least "id" and "code".
# We plant three defective records: one with no code body (ingest itself
# skips it), a stub that is too short, and one mentioning a blocked word.
rows = []
for i in range(12):
    rows.append({
        "id": f"keeper-{i:02d}",
        "code": (f"def scale_{i}(values):\n"
                 f"    factor = {i} + len(values)\n"
                 f"    return [v * factor for v in values]\n"),
        "language": ["Python", "Go", "PHP"][i % 3],
    })
rows.append({"id": "too-short", "code": "def f(): pass",
             "language": "Python"})
rows.append({"id": "blocked", "code": ("def save_image(image):\n"
                                       "    # write the image to disk\n"
                                       "    return image.tobytes() * 2\n"),
             "language": "Python"})
rows.append({"id": "empty", "code": "   ", "language": "Python"})
corpus_path.write_text("".join(json.dumps(r) + "\n" for r in rows),
                       encoding="utf-8")

records = ingest_records(corpus_path)
print(f"ingested {len(records)} records from {corpus_path}")

# The default blacklist ships with the package; filters check length bounds
# first, then blocked words, and report a reason for every rejection.
config = FilterConfig(min_code_chars=80, max_code_chars=4096,
                      blacklist=default_blacklist())
kept, report = apply_filters(records, config)
print(f"kept {report.kept_count} of {report.input_count}; "
      f"rejections: {report.rejected}")

# Percentages are rounded to two decimals and sorted descending; anything
# outside keep_languages is grouped under "Others".
dist = language_distribution(kept, keep_languages=["Python", "Go"])
for language, pct in dist.items():
    print(f"  {language:>8}: {pct:5.2f}%")
