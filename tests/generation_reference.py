"""Reference generation-reply parser: the match-list version that
`instructsmith.generator.parse_generator_output` replaced.

It collects every key-label match of a MULTILINE ``^`` pattern, cuts each
value from the end of its label to the start of the next, and de-fences the
solution. The differential tests in `test_generator.py` require the shipped
parser to return the same instance, or raise a `ParseError` with the same
text, on every reply they generate.
"""

from __future__ import annotations

import re

from instructsmith.errors import ParseError
from instructsmith.generator import InstructionInstance

REQUIRED_KEYS = ("task_name", "instruction", "solution")

_KEY_RE = re.compile(
    r"^[ \t]*(task_name|instruction|information|solution)[ \t]*:",
    re.IGNORECASE | re.MULTILINE)


def _strip_fence(text: str) -> str:
    """Remove one surrounding triple-backtick fence, preserving the body."""
    s = text.strip()
    if not (s.startswith("```") and s.endswith("```") and len(s) > 6):
        return s
    first_nl = s.find("\n")
    if first_nl == -1:
        return s
    body = s[first_nl + 1:]
    last_nl = body.rfind("\n")
    closing = body[last_nl + 1:] if last_nl != -1 else body
    if closing.strip() != "```":
        return s
    return body[:last_nl] if last_nl != -1 else ""


def reference_parse(text: str, *, source_record_id: str = "",
                    task_kind: str = "", generation_meta: dict | None = None
                    ) -> InstructionInstance:
    """Parse a model reply shaped as four labeled fields into an instance
    carrying the given provenance.

    Key labels match case-insensitively at line starts; each value runs to the
    next label. The solution value is de-fenced but otherwise byte-preserved.
    Missing or empty required keys and duplicated keys raise ParseError.
    """
    matches = list(_KEY_RE.finditer(text))
    values: dict[str, str] = {}
    duplicated: list[str] = []
    for i, m in enumerate(matches):
        key = m.group(1).lower()
        end = matches[i + 1].start() if i + 1 < len(matches) else len(text)
        value = text[m.end():end]
        if key in values:
            if key not in duplicated:
                duplicated.append(key)
            continue
        values[key] = _strip_fence(value) if key == "solution" else value.strip()
    if duplicated:
        raise ParseError(f"duplicated keys: {', '.join(duplicated)}",
                         duplicated=duplicated)
    missing = [k for k in REQUIRED_KEYS if not values.get(k, "").strip()]
    if missing:
        raise ParseError(f"missing keys: {', '.join(missing)}", missing=missing)
    return InstructionInstance(
        task_name=values["task_name"],
        instruction=values["instruction"],
        information=values.get("information", ""),
        solution=values["solution"],
        source_record_id=source_record_id,
        task_kind=task_kind,
        generation_meta=generation_meta or {},
    )
