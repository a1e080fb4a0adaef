"""Spans around the program's public functions, set from outside.

``Tracer`` replaces each hook target (a module attribute or a class method,
at the name its caller looks up) with a wrapper that records a span: name,
start, end, parent, record id and thread. Spans stay in memory until the
harness writes them out. A hook target that no longer exists is listed in
``Tracer.absent``; every metric that needs it is then reported as absent,
never as zero.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics. Time metrics named ``*_s`` are inclusive (a layer's span covers the
layers it calls, such as ``ioutil`` appends inside the embedding cache
write); ``self_times`` gives each layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import threading
import time
from pathlib import Path

import numpy as np

CHECKPOINT_FILE = "checkpoint.json"


def _record_of_instance(args):
    return args[0].source_record_id


def _size_of_first_arg(args, kwargs, result):
    return os.path.getsize(args[0])


def _size_of_second_arg(args, kwargs, result):
    return os.path.getsize(args[1])


def _kept_and_input(args, kwargs, result):
    report = result[1]
    return (report.kept_count, report.input_count)


def _picks(args, kwargs, result):
    return len(result.selected_indices)


def _matrix_bytes(args, kwargs, result):
    return result.shape[0] * result.shape[1] * 8


JSON_WRITE_NAMES = ["pipeline.checkpoint", "pipeline.write_json"]


def _json_write_name(args):
    return JSON_WRITE_NAMES[0 if Path(args[0]).name == CHECKPOINT_FILE else 1]


# (module, attribute path, span name, record id of the call, note taken
# from the finished call). The attribute is the one the caller looks up:
# ``pipeline.embed_batch`` and ``decontam.embed_batch`` are separate names
# for the same function.
HOOKS = (
    ("instructsmith.pipeline", "ingest_records", "corpus.ingest", None, None),
    ("instructsmith.pipeline", "apply_filters", "corpus.filter", None, _kept_and_input),
    ("instructsmith.pipeline", "write_records", "corpus.write", None, None),
    ("instructsmith.pipeline", "embed_batch", "embedding.embed", None, None),
    ("instructsmith.pipeline", "write_embedding_cache", "embedding.cache_write",
     None, _size_of_first_arg),
    ("instructsmith.pipeline", "read_embedding_cache", "embedding.cache_read", None, None),
    ("instructsmith.pipeline", "kcenter_greedy", "coreset.select", None, _picks),
    ("instructsmith.pipeline", "assign_tasks", "taskspec.assign", None, None),
    ("instructsmith.pipeline", "generate_instance", "generator.generate",
     lambda args: args[0].id, None),
    ("instructsmith.generator", "build_generation_prompt", "generator.prompt", None, None),
    ("instructsmith.generator", "parse_generator_output", "generator.parse", None, None),
    ("instructsmith.generator", "complete", "llm_backend.gen_send", None, None),
    ("instructsmith.pipeline", "discriminate", "discriminator.discriminate",
     _record_of_instance, None),
    ("instructsmith.discriminator", "build_discrimination_prompt",
     "discriminator.prompt", None, None),
    ("instructsmith.discriminator", "parse_discrimination_output",
     "discriminator.parse", None, None),
    ("instructsmith.discriminator", "complete", "llm_backend.disc_send", None, None),
    ("instructsmith.exemplar_db", "ExemplarDB.sample", "exemplar_db.sample", None, None),
    ("instructsmith.exemplar_db", "ExemplarDB.insert", "exemplar_db.insert",
     lambda args: args[1].instance.source_record_id, None),
    ("instructsmith.exemplar_db", "ExemplarDB.load", "exemplar_db.load", None, None),
    ("instructsmith.ioutil", "JsonlAppender.append", "ioutil.append", None, None),
    ("instructsmith.ioutil", "atomic_write_text", "ioutil.atomic_write", None,
     _size_of_first_arg),
    ("instructsmith.pipeline", "atomic_write_json", _json_write_name, None,
     _size_of_first_arg),
    ("instructsmith.pipeline", "write_dataset", "emitter.emit", None, _size_of_second_arg),
    ("instructsmith.pipeline", "audit", "decontam.audit", None, None),
    ("instructsmith.decontam", "embed_batch", "decontam.embed", None, None),
    ("instructsmith.decontam", "stack_vectors", "decontam.similarity", None, None),
    ("instructsmith.decontam", "similarity_matrix", "decontam.similarity", None,
     _matrix_bytes),
    ("instructsmith.pipeline", "plan_removal", "decontam.plan", None, None),
    ("instructsmith.pipeline", "apply_plan", "decontam.plan", None, None),
)

# Calls counted without a span: one per embedding chunk, one per request
# the canned chat backend answers (retries included).
COUNTS = (
    ("instructsmith.embedding", "MockEmbeddingBackend.embed_chunk", "embedding.chunks"),
    ("instructsmith.llm_backend", "MockChatBackend.send", "llm_backend.sends"),
)

# metric -> the hook names it is computed from
NEEDS = {
    "corpus.ingest_s": ["corpus.ingest"],
    "corpus.filter_s": ["corpus.filter"],
    "corpus.write_s": ["corpus.write"],
    "corpus.kept_ratio": ["corpus.filter"],
    "embedding.embed_s": ["embedding.embed"],
    "embedding.chunks": ["embedding.chunks"],
    "embedding.cache_write_s": ["embedding.cache_write"],
    "embedding.cache_read_s": ["embedding.cache_read"],
    "embedding.cache_bytes": ["embedding.cache_write"],
    "coreset.select_s": ["coreset.select"],
    "coreset.picks": ["coreset.select"],
    "coreset.us_per_pick": ["coreset.select"],
    "taskspec.assign_s": ["taskspec.assign"],
    "generator.prompt_us": ["generator.prompt"],
    "generator.prompt_tail_us": ["generator.prompt"],
    "generator.parse_us": ["generator.parse"],
    "generator.parse_tail_us": ["generator.parse"],
    "generator.attempts_per_record": ["generator.prompt", "generator.generate"],
    "discriminator.prompt_us": ["discriminator.prompt"],
    "discriminator.prompt_tail_us": ["discriminator.prompt"],
    "discriminator.parse_us": ["discriminator.parse"],
    "discriminator.parse_tail_us": ["discriminator.parse"],
    "discriminator.attempts_per_record": ["llm_backend.disc_send",
                                          "discriminator.discriminate"],
    "exemplar_db.sample_us": ["exemplar_db.sample"],
    "exemplar_db.sample_tail_us": ["exemplar_db.sample"],
    "exemplar_db.insert_us": ["exemplar_db.insert"],
    "exemplar_db.insert_tail_us": ["exemplar_db.insert"],
    "exemplar_db.load_s": ["exemplar_db.load"],
    "llm_backend.gen_calls": ["llm_backend.gen_send"],
    "llm_backend.gen_send_s": ["llm_backend.gen_send"],
    "llm_backend.gen_send_us": ["llm_backend.gen_send"],
    "llm_backend.gen_send_tail_us": ["llm_backend.gen_send"],
    "llm_backend.disc_calls": ["llm_backend.disc_send"],
    "llm_backend.disc_send_s": ["llm_backend.disc_send"],
    "llm_backend.disc_send_us": ["llm_backend.disc_send"],
    "llm_backend.disc_send_tail_us": ["llm_backend.disc_send"],
    "llm_backend.retries": ["llm_backend.sends", "llm_backend.gen_send",
                            "llm_backend.disc_send"],
    "llm_backend.inflight_mean": ["llm_backend.gen_send", "llm_backend.disc_send"],
    "llm_backend.idle_frac": ["llm_backend.gen_send", "llm_backend.disc_send"],
    "llm_backend.busy_frac": ["llm_backend.gen_send", "llm_backend.disc_send"],
    "ioutil.append_calls": ["ioutil.append"],
    "ioutil.append_s": ["ioutil.append"],
    "ioutil.atomic_writes": ["ioutil.atomic_write"],
    "ioutil.atomic_write_s": ["ioutil.atomic_write"],
    "ioutil.atomic_write_bytes": ["ioutil.atomic_write"],
    "pipeline.checkpoint_writes": ["pipeline.checkpoint"],
    "pipeline.checkpoint_bytes": ["pipeline.checkpoint"],
    "pipeline.checkpoint_s": ["pipeline.checkpoint"],
    "pipeline.other_s": [],
    "emitter.emit_s": ["emitter.emit"],
    "emitter.bytes": ["emitter.emit"],
    "decontam.embed_s": ["decontam.embed"],
    "decontam.similarity_s": ["decontam.similarity"],
    "decontam.rank_s": ["decontam.audit"],
    "decontam.plan_s": ["decontam.plan"],
    "decontam.matrix_mb": ["decontam.similarity"],
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "record", "root",
                 "thread", "note")

    def __init__(self, sid, name, parent, record, root):
        self.id, self.name, self.parent = sid, name, parent
        self.record, self.root = record, root
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.note = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self, t0: float) -> dict:
        return {"id": self.id, "name": self.name,
                "parent": self.parent.id if self.parent else None,
                "record": self.record, "thread": self.thread,
                "start_s": self.start - t0, "end_s": self.end - t0,
                "note": self.note}


def _resolve(module: str, attr_path: str):
    """(owner, attribute name), or None when the target no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Installs the hooks; records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root: Span | None = None
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, record) -> Span:
        stack = self._stack()
        # a span opened on a worker thread hangs under the current root
        parent = stack[-1] if stack else self._root
        if record is None and parent is not None:
            record = parent.record
        root = parent.root if parent is not None else None
        span = Span(next(self._ids), name, parent, record, root)
        if span.root is None:
            span.root = span
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, name: str):
        """A harness-side root span around one timed call."""
        span = self._open(name, None)
        self._root = span
        try:
            yield span
        finally:
            self._close(span)
            self._root = None

    def _span_wrapper(self, fn, name, record_of, note_of):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name(args) if callable(name) else name,
                                record_of(args) if record_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if note_of is not None:
                span.note = note_of(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            root = tracer._root.name if tracer._root else None
            with tracer._lock:
                key = (root, name)
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr_path, labels, make):
        target = _resolve(module, attr_path)
        if target is None:
            self.absent.extend(labels)
            return
        owner, attr = target
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        self.absent = []
        for module, attr_path, name, record_of, note_of in HOOKS:
            labels = [name] if isinstance(name, str) else JSON_WRITE_NAMES
            self._patch(module, attr_path, labels,
                        lambda fn, n=name, r=record_of, o=note_of:
                        self._span_wrapper(fn, n, r, o))
        for module, attr_path, name in COUNTS:
            self._patch(module, attr_path, [name],
                        lambda fn, n=name: self._count_wrapper(fn, n))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _percentiles(values_s: list[float]) -> tuple[float, float, str]:
    """(p50, tail, tail label) in microseconds. The tail is the highest of
    p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    arr = np.asarray(values_s) * 1e6
    p50 = float(np.percentile(arr, 50))
    for q in (99.9, 99.0, 90.0):
        if len(arr) * (1 - q / 100) >= 10:
            return p50, float(np.percentile(arr, q)), f"p{q:g}"
    return p50, float(arr.max()), "max"


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _inflight(sends: list[Span], max_in_flight: int) -> tuple[float, float]:
    """(mean sends outstanding, share of time with fewer than
    ``max_in_flight`` outstanding), over first send start to last send end."""
    if not sends:
        return 0.0, 1.0
    events = sorted([(s.start, 1) for s in sends] + [(s.end, -1) for s in sends])
    window = events[-1][0] - events[0][0]
    if window <= 0:
        return 0.0, 1.0
    busy = sum(s.seconds for s in sends)
    idle, level, prev = 0.0, 0, events[0][0]
    for t, step in events:
        if level < max_in_flight:
            idle += t - prev
        level += step
        prev = t
    return busy / window, idle / window


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: total duration minus the time its child spans cover."""
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            child_seconds[s.parent.id] = child_seconds.get(s.parent.id, 0.0) + s.seconds
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.seconds - child_seconds.get(s.id, 0.0)
    return out


def layer_metrics(tracer: Tracer, max_in_flight: int) -> tuple[dict, dict]:
    """Per-layer metrics of the spans recorded since the last reset.

    Returns (metrics, tail labels). Synthesis layers count spans under
    ``synth`` roots, the decontamination layer spans under ``audit`` roots.
    """
    by_name: dict[tuple[str, str], list[Span]] = {}
    roots: dict[str, list[Span]] = {}
    for s in tracer.spans:
        if s.root is s:
            roots.setdefault(s.name, []).append(s)
        else:
            by_name.setdefault((s.root.name, s.name), []).append(s)

    def spans(name, root="synth"):
        return by_name.get((root, name), [])

    def total(name, root="synth"):
        return sum(s.seconds for s in spans(name, root))

    def count(name):
        return tracer.counts.get(("synth", name), 0)

    m: dict[str, float] = {}
    tails: dict[str, str] = {}

    def per_call(metric, name):
        durations = [s.seconds for s in spans(name)]
        if durations:
            p50, tail, label = _percentiles(durations)
        else:
            p50, tail, label = 0.0, 0.0, "none"
        m[f"{metric}_us"], m[f"{metric}_tail_us"] = p50, tail
        tails[f"{metric}_tail_us"] = f"{label} of {len(durations)}"

    m["corpus.ingest_s"] = total("corpus.ingest")
    m["corpus.filter_s"] = total("corpus.filter")
    m["corpus.write_s"] = total("corpus.write")
    kept = sum(s.note[0] for s in spans("corpus.filter"))
    seen = sum(s.note[1] for s in spans("corpus.filter"))
    m["corpus.kept_ratio"] = kept / seen if seen else 0.0

    m["embedding.embed_s"] = total("embedding.embed")
    m["embedding.chunks"] = count("embedding.chunks")
    m["embedding.cache_write_s"] = total("embedding.cache_write")
    m["embedding.cache_read_s"] = total("embedding.cache_read")
    m["embedding.cache_bytes"] = max((s.note for s in spans("embedding.cache_write")),
                                     default=0)

    m["coreset.select_s"] = total("coreset.select")
    m["coreset.picks"] = sum(s.note for s in spans("coreset.select"))
    m["coreset.us_per_pick"] = (m["coreset.select_s"] / m["coreset.picks"] * 1e6
                                if m["coreset.picks"] else 0.0)
    m["taskspec.assign_s"] = total("taskspec.assign")

    per_call("generator.prompt", "generator.prompt")
    per_call("generator.parse", "generator.parse")
    generated = len(spans("generator.generate"))
    m["generator.attempts_per_record"] = (len(spans("generator.prompt")) / generated
                                          if generated else 0.0)
    per_call("discriminator.prompt", "discriminator.prompt")
    per_call("discriminator.parse", "discriminator.parse")
    judged = len(spans("discriminator.discriminate"))
    m["discriminator.attempts_per_record"] = (
        len(spans("llm_backend.disc_send")) / judged if judged else 0.0)

    per_call("exemplar_db.sample", "exemplar_db.sample")
    per_call("exemplar_db.insert", "exemplar_db.insert")
    m["exemplar_db.load_s"] = total("exemplar_db.load")

    gen_sends, disc_sends = spans("llm_backend.gen_send"), spans("llm_backend.disc_send")
    m["llm_backend.gen_calls"] = len(gen_sends)
    m["llm_backend.gen_send_s"] = total("llm_backend.gen_send")
    per_call("llm_backend.gen_send", "llm_backend.gen_send")
    m["llm_backend.disc_calls"] = len(disc_sends)
    m["llm_backend.disc_send_s"] = total("llm_backend.disc_send")
    per_call("llm_backend.disc_send", "llm_backend.disc_send")
    m["llm_backend.retries"] = count("llm_backend.sends") - len(gen_sends) - len(disc_sends)
    m["llm_backend.inflight_mean"], m["llm_backend.idle_frac"] = _inflight(
        gen_sends + disc_sends, max_in_flight)
    synth_s = sum(r.seconds for r in roots.get("synth", []))
    m["llm_backend.busy_frac"] = _union_seconds(
        [(s.start, s.end) for s in gen_sends + disc_sends]) / synth_s

    m["ioutil.append_calls"] = len(spans("ioutil.append"))
    m["ioutil.append_s"] = total("ioutil.append")
    m["ioutil.atomic_writes"] = len(spans("ioutil.atomic_write"))
    m["ioutil.atomic_write_s"] = total("ioutil.atomic_write")
    m["ioutil.atomic_write_bytes"] = sum(s.note for s in spans("ioutil.atomic_write"))
    m["pipeline.checkpoint_writes"] = len(spans("pipeline.checkpoint"))
    m["pipeline.checkpoint_bytes"] = sum(s.note for s in spans("pipeline.checkpoint"))
    m["pipeline.checkpoint_s"] = total("pipeline.checkpoint")

    covered = _union_seconds([(s.start, s.end) for (root, _), group in by_name.items()
                              if root == "synth" for s in group])
    m["pipeline.other_s"] = synth_s - covered

    m["emitter.emit_s"] = total("emitter.emit")
    m["emitter.bytes"] = max((s.note for s in spans("emitter.emit")), default=0)

    audit_self = self_times([s for (root, _), group in by_name.items()
                             if root == "audit" for s in group])
    # the harness repeats the audit; report one audit's worth
    audits = max(len(roots.get("audit", [])), 1)
    m["decontam.embed_s"] = total("decontam.embed", "audit") / audits
    m["decontam.similarity_s"] = total("decontam.similarity", "audit") / audits
    m["decontam.rank_s"] = audit_self.get("decontam.audit", 0.0) / audits
    m["decontam.plan_s"] = total("decontam.plan", "audit") / audits
    m["decontam.matrix_mb"] = max((s.note or 0 for s in spans("decontam.similarity", "audit")),
                                  default=0) / 2**20
    return m, tails


def absent_metrics(absent_hooks: list[str]) -> list[str]:
    """Metrics that cannot be computed because a hook target is gone."""
    gone = set(absent_hooks)
    return [metric for metric, needs in NEEDS.items() if gone.intersection(needs)]


def _unit_of(metric: str) -> str:
    if metric.endswith("_us") or ".us_per_" in metric:
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MiB"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    if metric.endswith("_per_record"):
        return "attempts"
    return "count"


UNITS = {metric: _unit_of(metric)
         for metric in [*NEEDS, "pipeline.accept_ratio", "trace.overhead_s"]}
