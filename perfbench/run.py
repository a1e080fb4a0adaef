#!/usr/bin/env python3
"""instructsmith benchmark: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload paper-serial --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # each workload in turn
    python3 perfbench/run.py --record-digests 0-63           # rewrite digests.json
    python3 perfbench/run.py --record-digests 0-63 --workload slow-backend

Run from the root of a checkout; the program is imported from its ``src``
directory. A run generates its inputs from ``--seed``, repeats the workload
until ``--seconds`` have passed, checks every output, and prints each metric
with its unit. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics (alternating
untraced and traced repetitions, so the tracing overhead is measured too).
Files are written under ``.perfbench_work`` (removed at exit) and
``.perfbench_out`` (results and spans) in the checkout. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"

SETUP_RUNS = 7
MIN_RUNS = 3
TOP_K, N_PER_ITEM = 3, 1
# audits per repetition; the audit of a small dataset is short
AUDIT_REPEATS = {"paper-serial": 2, "slow-backend": 3}
UNITS = {"setup_s": "s", "synth_s": "s", "accepted_per_s": "examples/s",
         "audit_s": "s", "peak_rss_mb": "MiB", "workdir_mb": "MiB"}
# per-layer metrics that only some workloads exercise; printed, not in the
# JSON line, so that no workload reports a structural zero as a timing
WORKLOAD_ONLY = {"embedding.cache_read_s"}
STAGES = ("filter", "embed", "select", "assign", "generate", "emit")
STAGE_CALLEES = {"filter": ("corpus.ingest", "corpus.filter", "corpus.write"),
                 "embed": ("embedding.embed", "embedding.cache_write",
                           "embedding.cache_read"),
                 "select": ("coreset.select",), "assign": ("taskspec.assign",),
                 "emit": ("emitter.emit",)}


class HarnessError(Exception):
    """The benchmark cannot measure (as opposed to a wrong program output)."""


def _load_program():
    """Import instructsmith from this checkout's src, or return None."""
    init = SRC / "instructsmith" / "__init__.py"
    if not init.is_file():
        return None
    sys.path.insert(0, str(SRC))
    import instructsmith
    if Path(instructsmith.__file__).resolve() != init.resolve():
        return None
    return instructsmith


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import workloads
    return {"nproc": workloads.usable_cores(), "cpu_count": os.cpu_count(),
            "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_sha": git_sha()}


def probe_setup(name: str, seed: int, config_path: Path) -> float:
    """Wall seconds of one fresh interpreter running setup_probe.py."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), name,
           str(config_path), str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"setup probe failed:\n{proc.stderr[-4000:]}")
    return seconds


def _line_count(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def check_audit(dataset: Path, out_dir: Path, planted: list[str],
                outcome: dict) -> list[str]:
    """Problems with one audit: every planted copy of a dataset row must come
    back as its item's top-1 neighbour at similarity 1 and be removed."""
    problems = []
    with open(dataset, encoding="utf-8") as fh:
        outputs = [json.loads(line)["output"] for line in fh]
    with open(out_dir / "leakage_report.json", encoding="utf-8") as fh:
        report = {item["bench_id"]: item for item in json.load(fh)["per_item"]}
    with open(out_dir / "decontam_plan.json", encoding="utf-8") as fh:
        removed = set(json.load(fh)["remove_train_ids"])
    for j, text in enumerate(planted):
        top1 = report[f"P{j:02d}"]["neighbors"][0]
        row = int(top1["train_id"].split(":", 1)[0])
        if top1["similarity"] < 0.9999 or outputs[row] != text:
            problems.append(f"planted copy P{j:02d} not recovered: {top1}")
        elif top1["train_id"] not in removed:
            problems.append(f"planted copy P{j:02d} found but not removed")
    cleaned = _line_count(out_dir / "dataset.cleaned.jsonl")
    if cleaned != len(outputs) - outcome["removed"] or cleaned != outcome["remaining"]:
        problems.append(f"cleaned dataset has {cleaned} rows, expected "
                        f"{len(outputs)} - {outcome['removed']}")
    return problems


def iterate(name: str, seed: int, inputs, state: dict, directory: Path, *,
            tracer=None, reference: bool = False) -> dict:
    """One repetition: synthesize, audit, check. Returns its measurements.

    The repetition's files are deleted at its end. Kept, their dirty pages
    pile up and later repetitions slow down under write-back.
    """
    import workloads
    from instructsmith.pipeline import PipelineConfig, audit_and_plan

    workdir = directory / "work"
    config = PipelineConfig.from_dict(
        workloads.config_dict(name, seed, inputs.corpus, workdir, reference=reference))
    gen, disc = workloads.build_backends(name, config, seed, reference=reference)

    def timed(fn, root):
        """(wall seconds, result) of fn(), as a root span when tracing."""
        # Start every timed call from an empty collector: which cyclic
        # collections land inside the call then depends on the call alone,
        # not on garbage the harness or an earlier call left behind.
        gc.collect()
        t0 = time.perf_counter()
        if tracer is None:
            result = fn()
        else:
            with tracer.root(root):
                result = fn()
        return time.perf_counter() - t0, result

    legs = workloads.synthesize(name, config, gen, disc,
                                clock=lambda fn: timed(fn, "synth")[0],
                                reference=reference)
    peak = getattr(gen, "peak_in_flight", 0)
    del gen, disc  # their transcripts would stay live through the audits
    with open(workdir / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    dataset = config.output_path
    if "planted" not in state:
        state["planted"] = workloads.plant_copies(inputs, dataset, seed)

    audit_times = []
    for r in range(AUDIT_REPEATS[name]):
        out_dir = directory / f"audit{r}"
        seconds, outcome = timed(lambda: audit_and_plan(
            dataset, inputs.bench, out_dir, top_k=TOP_K, n_per_item=N_PER_ITEM),
            "audit")
        audit_times.append(seconds)

    counts = summary["counts"]
    problems = []
    rows = _line_count(dataset)
    if counts["emitted"] != config.target_accepted or rows != config.target_accepted:
        problems.append(f"dataset has {rows} rows (summary says {counts['emitted']}), "
                        f"expected {config.target_accepted}")
    problems += check_audit(dataset, out_dir, state["planted"], outcome)
    if peak > config.max_in_flight:
        problems.append(f"{peak} sends in flight, max_in_flight is {config.max_in_flight}")
    result = {
        "synth_s": sum(legs), "legs_s": legs,
        "audit_s": statistics.median(audit_times), "audit_runs_s": audit_times,
        "emitted": counts["emitted"], "attempted": counts["generated"],
        "quarantined": counts["quarantined"],
        "good": counts["good"], "bad": counts["bad"],
        "stage_seconds": summary["stage_seconds"],
        "workdir_mb": tree_bytes(workdir) / 2**20,
        "digests": {"dataset.jsonl": sha256_of(dataset),
                    "decontam_plan.json": sha256_of(out_dir / "decontam_plan.json"),
                    "dataset.cleaned.jsonl": sha256_of(out_dir / "dataset.cleaned.jsonl")},
        "max_in_flight": config.max_in_flight,
        "target_accepted": config.target_accepted,
        "problems": problems,
    }
    shutil.rmtree(directory)
    return result


def stored_digests(name: str, seed: int) -> dict | None:
    if not DIGESTS.is_file():
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _median(values):
    return statistics.median(values) if values else float("nan")


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    import tracing

    env = environment()
    base = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    OUT_ROOT.mkdir(exist_ok=True)
    stem = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    try:
        inputs = workloads.make_inputs(name, seed, base / "inputs")
        setup_times: list[float] = []
        wanted_probes = 0 if trace else SETUP_RUNS
        if wanted_probes:
            probe_config = base / "probe_config.json"
            probe_config.write_text(json.dumps(workloads.config_dict(
                name, seed, inputs.corpus, base / "probe_work")))
            setup_times.append(probe_setup(name, seed, probe_config))

        tracer = tracing.Tracer() if trace else None
        state: dict = {}
        runs, layer_runs, failure = [], [], None
        t_start = time.perf_counter()
        durations: list[float] = []
        while True:
            t_run = time.perf_counter()
            traced = trace and len(runs) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install()
            try:
                res = iterate(name, seed, inputs, state, base / f"it{len(runs)}",
                              tracer=tracer if traced else None)
            except Exception:
                failure = traceback.format_exc()
                break
            finally:
                if traced:
                    tracer.uninstall()
            res["traced"] = traced
            if traced:
                res["layers"], res["tails"] = tracing.layer_metrics(
                    tracer, res["max_in_flight"])
                res["self_s"] = tracing.self_times(
                    [s for s in tracer.spans if s.root.name == "synth" and s.root is not s])
                res["last_leg_callees_s"] = _last_leg_callees(tracer)
                layer_runs.append(res)
            runs.append(res)
            if res["problems"]:
                break
            durations.append(time.perf_counter() - t_run)
            # spread the set-up probes over the run rather than one burst
            if len(setup_times) < wanted_probes:
                setup_times.append(probe_setup(name, seed, probe_config))
            # stop when another repetition would likely end past the deadline
            left = seconds - (time.perf_counter() - t_start)
            if len(runs) >= MIN_RUNS and left < statistics.median(durations):
                break
        measured_s = time.perf_counter() - t_start
        while not failure and len(setup_times) < wanted_probes:
            setup_times.append(probe_setup(name, seed, probe_config))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = [p for r in runs for p in r["problems"]]
        if failure:
            problems.append("a run aborted:\n" + failure)
        digest_note = "no complete run"
        if runs and not failure:
            first = runs[0]["digests"]
            if any(r["digests"] != first for r in runs):
                problems.append("output bytes differ between repetitions")
            expected = stored_digests(name, seed)
            digest_note = f"match the stored reference for seed {seed}"
            if expected is None:
                expected = reference_digests(name, seed, inputs, state, base)
                digest_note = "match an in-run reference run (seed not in digests.json)"
            if expected != first:
                problems.append(f"output digests {first} differ from the "
                                f"reference {expected}")
                digest_note = "MISMATCH"
        if tracer is not None and tracer.absent:
            print("absent hook targets: " + ", ".join(tracer.absent))
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still works there
            pass

    untraced = [r for r in runs if not r["traced"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["quarantined"] for r in runs)
    if problems:
        # every record of a wrong or aborted run counts as failed
        failed = max(attempted, 1)
        attempted = max(attempted, 1)
    correct = not problems

    print(f"perfbench {name} seed={seed} trace={int(trace)}: {len(runs)} runs "
          f"in {measured_s:.1f} s ({len(untraced)} untraced)")
    synth = _median([r["synth_s"] for r in untraced])
    end_to_end = {
        "setup_s": _median(setup_times),
        "synth_s": synth,
        "accepted_per_s": (untraced[0]["emitted"] / synth) if untraced else float("nan"),
        "audit_s": _median([r["audit_s"] for r in untraced]),
        "peak_rss_mb": peak_rss_mb,
        "workdir_mb": _median([r["workdir_mb"] for r in untraced]),
    }
    samples = {"setup_s": setup_times, "synth_s": [r["synth_s"] for r in untraced],
               "audit_s": [r["audit_s"] for r in untraced]}
    for key, value in end_to_end.items():
        if trace and key == "setup_s":
            continue
        values = samples.get(key)
        extra = f"median of {len(values)}, max {max(values):.4g}" if values else ""
        print(f"  {key:<16} {_fmt(value):>12} {UNITS[key]:<11} {extra}")
    failed_frac = failed / attempted if attempted else 0.0
    print(f"  {'failed_frac':<16} {_fmt(failed_frac):>12} {'ratio':<11} "
          f"{failed} of {attempted} records")
    print(f"  digests          {digest_note}")
    for p in problems:
        print(f"  PROBLEM: {p}")

    metrics = _report_layers(layer_runs, untraced, tracer) if trace else end_to_end
    record = {"workload": name, "seed": seed, "trace": int(trace),
              "seconds": seconds, "env": env, "sizes": inputs.sizes,
              "correct": correct, "attempted": attempted, "failed": failed,
              "failed_frac": failed_frac, "problems": problems,
              "setup_runs_s": setup_times, "metrics": metrics,
              "runs": [{k: v for k, v in r.items() if k != "problems"} for r in runs]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None and tracer.spans:
        t0 = min(s.start for s in tracer.spans)
        with open(f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.to_dict(t0), default=str) + "\n")
    print("env " + json.dumps({**env, "seed": seed, **inputs.sizes}))
    units = tracing.UNITS if trace else UNITS
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def _last_leg_callees(tracer) -> dict:
    """Seconds of each stage's wrapped callees within the last synth leg."""
    roots = [s for s in tracer.spans if s.root is s and s.name == "synth"]
    if not roots:
        return {}
    last = roots[-1]
    out: dict = {}
    for s in tracer.spans:
        if s.root is last and s is not last:
            out[s.name] = out.get(s.name, 0.0) + s.seconds
    return out


def _report_layers(layer_runs: list, untraced: list, tracer) -> dict:
    """Print the per-layer table and return the JSON metrics (medians over
    the traced runs)."""
    import tracing

    if not layer_runs:
        return {}
    names = list(layer_runs[0]["layers"])
    metrics = {n: _median([r["layers"][n] for r in layer_runs]) for n in names}
    last = layer_runs[-1]
    good, bad = last["good"], last["bad"]
    metrics["pipeline.accept_ratio"] = good / (good + bad) if good + bad else 0.0
    metrics["trace.overhead_s"] = (_median([r["synth_s"] for r in layer_runs])
                                   - _median([r["synth_s"] for r in untraced]))
    absent = set(tracing.absent_metrics(tracer.absent))
    print(f"  per-layer (median of {len(layer_runs)} traced runs; "
          f"*_s inclusive, self = minus wrapped children):")
    for n in names + ["pipeline.accept_ratio", "trace.overhead_s"]:
        if n in absent:
            print(f"  {n:<34} ABSENT (hook target missing)")
            continue
        tail = last["tails"].get(n, "")
        print(f"  {n:<34} {_fmt(metrics[n]):>12} {tracing.UNITS[n]:<6} {tail}")
    print("  self time per layer, last traced run (s):")
    for n, v in sorted(last["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"    {n:<32} {v:.4f}")
    print("  stage seconds from the last leg's summary.json, and its wrapped callees:")
    for stage in STAGES:
        stage_s = last["stage_seconds"].get(stage, 0.0)
        callees = sum(last["last_leg_callees_s"].get(c, 0.0)
                      for c in STAGE_CALLEES.get(stage, ()))
        verdict = ""
        if stage in STAGE_CALLEES:
            # summary.json rounds to milliseconds
            verdict = "ok" if callees <= stage_s + 0.0015 else "CALLEES EXCEED STAGE"
        print(f"    pipeline.{stage}_s{'':<12} {stage_s:>8.3f}   callees {callees:.4f} {verdict}")
    return {n: v for n, v in metrics.items()
            if n not in absent and n not in WORKLOAD_ONLY}


def reference_digests(name: str, seed: int, inputs, state: dict, base: Path) -> dict:
    """Digests of the workload's reference configuration (see
    workloads.config_dict); paper-serial is its own reference."""
    res = iterate(name, seed, inputs, state, base / "reference", reference=True)
    if res["problems"]:
        raise HarnessError("reference run failed: " + "; ".join(res["problems"]))
    return res["digests"]


def record_digests(names, seeds: range) -> int:
    """Rewrite the digests.json entries of ``names`` x ``seeds``."""
    import workloads

    table = {}
    if DIGESTS.is_file():
        table = json.loads(DIGESTS.read_text())
    for name in names:
        for seed in seeds:
            base = WORK_ROOT / f"record-{name}-{seed}-{os.getpid()}"
            try:
                inputs = workloads.make_inputs(name, seed, base / "inputs")
                digests = reference_digests(name, seed, inputs, {}, base)
            finally:
                shutil.rmtree(base, ignore_errors=True)
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {digests['dataset.jsonl'][:16]}", flush=True)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one at a time."""
    import workloads

    status, rows = 0, []
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        try:
            rows.append((name, json.loads(lines[-1])))
        except (IndexError, json.JSONDecodeError):
            rows.append((name, None))
    print("summary")
    for name, result in rows:
        if result is None:
            print(f"  {name}: no result")
            continue
        frac = result["failed"] / result["attempted"]
        cells = [f"{k}={_fmt(v['value'])} {v['unit']}" for k, v in result["metrics"].items()]
        print(f"  {name}: correct={result['correct']} failed_frac={frac:g} ratio; "
              + "; ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    if _load_program() is None:
        print(f"perfbench: no instructsmith source at {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.record_digests:
        first, _, last = args.record_digests.partition("-")
        names = (workloads.WORKLOADS if args.workload in (None, "all")
                 else [args.workload])
        return record_digests(names, range(int(first), int(last or first) + 1))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
