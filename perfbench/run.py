"""restrictlab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from ``workloads.py`` as a closed loop for about S seconds
(at least one pass) and prints, as its last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
  ``wall_s`` (wall time of the fixed job list: each step's fastest time over
  the passes, summed over the steps),
  ``setup_s`` (median over set-ups, each from a fresh interpreter: import,
  inputs, one warm-up call per kernel shape) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics named in BENCHMARK.json (mean over traced passes), plus
  ``trace.overhead_ratio`` (traced over untraced ``wall_s``, minus 1).
  End-to-end metrics never come from traced passes.

Every pass must produce the same outcome (verdicts, counts, report bytes),
traced or not.  ``error_rate`` is ``failed / attempted``; it is printed above
the result line.  Results, machine facts and the spans of the last traced
pass go to ``perfbench/out/``.  ``--write-golden`` regenerates the golden
corpus of the report-battery workload from the code in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import facts
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_CHILDREN = 2  # fresh-interpreter set-ups besides the run's own; setup_s is the median of all


def _setup(name: str, seed: int):
    rl = workloads.import_restrictlab(ROOT)
    return rl, workloads.WORKLOADS[name](rl, seed, ROOT)


def _child_setup_seconds(name: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _run_pass(rl, workload, traced: bool) -> dict:
    tracer = spans.Tracer()
    ops: list = []
    step_s: list[float] = []
    with spans.substituted(tracer, rl) if traced else nullcontext():
        for step in workload.steps():
            start = time.perf_counter()
            ops += step()
            step_s.append(time.perf_counter() - start)
    wall = sum(step_s)
    outcome = workload.evaluate(ops)
    result = {"traced": traced, "wall": wall, "step_s": step_s, "outcome": outcome}
    if traced:
        result["layers"], accounting = spans.metrics(tracer.spans, wall, outcome.report_bytes)
        outcome.errors.extend(accounting)
        result["spans"] = tracer.spans
    return result


def _job_list_seconds(passes: list[dict]) -> float:
    """Each step's fastest time over the passes, summed over the steps.

    On a shared machine the same work runs up to twice as slow for stretches
    of seconds; that only ever adds time.  Steps are short (0.01-0.5 s) and
    each is timed once per pass, so its fastest time is the one least touched
    by other tenants, and a slow stretch costs nothing unless it covers every
    pass of a step.
    """
    return sum(min(times) for times in zip(*(p["step_s"] for p in passes)))


def _check_counts(passes: list[dict]) -> list[str]:
    """Counts read from spans must equal the same counts read from results."""
    errors = []
    for p in passes:
        if not p["traced"]:
            continue
        for name, value in p["outcome"].counts.items():
            if p["layers"][name] != value:
                errors.append(f"traced {name} = {p['layers'][name]}, results say {value}")
    return errors


def _declared(spec: dict, key: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[key]}


def write_golden() -> int:
    rl = workloads.import_restrictlab(ROOT)
    golden_dir = ROOT / "perfbench" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    ring = rl.zmod.make_ring(15)
    values = rl.families.sparse_values(ring, rl.rng.spawn_rng(2025, 15), 6)
    (golden_dir / workloads.RECOVER_INPUT).write_text(rl.fourier.signal_to_json(rl.fourier.Signal2D(ring, values)) + "\n")
    for name, argv in workloads.battery_argv(golden_dir):
        code, text = workloads.run_cli(rl, argv)
        if code != workloads.EXPECTED_EXIT:
            raise RuntimeError(f"{' '.join(argv)} exited with {code}")
        (golden_dir / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(workloads.battery_argv(golden_dir))} reports to {golden_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true", help="regenerate perfbench/golden and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")

    started = time.perf_counter()
    rl, workload = _setup(args.workload, args.seed)
    setup_samples = [time.perf_counter() - started]
    if args.setup_only:
        print(f"{setup_samples[0]!r}")
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not args.trace:
        setup_samples += [_child_setup_seconds(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]

    passes: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        passes.append(_run_pass(rl, workload, traced=False))
        if args.trace:
            passes.append(_run_pass(rl, workload, traced=True))
        cycle = time.perf_counter() - cycle_start
        if time.perf_counter() - loop_start + cycle > args.seconds:
            break

    attempted = sum(p["outcome"].attempted for p in passes)
    failed = sum(p["outcome"].failed for p in passes)
    errors = [e for p in passes for e in p["outcome"].errors]
    first = passes[0]["outcome"].digest
    errors += [f"pass {i + 1} outcome differs from pass 1" for i, p in enumerate(passes) if p["outcome"].digest != first]
    errors += _check_counts(passes)

    untraced_wall = _job_list_seconds([p for p in passes if not p["traced"]])
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {k: statistics.fmean(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
        metrics["trace.overhead_ratio"] = _job_list_seconds(traced) / untraced_wall - 1.0
        declared = _declared(spec, "per_layer")
    else:
        metrics = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared(spec, "end_to_end")
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")

    machine = facts.machine_facts(ROOT)
    error_rate = failed / attempted if attempted else 1.0
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "passes": [{"traced": p["traced"], "wall_s": p["wall"], "step_s": p["step_s"]} for p in passes],
        "setup_samples_s": setup_samples,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "errors": errors,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for span in passes[-1]["spans"]:
                fh.write(json.dumps(span, default=str) + "\n")

    for line in errors[:20]:
        print(f"error: {line}", file=sys.stderr)
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"passes {len(passes)}  error_rate {error_rate!r} (failed {failed} of {attempted} operations)")
    for name in sorted(metrics):
        print(f"  {name:48s} {metrics[name]!r} {declared[name]}")
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
