"""The four workloads: inputs built from a seed, a fixed job list, and checks.

Each workload is a closed loop: one caller, each job starting after the
previous one ends.  ``setup`` imports restrictlab, builds the inputs and makes
one warm-up call per kernel shape.  ``steps`` is the timed part: the fixed job
list cut into short steps (0.01 to 0.5 s each), each a callable that returns
its list of operations.  Steps call only public functions through their module
attributes, so a traced pass sees every call.  ``evaluate`` runs after the
clock stops on the operations of a whole pass: it counts attempted and failed
operations and returns a digest that must be identical on every pass.
"""

from __future__ import annotations

import importlib
import io
import math
import re
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import golden

MODULES = ("zmod", "fourier", "parabola", "restriction", "recovery", "rng", "families", "cli")


@dataclass
class Outcome:
    """What one pass did, read from results after the clock stopped."""

    attempted: int
    failed: int
    errors: list[str]
    digest: list  # must be identical on every pass, traced or not
    counts: dict[str, int] = field(default_factory=dict)  # exact counts a traced pass must reproduce
    report_bytes: int = 0


def import_restrictlab(root: Path) -> SimpleNamespace:
    """Import the package from the checkout's ``src``, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    package = importlib.import_module("restrictlab")
    if Path(package.__file__).resolve().parent.parent != src:
        raise ImportError(f"restrictlab was imported from {package.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"restrictlab.{name}") for name in MODULES})


def _try(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises is a failed operation
        return exc


# --- zone-scan ------------------------------------------------------------
# (N, max_support, keyword arguments).  N=6 size 4 is C(36, 4) = 58,905
# supports on the exhaustive path, the same batched rank test as size 6
# (1,947,792 supports, 12 s, too long a step to repeat within one run); the
# method is not pinned, so a later exhaustive scan stays valid.  At N=15 a
# 5,000-support batch keeps the (batch, 56, 15) complex row stack near 70 MB.
ZONE_JOBS = ((6, 4, {}), (6, 8, {"samples": 50_000}), (15, 56, {"samples": 5_000, "batch": 5_000}))


class ZoneScan:
    def __init__(self, rl, seed: int, root: Path) -> None:
        self.rl, self.seed = rl, seed
        self.sigma = {n: rl.parabola.build_parabola(rl.zmod.make_ring(n)) for n in (6, 15)}
        rl.restriction.uncertainty_search(self.sigma[6], 2)
        rl.restriction.uncertainty_search(self.sigma[6], 8, samples=1_000, seed=seed)
        rl.restriction.uncertainty_search(self.sigma[15], 56, samples=200, seed=seed)

    def steps(self) -> list[Callable[[], list]]:
        return [partial(self._search, n, size, kwargs) for n, size, kwargs in ZONE_JOBS]

    def _search(self, n: int, size: int, kwargs: dict) -> list:
        return [_try(self.rl.restriction.uncertainty_search, self.sigma[n], size, seed=self.seed, **kwargs)]

    def evaluate(self, ops: list) -> Outcome:
        errors, digest = [], []
        for (n, size, _), v in zip(ZONE_JOBS, ops):
            if isinstance(v, Exception):
                errors.append(f"uncertainty N={n} size={size}: {v!r}")
                continue
            if v.found:
                errors.append(f"uncertainty N={n} size={size}: witness found inside the forbidden zone")
            digest.append((n, size, v.found, v.method, v.supports_checked, v.min_margin))
        checked = {"restriction.supports_checked": sum(d[4] for d in digest)}
        return Outcome(len(ops), len(errors), errors, digest, checked)


# --- recovery-sweep -------------------------------------------------------
# (N, sizes, trials).  Below the line N^2/(2|S|) every trial must be exact:
# 1..7 at N=15 and 1..17 at N=35.  The bands above it (measured exact, but
# with 1.5-2.5x the iterations and long tails) count only as telemetry.
# Iterations per solve vary by instance (51 to a few thousand), so the work of
# one seed differs from that of another.  Over seeds 201-220 the iteration
# count of this list, weighted by the cost of an iteration at each N, varied
# by 4.1% (coefficient of variation).  Rare slow solves at N=35 add 24 times
# more of that variation per second of work than N=15 solves, so N=35 gets
# two trials per size and its band above the line stops at 65.
SWEEP_JOBS = (
    (15, tuple(range(1, 8)), 40),
    (35, tuple(range(1, 18)), 2),
    (15, (20, 30, 40, 50, 60), 12),
    (35, (40, 65), 2),
)
# One step per (N, size); trials draw from (seed, size, trial)-keyed streams,
# so a step gives the same rows as the whole sweep would.
SWEEP_STEPS = tuple((n, (size,), trials) for n, sizes, trials in SWEEP_JOBS for size in sizes)


class RecoverySweep:
    def __init__(self, rl, seed: int, root: Path) -> None:
        self.rl, self.seed = rl, seed
        self.ring = {n: rl.zmod.make_ring(n) for n in (15, 35)}
        for ring in self.ring.values():
            rl.recovery.threshold_sweep(ring, [1], 1, seed)

    def steps(self) -> list[Callable[[], list]]:
        return [partial(self._sweep, n, sizes, trials) for n, sizes, trials in SWEEP_STEPS]

    def _sweep(self, n: int, sizes: tuple, trials: int) -> list:
        return [_try(self.rl.recovery.threshold_sweep, self.ring[n], sizes, trials, self.seed)]

    def evaluate(self, ops: list) -> Outcome:
        attempted, errors, digest = 0, [], []
        failed = 0
        for (n, sizes, trials), rows in zip(SWEEP_STEPS, ops):
            attempted += trials * len(sizes)
            if isinstance(rows, Exception):
                failed += trials * len(sizes)
                errors.append(f"threshold_sweep N={n}: {rows!r}")
                continue
            for row in rows:
                if row.e_size < row.ds_threshold and row.exact_count < row.trials:
                    failed += row.trials - row.exact_count
                    errors.append(f"sweep N={n} size={row.e_size}: {row.exact_count}/{row.trials} exact below the line")
                total_iterations = round(row.mean_iterations * row.trials)
                digest.append((n, row.e_size, row.trials, row.exact_count, row.non_unique, total_iterations))
        counts = {"recovery.dr_iterations": sum(d[5] for d in digest), "recovery.logan_recover.calls": sum(d[2] for d in digest)}
        return Outcome(attempted, failed, errors, digest, counts)


# --- moment-fuzz ----------------------------------------------------------
# Criteria 3/4 shape: Gaussian batches through the batched kernels, then the
# structured families one signal at a time through the same kernels.  The
# N=105 batch (about 44 MB of complex grids) does not fit in L2.
MOMENT_MODULI = (6, 10, 15, 30, 35, 105)
MOMENT_BATCH = 250
MOMENT_BATCHES = 2
MOMENT_STRUCTURED = 28  # four cycles of the seven structured kinds


def _ratio(lhs: float, rhs: float) -> float:
    if rhs == 0.0:
        return 0.0 if lhs < 1e-12 else math.inf
    return lhs / rhs


class MomentFuzz:
    def __init__(self, rl, seed: int, root: Path) -> None:
        self.rl, self.seed = rl, seed
        self.cases = []
        for n in MOMENT_MODULI:
            ring = rl.zmod.make_ring(n)
            sigma = rl.parabola.build_parabola(ring)
            gen = rl.rng.spawn_rng(seed, n, 0)
            signals = [
                gen.standard_normal((MOMENT_BATCH, n, n)) + 1j * gen.standard_normal((MOMENT_BATCH, n, n))
                for _ in range(MOMENT_BATCHES)
            ]
            coefficients = [
                gen.standard_normal((MOMENT_BATCH, n)) + 1j * gen.standard_normal((MOMENT_BATCH, n))
                for _ in range(MOMENT_BATCHES)
            ]
            limit = rl.restriction.certified_constant(ring) + 1e-9
            self.cases.append((ring, sigma, signals, coefficients, limit))
            rl.restriction.restriction_quantities(ring, signals[0], sigma)
            rl.restriction.restriction_quantities(ring, signals[0][0], sigma)
            rl.restriction.dual_ratios(ring, coefficients[0], sigma)
            rl.restriction.dual_ratios(ring, coefficients[0][0], sigma)

    def steps(self) -> list[Callable[[], list]]:
        out: list[Callable[[], list]] = []
        for ring, sigma, signals, coefficients, _ in self.cases:
            out += [partial(self._batch, ring, sigma, "restriction", batch) for batch in signals]
            out += [partial(self._batch, ring, sigma, "dual", batch) for batch in coefficients]
            out += [partial(self._structured, ring, sigma)]
        return out

    def _batch(self, ring, sigma, kind: str, batch) -> list:
        fn = self.rl.restriction.restriction_quantities if kind == "restriction" else self.rl.restriction.dual_ratios
        return [(ring.modulus, kind, MOMENT_BATCH, _try(fn, ring, batch, sigma))]  # (N, kind, signals, result)

    def _structured(self, ring, sigma) -> list:
        rl, n, ops = self.rl, ring.modulus, []
        quantities, ratios = rl.restriction.restriction_quantities, rl.restriction.dual_ratios
        for _, grid in rl.families.structured_values(ring, MOMENT_STRUCTURED, rl.rng.spawn_rng(self.seed, n, 1)):
            ops.append((n, "restriction", 1, _try(quantities, ring, grid, sigma)))
        for _, c in rl.families.structured_coefficients(ring, MOMENT_STRUCTURED, rl.rng.spawn_rng(self.seed, n, 2)):
            ops.append((n, "dual", 1, _try(ratios, ring, c, sigma)))
        return ops

    def evaluate(self, ops: list) -> Outcome:
        attempted, failed, errors = 0, 0, []
        ratios: dict[int, list[float]] = {ring.modulus: [] for ring, *_ in self.cases}
        limits = {ring.modulus: limit for ring, *_, limit in self.cases}
        for n, kind, count, out in ops:
            attempted += count
            if isinstance(out, Exception):
                failed += count
                errors.append(f"{kind} N={n}: {out!r}")
                continue
            if kind == "restriction":
                got = [_ratio(float(a), float(b)) for a, b in zip(out[0].reshape(-1), out[1].reshape(-1))]
            else:
                got = [float(r) for r in out.reshape(-1)]
            bad = sum(1 for r in got if not (math.isfinite(r) and r <= limits[n]))
            if bad:
                failed += bad
                errors.append(f"{kind} N={n}: {bad} ratios above {limits[n]} or not finite")
            ratios[n].extend(got)
        expected = 2 * MOMENT_BATCHES * MOMENT_BATCH + 2 * MOMENT_STRUCTURED
        errors += [f"N={n}: {len(r)} signals checked, expected {expected}" for n, r in ratios.items() if len(r) != expected]
        digest = [(n, len(r), max(r, default=0.0), sum(r)) for n, r in ratios.items()]
        return Outcome(attempted, failed, errors, digest)


# --- report-battery -------------------------------------------------------
# Every CLI command, both formats, in-process, at fixed reference arguments so
# the reports can be compared with the committed golden corpus.  The workload
# seed does not change these inputs.
RECOVER_INPUT = "input-signal-n15.json"
SUMMARIZE_INPUTS = ("04-restrict-verify.csv", "05-dual-verify.csv", "06-sharpness.csv")
BATTERY = (
    ("energy", ["--n", "2..300"]),
    ("certificate", ["--n", "2..300", "--squarefree-only"]),
    ("decay", ["--n", "2..200"]),  # more moduli than the 128-entry DFT matrix cache holds
    ("restrict-verify", ["--n", "105", "--trials", "200"]),
    ("dual-verify", ["--n", "105", "--trials", "200"]),
    ("sharpness", ["--n", "9", "25", "49", "10", "26", "51"]),
    ("uncertainty", ["--n", "6", "15", "--max-support", "4", "--trials", "500"]),
    ("recover", ["--n", "15", "--input", "{golden}/" + RECOVER_INPUT]),
    ("sweep", ["--n", "15", "--sizes", "1..7", "--trials", "5"]),
    ("summarize", ["{golden}/" + name for name in SUMMARIZE_INPUTS]),
)
BATTERY_WARMUP = (
    ["energy", "--n", "2..12"],
    ["certificate", "--n", "2..12", "--squarefree-only"],
    ["decay", "--n", "2..12"],
    ["restrict-verify", "--n", "105", "--trials", "7"],
    ["dual-verify", "--n", "105", "--trials", "5"],
    ["sharpness", "--n", "9", "--trials", "5"],
    ["uncertainty", "--n", "6", "15", "--max-support", "2", "--trials", "100"],
    ["recover", "--n", "15", "--input", "{golden}/" + RECOVER_INPUT],
    ["sweep", "--n", "15", "--sizes", "1", "--trials", "1"],
    ["summarize", "{golden}/" + SUMMARIZE_INPUTS[0]],
)
EXPECTED_EXIT = 0
WALLTIME = re.compile(r"walltime_s=\S*")


def battery_argv(golden_dir: Path) -> list[tuple[str, list[str]]]:
    """(golden file name, argv) for every invocation, CSV first, then JSON."""
    out = []
    for fmt in ("csv", "json"):
        for i, (command, args) in enumerate(BATTERY, start=1):
            argv = [command] + [a.format(golden=golden_dir) for a in args] + ["--format", fmt]
            out.append((f"{i:02d}-{command}.{fmt}", argv))
    return out


def run_cli(rl, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = rl.cli.main(argv)
    return code, WALLTIME.sub("walltime_s=", buf.getvalue())


class ReportBattery:
    def __init__(self, rl, seed: int, root: Path) -> None:
        self.rl = rl
        self.golden_dir = root / "perfbench" / "golden"
        self.invocations = battery_argv(self.golden_dir)
        self.expected: dict[str, str] | None = None
        for argv in BATTERY_WARMUP:
            run_cli(rl, [a.format(golden=self.golden_dir) for a in argv])

    def steps(self) -> list[Callable[[], list]]:
        return [partial(self._invoke, argv) for _, argv in self.invocations]

    def _invoke(self, argv: list[str]) -> list:
        return [_try(run_cli, self.rl, argv)]

    def evaluate(self, ops: list) -> Outcome:
        if self.expected is None:  # read here, not in __init__: set-up time is the program's alone
            self.expected = {name: (self.golden_dir / name).read_text(encoding="utf-8") for name, _ in self.invocations}
        errors, digest, nbytes = [], [], 0
        for (name, argv), out in zip(self.invocations, ops):
            if isinstance(out, Exception):
                errors.append(f"{' '.join(argv)}: {out!r}")
                continue
            code, text = out
            nbytes += len(text.encode("utf-8"))
            digest.append((name, code, text))
            if code != EXPECTED_EXIT:
                errors.append(f"{name}: exit code {code}, expected {EXPECTED_EXIT}")
                continue
            diff = golden.compare(self.expected[name], text, name.rsplit(".", 1)[1])
            if diff:
                errors.append(f"{name}: {diff}")
        return Outcome(len(ops), len(errors), errors, digest, report_bytes=nbytes)


WORKLOADS: dict[str, Any] = {
    "zone-scan": ZoneScan,
    "recovery-sweep": RecoverySweep,
    "moment-fuzz": MomentFuzz,
    "report-battery": ReportBattery,
}
