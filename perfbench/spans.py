"""In-memory spans around restrictlab's public functions.

Wrappers are installed by attribute substitution.  Modules import functions
by name (``recovery`` binds its own ``dft_array``), so every attribute of every
``restrictlab`` module that is bound to a wrapped function is replaced, and
``substituted`` puts each original back on exit.  A span is
``[name, start, end, parent, tag]``; ``tag`` holds counts read from the call's
arguments and return value.  Nothing here imports numpy, so importing this
module costs nothing that ``setup_s`` should see.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable

CLI_COMMANDS = (
    "energy",
    "decay",
    "restrict-verify",
    "dual-verify",
    "certificate",
    "uncertainty",
    "sharpness",
    "recover",
    "sweep",
    "summarize",
)

VERIFY_FAMILY = ("restriction.verify_main_theorem", "restriction.verify_restriction", "restriction.verify_dual")


def _grids(values: Any, trailing: int) -> int:
    return math.prod(values.shape[:-trailing])


def _tag_transform(args, result):
    return (args[0], args[1].shape)


def _tag_energy(args, result):
    return result.subset_size**2


def _tag_search(args, result):
    return (f"n{result.n}-{result.method}", result.supports_checked, result.min_margin)


def _tag_signals(args, result):
    return _grids(args[1], 2)


def _tag_coefficients(args, result):
    return _grids(args[1], 1)


def _tag_solve(args, result):
    problem = args[0]
    n = problem.ring.modulus
    if problem.support_hint is not None:
        e_size = len(problem.support_hint)
    else:
        e_size = int((problem.true_signal.values != 0).sum())
    below_line = e_size < n * n / (2.0 * int(problem.unobserved.sum()))
    return (result.iterations, result.status, bool(result.exact), below_line)


# (module, function, tag hook); generators are detected and timed per item.
WRAPPED: tuple[tuple[str, str, Callable | None], ...] = (
    ("zmod", "make_ring", None),
    ("fourier", "dft_array", _tag_transform),
    ("fourier", "idft_array", _tag_transform),
    ("parabola", "build_parabola", None),
    ("parabola", "energy_exact", _tag_energy),
    ("parabola", "decay_profile", None),
    ("restriction", "extension_matrix", None),
    ("restriction", "uncertainty_search", _tag_search),
    ("restriction", "restriction_quantities", _tag_signals),
    ("restriction", "dual_ratios", _tag_coefficients),
    ("restriction", "verify_restriction", None),
    ("restriction", "verify_main_theorem", None),
    ("restriction", "verify_dual", None),
    ("restriction", "sharpness_probe", None),
    ("restriction", "universal_certificate", None),
    ("recovery", "threshold_sweep", None),
    ("recovery", "logan_recover", _tag_solve),
    ("recovery", "random_instance", None),
    ("rng", "spawn_rng", None),
    ("families", "structured_values", None),
    ("families", "structured_coefficients", None),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans of one traced pass; single threaded, closed loop."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack = [-1]

    def wrap(self, name: str, fn: Callable, tag: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        per_command = name == "cli.main"

        def wrapper(*args, **kwargs):
            span = [f"cli.{args[0][0]}" if per_command else name, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        # The body of a generator runs inside next(), so each item is a span
        # tagged 1, and the final next() that ends it a span tagged 0.
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1], 1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = clock()
                try:
                    item = next(items)
                except StopIteration:
                    span[4] = 0
                    return
                finally:
                    span[2] = clock()
                    stack.pop()
                yield item

        return wrapper


@contextmanager
def substituted(tracer: Tracer, rl: Any):
    """Install wrappers on every restrictlab module attribute bound to a target."""
    originals = {}
    for module, fn_name, tag in WRAPPED:
        fn = getattr(getattr(rl, module), fn_name)
        name = f"{module}.{fn_name}"
        wrapper = tracer.wrap_generator(name, fn) if inspect.isgeneratorfunction(fn) else tracer.wrap(name, fn, tag)
        originals[id(fn)] = (fn, wrapper)
    modules = [m for key, m in sys.modules.items() if key == "restrictlab" or key.startswith("restrictlab.")]
    swapped = []
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(mod, attr, originals[id(value)][1])
                    swapped.append((mod, attr, value))
        for fn, wrapper in originals.values():
            if getattr(sys.modules[fn.__module__], fn.__name__) is not wrapper:
                raise AssertionError(f"{fn.__module__}.{fn.__name__} was not substituted")
        yield
    finally:
        for mod, attr, value in swapped:
            setattr(mod, attr, value)
    wrappers = {id(w) for _, w in originals.values()}
    for mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in wrappers:
                raise AssertionError(f"wrapper left on {mod.__name__}.{attr}")


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(spans: list[list[Any]], wall: float, report_bytes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, and any span-accounting errors.

    Self time is a span's duration minus its children's durations.  The
    layers' self times plus ``driver.self_s`` equal the traced ``wall_s``;
    the accounting check confirms that every child lies inside its parent and
    every top-level span inside the pass.
    """
    errors: list[str] = []
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _ in spans:
        if parent < 0:
            top += end - start
        else:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                errors.append(f"span {name} is not inside its parent {p[0]}")
            child[parent] += end - start
    if top > wall:
        errors.append(f"top-level spans cover {top:.6f} s of a {wall:.6f} s pass")

    by_name: dict[str, list[list[Any]]] = {}
    self_s: dict[str, float] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(span)
        layer = span[0].split(".", 1)[0]
        self_s[layer] = self_s.get(layer, 0.0) + (span[2] - span[1]) - child[i]

    def named(name: str) -> list[list[Any]]:
        return by_name.get(name, [])

    def seconds(name: str) -> float:
        return sum(end - start for _, start, end, _, _ in named(name))

    m: dict[str, float] = {}

    # fourier: dense DFT, W @ X @ W / N.  Computed, not measured: 16 N^3 real
    # flops per grid (two complex N x N matmuls), and 16 N^2 (6 B + 2) bytes per
    # call of B grids (each matmul reads the grids and W and writes the grids;
    # the division by N reads and writes them once more).
    transforms = named("fourier.dft_array") + named("fourier.idft_array")
    split = {"single": [0, 0.0, 0.0, 0.0], "batched": [0, 0.0, 0.0, 0.0]}  # grids, s, flop, bytes
    for _, start, end, _, (n, shape) in transforms:
        grids = math.prod(shape[:-2])
        acc = split["single" if len(shape) == 2 else "batched"]
        acc[0] += grids
        acc[1] += end - start
        acc[2] += 16.0 * n**3 * grids
        acc[3] += 16.0 * n * n * (6 * grids + 2)
    transform_s = split["single"][1] + split["batched"][1]
    gflop = (split["single"][2] + split["batched"][2]) / 1e9
    m["fourier.transform.calls"] = len(transforms)
    m["fourier.transform.grids"] = split["single"][0] + split["batched"][0]
    m["fourier.transform.s"] = transform_s
    for kind, (grids, s, flop, nbytes) in split.items():
        m[f"fourier.transform.{kind}.grids"] = grids
        m[f"fourier.transform.{kind}.us_per_grid"] = _ratio(s * 1e6, grids)
        m[f"fourier.transform.{kind}.gflop_computed"] = flop / 1e9
        m[f"fourier.transform.{kind}.mb_computed"] = nbytes / 1e6
    m["fourier.transform.gflop_computed"] = gflop
    m["fourier.transform.mb_computed"] = (split["single"][3] + split["batched"][3]) / 1e6
    m["fourier.transform.gflop_per_s"] = _ratio(gflop, transform_s)

    m["parabola.build_parabola.s"] = seconds("parabola.build_parabola")
    m["parabola.energy_exact.calls"] = len(named("parabola.energy_exact"))
    m["parabola.energy_exact.s"] = seconds("parabola.energy_exact")
    m["parabola.energy_exact.pairs"] = sum(s[4] for s in named("parabola.energy_exact"))
    m["parabola.decay_profile.calls"] = len(named("parabola.decay_profile"))
    m["parabola.decay_profile.s"] = seconds("parabola.decay_profile")

    searches = named("restriction.uncertainty_search")
    m["restriction.uncertainty_search.s"] = seconds("restriction.uncertainty_search")
    m["restriction.supports_checked"] = sum(s[4][1] for s in searches)
    for key in ("n6-exhaustive", "n6-randomized", "n15-randomized"):
        keyed = [s for s in searches if s[4][0] == key]
        m[f"restriction.supports_per_s.{key}"] = _ratio(sum(s[4][1] for s in keyed), sum(s[2] - s[1] for s in keyed))
    m["restriction.min_margin"] = min((s[4][2] for s in searches), default=0.0)
    m["restriction.extension_matrix.s"] = seconds("restriction.extension_matrix")
    for fn in ("restriction_quantities", "dual_ratios"):
        m[f"restriction.{fn}.calls"] = len(named(f"restriction.{fn}"))
        m[f"restriction.{fn}.signals"] = sum(s[4] for s in named(f"restriction.{fn}"))
        m[f"restriction.{fn}.s"] = seconds(f"restriction.{fn}")
    outer_verify = [
        s for name in VERIFY_FAMILY for s in named(name) if s[3] < 0 or spans[s[3]][0] not in VERIFY_FAMILY
    ]
    m["restriction.verify.calls"] = len(outer_verify)
    m["restriction.verify.s"] = sum(s[2] - s[1] for s in outer_verify)
    m["restriction.sharpness_probe.s"] = seconds("restriction.sharpness_probe")
    m["restriction.universal_certificate.s"] = seconds("restriction.universal_certificate")

    solves = named("recovery.logan_recover")
    solve_ms = [(s[2] - s[1]) * 1e3 for s in solves]
    iterations = sum(s[4][0] for s in solves)
    m["recovery.threshold_sweep.s"] = seconds("recovery.threshold_sweep")
    m["recovery.logan_recover.calls"] = len(solves)
    m["recovery.logan_recover.s"] = seconds("recovery.logan_recover")
    m["recovery.logan_recover.solve_ms_p50"] = statistics.median(solve_ms) if solve_ms else 0.0
    m["recovery.logan_recover.solve_ms_p99"] = _percentile(solve_ms, 0.99) if solve_ms else 0.0
    m["recovery.dr_iterations"] = iterations
    m["recovery.iterations_per_solve"] = _ratio(iterations, len(solves))
    m["recovery.us_per_iteration"] = _ratio(m["recovery.logan_recover.s"] * 1e6, iterations)
    for status in ("converged", "max_iterations", "non_unique"):
        m[f"recovery.status.{status}"] = sum(1 for s in solves if s[4][1] == status)
    for side, below in (("below_line", True), ("above_line", False)):
        group = [s for s in solves if s[4][3] is below]
        m[f"recovery.exact_ratio.{side}"] = _ratio(sum(1 for s in group if s[4][2]), len(group))
    m["recovery.random_instance.s"] = seconds("recovery.random_instance")

    m["rng.spawn_rng.calls"] = len(named("rng.spawn_rng"))
    m["rng.spawn_rng.s"] = seconds("rng.spawn_rng")
    items = named("families.structured_values") + named("families.structured_coefficients")
    m["families.signals"] = sum(s[4] for s in items)
    m["families.s"] = sum(s[2] - s[1] for s in items)
    m["zmod.make_ring.calls"] = len(named("zmod.make_ring"))
    m["zmod.make_ring.s"] = seconds("zmod.make_ring")

    for command in CLI_COMMANDS:
        m[f"cli.{command}.s"] = seconds(f"cli.{command}")
    m["cli.report_bytes"] = report_bytes

    # rng, families and zmod spans have no wrapped children: their ``.s`` is their self time.
    for layer in ("fourier", "parabola", "restriction", "recovery", "cli"):
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["driver.self_s"] = wall - sum(self_s.values())
    m["trace.wall_s"] = wall
    return m, errors
