"""Command-line harness around the verification and recovery experiments.

Every subcommand reads one seed, emits CSV (default) or JSON, and exits with
0 on success, 1 when a certified inequality or recovery guarantee fails, and
2 on usage errors.  CSV reports carry a header row and a trailing comment
line with the seed, package version, and wall time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from . import __version__
from .families import structured_coefficients, structured_values
from .fourier import Signal2D, grid_to_json_dict, signal_from_json_dict
from .parabola import ParabolaSet, build_parabola, decay_profile, energy_exact
from .recovery import LoganParams, erase, logan_recover, random_instance, threshold_sweep
from .restriction import (
    SATISFACTION_TOL,
    RestrictionParams,
    RestrictionReport,
    sharpness_probe,
    uncertainty_search,
    universal_certificate,
    verify_dual,
    verify_main_theorem,
    verify_restriction,
)
from .rng import spawn_rng
from .zmod import RingContext, make_ring

GATED_COMMANDS = frozenset({"restrict-verify", "dual-verify", "certificate", "uncertainty"})

VERIFY_COLUMNS = ("N", "omega", "squarefree", "r", "lhs", "rhs", "ratio", "constant", "satisfied", "witness_kind")

ENERGY_COLUMNS = ("N", "omega", "subset_size", "energy", "bound", "max_rep")

DECAY_COLUMNS = ("N", "omega", "squarefree", "max_magnitude", "max_ratio", "witness_m1", "witness_m2")

CERTIFICATE_COLUMNS = ("N", "omega", "lambda_size", "lambda_energy", "implied_constant", "certified_constant", "satisfied")

UNCERTAINTY_COLUMNS = ("N", "omega", "max_support", "method", "supports_checked", "found", "min_margin")

SOLVER_COLUMNS = ("iterations", "residual", "final_objective", "exact", "status")

RECOVER_COLUMNS = ("N", "S_size", "E_size", *SOLVER_COLUMNS, "ds_threshold", "improved_threshold")

SWEEP_COLUMNS = (
    "N",
    "S_size",
    "E_size",
    "trials",
    "exact_rate",
    "mean_iterations",
    "ds_threshold",
    "improved_threshold",
)

SUMMARY_COLUMNS = ("N", "rows", "max_ratio", "satisfied")


class UsageError(Exception):
    """Bad flags, bad values, or a modulus a gated command cannot accept."""


def _parse_int_tokens(tokens: Sequence[str], what: str) -> list[int]:
    """Expand tokens like "15" and "5..40" into a sorted deduplicated list."""
    out: set[int] = set()
    for token in tokens:
        text = token.strip()
        try:
            if ".." in text:
                lo_text, hi_text = text.split("..", 1)
                lo, hi = int(lo_text), int(hi_text)
                if hi < lo:
                    raise ValueError
                out.update(range(lo, hi + 1))
            else:
                out.add(int(text))
        except ValueError:
            raise UsageError(f"cannot parse {what} token {token!r} (want an integer or a..b)") from None
    return sorted(out)


def _resolve_moduli(args: argparse.Namespace) -> list[RingContext]:
    rings = []
    for n in _parse_int_tokens(args.moduli, "modulus"):
        if n < 2:
            raise UsageError(f"modulus must be >= 2, got {n}")
        rings.append(make_ring(n))
    if args.squarefree_only and args.command != "sharpness":
        rings = [ring for ring in rings if ring.squarefree]
        if not rings:
            raise UsageError("no squarefree moduli left after filtering")
    square_factor = [ring.modulus for ring in rings if not ring.squarefree]
    if args.command in GATED_COMMANDS and square_factor:
        raise UsageError(f"{args.command} requires squarefree moduli, got {square_factor[0]}")
    return rings


def _thread_count() -> int:
    raw = os.environ.get("RESTRICTLAB_THREADS", "").strip()
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise UsageError(f"RESTRICTLAB_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise UsageError(f"RESTRICTLAB_THREADS must be >= 1, got {threads}")
    return threads


def _fmt_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _json_cell(value: Any) -> Any:
    return value.item() if isinstance(value, np.generic) else value


def _render(
    args: argparse.Namespace, columns: Sequence[str], rows: list | dict, started: float
) -> str:
    """The report text in the selected format.

    rows is a list of rows, except for recover --format json, where it is the
    recovered-signal document that takes the place of columns and rows.
    """
    seed = getattr(args, "seed", None)
    if args.format == "json":
        doc: dict[str, Any] = {"command": args.command, "version": __version__, "seed": seed}
        if isinstance(rows, dict):
            doc.update(rows)
        else:
            doc["columns"] = list(columns)
            doc["rows"] = [[_json_cell(v) for v in row] for row in rows]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt_cell(v) for v in row] for row in rows)
    walltime = time.perf_counter() - started
    seed_text = "" if seed is None else str(seed)
    buf.write(f"# seed={seed_text} version={__version__} walltime_s={walltime:.3f}\n")
    return buf.getvalue()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _fields(obj: Any, columns: Sequence[str]) -> list[Any]:
    """obj's attributes named by the columns, lower-cased (column N is field n)."""
    return [getattr(obj, column.lower()) for column in columns]


Report = tuple[Sequence[str], Any, bool]  # (columns, rows, violated)


def _cmd_energy(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    rows = []
    violated = False
    for ring in rings:
        report = energy_exact(build_parabola(ring))
        rows.append([ring.modulus, ring.omega] + _fields(report, ENERGY_COLUMNS[2:]))
        violated = violated or (ring.squarefree and report.energy > report.bound)
    return ENERGY_COLUMNS, rows, violated


def _cmd_decay(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    rows = []
    for ring in rings:
        profile = decay_profile(build_parabola(ring))
        rows.append(
            [ring.modulus, ring.omega, ring.squarefree, profile.max_magnitude, profile.max_ratio]
            + list(profile.witness)
        )
    return DECAY_COLUMNS, rows, False


def _verify_reports(args: argparse.Namespace, rings: list[RingContext], family, check) -> Report:
    """One row per labeled member of family(ring, trials, rng), scored by check."""
    rows = []
    violated = False
    for ring in rings:
        sigma = build_parabola(ring)
        for label, member in family(ring, args.trials, spawn_rng(args.seed, ring.modulus)):
            report = check(member, sigma, witness_kind=label)
            rows.append(_fields(report, VERIFY_COLUMNS))
            violated = violated or not report.satisfied
    return VERIFY_COLUMNS, rows, violated


def _cmd_restrict_verify(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    params = None if args.r == "4/3" else RestrictionParams(s=2.0, r=6.0 / 5.0, constant=None)

    def check(values: np.ndarray, sigma: ParabolaSet, witness_kind: str) -> RestrictionReport:
        f = Signal2D(sigma.ring, values)
        if params is None:
            return verify_main_theorem(f, sigma, witness_kind=witness_kind)
        return verify_restriction(f, sigma, params, witness_kind=witness_kind)

    return _verify_reports(args, rings, structured_values, check)


def _cmd_dual_verify(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    return _verify_reports(args, rings, structured_coefficients, verify_dual)


def _cmd_certificate(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    rows = []
    violated = False
    for ring in rings:
        cert = universal_certificate(build_parabola(ring))
        ok = cert.implied_constant <= cert.certified_constant + SATISFACTION_TOL
        rows.append(_fields(cert, CERTIFICATE_COLUMNS[:-1]) + [ok])
        violated = violated or not ok
    return CERTIFICATE_COLUMNS, rows, violated


def _cmd_uncertainty(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    rows = []
    found_any = False
    for ring in rings:
        zone = ring.modulus**2 / 2**ring.omega
        max_support = math.ceil(zone) - 1 if args.max_support is None else args.max_support
        verdict = uncertainty_search(
            build_parabola(ring), max_support, samples=args.trials, seed=args.seed
        )
        rows.append([verdict.n, ring.omega] + _fields(verdict, UNCERTAINTY_COLUMNS[2:]))
        found_any = found_any or verdict.found
    return UNCERTAINTY_COLUMNS, rows, found_any


def _cmd_sharpness(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    rows = []
    for ring in rings:
        probe = sharpness_probe(ring, trials=args.trials, seed=args.seed)
        for r in (4.0 / 3.0, 6.0 / 5.0):
            scored = [rep for rep in probe.reports if rep.r == r]
            best = max(scored, key=lambda rep: rep.ratio)
            rows.append(_fields(best, VERIFY_COLUMNS))
    return VERIFY_COLUMNS, rows, False


def _cmd_recover(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    if len(rings) != 1:
        raise UsageError("recover takes exactly one modulus")
    ring = rings[0]
    if args.input is not None:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                truth = signal_from_json_dict(json.load(fh))
        except OSError as exc:
            raise UsageError(f"cannot read {args.input}: {exc}") from None
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"bad signal file {args.input}: {exc}") from None
        if truth.ring.modulus != ring.modulus:
            raise UsageError(
                f"signal file has n={truth.ring.modulus}, flag has n={ring.modulus}"
            )
        problem = erase(truth)
        e_size = None
    else:
        sizes = _parse_int_tokens(args.sizes, "size") if args.sizes else []
        if len(sizes) != 1:
            raise UsageError("recover needs --sizes with exactly one support size (or --input)")
        e_size = sizes[0]
        rng = spawn_rng(args.seed, e_size, 0)
        problem = random_instance(ring, e_size, rng, unimodular=args.worst_case)
    result = logan_recover(problem, LoganParams(max_iterations=args.max_iterations))
    n = ring.modulus
    s_size = int(problem.unobserved.sum())
    ds = n * n / (2.0 * s_size)
    violated = e_size is not None and e_size < ds and result.exact is not True
    solver = dict(zip(SOLVER_COLUMNS, _fields(result, SOLVER_COLUMNS)))
    if args.format == "json":
        doc = grid_to_json_dict(result.recovered)
        doc["missing"] = [[int(a), int(b)] for a, b in np.argwhere(problem.unobserved)]
        doc.update(solver)
        return RECOVER_COLUMNS, doc, violated
    improved = n * n / (4.0 * 2**ring.omega)
    return RECOVER_COLUMNS, [[n, s_size, e_size, *solver.values(), ds, improved]], violated


def _cmd_sweep(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    sizes = _parse_int_tokens(args.sizes, "size")
    threads = _thread_count()
    params = LoganParams(max_iterations=args.max_iterations)
    rows = []
    violated = False
    for ring in rings:
        usable = [k for k in sizes if k <= ring.modulus ** 2]
        for sweep_row in threshold_sweep(
            ring,
            usable,
            args.trials,
            args.seed,
            unimodular=args.worst_case,
            params=params,
            threads=threads,
        ):
            rows.append(_fields(sweep_row, SWEEP_COLUMNS))
            below_line = sweep_row.e_size < sweep_row.ds_threshold
            violated = violated or (below_line and sweep_row.exact_rate < 1.0)
    return SWEEP_COLUMNS, rows, violated


def _cmd_summarize(args: argparse.Namespace, rings: list[RingContext]) -> Report:
    """Aggregate verify-style CSVs: one row per modulus with the worst ratio."""
    header: list[str] | None = None
    by_n: dict[int, list[tuple[float, bool]]] = {}
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                table = list(csv.reader(line for line in fh if not line.startswith("#")))
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from None
        if not table:
            raise UsageError(f"{path} has no header row")
        for needed in ("N", "ratio", "satisfied"):
            if needed not in table[0]:
                raise UsageError(f"{path} lacks required column {needed!r}")
        if header is not None and table[0] != header:
            raise UsageError(f"{path} header does not match the first report file")
        header = table[0]
        for cells in table[1:]:
            if len(cells) != len(header):
                raise UsageError(f"{path} has a data row of {len(cells)} cells, header has {len(header)}")
            row = dict(zip(header, cells))
            try:
                n, ratio = int(row["N"]), float(row["ratio"])
            except ValueError:
                raise UsageError(f"{path} has a malformed data row (bad N or ratio)") from None
            by_n.setdefault(n, []).append((ratio, row["satisfied"] == "true"))
    rows = []
    for n, group in sorted(by_n.items()):
        ok = all(satisfied for _, satisfied in group)
        rows.append([n, len(group), max(ratio for ratio, _ in group), ok])
    return SUMMARY_COLUMNS, rows, not all(ok for *_, ok in rows)


def _add_common_flags(sub: argparse.ArgumentParser, *, moduli: bool = True) -> None:
    if moduli:
        sub.add_argument(
            "--n",
            "--moduli",
            dest="moduli",
            nargs="+",
            required=True,
            metavar="N",
            help="moduli: integers and a..b ranges",
        )
        sub.add_argument(
            "--squarefree-only",
            action="store_true",
            help="drop non-squarefree moduli instead of failing",
        )
    sub.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    sub.add_argument("--output", default=None, help="report file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


COMMANDS = {  # name: (report builder, help)
    "energy": (_cmd_energy, "additive energy of the parabola"),
    "decay": (_cmd_decay, "exponential sum magnitudes over the frequency grid"),
    "restrict-verify": (_cmd_restrict_verify, "check the restriction estimate on test signals"),
    "dual-verify": (_cmd_dual_verify, "check the extension L4 bound on coefficient vectors"),
    "certificate": (_cmd_certificate, "size and energy certificates per modulus"),
    "uncertainty": (_cmd_uncertainty, "search the forbidden support zone for witnesses"),
    "sharpness": (_cmd_sharpness, "hunt for extremizers of the restriction ratio"),
    "recover": (_cmd_recover, "reconstruct one signal from off-parabola spectrum"),
    "sweep": (_cmd_sweep, "exact-recovery rate by support size"),
    "summarize": (_cmd_summarize, "aggregate verify-style reports, flag violations"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="restrictlab",
        description="Fourier restriction to the discrete parabola: checks, searches, recovery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (_, help_text) in COMMANDS.items():
        parsers[name] = subparsers.add_parser(name, help=help_text)
        _add_common_flags(parsers[name], moduli=name != "summarize")

    sub = parsers["restrict-verify"]
    sub.add_argument("--trials", type=int, default=100, help="test signals per modulus")
    sub.add_argument(
        "--r",
        choices=("4/3", "6/5"),
        default="4/3",
        help="right-hand exponent (certified constant applies at 4/3)",
    )

    sub = parsers["dual-verify"]
    sub.add_argument("--trials", type=int, default=100, help="coefficient vectors per modulus")

    sub = parsers["uncertainty"]
    sub.add_argument("--max-support", type=int, default=None, help="largest support size to scan")
    sub.add_argument("--trials", type=int, default=100_000, help="random supports when exhaustion is too big")

    sub = parsers["sharpness"]
    sub.add_argument("--trials", type=int, default=200, help="random candidates per modulus")

    sub = parsers["recover"]
    sub.add_argument("--sizes", nargs="+", default=None, metavar="K", help="support size of the random instance")
    sub.add_argument("--input", default=None, help="JSON signal file to erase and recover")

    sub = parsers["sweep"]
    sub.add_argument("--sizes", nargs="+", required=True, metavar="K", help="support sizes: integers and a..b")
    sub.add_argument("--trials", type=int, default=100, help="instances per size")

    for sub in (parsers["recover"], parsers["sweep"]):
        sub.add_argument("--worst-case", action="store_true", help="unimodular amplitudes")
        sub.add_argument("--max-iterations", type=int, default=20000)

    parsers["summarize"].add_argument("reports", nargs="*", help="CSV report files")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else 0 if code is None else 2
    started = time.perf_counter()
    try:
        if args.seed < 0:
            raise UsageError("seed must be >= 0")
        if getattr(args, "trials", 0) < 0:
            raise UsageError("trials must be >= 0")
        rings = [] if args.command == "summarize" else _resolve_moduli(args)
        columns, rows, violated = COMMANDS[args.command][0](args, rings)
        _write_text(args.output, _render(args, columns, rows, started))
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if violated else 0


if __name__ == "__main__":
    sys.exit(main())
