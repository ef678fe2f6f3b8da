"""Command-line front end.

Every subcommand writes a single JSON document to stdout (diagnostics go
to stderr) with a fixed key order, so repeated runs are diffable; the
only field that varies between identical runs is ``wall_time_ms``.  Exit
codes: 0 success, 1 infeasible, 2 usage or data error, 3 time limit hit
(best incumbent reported), 4 internal error (a solution failed the
independent checker and was refused, or the run ran out of memory).

``main`` builds its argument parser once per process and reuses it, so
repeated in-process calls pay for argparse set-up only once;
``build_parser`` still returns a fresh parser on every call.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
import time
from pathlib import Path

from . import generator, model, verify
from .conflict import CROSS, conflicts_of
from .model import DeltaPolicy, Instance
from .parallelism import (
    INCUMBENT_TIMEOUT,
    INFEASIBLE,
    OPTIMAL,
    ParallelismSolution,
    SolveConfig,
    solve_max_parallelism,
)
from .spacing import SpacingProblem, SpacingSolution, solve_spacing

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    """Usage or data error; maps to exit code 2."""


def _read_instance(path: str, delta_pm: int | None) -> Instance:
    try:
        policy = (
            DeltaPolicy.symmetric(delta_pm) if delta_pm is not None
            else DeltaPolicy.explicit()
        )
    except model.ModelError as exc:
        raise CliError(f"invalid --delta {delta_pm}: {exc}") from None
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read instance file {path}: {exc}") from None
    try:
        return model.parse_instance(text, policy)
    except model.ModelError as exc:
        raise CliError(f"invalid instance {path}: {exc}") from None


def _emit(document: dict | str, out: str | None) -> None:
    """Write a JSON document, or text as it is, to `out` or to stdout."""
    text = document if isinstance(document, str) else json.dumps(document, indent=2) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from None


def _command_echo(args: argparse.Namespace, fields: list[str]) -> dict:
    echo: dict = {"subcommand": args.command}
    for name in fields:
        echo[name] = getattr(args, name.replace("-", "_"))
    echo["delta_policy"] = (
        {"mode": model.SYMMETRIC_HALF_WIDTH, "half_width_pm": args.delta}
        if getattr(args, "delta", None) is not None
        else {"mode": model.EXPLICIT_INTERVALS}
    )
    return echo


def _parallelism_payload(instance: Instance, sol: ParallelismSolution) -> dict:
    rows = []
    for rid in sol.selected_radii:
        noms = instance.entry(rid).nominals()
        picks = sol.selections.get(rid, ())
        rows.append(
            {
                "radius": rid,
                "q": sol.counts.get(rid),
                "indices": list(picks),
                "nominal_pm": [noms[j] for j in picks],
            }
        )
    return {
        "type": "parallelism",
        "status": sol.status,
        "P": sol.parallelism,
        "selected_radii": list(sol.selected_radii),
        "rows": rows,
    }


def _spacing_payload(instance: Instance, problem: SpacingProblem,
                     sol: SpacingSolution) -> dict:
    rows = []
    for rid, row in zip(sol.selected_radii, sol.matrix):
        noms = instance.entry(rid).nominals()
        rows.append(
            {
                "radius": rid,
                "indices": list(row),
                "nominal_pm": [noms[j] for j in row],
            }
        )
    return {
        "type": "spacing",
        "status": sol.status,
        "mode": problem.mode,
        "n_radii": problem.n_radii,
        "n_lambda": problem.n_lambda,
        "dist_pm": sol.dist_pm,
        "selected_radii": list(sol.selected_radii),
        "rows": rows,
    }


def _status_exit(status: str) -> int:
    if status == OPTIMAL:
        return EXIT_OK
    if status == INFEASIBLE:
        return EXIT_INFEASIBLE
    if status == INCUMBENT_TIMEOUT:
        return EXIT_TIMEOUT
    return EXIT_INTERNAL


class _InternalError(Exception):
    """A solution failed the independent checker; maps to exit code 4."""


def _solve(instance, n_radii, parallelism, mode, config):
    """Run Phase 1 unless `parallelism` is given, then Phase 2 when there is
    a `mode` and a P, and pass each solution through the checker.

    Both phases share the one budget of `config`.  Returns the status of
    the run, the Phase-1 solution, the Phase-2 problem and solution (None
    for a phase that did not run) and the milliseconds of each phase, its
    check included.
    """
    started = time.monotonic()
    phase1 = problem = phase2 = None
    ms = [0, 0]
    if parallelism is None:
        phase1 = solve_max_parallelism(instance, n_radii, config)
        if problems := verify.check_parallelism_solution(instance, phase1, n_radii):
            raise _InternalError("; ".join(problems))
        ms[0] = int((time.monotonic() - started) * 1000)
        parallelism = phase1.parallelism if phase1.status == OPTIMAL else None
    if mode is not None and parallelism is not None:
        problem = SpacingProblem(n_radii, parallelism, mode)
        phase2_started = time.monotonic()
        if config.time_limit:
            # A spent budget must still stop Phase 2 at once, and a time
            # limit of 0 would lift it.
            left = config.time_limit - (phase2_started - started)
            config = dataclasses.replace(config, time_limit=max(left, 1e-9))
        phase2 = solve_spacing(instance, problem, config)
        if problems := verify.check_spacing_solution(instance, problem, phase2):
            raise _InternalError("; ".join(problems))
        ms[1] = int((time.monotonic() - phase2_started) * 1000)
    status = phase1.status if phase2 is None else phase2.status
    return status, phase1, problem, phase2, ms


# --- subcommands -----------------------------------------------------------


def _cmd_validate(args) -> int:
    try:
        instance = _read_instance(args.instance, args.delta)
    except CliError as exc:
        _emit({"schema_version": SCHEMA_VERSION, "violations": [str(exc)]}, args.out)
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    document = {
        "schema_version": SCHEMA_VERSION,
        "instance_digest": model.instance_digest(instance),
        "violations": model.validate(instance),
    }
    _emit(document, args.out)
    return EXIT_OK


def _cmd_export(args) -> int:
    instance = _read_instance(args.instance, args.delta)
    if args.format == "asp":
        _emit(model.export_asp_facts(instance), args.out)
    else:
        document = {
            "schema_version": SCHEMA_VERSION,
            "label": instance.label,
            "instance_digest": model.instance_digest(instance),
            "radii": [
                {
                    "id": e.id,
                    "radius_pm": e.radius_pm,
                    "resonances": [
                        {"nominal_pm": nom, "lmin_pm": lo, "lmax_pm": hi}
                        for nom, lo, hi in zip(e.nominals(), e.lmins, e.lmaxs)
                    ],
                }
                for e in instance.radii
            ],
        }
        _emit(document, args.out)
    return EXIT_OK


def _cmd_conflicts(args) -> int:
    instance = _read_instance(args.instance, args.delta)
    conflicts = conflicts_of(instance)

    def endpoint_doc(endpoint):
        rid, idx = endpoint
        return {
            "radius": rid,
            "index": idx,
            "nominal_pm": instance.entry(rid).nominals()[idx],
        }

    def pair_doc(p):
        return {
            "kind": p.kind,
            "first": endpoint_doc(p.first),
            "second": endpoint_doc(p.second),
        }

    pairs = conflicts.pairs()
    cross_count = sum(p.kind == CROSS for p in pairs)
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": _command_echo(args, ["instance"]),
        "instance_digest": model.instance_digest(instance),
        "cross_count": cross_count,
        "within_count": len(pairs) - cross_count,
        "pairs": [pair_doc(p) for p in pairs],
    }
    if args.table:
        for p in pairs:
            (r1, i1), (r2, i2) = p.first, p.second
            v1 = instance.entry(r1).nominals()[i1]
            v2 = instance.entry(r2).nominals()[i2]
            print(
                f"{p.kind:6}  r{r1}[{i1}] {model.pm_to_nm_text(v1)} nm  --  "
                f"r{r2}[{i2}] {model.pm_to_nm_text(v2)} nm",
                file=sys.stderr,
            )
    _emit(document, args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    """`max-parallelism`, `spacing` and `pipeline`: one solve, one document."""
    instance = _read_instance(args.instance, args.delta)
    config = SolveConfig(args.time_limit, trim_to_p=getattr(args, "trim", False))
    status, phase1, problem, phase2, ms = _solve(
        instance, args.n_radii, getattr(args, "parallelism", None),
        getattr(args, "mode", None), config,
    )
    if args.command == "pipeline":
        result = {
            "type": "pipeline",
            "phase1": _parallelism_payload(instance, phase1),
            "phase2": None if phase2 is None else _spacing_payload(instance, problem, phase2),
        }
    elif phase1 is not None:
        result = _parallelism_payload(instance, phase1)
    else:
        result = _spacing_payload(instance, problem, phase2)
    echo = ["instance", "n_radii", "parallelism", "mode", "method", "time_limit", "trim"]
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": _command_echo(args, [name for name in echo if hasattr(args, name)]),
        "instance_digest": model.instance_digest(instance),
        "status": status,
        "result": result,
        "wall_time_ms": sum(ms),
    }
    _emit(document, args.out)
    return _status_exit(status)


def _cmd_generate(args) -> int:
    try:
        fields = dataclasses.fields(generator.GenSpec)
        spec = generator.GenSpec(**{f.name: getattr(args, f.name) for f in fields})
        instance = generator.generate(spec)
    except generator.GeneratorError as exc:
        raise CliError(str(exc)) from None
    _emit(model.format_instance(instance), args.out)
    if args.out:
        print(
            f"wrote {len(instance.radii)} radii, "
            f"{sum(len(e.nominals()) for e in instance.radii)} resonances to {args.out}",
            file=sys.stderr,
        )
    return EXIT_OK


def _parse_int_list(text: str, flag: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise CliError(f"{flag} expects a comma-separated integer list") from None


def _cmd_bench(args) -> int:
    n_radii_grid = _parse_int_list(args.n_radii, "--n-radii")
    delta_grid = _parse_int_list(args.delta_grid, "--delta")
    phases = _parse_int_list(args.phases, "--phases")
    if any(p not in (1, 2) for p in phases):
        raise CliError("--phases entries must be 1 or 2")
    if any(n < 1 for n in n_radii_grid):
        raise CliError("--n-radii entries must be >= 1")
    if any(d < 0 for d in delta_grid):
        raise CliError("--delta entries must be >= 0")
    config = SolveConfig(time_limit=args.time_limit)
    mode = args.mode if 2 in phases else None
    out_path = Path(args.out) if args.out else None
    try:
        stream = out_path.open("w", encoding="utf-8") if out_path else sys.stdout
    except OSError as exc:
        raise CliError(f"cannot write {out_path}: {exc}") from None
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["instance", "n_radii", "delta_pm", "phase", "status",
                         "objective", "wall_time_ms"])
        stream.flush()
        for path in args.instance:
            for delta in delta_grid:
                instance = _read_instance(path, delta)
                label = instance.label or Path(path).stem
                for n_radii in n_radii_grid:
                    _, phase1, _, phase2, ms = _solve(instance, n_radii, None, mode, config)
                    # csv writes a None objective as an empty field.
                    if 1 in phases:
                        writer.writerow([label, n_radii, delta, 1, phase1.status,
                                         phase1.parallelism, ms[0]])
                        stream.flush()
                    if 2 in phases:
                        # A cell with no P to feed forward still gets its
                        # row, carrying the Phase-1 outcome.
                        row = ([phase1.status, None, 0] if phase2 is None
                               else [phase2.status, phase2.dist_pm, ms[1]])
                        writer.writerow([label, n_radii, delta, 2] + row)
                        stream.flush()
    finally:
        if out_path:
            stream.close()
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def _add_instance_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", required=True, help="instance file path")
    parser.add_argument(
        "--delta",
        type=int,
        default=None,
        metavar="PM",
        help="symmetric uncertainty half-width in pm (two resonances conflict "
        "when their nominals are within 2*delta); omit to honor intervals "
        "stored in the file",
    )
    parser.add_argument("--out", default=None, help="write output here instead of stdout")


def _add_solver_options(parser: argparse.ArgumentParser) -> None:
    # No flag sets it: the command echo keeps its "method" key so payloads
    # stay byte-identical, and every solve runs the branch and bound.
    parser.set_defaults(method="bnb")
    parser.add_argument(
        "--time-limit",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget; 0 disables (default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wronoc",
        description="Exact radius and carrier-wavelength selection for "
        "wavelength-routed optical networks-on-chip.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse an instance and report violations")
    _add_instance_options(p)

    p = sub.add_parser("export-asp", help="export an instance as ASP facts")
    _add_instance_options(p)
    p.add_argument("--format", choices=["asp", "json"], default="asp")

    p = sub.add_parser("conflicts", help="list conflicting resonance pairs")
    _add_instance_options(p)
    p.add_argument("--table", action="store_true",
                   help="also print a human-readable table on stderr")

    p = sub.add_parser("max-parallelism",
                       help="phase 1: maximise the minimum carriers per radius")
    _add_instance_options(p)
    _add_solver_options(p)
    p.add_argument("--n-radii", type=int, required=True, metavar="K")
    p.add_argument("--trim", action="store_true",
                   help="truncate every selection to exactly P carriers")

    p = sub.add_parser("spacing",
                       help="phase 2: maximise the minimum carrier spacing")
    _add_instance_options(p)
    _add_solver_options(p)
    p.add_argument("--n-radii", type=int, required=True, metavar="K")
    p.add_argument("--parallelism", type=int, required=True, metavar="P",
                   help="carriers per selected radius")
    p.add_argument("--mode", choices=["base", "refined"], default="base")

    p = sub.add_parser("pipeline",
                       help="phase 1 then phase 2 with the optimum as carrier count")
    _add_instance_options(p)
    _add_solver_options(p)
    p.add_argument("--n-radii", type=int, required=True, metavar="K")
    p.add_argument("--mode", choices=["base", "refined"], default="base")
    p.add_argument("--trim", action="store_true")

    p = sub.add_parser("generate", help="write a synthetic instance file")
    p.add_argument("--out", default=None)
    for f in dataclasses.fields(generator.GenSpec):
        p.add_argument("--" + f.name.replace("_", "-"), type=int, default=f.default)

    p = sub.add_parser("bench", help="run a parameter grid and write a CSV")
    p.add_argument("--instance", action="append", required=True,
                   help="instance file (repeatable)")
    p.add_argument("--n-radii", default="", metavar="LIST",
                   help="comma-separated radius counts, e.g. 2,4,8")
    p.add_argument("--delta", dest="delta_grid", default="0", metavar="LIST",
                   help="comma-separated half-widths in pm, e.g. 0,1000")
    p.add_argument("--phases", default="1", metavar="LIST",
                   help="phases to run per cell: 1, 2 or 1,2")
    p.add_argument("--mode", choices=["base", "refined"], default="base")
    p.add_argument("--time-limit", type=float, default=0.0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, then reused."""
    return build_parser()


_HANDLERS = {
    "validate": _cmd_validate,
    "export-asp": _cmd_export,
    "conflicts": _cmd_conflicts,
    "max-parallelism": _cmd_solve,
    "spacing": _cmd_solve,
    "pipeline": _cmd_solve,
    "generate": _cmd_generate,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code.
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InternalError as exc:
        print(f"internal error: solution rejected by checker: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
