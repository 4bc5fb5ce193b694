"""Command-line front end.

Three subcommands cover the package's workflows:

  classify  one germ at one point -> classification report JSON
  trace     singular set + special points of a germ over a box
  conslaw   first singularity of a conservation-law problem, with
            optional before/after frames of the singular set

Exit codes are scriptable: 0 for a definite class, 2 for
Degenerate/Unrecognized, 3 when no singularity exists in the requested
region, 64 for malformed input, 70 for solver failure.

The critical values, the traced curves mapped into the target plane,
are formed only for the files that hold them (trace's csv and svg,
conslaw's frame csv), and before the output directory is made: a run
that writes none never forms them, and one whose critical values
overflow exits 64 with nothing written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .conslaw import (
    ConsLawProblem,
    SolverFailed,
    builtin_problem,
    characteristic_map,
    first_singularity,
    frame_times,
    lips_birth_frames,
    singularity_at,
)
from .germs import PlaneMapGerm, ToleranceConfig, builtin_germ, classify
from .locus import (
    BoxDomain,
    critical_value_image,
    find_special_points,
    ruling_map,
    sample_singular_set,
)
from .parsing import ParseError, check_reals, parse_curve, parse_map, parse_reals
from .poly import InvalidSpec, poly_from_spec, quote
from .serialize import dump_json, write_curves_csv, write_svg

EXIT_OK = 0
EXIT_INDEFINITE = 2
EXIT_NO_SINGULARITY = 3
EXIT_USAGE = 64
EXIT_SOLVER = 70

VALID_FORMATS = ("json", "csv", "svg")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with the package's exit code."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="planesing",
        description="Singularity recognition for plane-to-plane maps and "
        "first-shock analysis of planar conservation laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, default_formats):
        p.add_argument("input", nargs="?", help="path to a JSON input file")
        p.add_argument("--builtin", help="name of a builtin map or problem")
        p.add_argument("--tol-zero", type=float, default=None, metavar="X",
                       help="relative zero threshold (default 1e-7)")
        p.add_argument("--out", default=".", metavar="DIR",
                       help="output directory (default: current)")
        p.add_argument("--format", default=default_formats, metavar="LIST",
                       help=f"comma list from {{{','.join(VALID_FORMATS)}}}")

    pc = sub.add_parser("classify", help="classify one germ at one point")
    add_common(pc, "json")
    pc.add_argument("--map", dest="map_expr", metavar="EXPR",
                    help="inline map, e.g. '(u, v^3+u^2*v)'")
    pc.add_argument("--curve", dest="curve_expr", metavar="EXPR",
                    help="curve for the ruling builtin, e.g. 't,t^3'")
    pc.add_argument("--at", metavar="P",
                    help="base point 'a,b' (or parameter 't0' for ruling)")

    pt = sub.add_parser("trace", help="trace the singular set over a box")
    add_common(pt, "json,csv")
    pt.add_argument("--map", dest="map_expr", metavar="EXPR")
    pt.add_argument("--curve", dest="curve_expr", metavar="EXPR")
    pt.add_argument("--at", metavar="P", help="germ base point (default 0,0)")
    pt.add_argument("--box", default="-1,-1,1,1", metavar="lo1,lo2,hi1,hi2")
    pt.add_argument("--grid", default="64,64", metavar="n1,n2")

    pl = sub.add_parser("conslaw", help="first singularity of a conservation law")
    add_common(pl, "json")
    pl.add_argument("--at", metavar="P",
                    help="forced evaluation point 'a,b' (skips the search)")
    pl.add_argument("--time", metavar="T",
                    help="forced time with --at, or comma list of frame times")
    pl.add_argument("--box", default="-1,-1,1,1", metavar="lo1,lo2,hi1,hi2")
    pl.add_argument("--grid", default="64,64", metavar="n1,n2")
    return parser


def _tolerances(args) -> ToleranceConfig:
    if args.tol_zero is None:
        return ToleranceConfig()
    return ToleranceConfig(zero_rel=args.tol_zero)


def _formats(args) -> tuple[str, ...]:
    items = tuple(s.strip() for s in args.format.split(",") if s.strip())
    for f in items:
        if f not in VALID_FORMATS:
            raise ParseError(f"unknown format {f!r}; valid: {', '.join(VALID_FORMATS)}")
    if not items:
        raise ParseError("--format must name at least one format")
    return items


def _box(args) -> BoxDomain:
    lo1, lo2, hi1, hi2 = parse_reals(args.box, 4)
    n1, n2 = parse_reals(args.grid, 2)
    if n1 != int(n1) or n2 != int(n2):
        raise ParseError("--grid expects integers")
    return BoxDomain((lo1, lo2), (hi1, hi2), (int(n1), int(n2)))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {path}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read input file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON and bytes that are not UTF-8
        raise ParseError(f"input file is not valid JSON: {exc}") from exc


def _map_from_file(path: str) -> PlaneMapGerm:
    data = _load_json(path)
    try:
        components = data["components"]
    except (KeyError, TypeError) as exc:
        raise ParseError('map JSON needs a "components" key with two PolySpecs') from exc
    if not isinstance(components, list) or len(components) != 2:
        raise ParseError('"components" must be a list of two PolySpecs')
    base = data.get("base_point", [0.0, 0.0])
    base = check_reals(base, 2, f'"base_point" {quote(base)}')
    return PlaneMapGerm(tuple(map(poly_from_spec, components)), base)


def _germ_from_args(args: argparse.Namespace) -> PlaneMapGerm:
    """Build the germ a classify/trace invocation refers to."""
    sources = [s for s in (args.builtin, args.map_expr, args.input) if s]
    if len(sources) != 1:
        raise ParseError("provide exactly one of --builtin, --map, or an input file")
    if args.builtin == "ruling":
        if not args.curve_expr:
            raise ParseError("the ruling builtin needs --curve 'a(t),b(t)'")
        t0 = parse_reals(args.at, 1)[0] if args.at else 0.0
        return ruling_map(parse_curve(args.curve_expr), t0)
    if args.builtin:
        try:
            germ = builtin_germ(args.builtin)
        except KeyError as exc:
            raise ParseError(str(exc.args[0])) from exc
    elif args.map_expr:
        germ = PlaneMapGerm(parse_map(args.map_expr))
    else:
        germ = _map_from_file(args.input)
    return germ.rebase(parse_reals(args.at, 2)) if args.at else germ


def _write(out: Path, files: dict) -> None:
    """Make the output directory out and its parents, and write the files
    into it: files maps each name to a function that writes that file at
    the path it is given.  Every path is checked first, so a directory
    where a file goes, or a file where the output directory goes, is one
    InvalidSpec that names it, and nothing is written."""
    for name in files:
        if (out / name).is_dir():
            raise InvalidSpec(f"cannot write {out / name}: it is a directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InvalidSpec(f"cannot make the output directory {out}: {exc.strerror}") from None
    for name, write in files.items():
        write(out / name)


def _class_exit(report) -> int:
    return EXIT_OK if report.is_definite else EXIT_INDEFINITE


def run_classify(args: argparse.Namespace) -> int:
    germ = _germ_from_args(args)
    report = classify(germ, args.tolerances)
    json_file = {"report.json": lambda path: dump_json(report.to_dict(), path)}
    _write(args.output_dir, json_file if "json" in args.formats else {})
    p = report.base_point
    print(f"class={report.singularity_class} at ({p[0]:g}, {p[1]:g})")
    return _class_exit(report)


def run_trace(args: argparse.Namespace) -> int:
    germ = _germ_from_args(args)
    curves = sample_singular_set(germ, args.box)
    drawn = "csv" in args.formats or "svg" in args.formats
    images = critical_value_image(germ, curves) if drawn else None
    specials = find_special_points(germ, args.box, args.tolerances)
    files = {}
    if "csv" in args.formats:
        files["singular_set.csv"] = lambda path: write_curves_csv(path, curves)
        files["critical_values.csv"] = lambda path: write_curves_csv(path, curves, images)
    if "json" in args.formats:
        files["special_points.json"] = lambda path: dump_json({
            "curves": [c.to_dict() for c in curves],
            "special_points": [sp.to_dict() for sp in specials],
        }, path)
    if "svg" in args.formats:
        files["singular_set.svg"] = lambda path: write_svg(path, curves, specials, args.box,
                                                           label="singular set")
        files["critical_values.svg"] = lambda path: write_svg(path, images, (), None,
                                                              label="critical values")
    _write(args.output_dir, files)
    kinds = ", ".join(f"{sp.kind}:{sp.report.singularity_class}" for sp in specials)
    print(
        f"curves={len(curves)} special_points={len(specials)}"
        + (f" [{kinds}]" if kinds else "")
    )
    return EXIT_OK


def _problem_from_args(args: argparse.Namespace) -> ConsLawProblem:
    sources = [s for s in (args.builtin, args.input) if s]
    if len(sources) != 1:
        raise ParseError("provide exactly one of --builtin or a problem JSON file")
    if args.builtin:
        try:
            return builtin_problem(args.builtin)
        except KeyError as exc:
            raise ParseError(str(exc.args[0])) from exc
    return ConsLawProblem.from_dict(_load_json(args.input))


def run_conslaw(args: argparse.Namespace) -> int:
    prob = _problem_from_args(args)

    # the output directory is made after the search, so exit 64 leaves none behind
    if args.at is not None:
        u = parse_reals(args.at, 2)
        t = None
        if args.time is not None:
            times = parse_reals(args.time)
            if len(times) != 1:
                raise ParseError("forced-point mode takes a single --time value")
            t = times[0]
        try:
            record = singularity_at(prob, u, t, args.tolerances)
        except InvalidSpec:
            raise
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            print("no singularity at the requested point")
            return EXIT_NO_SINGULARITY
        json_file = {"point_analysis.json": lambda path: dump_json(record.to_dict(), path)}
        _write(args.output_dir, json_file if "json" in args.formats else {})
        print(
            f"class={record.report.singularity_class} at "
            f"({record.u_star[0]:g}, {record.u_star[1]:g}) t={record.t_star:g}"
        )
        return _class_exit(record.report)

    # the frame times are checked before anything is written: the list
    # and its length before the search, and that it straddles t* right after it
    times = None if args.time is None else frame_times(parse_reals(args.time))
    try:
        result = first_singularity(prob, args.box, args.tolerances)
    except SolverFailed as exc:
        _write(args.output_dir, {"solver_failure.json": lambda path: dump_json({
            "error": "SolverFailed",
            "message": str(exc),
            "best_point": list(exc.best_point) if exc.best_point else None,
            "best_time": exc.best_time,
        }, path)})
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.best_point is not None:
            print(
                f"best grid point ({exc.best_point[0]:g}, {exc.best_point[1]:g}) "
                f"at t={exc.best_time:g}",
                file=sys.stderr,
            )
        return EXIT_SOLVER
    frames = images = None
    if result is not None and times is not None:
        frames = lips_birth_frames(prob, result.t_star, times, args.box)
        if "csv" in args.formats:
            images = [critical_value_image(characteristic_map(prob, f.time), f.curves)
                      if f.curves else [] for f in frames]
    files = {}
    if "json" in args.formats:
        files["first_singularity.json"] = lambda path: dump_json({
            "result": "NoSingularity", "box": {"lo": list(args.box.lo), "hi": list(args.box.hi)}}
            if result is None else result.to_dict(), path)
    if frames is not None:
        manifest = []
        for k, frame in enumerate(frames):
            entry: dict = {"index": k, "t": frame.time}
            if "csv" in args.formats:
                entry["csv"] = f"frame_{k}.csv"
                files[entry["csv"]] = lambda path, f=frame, image=images[k]: write_curves_csv(
                    path, f.curves, image)
            if "svg" in args.formats:
                entry["svg"] = f"frame_{k}.svg"
                files[entry["svg"]] = lambda path, f=frame: write_svg(
                    path, f.curves, (), args.box, label=f"t={f.time:g}")
            entry["curves"] = len(frame.curves)
            manifest.append(entry)
        if "json" in args.formats:
            files["frames.json"] = lambda path: dump_json(
                {"t_star": result.t_star, "frames": manifest}, path)
    _write(args.output_dir, files)

    if result is None:
        print("no singularity: characteristic trace is non-negative over the box")
        return EXIT_NO_SINGULARITY
    print(
        f"class={result.report.singularity_class} at "
        f"({result.u_star[0]:g}, {result.u_star[1]:g}) t*={result.t_star:g} "
        f"xi3={result.xi[2]:g}"
    )
    return _class_exit(result.report)


_VALUE_FLAGS = {"--box", "--grid", "--at", "--time", "--tol-zero"}
_NUMERIC_START = re.compile(r"^-(\d|\.\d)")


def _merge_negative_values(argv):
    """Join numeric option values onto their flag with '='.

    argparse mistakes a value like "-1,-1,1,1" for an option name, so
    "--box -1,-1,1,1" would be rejected while "--box=-1,-1,1,1" parses.
    Accept both by rewriting the former into the latter.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and _NUMERIC_START.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


_PARSER = build_parser()
_COMMANDS = {"classify": run_classify, "trace": run_trace, "conslaw": run_conslaw}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_merge_negative_values(list(argv)))
    try:
        # run_* read the parsed flags, with these converted and checked once
        if hasattr(args, "box"):
            args.box = _box(args)
        args.tolerances = _tolerances(args)
        args.output_dir = Path(args.out)
        args.formats = _formats(args)
        return _COMMANDS[args.command](args)
    except InvalidSpec as exc:
        print(f"planesing: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
