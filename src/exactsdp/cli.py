"""Command-line front end.

Subcommands: certify, reduce, solve, oracle, pipeline, gallery, plot.
The result document goes to stdout (or --out, written atomically);
diagnostics go to stderr.  Exit codes: 0 success/certified, 2 not certified,
3 inconclusive, 1 error (usage errors included).
"""
from __future__ import annotations

import argparse
import math
import sys

from . import docio, gallery, oracle, plotting
from .certify import certify as run_certify
from .model import normalize
from .pipeline import PipelineConfig, run_pipeline
from .reduction import facial_reduce
from . import sdp as sdpmod

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2
EXIT_INCONCLUSIVE = 3


def _emit(doc: dict, out_path):
    text = docio.serialize(doc)
    if out_path:
        plotting.atomic_write(out_path, text.encode("ascii"))
    else:
        sys.stdout.write(text)


def _load(args):
    with open(args.input, "rb") as fh:
        problem, opts = docio.parse_problem(fh.read())
    # facial reduction applies restrict_matrix; the other commands would
    # answer the unrestricted problem
    if problem.restrict_to is not None and args.command not in ("pipeline", "reduce"):
        raise docio.DocError("$.restrict_matrix", "%s does not apply it and would answer "
                             "another problem; pipeline and reduce do" % args.command)
    return problem, opts


def _option(args, opts: dict, name: str):
    """The --<name> flag, checked as the document option it overrides, or
    that option."""
    flag = getattr(args, name)
    return opts[name] if flag is None else docio.check_option(name, flag, "--" + name)


def _verdict_exit(overall: str) -> int:
    if overall == "certified":
        return EXIT_OK
    if overall == "not_certified":
        return EXIT_NOT_CERTIFIED
    return EXIT_INCONCLUSIVE


def cmd_certify(args) -> int:
    problem, opts = _load(args)
    tol = _option(args, opts, "tol")
    rep = run_certify(normalize(problem.bset), tol)
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "certify",
           "certification": docio.cert_doc(rep)}, args.out)
    return _verdict_exit(rep.overall)


def cmd_reduce(args) -> int:
    problem, opts = _load(args)
    tol = _option(args, opts, "tol")
    rr = facial_reduce(problem, tol)
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "reduce",
           "reduction": docio.reduction_doc(rr)}, args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    problem, opts = _load(args)
    tol = _option(args, opts, "tol")
    sol = sdpmod.solve(sdpmod.relaxation_problem(problem), tol=tol)
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "solve",
           "sdp": docio.sdp_doc(sol)}, args.out)
    return EXIT_OK if sol.status in ("optimal", "infeasible", "unbounded") else EXIT_ERROR


def cmd_oracle(args) -> int:
    problem, opts = _load(args)
    samples = _option(args, opts, "samples")
    seed = _option(args, opts, "seed")
    res = oracle.solve_sphere(problem, samples=samples, seed=seed)
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "oracle",
           "oracle": docio.oracle_doc(res)}, args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    problem, opts = _load(args)
    tol = _option(args, opts, "tol")
    seed = _option(args, opts, "seed")
    verdict = run_pipeline(problem, PipelineConfig(tol=tol, cert_tol=tol, seed=seed))
    _emit(docio.verdict_doc(verdict), args.out)
    # an infeasible problem: the feasible cone is {O} or the relaxation is empty
    if verdict.value == math.inf:
        return EXIT_NOT_CERTIFIED
    return _verdict_exit(verdict.cert.overall)


def cmd_gallery(args) -> int:
    ids = [args.id] if args.id else None
    report = gallery.run_acceptance(ids, tol=_option(args, {"tol": sdpmod.DEFAULT_TOL}, "tol"))
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "gallery",
           "cases": report}, args.out)
    return EXIT_OK if all(r["passed"] for r in report) else EXIT_NOT_CERTIFIED


def cmd_plot(args) -> int:
    # a degenerate grid would fail only after the raster file is written
    if args.resolution < 1:
        raise docio.DocError("--resolution", "need at least 1 pixel")
    try:
        x0, x1, y0, y1 = (float(v) for v in args.box.split(","))
    except ValueError:
        raise docio.DocError("--box", "need x0,x1,y0,y1") from None
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0) and x0 < x1 and y0 < y1):
        raise docio.DocError("--box", "need finite bounds with x0 < x1 and y0 < y1")
    box = ((x0, x1), (y0, y1))
    problem, opts = _load(args)
    info = plotting.emit_plot(problem.bset, box, args.resolution, args.out_base)
    _emit({"schema_version": docio.SCHEMA_VERSION, "command": "plot",
           "plot": {"ppm": info["ppm"], "svg": info["svg"],
                    "area_fraction": repr(info["area_fraction"]),
                    "resolution": info["resolution"]}}, args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser with usage errors on EXIT_ERROR: its own code 2 is
    EXIT_NOT_CERTIFIED here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="exactsdp",
        description="Certify and solve QCQPs whose SDP relaxations are exact.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags=("input", "tol")):
        """A subcommand with --out and those of --input, --tol and --seed
        that it reads."""
        p = sub.add_parser(name, help=help)
        if "input" in flags:
            p.add_argument("--input", required=True, help="problem JSON document")
        p.add_argument("--out", default=None, help="write the result document here")
        if "tol" in flags:
            p.add_argument("--tol", type=float, default=None,
                           help="tolerance (default: the document's options.tol)")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=None,
                           help="seed (default: the document's options.seed)")
        p.set_defaults(func=func)
        return p

    command("certify", cmd_certify, "run the exactness-condition checkers")
    command("reduce", cmd_reduce, "facially reduce the problem")
    command("solve", cmd_solve, "solve the SDP relaxation")
    p = command("oracle", cmd_oracle, "brute-force reference solve", ("input", "seed"))
    p.add_argument("--samples", type=int, default=None)
    command("pipeline", cmd_pipeline, "full certify/reduce/solve/extract run",
            ("input", "tol", "seed"))
    p = command("gallery", cmd_gallery, "replay the worked-example fixtures", ())
    p.add_argument("--tol", type=float, default=None, help="tolerance (default 1e-8)")
    p.add_argument("--id", default=None, help="run a single case id")
    p = command("plot", cmd_plot, "emit PPM raster and SVG overlay of the region",
                ("input",))
    p.add_argument("--out-base", required=True, help="output path base (.ppm/.svg added)")
    p.add_argument("--resolution", type=int, default=800)
    p.add_argument("--box", default="-2.5,2.5,-2.5,2.5")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except docio.DocError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
