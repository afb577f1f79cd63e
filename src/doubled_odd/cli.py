"""Command line interface.

verify  runs named checks at one m and emits a JSON report array
dims    prints the headline dimensions at one m
export  writes every constructed matrix to coordinate text files

Exit codes: 0 when no check failed (findings are not failures), 1 when at
least one check failed, 2 on a configuration error or an unwritable path.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .checks import (
    CHECK_IDS,
    CheckContext,
    ConfigError,
    SUPPORTED_M,
    RunConfig,
    export_matrices,
    headline_dimensions,
    render_reports,
    run,
)


def _add_m_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--m",
        type=int,
        required=True,
        help=f"half the ground set size; supported range {SUPPORTED_M[0]}..{SUPPORTED_M[-1]}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doubled-odd",
        description="Exact verification of the doubled Odd graph construction and its matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run checks and emit a JSON report")
    _add_m_argument(verify)
    verify.add_argument(
        "--checks",
        default="all",
        help="comma separated check ids, or 'all' (default) for every check applicable at m; known ids: " + ", ".join(CHECK_IDS),
    )
    verify.add_argument("--out", default=None, help="write the JSON report to this file instead of stdout")
    # ignored: perfbench's cold-m3 and warm-m3 pass it, until ROADMAP item 1 drops it
    verify.add_argument("--cache-dir", help=argparse.SUPPRESS)
    verify.add_argument("--export-dir", default=None, help="also export all matrices to this directory")

    dims = sub.add_parser("dims", help="print vertex count and algebra dimensions")
    _add_m_argument(dims)

    export = sub.add_parser("export", help="write all matrices to coordinate text files")
    _add_m_argument(export)
    export.add_argument("--export-dir", required=True, help="output directory")

    return parser


def _parse_checks(raw: str) -> tuple[str, ...] | None:
    # RunConfig rejects an empty selection
    names = tuple(part.strip() for part in raw.split(",") if part.strip())
    return None if names == ("all",) else names


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            cfg = RunConfig(
                m=args.m,
                checks=_parse_checks(args.checks),
                export_dir=args.export_dir,
            )
            # --out is followed through its links.  The report goes to a
            # temporary file beside the target, opened before run() makes
            # --export-dir and runs the first check, so that an unwritable path
            # fails at once and leaves nothing behind, and renamed over the
            # target only when complete, which keeps an existing report on an
            # error; a pipe or a device holds no report to keep: written directly
            out = tmp = None
            if args.out is not None:
                if args.out == "":
                    raise ConfigError("empty --out path")
                target = os.path.realpath(args.out)
                # the report is renamed into place after the export, so it
                # would replace an exported file or the export directory
                if args.export_dir is not None and Path(target).is_relative_to(Path(args.export_dir).resolve()):
                    raise ConfigError(f"--out {args.out} lies in --export-dir {args.export_dir}")
                if os.path.isdir(target):
                    raise IsADirectoryError(f"cannot write --out {args.out}: it is a directory")
                if not os.path.exists(target) or os.path.isfile(target):
                    tmp = Path(f"{target}.{os.getpid()}.tmp")
                try:
                    out = open(tmp or target, "w")
                except OSError as exc:
                    raise OSError(f"cannot write --out {args.out}: {exc.strerror}") from exc
            try:
                reports = run(cfg, progress=lambda line: print(line, file=sys.stderr))
                text = render_reports(reports)
                if out is not None:
                    out.write(text)
                    out.close()
                    if tmp is not None:
                        os.replace(tmp, target)
            finally:
                if out is not None:
                    out.close()
                if tmp is not None:
                    tmp.unlink(missing_ok=True)
            if out is None:
                sys.stdout.write(text)
            else:
                print(f"report written to {args.out}", file=sys.stderr)
            return 1 if any(r.status == "fail" for r in reports) else 0

        if args.command == "dims":
            cfg = RunConfig(m=args.m)
            dims = headline_dimensions(cfg.m)
            print(f"m = {cfg.m}")
            print(f"vertices          = {dims['vertices']}")
            print(f"centralizer dim   = {dims['centralizer_dim']}")
            print(f"Terwilliger dim   = {dims['terwilliger_dim']}")
            print(f"center dim        = {dims['center_dim']}")
            return 0

        if args.command == "export":
            cfg = RunConfig(m=args.m, export_dir=args.export_dir)
            written = export_matrices(CheckContext(cfg.m), cfg.export_dir)
            print(f"wrote {len(written)} files to {cfg.export_dir}", file=sys.stderr)
            return 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
