"""Batch command-line surface tying the library together.

Four subcommands: ``analytic`` recomputes discard/attempt tables,
``simulate`` runs the seeded shot sampler, ``gap-sweep`` turns record files
into threshold curves (plus a crossing report for two inputs), and
``layout`` validates or packs patch layouts. This module holds the parser,
``main``, the exit codes, the two error classes and six library forwarders.
Each subcommand lives in its own ``cli_<command>`` module, imported when it
is dispatched, and what they share (report rendering, the config reader,
file plumbing) in ``cli_common``. So ``import patchmux.cli`` compiles no
command and loads no numpy, and each command imports only the layers it runs:

- ``analytic``: ``cli_analytic``, ``analytics``, ``presets``;
- ``simulate``: ``cli_simulate``, ``montecarlo``, ``analytics``, and
  ``gap_analysis`` only for records or a pool;
- ``gap-sweep``: ``cli_gap_sweep``, then ``gap_analysis`` and ``curves``
  once its config is checked;
- ``layout``: ``cli_layout``, ``geometry``, ``layout_io``.

Exit codes: 0 success, 2 configuration error (bad config/paths/values),
3 input format error (unparseable or non-UTF-8 CSV/JSONL/layout text),
4 empty-result warning (nothing kept, packed, or swept).
"""

from __future__ import annotations

import argparse
import importlib
import sys

from . import __version__

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_EMPTY = 4


class ConfigError(Exception):
    pass


class InputFormatError(Exception):
    """An input file is malformed."""


# perfbench's traced run wraps these six names in this module, and the
# commands call them as ``cli.<name>``: pure forwarders, so that the sampler
# and the curve layer load only when one is called. ROADMAP item 14 deletes
# them once perfbench reads a sidecar.
def run_simulation(*args, **kwargs):
    from .montecarlo import run_simulation
    return run_simulation(*args, **kwargs)


def write_records_jsonl(summary, path) -> int:
    """One JSON object per kept shot; returns the number of records written."""
    summary.records.to_jsonl(path)
    return len(summary.records)


def sweep(*args, **kwargs):
    from .curves import sweep
    return sweep(*args, **kwargs)


def extrapolate_tail(*args, **kwargs):
    from .curves import extrapolate_tail
    return extrapolate_tail(*args, **kwargs)


def write_curve_csv(*args, **kwargs):
    from .curves import write_curve_csv
    return write_curve_csv(*args, **kwargs)


def find_crossing(*args, **kwargs):
    from .curves import find_crossing
    return find_crossing(*args, **kwargs)


def _command(name: str):
    """The ``cmd_<name>`` of module ``cli_<name>``, imported when it is called."""

    def run(args) -> int:
        return getattr(importlib.import_module(f".cli_{name}", __package__), f"cmd_{name}")(args)

    return run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchmux",
        description="Yield analytics, layout checks and seeded simulation "
        "for multiplexed in-patch cultivation.",
        epilog="Exit codes: 0 success; 2 configuration error; "
        "3 input format error; 4 empty-result warning.",
    )
    parser.add_argument("--version", action="version", version=f"patchmux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON configuration document")
        p.add_argument("--out", metavar="DIR", help="output directory (default '.')")

    p_an = sub.add_parser("analytic", help="recompute discard/attempt tables")
    common(p_an)
    p_an.add_argument("--preset", metavar="NAME", help="built-in table: table2 or table3")
    p_an.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="'csv' also prints the table on stdout",
    )
    p_an.set_defaults(func=_command("analytic"))

    p_sim = sub.add_parser("simulate", help="run the seeded shot sampler")
    common(p_sim)
    p_sim.add_argument("--preset", metavar="NAME", help="calibrated setup, e.g. d3-p0.0005")
    p_sim.add_argument("--seed", type=int, metavar="N", help="override the config seed")
    p_sim.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes, at most the usable CPUs (never changes results)",
    )
    p_sim.set_defaults(func=_command("simulate"))

    p_gap = sub.add_parser("gap-sweep", help="threshold sweeps over record files")
    common(p_gap)
    p_gap.add_argument(
        "--records",
        action="append",
        metavar="PATH",
        help="record file (.jsonl or .csv); repeat for crossing mode",
    )
    p_gap.set_defaults(func=_command("gap_sweep"))

    p_lay = sub.add_parser("layout", help="validate or pack a patch layout")
    common(p_lay)
    p_lay.add_argument("--preset", metavar="NAME", help="built-in layout: canonical")
    p_lay.set_defaults(func=_command("layout"))

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    # as ``python -m patchmux.cli``, this module is ``__main__``: the command
    # modules raise the error classes of ``patchmux.cli``, whose main catches them
    from patchmux.cli import entry

    entry()
