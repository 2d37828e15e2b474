"""Time the program's set-up once:
``python3 perfbench/probe.py WORKLOAD INPUT_DIR OUT_DIR``.

Runs the workload's own ``ahmsa`` command line and stops it where its first
timed unit would start: at the first frame read (``cli.read_pgm``) for
extract, at the call of ``cli.run_loso`` for loso.  Prints the seconds from
before the first import to that point, so the figure is whatever the
program's command does first: imports, argument parsing, config, manifest
and, for loso, the feature maps.  Model init happens inside each fold and so
counts as training, not set-up.
"""

from time import perf_counter

_start = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

FIRST_UNIT = {"extract": "read_pgm", "loso": "run_loso"}


class _FirstUnit(BaseException):
    """Raised where the first timed unit would start; a BaseException so that
    the command's own error handling lets it through."""


def _stop(*args, **kwargs):
    raise _FirstUnit


def main(workload: str, directory: Path, out: Path) -> float:
    cli = common.import_program().cli
    if not hasattr(cli, FIRST_UNIT[workload]):
        raise RuntimeError(f"ahmsa.cli has no {FIRST_UNIT[workload]}")
    setattr(cli, FIRST_UNIT[workload], _stop)
    argv = common.command_argv(workload, common.input_paths(directory), out)
    try:
        code = cli.main(argv)
    except _FirstUnit:
        return perf_counter() - _start
    raise RuntimeError(f"ahmsa {argv[0]} exited {code} before its first unit")


if __name__ == "__main__":
    print(repr(main(sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3]))))
