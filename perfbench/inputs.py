"""Render one workload's inputs from a seed: ``python3 perfbench/inputs.py WORKLOAD SEED DIR``.

Runs in its own process so that its memory and imports stay out of the
measured process.  The program later receives only the files written here:

- extract: ``manifest.csv`` over two synthetic databases (64 px and 128 px).
- loso:    ``manifest.csv``, one ``.flow`` file per sample in ``flow/`` and
           ``config.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import common


def _cli(ahmsa_cli, argv: list[str]) -> None:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = ahmsa_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ahmsa {' '.join(argv)} exited {code}:\n{sink.getvalue()}")


def _gen(ahmsa_cli, out: Path, seed: int, subjects: int, per_subject: int,
         side: int) -> list[str]:
    """Render a synthetic database; return its manifest header and rows."""
    _cli(ahmsa_cli, ["gen-synthetic", "--out-dir", str(out), "--seed", str(seed),
                     "--subjects", str(subjects),
                     "--samples-per-subject", str(per_subject),
                     "--image-size", str(side)])
    return (out / "manifest.csv").read_text(encoding="utf-8").splitlines()


def make_extract(ahmsa_cli, out: Path, seed: int) -> None:
    rows = []
    header = None
    for offset, (name, side, subjects, per_subject) in enumerate(
            common.EXTRACT_DATABASES):
        header, *body = _gen(ahmsa_cli, out / name, seed * 2 + offset,
                             subjects, per_subject, side)
        for row in body:
            fields = row.split(",")
            fields[0] = name
            fields[1] = f"{name}_{fields[1]}"
            fields[2] = f"{name}_{fields[2]}"
            fields[3] = f"{name}/{fields[3]}"
            fields[4] = f"{name}/{fields[4]}"
            rows.append(",".join(fields))
    common.input_paths(out)["manifest"].write_text(
        header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def make_loso(ahmsa_cli, out: Path, seed: int) -> None:
    paths = common.input_paths(out)
    _gen(ahmsa_cli, out, seed, common.LOSO_SUBJECTS,
         common.LOSO_SAMPLES_PER_SUBJECT, 64)
    _cli(ahmsa_cli, ["extract-flow", "--manifest", str(paths["manifest"]),
                     "--out-dir", str(paths["flow_dir"])])
    # one log record per epoch gives the per-epoch latency without wrappers
    paths["config"].write_text(json.dumps({"train.log_every": 1}) + "\n",
                               encoding="utf-8")


MAKERS = {"extract": make_extract, "loso": make_loso}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    common.import_program()
    from ahmsa import cli

    out.mkdir(parents=True, exist_ok=True)
    MAKERS[workload](cli, out, seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
