"""Paths, workload constants and small helpers shared by the benchmark scripts.

Every script here imports the program from ``src/`` of the checkout that holds
this directory, never from an installed copy, so the numbers always describe
the code next to the benchmark.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# extract: two databases in one manifest.  (name, frame side, subjects,
# samples per subject).  Two thirds of the samples are 64 px, so the latency
# median sits on 64 px frames and the tail on 128 px frames.
EXTRACT_DATABASES = (("db64", 64, 2, 6), ("db128", 128, 2, 3))

# loso: the acceptance dataset (6 subjects x 9, 64 px) at desk settings
# (batch 32, lr 1e-4), with few epochs so several runs fit in one measurement.
LOSO_EPOCHS = 8
LOSO_SUBJECTS = 6
LOSO_SAMPLES_PER_SUBJECT = 9
LOSO_BATCH = 32
LOSO_TRAIN_ARGS = ("--epochs", str(LOSO_EPOCHS), "--batch-size", str(LOSO_BATCH),
                   "--lr", "1e-4")


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def import_program():
    """Import ``ahmsa`` from this checkout's ``src/`` and return the package."""
    if not (SRC / "ahmsa" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'ahmsa'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ahmsa
    import ahmsa.cli  # not imported by the package itself

    location = Path(ahmsa.__file__).resolve()
    if SRC not in location.parents:
        raise ProgramMissing(f"ahmsa imported from {location}, not from {SRC}")
    return ahmsa


def file_sha256(paths) -> str:
    """sha256 over the bytes of ``paths`` in the given order."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


# The tail is p90 whatever the sample count, so that a slower program, which
# fits fewer samples into a run, reports the same percentile as its parent.
# Runs hold a few hundred samples; ``n`` and the count beyond the tail are
# recorded with it.
TAIL_PERCENTILE = 90.0


def latency_summary(samples_s: list[float]) -> dict:
    """Median and p90 of latencies in seconds, reported in milliseconds."""
    ordered = sorted(samples_s)
    n = len(ordered)

    def at(pct: float) -> float:
        # nearest-rank percentile
        rank = max(1, min(n, int(-(-pct * n // 100))))
        return ordered[rank - 1]

    return {
        "n": n,
        "p50_ms": at(50.0) * 1000.0,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_ms": at(TAIL_PERCENTILE) * 1000.0,
        "beyond_tail": sum(1 for v in ordered if v > at(TAIL_PERCENTILE)),
    }


def input_paths(directory: Path) -> dict[str, Path]:
    """Where ``inputs.py`` puts the input files it renders."""
    directory = Path(directory)
    return {
        "manifest": directory / "manifest.csv",
        "flow_dir": directory / "flow",
        "config": directory / "config.json",
    }


def command_argv(workload: str, paths: dict[str, Path], out: Path) -> list[str]:
    """The ``ahmsa`` command line that one unit of ``workload`` runs."""
    if workload == "extract":
        return ["extract-flow", "--manifest", str(paths["manifest"]),
                "--out-dir", str(out)]
    return ["loso", "--manifest", str(paths["manifest"]),
            "--flow-dir", str(paths["flow_dir"]), "--out-dir", str(out),
            "--config", str(paths["config"]), *LOSO_TRAIN_ARGS]
