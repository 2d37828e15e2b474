"""The workloads and the per-layer figures derived from their spans.

Each workload is a closed loop: one caller in one process, and the next unit
starts when the previous one has returned.

- extract: one unit is one ``ahmsa extract-flow`` over a two-database
  composite (64 px and 128 px frames).  Only optflow and its file I/O work
  here.  At 64 px TV-L1 is bound by per-op Python overhead, at 128 px (one
  more pyramid level, 4x the pixels) by array arithmetic, so a batching or
  kernel change to TV-L1 shows which regime it helps; the mixed sizes keep
  the samples from sharing one stacked batch.
- loso: one unit is one ``ahmsa loso`` on the acceptance dataset at desk
  settings with sequential folds and default BLAS threads: the run users wait
  for.  Training steps (tape, forward, backward, Adam, at uneven batches of 32
  and 13) dominate; fold orchestration, evaluation and report I/O ride along.
  A fold-level parallelism change can show only here.
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import shutil
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import common


@dataclass
class UnitResult:
    seconds: float
    samples: int  # extracted maps, training samples consumed, or maps classified
    latencies: list[float]  # seconds per sample, fold-epoch or batch
    attempted: int
    failed: int
    digest: str  # sha256 of the unit's result
    traced: bool = False
    problems: list[str] = field(default_factory=list)


class _LineStamps(io.TextIOBase):
    """Text sink that notes the time each line is completed."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = perf_counter()
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((now, line))
        return len(text)


class _EpochStamps(logging.Handler):
    """Notes the time of each per-epoch loss record of ``ahmsa.train``."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.stamps: list[tuple[float, int]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.levelno == logging.INFO and len(record.args or ()) == 3:
            self.stamps.append((perf_counter(), int(record.args[0])))


@contextlib.contextmanager
def _epoch_stamps():
    logger = logging.getLogger("ahmsa.train")
    handler = _EpochStamps()
    saved = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved[0])
        logger.propagate = saved[1]


def _clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def _nearest_mean_scores(ahmsa, manifest, maps: np.ndarray) -> tuple[float, float]:
    """UF1/UAR of a nearest-class-mean probe under LOSO on the extracted maps."""
    data = ahmsa.data
    labels = manifest.labels()
    flat = maps.reshape(len(maps), -1).astype(np.float64)
    matrix = data.ConfusionMatrix()
    for _, train_idx, test_idx in data.loso_splits(manifest):
        means = np.stack([flat[[i for i in train_idx if labels[i] == c]].mean(axis=0)
                          for c in range(data.N_CLASSES)])
        for i in test_idx:
            matrix.add(int(labels[i]),
                       int(np.argmin(((means - flat[i]) ** 2).sum(axis=1))))
    return data.uf1(matrix), data.uar(matrix)


class Extract:
    latency_unit = "sample"

    def __init__(self, ahmsa, paths: dict, work: Path):
        self.ahmsa = ahmsa
        self.paths = paths
        self.out = work / "out"
        self.manifest = ahmsa.cli.load_manifest(paths["manifest"])
        self.flow_files = [self.out / ahmsa.cli.flow_file_name(s)
                           for s in self.manifest.samples]
        self.maps = None

    def unit(self) -> UnitResult:
        cli = self.ahmsa.cli
        _clear(self.out)
        stamps = _LineStamps()
        argv = common.command_argv("extract", self.paths, self.out)
        with contextlib.redirect_stderr(stamps), \
                contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - start
        progress = [(t, line) for t, line in stamps.lines if line.startswith("[")]
        times = [start] + [t for t, _ in progress]
        latencies = [b - a for a, b in zip(times, times[1:])]
        n = len(self.flow_files)
        failed = sum(" FAILED: " in line for _, line in progress)
        problems = [] if code == 0 else [f"extract-flow exited {code}"]
        maps = []
        for path in self.flow_files:
            try:
                fmap = self.ahmsa.optflow.read_flow_map(path)
            except (OSError, self.ahmsa.AhmsaError) as exc:
                problems.append(str(exc))
                continue
            if fmap.shape != (28, 28, 3) or not np.isfinite(fmap).all():
                problems.append(f"{path.name}: shape {fmap.shape} or non-finite values")
                failed += 1
            maps.append(fmap)
        if len(maps) == n:
            self.maps = np.stack(maps)
        digest = common.file_sha256(self.flow_files) if not problems else "missing"
        return UnitResult(seconds, n - failed, latencies, n, min(n, failed), digest,
                          problems=problems)

    def quality(self) -> tuple[float, float]:
        if self.maps is None:
            return 0.0, 0.0
        return _nearest_mean_scores(self.ahmsa, self.manifest, self.maps)


class Loso:
    latency_unit = "fold-epoch"

    def __init__(self, ahmsa, paths: dict, work: Path):
        self.ahmsa = ahmsa
        self.paths = paths
        self.out = work / "out"
        manifest = ahmsa.cli.load_manifest(paths["manifest"])
        self.folds = ahmsa.data.loso_splits(manifest)
        self.samples = sum(len(train) for _, train, _ in self.folds) * common.LOSO_EPOCHS
        self.report = None

    def unit(self) -> UnitResult:
        _clear(self.out)
        argv = common.command_argv("loso", self.paths, self.out)
        with _epoch_stamps() as epochs, contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = self.ahmsa.cli.main(argv)
            seconds = perf_counter() - start
        # first epoch of each fold also holds fold set-up, so it is left out
        latencies = [b - a for (a, ea), (b, eb) in zip(epochs.stamps, epochs.stamps[1:])
                     if eb == ea + 1]
        n = len(self.folds)
        problems = [] if code == 0 else [f"loso exited {code}"]
        metrics = self.out / "metrics.json"
        try:
            report = json.loads(metrics.read_text(encoding="utf-8"))
            failed = len(report.get("failed_folds", {}))
            scores = (report["pooled"]["uf1"], report["pooled"]["uar"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return UnitResult(seconds, 0, latencies, n, n, "missing",
                              problems=problems + [f"metrics.json: {exc}"])
        if failed:
            problems.append(f"failed folds: {sorted(report['failed_folds'])}")
        if not all(0.0 <= s <= 1.0 for s in scores):
            problems.append(f"UF1/UAR {scores} outside [0, 1]")
            failed = n
        self.report = report
        return UnitResult(seconds, self.samples * (n - failed) // n, latencies, n,
                          failed, common.file_sha256([metrics]), problems=problems)

    def quality(self) -> tuple[float, float]:
        if self.report is None:
            return 0.0, 0.0
        return self.report["pooled"]["uf1"], self.report["pooled"]["uar"]


WORKLOADS = {"extract": Extract, "loso": Loso}


# -- per-layer figures from spans ------------------------------------------------


def tvl1_pixel_iters(ahmsa, side: int) -> int:
    """Computed: pyramid pixels x warps x inner iterations for a square frame."""
    optflow = ahmsa.optflow
    params = optflow.TVL1Params()
    levels = optflow._pyramid(np.zeros((side, side)), params.pyramid_scale,
                              params.pyramid_levels)
    return sum(level.size for level in levels) * params.n_warps * params.n_inner_iters


def _mean_ms(spans) -> float:
    return 1000.0 * statistics.fmean(s.dur for s in spans) if spans else 0.0


def layer_metrics(tracer, ahmsa) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from the tracer's spans and counters."""
    spans = tracer.spans
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
        by_name[s.name].append(s)

    def self_time(s) -> float:
        return s.dur - sum(c.dur for c in children[s.sid])

    m: dict[str, tuple[float, str]] = {}

    # optflow and the extract-flow command
    tvl1 = by_name["optflow.tvl1"]
    for side in (64, 128):
        calls = [s for s in tvl1 if s.attrs["side"] == side]
        m[f"optflow.tvl1_ms.{side}px"] = (_mean_ms(calls), "ms")
        m[f"optflow.pixel_iters.{side}px"] = (
            float(tvl1_pixel_iters(ahmsa, side)) if calls else 0.0, "count")
    tvl1_seconds = sum(s.dur for s in tvl1)
    m["optflow.mpix_iters_per_s"] = (
        sum(tvl1_pixel_iters(ahmsa, s.attrs["side"]) for s in tvl1) / tvl1_seconds / 1e6
        if tvl1 else 0.0, "Mpix-iter/s")
    for key, name in (("strain", "optflow.strain"), ("compose", "optflow.compose"),
                      ("read_pgm", "optflow.read_pgm"),
                      ("write_flow", "optflow.write_flow")):
        m[f"optflow.{key}_ms"] = (_mean_ms(by_name[name]), "ms")
    extracted = len(by_name["optflow.extract"])
    m["cli.extract_self_ms"] = (
        1000.0 * sum(self_time(s) for s in by_name["cli.extract"]) / extracted
        if extracted else 0.0, "ms")

    # model stages, per training forward call at batch 32
    config = ahmsa.model.ModelConfig()
    level_of = {config.grid_at(level): level for level in range(config.n_layers)}
    stage_names = ["patch_embed"]
    for level in range(config.n_layers):
        stage_names += [f"level{level}.{part}" for part in ("norm", "ca", "sa", "ff")]
    stage_names += [f"transition{i}" for i in range(config.n_layers - 1)] + ["head"]
    forwards = [s for s in by_name["model.forward"]
                if s.attrs["batch"] == common.LOSO_BATCH]
    totals = Counter()
    for f in forwards:
        kids = children[f.sid]
        for c in kids:
            if c.name == "model.patch_embed":
                totals["patch_embed"] += c.dur
            elif c.name == "model.transition":
                totals[f"transition{level_of[c.attrs['side']]}"] += c.dur
            elif c.name == "model.block":
                level = level_of[c.attrs["side"]]
                for g in children[c.sid]:
                    totals[f"level{level}.{g.name.split('.')[1]}"] += g.dur
        if kids:
            totals["head"] += f.end - max(c.end for c in kids)
    m["model.forward_ms"] = (_mean_ms(forwards), "ms")
    for stage in stage_names:
        m[f"model.{stage}_ms"] = (
            1000.0 * totals[stage] / len(forwards) if forwards else 0.0, "ms")

    # training steps at batch 32
    steps = [s for s in by_name["train.step"] if s.attrs["batch"] == common.LOSO_BATCH]
    step_units = {s.unit for s in steps}
    for key, name in (("backward", "tensor.backward"), ("adam", "tensor.adam"),
                      ("zero_grads", "tensor.zero_grads"),
                      ("cross_entropy", "tensor.cross_entropy")):
        m[f"tensor.{key}_ms"] = (
            _mean_ms([s for s in by_name[name] if s.unit in step_units]), "ms")
    m["train.step_ms.b32"] = (_mean_ms(steps), "ms")

    def per_step(key: str) -> float:
        return float(statistics.median(s.attrs.get(key, 0) for s in steps)) if steps else 0.0

    m["tensor.ops_per_step"] = (per_step("tape_ops"), "count")
    m["tensor.conv2d_per_step"] = (per_step("conv2d"), "count")
    # computed: conv/matmul FLOPs of the forward, backward counted as twice that
    gflop_per_step = 3.0 * per_step("flops") / 1e9
    m["model.gflop_per_step"] = (gflop_per_step, "GFLOP")
    m["model.gflops"] = (
        gflop_per_step / statistics.fmean(s.dur for s in steps) if steps else 0.0,
        "GFLOP/s")
    m["model.zero_grad_param_share"] = (
        statistics.median(tracer.zero_grad_shares) if tracer.zero_grad_shares else 0.0,
        "share")

    # folds: one train_fold plus the evaluate that follows it
    evaluates = by_name["train.evaluate"]
    fold_seconds = []
    for fold in by_name["train.train_fold"]:
        after = [e for e in evaluates if e.parent == fold.parent and e.start >= fold.end]
        fold_seconds.append(fold.dur + (min(after, key=lambda e: e.start).dur
                                        if after else 0.0))
    m["train.fold_s"] = (statistics.fmean(fold_seconds) if fold_seconds else 0.0, "s")
    m["train.evaluate_ms"] = (_mean_ms(evaluates), "ms")
    loso_seconds = sum(s.dur for s in by_name["train.run_loso"])
    m["train.fold_overlap"] = (sum(fold_seconds) / loso_seconds if loso_seconds else 0.0,
                               "ratio")

    # set-up and report I/O
    for metric, name in (("data.load_manifest_ms", "data.load_manifest"),
                         ("cli.load_maps_ms", "cli.load_maps"),
                         ("cli.write_report_ms", "cli.write_report")):
        m[metric] = (_mean_ms(by_name[name]), "ms")
    return m
