"""Command-line entry point.

Subcommands:
  gen-synthetic   render a synthetic onset/apex dataset + manifest
  extract-flow    manifest -> one .flow feature-map file per sample
  train           train one model on the full manifest, save a checkpoint
  loso            leave-one-subject-out evaluation -> metrics.json + figures
  report          re-render summary/figure from an existing metrics.json

Configuration is a flat JSON file of dotted keys ("model.heads": 3) merged
with command-line overrides.  Each section is checked once, when it is
built, and every problem in all four is reported in one config error; every
resolved value is echoed into metrics.json so a run can be reproduced from
its own output.

Flow extraction (extract-flow, or --extract) and the LOSO folds run in one
forked worker process per usable CPU, capped by AHMSA_THREADS.

Exit codes: 0 success, 1 runtime failure, 2 usage/config error, 130/143
interrupted by SIGINT/SIGTERM (the worker processes are ended first).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from collections.abc import Iterator
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import CLASS_NAMES, DatasetManifest, Sample, gen_synthetic, load_manifest
from .errors import AhmsaError, ConfigError, ValidationError, is_finite_real, is_int
from .model import ModelConfig, save_checkpoint
from .optflow import (
    FlowOptions,
    TVL1Params,
    extract_feature_map,
    read_flow_map,
    read_pgm,
    write_flow_map,
)
from .train import TrainConfig, run_loso, train_fold
from .workers import forked_map, worker_count


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one command invocation."""

    model: ModelConfig
    train: TrainConfig
    tvl1: TVL1Params
    flow: FlowOptions

    def __post_init__(self):
        # the region composite, a 2x2 tiling of landmark crops, is the
        # network's h_flow x w_flow input
        if self.model.h_flow % 2 != 0:
            raise ConfigError("model.h_flow must be even for the 2x2 region "
                              f"composite, got {self.model.h_flow}")

    def flat_dict(self) -> dict:
        out = {}
        for section_name, section in (("model", self.model), ("train", self.train),
                                      ("tvl1", self.tvl1), ("flow", self.flow)):
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, tuple):
                    value = list(value)
                out[f"{section_name}.{f.name}"] = value
        return dict(sorted(out.items()))


_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "tvl1": TVL1Params,
    "flow": FlowOptions,
}


def build_run_config(config_path: str | None,
                     overrides: dict[str, object]) -> RunConfig:
    """File values first, then CLI overrides; unknown keys are all reported."""
    values: dict[str, object] = {}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be an object of dotted keys")
        values.update(loaded)
    values.update(overrides)

    known = {
        f"{section}.{f.name}"
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
    }
    unknown = sorted(set(values) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    per_section: dict[str, dict] = {name: {} for name in _SECTIONS}
    for key, value in values.items():
        section, field_name = key.split(".", 1)
        per_section[section][field_name] = value

    sections, problems = {}, []
    for name, cls in _SECTIONS.items():
        try:
            sections[name] = cls(**per_section[name])
        except ConfigError as exc:
            problems.append(str(exc))
    if problems:
        raise ConfigError("; ".join(problems))
    return RunConfig(**sections)


# -- flow-map plumbing -----------------------------------------------------------


def flow_file_name(sample) -> str:
    return f"{sample.database_id}_{sample.subject_id}_{sample.sample_id}.flow"


def flow_file_names(manifest: DatasetManifest) -> list[str]:
    """``flow_file_name`` of every sample in manifest order; a
    ``ValidationError`` naming both samples where two would share a file."""
    owners: dict[str, Sample] = {}
    for sample in manifest.samples:
        name = flow_file_name(sample)
        owner = owners.setdefault(name, sample)
        if owner is not sample:
            raise ValidationError(
                f"samples {owner.sample_id!r} (database {owner.database_id!r}, "
                f"subject {owner.subject_id!r}) and {sample.sample_id!r} (database "
                f"{sample.database_id!r}, subject {sample.subject_id!r}) would share "
                f"the flow file {name}")
    return list(owners)


def _extracted(manifest: DatasetManifest, run: RunConfig,
               workers: int) -> Iterator[tuple[int, np.ndarray | Exception]]:
    """(index, feature map) for every sample in manifest order, or (index,
    error) where its frames could not be read or its map not computed.

    This process reads the frames; ``workers`` forked processes (for one,
    this process) compute the maps.
    """
    unread: dict[int, Exception] = {}  # read failures, by manifest index

    def frame_pairs():
        for i, sample in enumerate(manifest.samples):
            try:
                onset, apex = read_pgm(sample.onset_path), read_pgm(sample.apex_path)
            except (AhmsaError, OSError) as exc:
                unread[i] = exc
                continue
            yield i, onset, apex

    def feature_map(task):
        i, onset, apex = task
        try:
            return i, extract_feature_map(onset, apex, manifest.samples[i].landmarks,
                                          tvl1=run.tvl1, flow=run.flow,
                                          out_size=run.model.h_flow)
        except AhmsaError as exc:
            return i, exc

    def name_of(task) -> str:
        return f"sample {manifest.samples[task[0]].sample_id!r}"

    position = 0  # every sample before it has been yielded
    for i, fmap in forked_map(feature_map, frame_pairs(), workers, name_of):
        yield from ((j, unread.pop(j)) for j in range(position, i))
        yield i, fmap
        position = i + 1
    yield from ((j, unread.pop(j)) for j in range(position, len(manifest)))


def load_feature_maps(manifest: DatasetManifest, flow_dir: Path | None,
                      extract: bool, run: RunConfig, workers: int = 1) -> np.ndarray:
    """Feature maps aligned with manifest order, from files or computed inline
    by ``workers`` processes; the first sample that fails raises."""
    maps = []
    if extract:
        for _, fmap in _extracted(manifest, run, workers):
            if isinstance(fmap, Exception):
                raise fmap
            maps.append(fmap)
    elif flow_dir is None:
        raise ValidationError(
            "either --flow-dir or --extract is required to obtain feature maps"
        )
    else:
        for sample, name in zip(manifest.samples, flow_file_names(manifest)):
            path = flow_dir / name
            if not path.is_file():
                raise ValidationError(
                    f"flow file missing for sample {sample.sample_id!r}: {path} "
                    "(run extract-flow first, or pass --extract)"
                )
            maps.append(read_flow_map(path))
    return np.stack(maps).astype(np.float32)


# -- report artifacts ---------------------------------------------------------------


def confusion_to_csv(counts, class_names=CLASS_NAMES) -> str:
    lines = ["true\\pred," + ",".join(class_names)]
    for name, row in zip(class_names, counts):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def confusion_to_svg(counts, class_names=CLASS_NAMES) -> str:
    """Hand-emitted heatmap: count + row-normalized percentage per cell."""
    counts = np.asarray(counts)
    n = len(class_names)
    cell, margin_left, margin_top = 90, 110, 60
    width = margin_left + n * cell + 20
    height = margin_top + n * cell + 40
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="13">',
        f'<text x="{margin_left + n * cell / 2:.0f}" y="24" '
        'text-anchor="middle" font-size="15">Pooled confusion matrix</text>',
    ]
    row_sums = counts.sum(axis=1)
    for i, true_name in enumerate(class_names):
        y = margin_top + i * cell
        parts.append(
            f'<text x="{margin_left - 8}" y="{y + cell / 2 + 4:.0f}" '
            f'text-anchor="end">{true_name}</text>'
        )
        for j in range(n):
            x = margin_left + j * cell
            frac = counts[i, j] / row_sums[i] if row_sums[i] else 0.0
            # white -> blue ramp on the row-normalized fraction
            r = int(round(255 - 160 * frac))
            g = int(round(255 - 120 * frac))
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="rgb({r},{g},255)" stroke="#666"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 - 4}" '
                f'text-anchor="middle">{int(counts[i, j])}</text>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 + 16}" '
                f'text-anchor="middle" font-size="11">{100 * frac:.1f}%</text>'
            )
    for j, pred_name in enumerate(class_names):
        x = margin_left + j * cell
        parts.append(
            f'<text x="{x + cell / 2}" y="{margin_top - 10}" '
            f'text-anchor="middle">{pred_name}</text>'
        )
    parts.append(
        f'<text x="{margin_left + n * cell / 2:.0f}" y="{height - 10}" '
        'text-anchor="middle" font-size="12">columns: predicted / rows: true</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _check_report(payload, source) -> None:
    """Raise ``ValidationError`` unless ``payload`` is a metrics report whose
    scores are all finite numbers and whose pooled confusion matrix has one
    row and one column of non-negative integers per class."""
    def fail(problem: str):
        raise ValidationError(f"{source}: not a metrics report: {problem}")

    if not isinstance(payload, dict) or not isinstance(payload.get("pooled"), dict):
        fail("no 'pooled' block")
    per_database = payload.get("per_database", {})
    if not (isinstance(per_database, dict)
            and all(isinstance(block, dict) for block in per_database.values())):
        fail("'per_database' must map database names to score blocks")
    blocks = {"pooled": payload["pooled"],
              **{f"per_database.{db}": block for db, block in per_database.items()}}
    for name, block in blocks.items():
        for score in ("uf1", "uar"):
            if not is_finite_real(block.get(score)):
                fail(f"{name}.{score} must be a finite number, got {block.get(score)!r}")
    counts = payload["pooled"].get("confusion")
    n = len(CLASS_NAMES)
    if not (isinstance(counts, list) and len(counts) == n
            and all(isinstance(row, list) and len(row) == n
                    and all(is_int(v) and v >= 0 for v in row) for row in counts)):
        fail(f"pooled.confusion must be a {n}x{n} matrix of non-negative integers")


def _write_figures(out_dir: Path, payload: dict, source) -> None:
    """The pooled confusion matrix as CSV and SVG, after checking the report."""
    _check_report(payload, source)
    counts = payload["pooled"]["confusion"]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "confusion_pooled.csv").write_text(confusion_to_csv(counts),
                                                  encoding="utf-8")
    (out_dir / "confusion_pooled.svg").write_text(confusion_to_svg(counts),
                                                  encoding="utf-8")


def _write_report_files(out_dir: Path, payload: dict) -> None:
    metrics_path = out_dir / "metrics.json"
    _write_figures(out_dir, payload, metrics_path)
    metrics_path.write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {metrics_path}")


# -- subcommands ------------------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    try:
        _, manifest_path = gen_synthetic(
            args.out_dir, seed=args.seed, n_subjects=args.subjects,
            samples_per_subject=args.samples_per_subject,
            image_size=args.image_size,
        )
    except ValidationError as exc:
        # argument validation, not a runtime failure
        raise ConfigError(str(exc)) from exc
    print(manifest_path)
    return 0


def cmd_extract_flow(args) -> int:
    run = build_run_config(args.config, _collect_overrides(args))
    workers = worker_count()
    manifest = load_manifest(args.manifest)
    names = flow_file_names(manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for i, fmap in _extracted(manifest, run, workers):
        sample = manifest.samples[i]
        try:
            if isinstance(fmap, Exception):
                raise fmap
            write_flow_map(out_dir / names[i], fmap)
            print(f"[{i + 1}/{len(manifest)}] {sample.sample_id}", file=sys.stderr)
        except (AhmsaError, OSError) as exc:
            failures += 1
            print(f"[{i + 1}/{len(manifest)}] {sample.sample_id} FAILED: {exc}",
                  file=sys.stderr)
    if failures:
        print(f"{failures}/{len(manifest)} samples failed", file=sys.stderr)
        return 1
    return 0


def cmd_loso(args) -> int:
    run = build_run_config(args.config, _collect_overrides(args))
    workers = worker_count()
    manifest = load_manifest(args.manifest)
    flow_dir = Path(args.flow_dir) if args.flow_dir else None
    maps = load_feature_maps(manifest, flow_dir, args.extract, run, workers)
    report = run_loso(manifest, maps, run.model, run.train, parallel_folds=workers)
    payload = report.to_json_dict()
    payload["config"] = run.flat_dict()
    _write_report_files(Path(args.out_dir), payload)
    print(f"pooled UF1 {payload['pooled']['uf1']:.4f} "
          f"UAR {payload['pooled']['uar']:.4f}")
    return 0


def cmd_train(args) -> int:
    run = build_run_config(args.config, _collect_overrides(args))
    workers = worker_count()
    manifest = load_manifest(args.manifest)
    flow_dir = Path(args.flow_dir) if args.flow_dir else None
    maps = load_feature_maps(manifest, flow_dir, args.extract, run, workers)
    params, history = train_fold(maps, manifest.labels(), run.model, run.train)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out_path, params)
    print(f"final mean loss {history[-1]:.6f}")
    print(out_path)
    return 0


def cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.is_file():
        raise ValidationError(f"metrics file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{path}: not a metrics report: {exc}") from exc
    _check_report(payload, path)
    pooled = payload["pooled"]
    print(f"pooled: UF1 {pooled['uf1']:.4f}  UAR {pooled['uar']:.4f}")
    for db, block in sorted(payload.get("per_database", {}).items()):
        print(f"{db}: UF1 {block['uf1']:.4f}  UAR {block['uar']:.4f}")
    if args.out_dir:
        _write_figures(Path(args.out_dir), payload, path)
        print(f"wrote figures to {args.out_dir}")
    return 0


# -- argument wiring ---------------------------------------------------------------------


# override flag -> (config key, argparse options)
_OVERRIDES = {
    "--epochs": ("train.epochs", {"type": int}),
    "--batch-size": ("train.batch_size", {"type": int}),
    "--lr": ("train.learning_rate", {"type": float}),
    "--seed": ("train.seed", {"type": int}),
    "--blocks": ("model.blocks_per_layer", {"help": "comma list, e.g. 1,1,8"}),
    "--layers": ("model.n_layers", {"type": int}),
    "--scale-factor": ("model.downsample_factor", {"type": int}),
    "--heads": ("model.heads", {"type": int}),
    "--embed-channels": ("model.embed_channels", {"type": int}),
    "--include-nose": ("flow.include_nose", {"action": "store_true", "default": None}),
}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config of dotted keys")
    group = parser.add_argument_group("config overrides")
    for flag, (key, options) in _OVERRIDES.items():
        group.add_argument(flag, dest=key, **options)


def _collect_overrides(args) -> dict[str, object]:
    overrides = {key: getattr(args, key) for key, _ in _OVERRIDES.values()
                 if getattr(args, key) is not None}
    blocks = overrides.get("model.blocks_per_layer")
    if blocks is not None:
        try:
            overrides["model.blocks_per_layer"] = tuple(
                int(part) for part in blocks.split(","))
        except ValueError:
            raise ConfigError(
                f"--blocks must be a comma list of integers, got {blocks!r}"
            ) from None
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ahmsa",
        description="Micro-expression recognition from onset/apex optical flow",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="render a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--samples-per-subject", type=int, default=9)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("extract-flow", help="manifest -> .flow files")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    _add_config_arguments(p)
    p.set_defaults(func=cmd_extract_flow)

    p = sub.add_parser("loso", help="leave-one-subject-out evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--flow-dir", help="directory of precomputed .flow files")
    p.add_argument("--extract", action="store_true",
                   help="compute feature maps inline instead of reading files")
    p.add_argument("--out-dir", default=".")
    _add_config_arguments(p)
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("train", help="train on the full manifest, save checkpoint")
    p.add_argument("--manifest", required=True)
    p.add_argument("--flow-dir")
    p.add_argument("--extract", action="store_true")
    p.add_argument("--out", default="model.ckpt")
    _add_config_arguments(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="summarize an existing metrics.json")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_report)

    for action in sub.choices.values():
        action.add_argument("--version", action="version", version=__version__)
    return parser


class _Terminated(BaseException):
    """A SIGTERM, raised where the program runs, so that the ``finally``
    blocks on its way out (``forked_map``'s among them) end the workers."""


def _raise_terminated(signum, frame):
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    previous = (signal.signal(signal.SIGTERM, _raise_terminated)
                if threading.current_thread() is threading.main_thread() else None)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (AhmsaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (KeyboardInterrupt, _Terminated) as exc:
        print("interrupted", file=sys.stderr)
        return 143 if isinstance(exc, _Terminated) else 130
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
