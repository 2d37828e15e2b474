"""The program attributes the benchmark harness (``perfbench/``) reads.

The harness runs against the program's checkout and is not changed with it,
so a deletion or rename of anything below would break the benchmark; this
keeps such a change from passing the tests.
"""

import importlib
import json
import os

import numpy as np
import pytest

import ahmsa.cli as cli
from ahmsa.data import ConfusionMatrix, DatasetManifest, load_manifest
from ahmsa.model import ModelConfig
from ahmsa.optflow import TVL1Params, write_flow_map

READ_BY_BENCHMARK = {
    "cli": ["main", "load_manifest", "flow_file_name", "read_pgm", "run_loso"],
    "optflow": ["read_flow_map", "TVL1Params", "_pyramid"],
    "data": ["ConfusionMatrix", "loso_splits", "N_CLASSES", "uf1", "uar"],
}


@pytest.mark.parametrize("module,name", [(module, name)
                                         for module, names in READ_BY_BENCHMARK.items()
                                         for name in names],
                         ids=lambda value: value)
def test_benchmark_attribute_exists(module, name):
    assert hasattr(importlib.import_module(f"ahmsa.{module}"), name)


def test_benchmark_reads_the_default_model_depth_and_grids():
    config = ModelConfig()
    assert [config.grid_at(level) for level in range(config.n_layers)] == [4, 2, 1]


def test_benchmark_reads_these_members_of_program_objects():
    matrix = ConfusionMatrix()
    matrix.add(0, 1)
    assert matrix.counts[0, 1] == 1
    manifest = DatasetManifest(samples=[])
    assert manifest.samples == [] and manifest.labels().shape == (0,)
    params = TVL1Params()
    for name in ("pyramid_scale", "pyramid_levels", "n_warps", "n_inner_iters"):
        assert hasattr(params, name), name


# perfbench/probe.py times a workload's set-up as its ``ahmsa`` command line
# up to the first call of this ``cli`` attribute, and fails if it is never made.
PROBE_STOPS = {"extract": "read_pgm", "loso": "run_loso"}


class _ProbeStop(BaseException):
    """Raised where the probe stops; a BaseException, as the probe's is, so
    that the command's own error handling lets it through."""


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """Small inputs of the probe's two command lines: a synthetic manifest,
    one default-size ``.flow`` map per sample and the loso config file."""
    root = tmp_path_factory.mktemp("probe")
    assert cli.main(["gen-synthetic", "--out-dir", str(root), "--subjects", "2",
                     "--samples-per-subject", "3", "--image-size", "32"]) == 0
    side = ModelConfig().h_flow
    (root / "flow").mkdir()
    for sample in load_manifest(root / "manifest.csv").samples:
        write_flow_map(root / "flow" / cli.flow_file_name(sample),
                       np.zeros((side, side, 3), dtype=np.float32))
    (root / "config.json").write_text(json.dumps({"train.log_every": 1}))
    return root


@pytest.mark.parametrize("workload", sorted(PROBE_STOPS))
def test_benchmark_probe_stops_where_it_expects(probe_inputs, tmp_path, monkeypatch,
                                                workload):
    """The command reaches the probe's stop point in this process, before it
    forks any worker (the same command lines as ``perfbench/common.py``)."""
    def stop(*args, **kwargs):
        raise _ProbeStop

    def no_fork():
        raise AssertionError("forked before the probe's stop point")

    monkeypatch.setattr(cli, PROBE_STOPS[workload], stop)
    monkeypatch.setattr(os, "fork", no_fork)
    manifest, out = str(probe_inputs / "manifest.csv"), str(tmp_path / "out")
    argv = (["extract-flow", "--manifest", manifest, "--out-dir", out]
            if workload == "extract" else
            ["loso", "--manifest", manifest, "--flow-dir", str(probe_inputs / "flow"),
             "--out-dir", out, "--config", str(probe_inputs / "config.json"),
             "--epochs", "8", "--batch-size", "32", "--lr", "1e-4"])
    with pytest.raises(_ProbeStop):
        cli.main(argv)
