"""The program attributes the benchmark harness (``perfbench/``) reads.

The harness runs against the program's checkout and is not changed with it,
so a deletion or rename of anything below would break the benchmark; this
keeps such a change from passing the tests.
"""

import importlib

import pytest

from ahmsa.data import ConfusionMatrix, DatasetManifest
from ahmsa.model import ModelConfig
from ahmsa.optflow import TVL1Params

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
