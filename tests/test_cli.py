import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import ahmsa.cli
import ahmsa.data
import ahmsa.files
import ahmsa.optflow
import ahmsa.train
import ahmsa.workers
from ahmsa import FlowOptions, ModelConfig, TrainConfig, TVL1Params
from ahmsa.cli import build_run_config, confusion_to_csv, confusion_to_svg, main
from ahmsa.errors import AhmsaError, ConfigError
from ahmsa.model import forward, init_model


def run_cli(*argv) -> int:
    return main(list(argv))


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


SMALL_MODEL_OVERRIDES = {
    "model.h_flow": 8, "model.embed_channels": 12, "model.heads": 3,
    "model.blocks_per_layer": [1, 1, 1], "model.channel_reduction": 4,
    "model.ffn_expansion": 2,
    "flow.region_px": 16,
}


def write_config(tmp_path, extra=None) -> Path:
    payload = dict(SMALL_MODEL_OVERRIDES)
    if extra:
        payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = run_cli("gen-synthetic", "--out-dir", str(root), "--seed", "21",
                   "--subjects", "2", "--samples-per-subject", "3",
                   "--image-size", "48")
    assert code == 0
    return root


# -- parser basics ------------------------------------------------------------


def test_help_and_version(capsys):
    for argv in (["--help"], ["--version"], ["loso", "--help"],
                 ["gen-synthetic", "--help"], ["extract-flow", "--help"],
                 ["train", "--help"], ["report", "--help"],
                 ["loso", "--version"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        capsys.readouterr()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_program_never_imports_scipy(tmp_path):
    # a fresh interpreter: this one has scipy loaded by the tests' oracles
    script = textwrap.dedent("""
        import sys
        from pathlib import Path

        import ahmsa, ahmsa.cli
        from ahmsa.data import gen_synthetic
        from ahmsa.optflow import FlowOptions, extract_feature_map, read_pgm

        manifest, _ = gen_synthetic(Path(sys.argv[1]), seed=3, n_subjects=2,
                                    samples_per_subject=3, image_size=32)
        sample = manifest.samples[0]
        extract_feature_map(read_pgm(sample.onset_path), read_pgm(sample.apex_path),
                            sample.landmarks, flow=FlowOptions(region_px=16))
        print(sorted(name for name in sys.modules
                     if name == "scipy" or name.startswith("scipy.")))
    """)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(Path(ahmsa.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# -- gen-synthetic -------------------------------------------------------------


def test_gen_synthetic_default_counts(tmp_path, capsys):
    assert run_cli("gen-synthetic", "--out-dir", str(tmp_path / "d")) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("manifest.csv")
    assert len(list((tmp_path / "d" / "images").glob("*.pgm"))) == 108


def test_gen_synthetic_deterministic_tree(tmp_path):
    run_cli("gen-synthetic", "--out-dir", str(tmp_path / "a"), "--seed", "9",
            "--subjects", "2", "--samples-per-subject", "3")
    run_cli("gen-synthetic", "--out-dir", str(tmp_path / "b"), "--seed", "9",
            "--subjects", "2", "--samples-per-subject", "3")
    assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")


def test_gen_synthetic_single_subject_exit_2(tmp_path, capsys):
    assert run_cli("gen-synthetic", "--out-dir", str(tmp_path),
                   "--subjects", "1") == 2
    assert "2 subjects" in capsys.readouterr().err


def test_gen_synthetic_negative_seed_exit_2(tmp_path, capsys):
    assert run_cli("gen-synthetic", "--out-dir", str(tmp_path), "--seed", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err and "Traceback" not in err


# -- extract-flow -----------------------------------------------------------------


def test_extract_flow_produces_files(dataset, tmp_path, capsys):
    flow_dir = tmp_path / "flow"
    cfg = write_config(tmp_path)
    code = run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(flow_dir), "--config", str(cfg))
    assert code == 0
    files = sorted(flow_dir.glob("*.flow"))
    assert len(files) == 6
    assert files[0].name == "synthetic_s01_s01_00.flow"
    capsys.readouterr()


def test_extract_flow_deterministic(dataset, tmp_path):
    cfg = write_config(tmp_path)
    for sub in ("f1", "f2"):
        run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                "--out-dir", str(tmp_path / sub), "--config", str(cfg))
    assert _tree_hash(tmp_path / "f1") == _tree_hash(tmp_path / "f2")


def _scipy_blur(img, sigma):
    return ndimage.gaussian_filter(img, sigma, mode="nearest")


def _scipy_sample(images, ys, xs):
    planes = images.reshape(-1, *images.shape[-2:])
    warped = [ndimage.map_coordinates(p, [ys, xs], order=1, mode="nearest") for p in planes]
    return np.stack(warped).reshape(images.shape[:-2] + ys.shape)


@pytest.mark.parametrize("size", [64, 128])
def test_numpy_blur_and_warp_keep_scipy_bytes(tmp_path, monkeypatch, size):
    # every synthetic PGM and .flow file equals the scipy.ndimage run's
    def run(root: Path) -> str:
        assert run_cli("gen-synthetic", "--out-dir", str(root), "--seed", "8",
                       "--subjects", "2", "--samples-per-subject", "3",
                       "--image-size", str(size)) == 0
        assert run_cli("extract-flow", "--manifest", str(root / "manifest.csv"),
                       "--out-dir", str(root / "flow")) == 0
        assert len(list((root / "flow").glob("*.flow"))) == 6
        return _tree_hash(root)

    numpy_tree = run(tmp_path / "numpy")
    for module in (ahmsa.optflow, ahmsa.data):
        monkeypatch.setattr(module, "_gaussian_blur", _scipy_blur)
        monkeypatch.setattr(module, "_bilinear_sample", _scipy_sample)
    assert run(tmp_path / "scipy") == numpy_tree


def test_extract_flow_missing_apex_names_sample(dataset, tmp_path, capsys):
    manifest = (dataset / "manifest.csv").read_text()
    broken = manifest.replace("s02_02_apex.pgm", "s02_02_gone.pgm")
    broken_path = tmp_path / "broken.csv"
    broken_path.write_text(broken)
    (tmp_path / "images").symlink_to(dataset / "images")
    code = run_cli("extract-flow", "--manifest", str(broken_path),
                   "--out-dir", str(tmp_path / "flow"))
    assert code == 1
    err = capsys.readouterr().err
    assert "s02_02" in err and "apex" in err


def test_extract_flow_truncated_pgm_fails_one_sample(dataset, tmp_path, capsys):
    shutil.copytree(dataset / "images", tmp_path / "images")
    shutil.copy(dataset / "manifest.csv", tmp_path / "manifest.csv")
    apex = tmp_path / "images" / "s02_02_apex.pgm"
    apex.write_bytes(apex.read_bytes()[:-100])
    flow_dir = tmp_path / "flow"
    code = run_cli("extract-flow", "--manifest", str(tmp_path / "manifest.csv"),
                   "--out-dir", str(flow_dir), "--config", str(write_config(tmp_path)))
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    failed = [line for line in err.splitlines() if "FAILED" in line]
    assert len(failed) == 1
    assert "s02_02" in failed[0] and "truncated pixel data" in failed[0]
    assert len(list(flow_dir.glob("*.flow"))) == 5


@pytest.mark.parametrize("key,value", [("tvl1.n_warps", 2.5),
                                       ("tvl1.lambda_weight", float("nan")),
                                       ("tvl1.pyramid_levels", 1.5),
                                       ("tvl1.n_inner_iters", True)])
def test_extract_flow_rejects_mistyped_tvl1_config(dataset, tmp_path, capsys, key, value):
    _assert_extract_flow_config_error(dataset, tmp_path, capsys, key, value)


@pytest.mark.parametrize("key,value", [("train.batch_size", "3"),
                                       ("flow.region_px", "16"),
                                       ("train.epochs", 2.5),
                                       ("train.learning_rate", float("nan")),
                                       ("flow.include_nose", "yes")])
def test_extract_flow_rejects_mistyped_train_and_flow_config(dataset, tmp_path, capsys,
                                                              key, value):
    _assert_extract_flow_config_error(dataset, tmp_path, capsys, key, value)


def test_extract_flow_accepts_a_vanishing_pyramid_scale(dataset, tmp_path, capsys,
                                                        monkeypatch):
    # one level per frame; in this process a failure would be a raw traceback
    monkeypatch.setenv("AHMSA_THREADS", "1")
    flow_dir = tmp_path / "flow"
    code = run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(flow_dir), "--config",
                   str(write_config(tmp_path, {"tvl1.pyramid_scale": 1e-300})))
    capsys.readouterr()
    assert code == 0
    assert len(list(flow_dir.glob("*.flow"))) == 6


def _assert_extract_flow_config_error(dataset, tmp_path, capsys, key, value):
    flow_dir = tmp_path / "flow"
    code = run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(flow_dir),
                   "--config", str(write_config(tmp_path, {key: value})))
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("config error:") and key.split(".")[1] in err
    assert not list(flow_dir.glob("*.flow"))


# -- extract-flow in worker processes ------------------------------------------------
# The workers are forked, so a monkeypatched module attribute is what they run.

forks = pytest.mark.skipif(not ahmsa.workers.openblas_thread_controls(),
                           reason="no OpenBLAS thread setter: samples run in-process")


@pytest.fixture
def four_cpus(monkeypatch):
    """extract-flow runs one worker per usable CPU, capped by AHMSA_THREADS;
    with four, the cap sets the count on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)


def _failing_dataset(dataset, root: Path) -> Path:
    """The test dataset with one truncated PGM (s02_02, a read failure) and
    one landmark outside the map (s01_01, a failure in the feature map)."""
    shutil.copytree(dataset / "images", root / "images")
    apex = root / "images" / "s02_02_apex.pgm"
    apex.write_bytes(apex.read_bytes()[:-100])
    lines = (dataset / "manifest.csv").read_text().splitlines()
    fields = lines[2].split(",")
    assert fields[2] == "s01_01"
    fields[5] = "500"  # lx_eye
    lines[2] = ",".join(fields)
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return root / "manifest.csv"


@pytest.mark.parametrize("workers", ["2", "3"])
def test_extract_flow_workers_match_one_process(dataset, tmp_path, capsys, monkeypatch,
                                                four_cpus, workers):
    manifest = _failing_dataset(dataset, tmp_path)
    cfg = write_config(tmp_path)
    runs = []
    for sub, threads in (("one", "1"), ("many", workers)):
        monkeypatch.setenv("AHMSA_THREADS", threads)
        code = run_cli("extract-flow", "--manifest", str(manifest),
                       "--out-dir", str(tmp_path / sub), "--config", str(cfg))
        assert code == 1
        runs.append((_tree_hash(tmp_path / sub), capsys.readouterr().err.splitlines()))
    assert runs[0] == runs[1]
    err = runs[1][1]
    assert "Traceback" not in "\n".join(err)
    assert err[1].startswith("[2/6] s01_01 FAILED: landmark left_eye at (500, ")
    assert err[5].startswith("[6/6] s02_02 FAILED: ") and "truncated pixel data" in err[5]
    assert err[6] == "2/6 samples failed"
    assert len(list((tmp_path / "many").glob("*.flow"))) == 4


def test_extract_flow_128px_workers_match_one_process(tmp_path, monkeypatch, four_cpus):
    # a 128 px level holds 32,768 values per field, where OpenBLAS would
    # thread a dot product; where each warp stops must not depend on that
    assert run_cli("gen-synthetic", "--out-dir", str(tmp_path / "data"), "--seed", "21",
                   "--subjects", "2", "--samples-per-subject", "3",
                   "--image-size", "128") == 0
    cfg = write_config(tmp_path)
    hashes = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AHMSA_THREADS", threads)
        assert run_cli("extract-flow", "--manifest", str(tmp_path / "data" / "manifest.csv"),
                       "--out-dir", str(tmp_path / threads), "--config", str(cfg)) == 0
        hashes.append(_tree_hash(tmp_path / threads))
    assert hashes[0] == hashes[1]
    assert len(list((tmp_path / "2").glob("*.flow"))) == 6


@forks
def test_extract_flow_reads_and_writes_in_the_parent(dataset, tmp_path, capsys,
                                                     monkeypatch, four_cpus):
    calls = tmp_path / "calls.txt"

    def recorded(name, original):
        def call(*args, **kwargs):
            with open(calls, "a") as f:  # a worker's list would stay in the worker
                f.write(f"{name} {os.getpid()}\n")
            return original(*args, **kwargs)
        return call

    for name in ("read_pgm", "write_flow_map", "extract_feature_map"):
        monkeypatch.setattr(ahmsa.cli, name, recorded(name, getattr(ahmsa.cli, name)))
    monkeypatch.setenv("AHMSA_THREADS", "2")
    assert run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(tmp_path / "flow"),
                   "--config", str(write_config(tmp_path))) == 0
    capsys.readouterr()
    pids: dict[str, set[int]] = {}
    for line in calls.read_text().splitlines():
        name, pid = line.split()
        pids.setdefault(name, set()).add(int(pid))
    assert pids["read_pgm"] == pids["write_flow_map"] == {os.getpid()}
    assert len(pids["extract_feature_map"]) == 2
    assert os.getpid() not in pids["extract_feature_map"]


def test_extract_flow_unreadable_frames_fork_no_worker(dataset, tmp_path, capsys,
                                                       monkeypatch, four_cpus):
    def unreadable(path):
        raise ahmsa.cli.ValidationError(f"{path}: unreadable")

    def no_fork():
        raise AssertionError("forked a worker")

    monkeypatch.setattr(ahmsa.cli, "read_pgm", unreadable)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setenv("AHMSA_THREADS", "2")
    code = run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(tmp_path / "flow"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split(" FAILED: ")[0] for line in err[:6]] == [
        f"[{i}/6] s0{1 + (i - 1) // 3}_0{(i - 1) % 3}" for i in range(1, 7)]
    assert err[6] == "6/6 samples failed"


@forks
def test_extract_flow_worker_death_exit_1(dataset, tmp_path, capsys, monkeypatch,
                                          four_cpus):
    from ahmsa.data import load_manifest

    doomed = ahmsa.cli.read_pgm(load_manifest(dataset / "manifest.csv").samples[1].apex_path)

    def die_on_second_sample(onset, apex, landmarks, **kwargs):
        if (apex == doomed).all():
            os._exit(7)
        time.sleep(60)  # the parent must not wait for the surviving workers

    monkeypatch.setattr(ahmsa.cli, "extract_feature_map", die_on_second_sample)
    monkeypatch.setenv("AHMSA_THREADS", "2")
    started = time.monotonic()
    code = run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(tmp_path / "flow"))
    assert time.monotonic() - started < 10
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sample 's01_01'") and "exit code 7" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_extract_flow_rejects_bad_thread_cap_before_the_manifest(tmp_path, capsys,
                                                                  monkeypatch, value):
    monkeypatch.setenv("AHMSA_THREADS", value)
    code = run_cli("extract-flow", "--manifest", str(tmp_path / "missing.csv"),
                   "--out-dir", str(tmp_path / "flow"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "AHMSA_THREADS" in err
    assert "Traceback" not in err


def test_flow_file_name_collision_rejected(dataset, tmp_path, capsys, monkeypatch):
    """db a / subject b / sample c_d and db a_b / subject c / sample d would
    both write a_b_c_d.flow."""
    (tmp_path / "images").symlink_to(dataset / "images")
    lines = (dataset / "manifest.csv").read_text().splitlines()
    for row, ids in ((1, ("a", "b", "c_d")), (4, ("a_b", "c", "d"))):
        fields = lines[row].split(",")
        fields[:3] = ids
        lines[row] = ",".join(fields)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")

    def no_read(path):
        raise AssertionError("read a frame")

    monkeypatch.setattr(ahmsa.cli, "read_pgm", no_read)
    for argv in (["extract-flow", "--out-dir", str(tmp_path / "flow")],
                 ["loso", "--flow-dir", str(tmp_path / "flow"),
                  "--out-dir", str(tmp_path / "out")]):
        assert run_cli(*argv, "--manifest", str(manifest)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: samples 'c_d' ") and "and 'd' " in err
        assert "a_b_c_d.flow" in err and "Traceback" not in err
    assert not list((tmp_path / "flow").glob("*.flow"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("char", ["\0", "/"])
def test_extract_flow_rejects_an_id_that_cannot_name_a_file(dataset, tmp_path, capsys, char):
    (tmp_path / "images").symlink_to(dataset / "images")
    lines = (dataset / "manifest.csv").read_text().splitlines()
    fields = lines[2].split(",")
    fields[2] = f"s01{char}x"
    lines[2] = ",".join(fields)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    code = run_cli("extract-flow", "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "flow"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "line 3: sample id 's01" in err
    assert "Traceback" not in err
    assert not (tmp_path / "flow").exists()


# -- loso --------------------------------------------------------------------------


def test_loso_end_to_end(dataset, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, {"train.epochs": 15, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(out_dir), "--config", str(cfg))
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "metrics.json").read_text())
    assert 0.0 <= payload["pooled"]["uf1"] <= 1.0
    assert 0.0 <= payload["pooled"]["uar"] <= 1.0
    assert payload["config"]["train.epochs"] == 15
    assert (out_dir / "confusion_pooled.csv").is_file()
    svg = (out_dir / "confusion_pooled.svg").read_text()
    assert svg.startswith("<svg") and "negative" in svg


def test_loso_flow_dir_roundtrip(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.epochs": 10, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    flow_dir = tmp_path / "flow"
    assert run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(flow_dir), "--config", str(cfg)) == 0
    out_dir = tmp_path / "out"
    assert run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--flow-dir", str(flow_dir), "--out-dir", str(out_dir),
                   "--config", str(cfg)) == 0
    capsys.readouterr()
    assert (out_dir / "metrics.json").is_file()


@pytest.mark.parametrize("source", ["--extract", "--flow-dir"])
def test_loso_report_config_names_only_what_produced_it(dataset, tmp_path, capsys, source):
    """tvl1.*/flow.* made the feature maps only when this run extracted them."""
    cfg = write_config(tmp_path, {"train.epochs": 1, "train.batch_size": 4,
                                  "tvl1.n_warps": 2})
    manifest = str(dataset / "manifest.csv")
    inputs = ["--extract"]
    if source == "--flow-dir":
        flow_dir = tmp_path / "flow"
        assert run_cli("extract-flow", "--manifest", manifest, "--out-dir",
                       str(flow_dir), "--config", str(cfg)) == 0
        inputs = ["--flow-dir", str(flow_dir)]
    out_dir = tmp_path / "out"
    assert run_cli("loso", "--manifest", manifest, *inputs, "--out-dir", str(out_dir),
                   "--config", str(cfg)) == 0
    capsys.readouterr()
    recorded = json.loads((out_dir / "metrics.json").read_text())["config"]
    every = build_run_config(str(cfg), {}).flat_dict()
    kept = ("model.", "train.", "tvl1.", "flow.") if source == "--extract" \
        else ("model.", "train.")
    assert recorded == {k: v for k, v in every.items() if k.startswith(kept)}
    assert ("tvl1.n_warps" in recorded) == (source == "--extract")


def test_loso_batch_size_zero_exit_2(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(tmp_path / "o"),
                   "--config", str(cfg), "--batch-size", "0")
    assert code == 2
    assert "batch_size" in capsys.readouterr().err


def test_loso_blocks_override_echoed(dataset, tmp_path, capsys):
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, {"train.epochs": 2, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(out_dir), "--config", str(cfg),
                   "--blocks", "1,1,8")
    assert code == 0
    capsys.readouterr()
    payload = json.loads((out_dir / "metrics.json").read_text())
    assert payload["config"]["model.blocks_per_layer"] == [1, 1, 8]


def test_loso_missing_flow_file_exit_1(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--flow-dir", str(tmp_path / "empty"),
                   "--out-dir", str(tmp_path / "o"), "--config", str(cfg))
    assert code == 1
    assert "flow file missing" in capsys.readouterr().err


def test_loso_determinism_byte_identical(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.epochs": 8, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    outs = []
    for sub in ("r1", "r2"):
        out_dir = tmp_path / sub
        assert run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                       "--extract", "--out-dir", str(out_dir),
                       "--config", str(cfg)) == 0
        outs.append((out_dir / "metrics.json").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_loso_writes_no_report_file_when_one_cannot_be_written(dataset, tmp_path,
                                                              capsys):
    out_dir = tmp_path / "out"
    (out_dir / "metrics.json").mkdir(parents=True)
    cfg = write_config(tmp_path, {"train.epochs": 1, "train.batch_size": 4})
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"), "--extract",
                   "--out-dir", str(out_dir), "--config", str(cfg))
    assert code == 1
    err = capsys.readouterr().err
    assert "Is a directory" in err and "metrics.json" in err
    assert [p.name for p in out_dir.iterdir()] == ["metrics.json"]
    assert not any((out_dir / "metrics.json").iterdir())


def test_loso_parallel_folds_match_sequential(dataset, tmp_path, capsys, monkeypatch):
    """Sequential folds, two forked workers, and the default (the usable CPUs,
    forked when there are two or more) write the same bytes."""
    cfg = write_config(tmp_path, {"train.epochs": 8, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    results = []
    for sub, workers in (("seq", "1"), ("par", "2"), ("default", None)):
        out_dir = tmp_path / sub
        if workers is None:
            monkeypatch.delenv("AHMSA_THREADS", raising=False)
        else:
            monkeypatch.setenv("AHMSA_THREADS", workers)
        assert run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                       "--extract", "--out-dir", str(out_dir),
                       "--config", str(cfg)) == 0
        results.append((out_dir / "metrics.json").read_bytes())
    capsys.readouterr()
    assert results[0] == results[1] == results[2]


@pytest.mark.skipif(not ahmsa.workers.openblas_thread_controls(),
                    reason="no OpenBLAS thread setter: folds run in-process")
def test_loso_worker_death_exit_1(dataset, tmp_path, capsys, monkeypatch, four_cpus):
    def die(fold_index, subject, *args):
        os._exit(7)

    monkeypatch.setattr(ahmsa.train, "_run_one_fold", die)
    monkeypatch.setenv("AHMSA_THREADS", "2")
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(tmp_path / "o"),
                   "--config", str(write_config(tmp_path)))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: fold 's0" in err and "exit code 7" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("env", ["-3", "0", "-1", "two"])
def test_loso_rejects_non_positive_fold_counts(dataset, tmp_path, capsys, monkeypatch,
                                               env):
    monkeypatch.setenv("AHMSA_THREADS", env)
    code = run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(tmp_path / "o"),
                   "--config", str(write_config(tmp_path)))
    assert code == 2
    err = capsys.readouterr().err
    assert (err.startswith("config error:") and "AHMSA_THREADS" in err
            and "Traceback" not in err)
    assert not (tmp_path / "o").exists()  # rejected before any fold ran


# -- interrupts ------------------------------------------------------------------------

_INTERRUPTIBLE_CLI = textwrap.dedent("""
    import logging, os, signal, sys
    from ahmsa.cli import main

    signal.signal(signal.SIGINT, signal.default_int_handler)  # a shell may ignore it
    os.sched_getaffinity = lambda pid: {0, 1}  # two extract-flow workers on any host
    logging.basicConfig(level=logging.INFO, format="%(message)s")  # the epoch lines
    sys.exit(main(sys.argv[1:]))
""")


def _proc_stat(pid) -> list[str] | None:
    """The fields of /proc/<pid>/stat from the state on (ppid at 1, start time
    at 19), or None once the process is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _children(pid: int) -> set[tuple[int, str]]:
    """(pid, start time) of the processes whose parent is ``pid``."""
    found = set()
    for entry in Path("/proc").iterdir():
        stat = _proc_stat(entry.name) if entry.name.isdigit() else None
        if stat is not None and int(stat[1]) == pid:
            found.add((int(entry.name), stat[19]))
    return found


def _still_running(pid: int, since: str) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[19] == since and stat[0] != "Z"


@pytest.fixture(scope="module")
def interrupt_dataset(tmp_path_factory):
    """Eighteen 128 px samples: two workers take seconds to extract them."""
    root = tmp_path_factory.mktemp("interrupt_data")
    assert run_cli("gen-synthetic", "--out-dir", str(root), "--seed", "5",
                   "--subjects", "2", "--samples-per-subject", "9",
                   "--image-size", "128") == 0
    return root


@forks
@pytest.mark.parametrize("sig, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
                         ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("command", ["extract-flow", "loso"])
def test_interrupt_ends_the_workers(dataset, interrupt_dataset, tmp_path, command,
                                    sig, code):
    if command == "extract-flow":
        argv = ["extract-flow", "--manifest", str(interrupt_dataset / "manifest.csv"),
                "--out-dir", str(tmp_path / "flow")]
        started = "[1/18] "  # the first progress line
    else:
        cfg = write_config(tmp_path, {"train.epochs": 5000, "train.batch_size": 4,
                                      "train.log_every": 1})
        argv = ["loso", "--manifest", str(dataset / "manifest.csv"), "--extract",
                "--out-dir", str(tmp_path / "o"), "--config", str(cfg)]
        started = "epoch 1/5000 "  # the first epoch line of a fold worker
    env = dict(os.environ, AHMSA_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(Path(ahmsa.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTIBLE_CLI, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        seen = []
        while not any(line.startswith(started) for line in seen):
            line = proc.stderr.readline()
            assert line, f"exited {proc.wait()} before {started!r}:\n{''.join(seen)}"
            seen.append(line)
        workers = _children(proc.pid)
        assert len(workers) == 2
        proc.send_signal(sig)
        err = "".join(seen) + proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == code, err
    assert "Traceback" not in err
    assert err.endswith("interrupted\n")
    assert not [pid for pid, since in workers if _still_running(pid, since)]
    if command == "extract-flow":  # every file is whole, under its final name
        written = list((tmp_path / "flow").iterdir())
        assert all(p.suffix == ".flow" for p in written)  # no temp file is left
        assert all(ahmsa.optflow.read_flow_map(p).shape == (28, 28, 3) for p in written)
    else:  # the report comes after the last fold: no part of it, whole or partial
        left = [p.name for p in (tmp_path / "o").rglob("*")]
        assert not [name for name in left if name.endswith(".tmp")]
        assert not {"metrics.json", "confusion_pooled.csv", "confusion_pooled.svg"} & set(left)


@forks
def test_workers_die_with_a_killed_parent(dataset, tmp_path):
    # SIGKILL runs no cleanup in the parent, and at log_every 0 a fold worker
    # sends nothing before its fold is done, so it must end by itself
    flow_dir, cfg = tmp_path / "flow", write_config(tmp_path)
    assert run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(flow_dir), "--config", str(cfg)) == 0
    cfg = write_config(tmp_path, {"train.epochs": 5000, "train.batch_size": 4})
    argv = ["loso", "--manifest", str(dataset / "manifest.csv"), "--flow-dir",
            str(flow_dir), "--out-dir", str(tmp_path / "o"), "--config", str(cfg)]
    env = dict(os.environ, AHMSA_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(Path(ahmsa.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", _INTERRUPTIBLE_CLI, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    workers = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:  # both folds are training
            assert proc.poll() is None, f"loso exited {proc.returncode} before its folds"
            assert time.monotonic() < deadline, "the fold workers never started"
            time.sleep(0.05)
            workers = _children(proc.pid)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while left := [pid for pid, since in workers if _still_running(pid, since)]:
            assert time.monotonic() < deadline, f"workers {left} outlived their parent"
            time.sleep(0.05)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        for pid, since in workers:
            if _still_running(pid, since):
                os.kill(pid, signal.SIGKILL)


def test_main_restores_the_sigterm_handler(tmp_path, capsys):
    # main installs its own while a command runs; callers in this process keep theirs
    before = signal.getsignal(signal.SIGTERM)
    assert run_cli("report", "--metrics", str(tmp_path / "missing.json")) == 1
    assert run_cli("gen-synthetic", "--out-dir", str(tmp_path / "d"), "--subjects", "2",
                   "--samples-per-subject", "3", "--image-size", "32") == 0
    capsys.readouterr()
    assert signal.getsignal(signal.SIGTERM) is before


# -- train -----------------------------------------------------------------------------


def test_train_writes_checkpoint(dataset, tmp_path, capsys):
    from ahmsa.model import load_checkpoint

    cfg = write_config(tmp_path, {"train.epochs": 5, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    out = tmp_path / "model.ckpt"
    code = run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out", str(out), "--config", str(cfg))
    assert code == 0
    capsys.readouterr()
    params = load_checkpoint(out)
    assert params.config.embed_channels == 12


def test_train_oversized_model_is_an_error_not_a_traceback(dataset, tmp_path, capsys):
    # the first array init_model draws, the [C,3,2,2] float64 patch kernel,
    # would take ~1.3e18 bytes: more than any address space holds, so the
    # allocation fails at once without touching memory
    channels = 12 * 2 ** 50
    code = run_cli("train", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out", str(tmp_path / "model.ckpt"),
                   "--config", str(write_config(tmp_path)),
                   "--embed-channels", str(channels))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err
    assert not (tmp_path / "model.ckpt").exists()


# -- report -----------------------------------------------------------------------------


def test_report_reads_metrics(dataset, tmp_path, capsys):
    cfg = write_config(tmp_path, {"train.epochs": 5, "train.batch_size": 4,
                                  "train.learning_rate": 1e-3})
    out_dir = tmp_path / "out"
    assert run_cli("loso", "--manifest", str(dataset / "manifest.csv"),
                   "--extract", "--out-dir", str(out_dir),
                   "--config", str(cfg)) == 0
    capsys.readouterr()
    fig_dir = tmp_path / "figs"
    assert run_cli("report", "--metrics", str(out_dir / "metrics.json"),
                   "--out-dir", str(fig_dir)) == 0
    out = capsys.readouterr().out
    assert "pooled: UF1" in out and "synthetic:" in out
    assert (fig_dir / "confusion_pooled.svg").is_file()


def test_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"nope\": 1}")
    assert run_cli("report", "--metrics", str(bad)) == 1
    capsys.readouterr()


GOOD_POOLED = {"uf1": 0.5, "uar": 0.5, "confusion": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def test_report_files_appear_after_all_are_written_metrics_last(tmp_path, monkeypatch,
                                                                capsys):
    renames = []

    def replace(src, dst):
        renames.append((Path(dst).name, sorted(p.name for p in tmp_path.iterdir())))
        os.rename(src, dst)

    monkeypatch.setattr(ahmsa.files.os, "replace", replace)
    payload = {"pooled": GOOD_POOLED}
    ahmsa.cli._write_report_files(tmp_path, payload)
    capsys.readouterr()
    pid = os.getpid()
    assert renames[0][1] == sorted(f".{name}.{pid}.tmp" for name in (
        "metrics.json", "confusion_pooled.csv", "confusion_pooled.svg"))
    assert [name for name, _ in renames] == [
        "confusion_pooled.svg", "confusion_pooled.csv", "metrics.json"]
    assert json.loads((tmp_path / "metrics.json").read_text()) == payload


def test_failed_figure_write_keeps_the_previous_figures(tmp_path, monkeypatch, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"pooled": GOOD_POOLED}))
    figures = tmp_path / "figs"
    assert run_cli("report", "--metrics", str(metrics), "--out-dir", str(figures)) == 0
    before = _tree_hash(figures)
    write_text = Path.write_text

    def full_disk(path, text, **kwargs):
        if ".svg." in path.name:
            write_text(path, text[:10], **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(path, text, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    confusion = [[2, 0, 0], [0, 1, 0], [0, 0, 1]]
    metrics.write_text(json.dumps({"pooled": {**GOOD_POOLED, "confusion": confusion}}))
    assert run_cli("report", "--metrics", str(metrics), "--out-dir", str(figures)) == 1
    assert "No space left" in capsys.readouterr().err
    assert _tree_hash(figures) == before
    assert sorted(p.name for p in figures.iterdir()) == ["confusion_pooled.csv",
                                                         "confusion_pooled.svg"]


@pytest.mark.parametrize("pooled,problem", [
    ({"confusion": "abc"}, "pooled.confusion must be a 3x3 matrix"),
    ({"confusion": [[1, 0], [0, 1]]}, "pooled.confusion must be a 3x3 matrix"),
    ({"confusion": [[1, 0, 0], [0, -1, 0], [0, 0, 1]]}, "non-negative integers"),
    ({"confusion": [[1, 0, 0], [0, 1.5, 0], [0, 0, 1]]}, "non-negative integers"),
    ({"uf1": "x"}, "pooled.uf1 must be a finite number"),
    ({"uar": None}, "pooled.uar must be a finite number"),
])
@pytest.mark.parametrize("out_dir", [False, True])
def test_report_rejects_malformed_scores_and_matrix(tmp_path, capsys, pooled, problem,
                                                    out_dir):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"pooled": {**GOOD_POOLED, **pooled}}))
    figures = ["--out-dir", str(tmp_path / "figs")] if out_dir else []
    assert run_cli("report", "--metrics", str(path), *figures) == 1
    captured = capsys.readouterr()
    assert problem in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert not (tmp_path / "figs").exists()


def test_report_rejects_malformed_per_database_score(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({"pooled": GOOD_POOLED,
                                "per_database": {"casme": {"uf1": 0.5, "uar": "x"}}}))
    assert run_cli("report", "--metrics", str(path)) == 1
    assert "per_database.casme.uar must be a finite number" in capsys.readouterr().err


# -- malformed input, every subcommand ------------------------------------------------


@pytest.fixture(scope="module")
def malformed(dataset, tmp_path_factory):
    """Paths of malformed input files next to the valid ``dataset``."""
    root = tmp_path_factory.mktemp("malformed")
    files = {"good": dataset / "manifest.csv", "out": root / "out",
             "binary": root / "binary.bin", "empty": root / "empty.txt",
             "nested": root / "nested.json"}
    files["binary"].write_bytes(b"\x80\xff\x00garbage\xfe")
    files["empty"].write_bytes(b"")
    files["nested"].write_text("[" * 100000 + "]" * 100000)
    manifest = (dataset / "manifest.csv").read_text()
    header, first_row = manifest.splitlines()[:2]
    variants = {
        "wrong_header": "database,subject\n" + first_row + "\n",
        "header_only": header + "\n",
        "short_row": header + "\n" + first_row.rsplit(",", 1)[0] + "\n",
        "missing_images": header + "\n" + first_row.replace(".pgm", "_gone.pgm") + "\n",
    }
    for name, text in variants.items():
        files[name] = root / f"{name}.csv"
        files[name].write_text(text)
    shutil.copytree(dataset / "images", root / "images")
    pgm = sorted((root / "images").glob("*.pgm"))[0]
    pgm.write_bytes(pgm.read_bytes()[:-50])
    files["truncated_pgm"] = root / "truncated_pgm.csv"
    files["truncated_pgm"].write_text(manifest)
    files["flow"] = root / "flow"
    assert run_cli("extract-flow", "--manifest", str(dataset / "manifest.csv"),
                   "--out-dir", str(files["flow"]),
                   "--config", str(write_config(root))) == 0
    flow = sorted(files["flow"].glob("*.flow"))[0]
    flow.write_bytes(flow.read_bytes()[:-10])
    files["config"] = write_config(root)
    files["not_object"] = root / "list.json"
    files["not_object"].write_text("[1, 2]")
    files["bad_metrics"] = root / "metrics.json"
    files["bad_metrics"].write_text(json.dumps({"pooled": {**GOOD_POOLED,
                                                           "confusion": "abc"}}))
    return files


_MANIFESTS = ["binary", "empty", "wrong_header", "header_only", "short_row",
              "missing_images"]
_CONFIGS = ["binary", "empty", "nested", "not_object"]
_SWEEP = (
    [["gen-synthetic", "--out-dir", "{out}", *extra] for extra in (
        ["--seed", "-1"], ["--seed", "x"], ["--subjects", "1"],
        ["--samples-per-subject", "4"], ["--image-size", "8"])]
    + [["extract-flow", "--manifest", "{%s}" % m, "--out-dir", "{out}"]
       for m in _MANIFESTS + ["truncated_pgm"]]
    + [["extract-flow", "--manifest", "{good}", "--out-dir", "{out}", "--config",
        "{%s}" % c] for c in _CONFIGS]
    + [[cmd, "--manifest", "{%s}" % m, "--extract", "--config", "{config}",
        *(["--out-dir", "{out}"] if cmd == "loso" else ["--out", "{out}/m.ckpt"])]
       for cmd in ("loso", "train") for m in _MANIFESTS + ["truncated_pgm"]]
    + [[cmd, "--manifest", "{good}", "--flow-dir", "{flow}", "--config", "{config}"]
       for cmd in ("loso", "train")]
    + [[cmd, "--manifest", "{good}", "--extract", "--config", "{%s}" % c]
       for cmd in ("loso", "train") for c in _CONFIGS]
    + [["report", "--metrics", "{%s}" % m] for m in
       ("binary", "empty", "nested", "not_object", "bad_metrics", "header_only")]
)


@pytest.mark.parametrize("argv", _SWEEP, ids=lambda argv: " ".join(argv))
def test_every_subcommand_fails_cleanly_on_malformed_input(malformed, capsys, argv):
    """Exit 1 or 2 with a one-line error, never an uncaught exception."""
    files = {name: str(path) for name, path in malformed.items()}
    try:
        code = main([arg.format(**files) for arg in argv])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code in (1, 2)
    assert "Traceback" not in capsys.readouterr().err


# -- config machinery ---------------------------------------------------------------------


def test_build_run_config_defaults():
    run = build_run_config(None, {})
    assert run.model.embed_channels == 96
    assert run.train.epochs == 800
    assert run.train.learning_rate == 5e-6
    assert run.tvl1.lambda_weight == 0.15


def test_build_run_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"model.bogus": 1, "nope.also": 2}))
    with pytest.raises(ConfigError, match="model.bogus"):
        build_run_config(str(path), {})


def test_build_run_config_lists_all_section_errors():
    with pytest.raises(ConfigError) as err:
        build_run_config(None, {"train.batch_size": 0, "model.heads": 5})
    msg = str(err.value)
    assert "batch_size" in msg and "heads" in msg


@pytest.mark.parametrize("key,value,problem", [
    ("flow.region_px", 16.0, "flow.region_px must be an integer"),
    ("flow.region_px", True, "flow.region_px must be an integer"),
    ("flow.include_nose", 1, "flow.include_nose must be true or false"),
])
def test_build_run_config_rejects_mistyped_flow_options(key, value, problem):
    with pytest.raises(ConfigError, match=problem):
        build_run_config(None, {key: value})


@pytest.mark.parametrize("section, cls, key, bad", [
    ("model", ModelConfig, "heads", 0),
    ("train", TrainConfig, "batch_size", "3"),
    ("tvl1", TVL1Params, "pyramid_scale", 1.0),
    ("flow", FlowOptions, "region_px", 0),
], ids=["model", "train", "tvl1", "flow"])
def test_every_config_section_checks_itself_when_built(section, cls, key, bad):
    # the sections are frozen and replace() runs the check again, so no
    # invalid instance can exist
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be ")):
        replace(cls(), **{key: bad})


@pytest.mark.parametrize("command", ["extract-flow", "loso"])
def test_odd_flow_side_is_rejected_before_any_frame_is_read(dataset, tmp_path,
                                                              monkeypatch, capsys,
                                                              command):
    # the composite tiles four landmark crops 2x2, so its side must be even
    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ahmsa.cli, "read_pgm", unread)
    cfg = write_config(tmp_path, {"model.h_flow": 7, "model.blocks_per_layer": [1]})
    extra = ["--extract"] if command == "loso" else []
    assert run_cli(command, "--manifest", str(dataset / "manifest.csv"), "--out-dir",
                   str(tmp_path / "out"), "--config", str(cfg), *extra) == 2
    err = capsys.readouterr().err
    assert "model.h_flow must be even" in err and "got 7" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["model.w_flow", "model.patch_size", "model.n_layers",
                                 "model.n_classes"])
@pytest.mark.parametrize("command", ["extract-flow", "loso"])
def test_removed_model_keys_are_unknown_before_any_frame_is_read(dataset, tmp_path,
                                                                 monkeypatch, capsys,
                                                                 command, key):
    # the patch grid fixes these, or the class list does
    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ahmsa.cli, "read_pgm", unread)
    cfg = write_config(tmp_path, {key: 3})
    extra = ["--extract"] if command == "loso" else []
    assert run_cli(command, "--manifest", str(dataset / "manifest.csv"), "--out-dir",
                   str(tmp_path / "out"), "--config", str(cfg), *extra) == 2
    assert capsys.readouterr().err == f"config error: unknown config keys: {key}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [("train.shuffle", False), ("flow.norm", "none")])
@pytest.mark.parametrize("command", ["extract-flow", "loso"])
def test_removed_train_and_flow_keys_are_unknown_before_any_frame_is_read(
        dataset, tmp_path, monkeypatch, capsys, command, key, value):
    # training always shuffles and the feature map is always standardized, so
    # a config that still sets either key, even to a value it once accepted,
    # is refused rather than silently ignored
    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(ahmsa.cli, "read_pgm", unread)
    cfg = write_config(tmp_path, {key: value})
    extra = ["--extract"] if command == "loso" else []
    assert run_cli(command, "--manifest", str(dataset / "manifest.csv"), "--out-dir",
                   str(tmp_path / "out"), "--config", str(cfg), *extra) == 2
    assert capsys.readouterr().err == f"config error: unknown config keys: {key}\n"
    assert not (tmp_path / "out").exists()


def test_layers_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("loso", "--manifest", "m.csv", "--extract", "--layers", "3")
    assert exc.value.code == 2
    assert "unrecognized arguments: --layers 3" in capsys.readouterr().err


def test_blocks_flag_sets_depth_and_patch_size():
    args = ahmsa.cli.build_parser().parse_args(["loso", "--manifest", "m.csv",
                                                "--blocks", "1,3"])
    config = build_run_config(None, ahmsa.cli._collect_overrides(args)).model
    assert (config.n_layers, config.patch_size) == (2, 14)
    trace = []
    forward(np.zeros((1, 28, 28, 3), np.float32), init_model(config, seed=0), trace)
    assert trace == [(1, 3, 28, 28), (1, 96, 2, 2), (1, 96, 1, 1), (1, 3)]


def test_blocks_flag_deeper_than_the_input_names_h_flow(capsys):
    # four levels need a patch grid of 2^3 = 8, which 28 px cannot hold
    assert run_cli("loso", "--manifest", "absent.csv", "--extract",
                   "--blocks", "1,1,1,1") == 2
    assert capsys.readouterr().err == (
        "config error: model.h_flow=28 must be a multiple of the patch grid "
        "downsample_factor^(levels-1) = 8 so the top level is 1x1 "
        "(levels = 4 blocks_per_layer entries)\n")


def test_build_run_config_reports_every_section_at_once():
    with pytest.raises(ConfigError) as err:
        build_run_config(None, {"tvl1.theta": -1, "train.epochs": 0, "model.heads": 0,
                                "flow.region_px": 0})
    assert str(err.value) == (
        "model.heads must be positive, got 0; train.epochs must be >= 1, got 0; "
        "tvl1.theta must be positive, got -1; flow.region_px must be positive, got 0")


# Smallest valid model: every integer at its least allowed value (an even
# h_flow, for the 2x2 region composite, and so one 2 px patch).
_LEAST_MODEL = {"model.h_flow": 2, "model.embed_channels": 1, "model.heads": 1,
                "model.downsample_factor": 1, "model.blocks_per_layer": [1],
                "model.channel_reduction": 1, "model.ffn_expansion": 1}
_TINY = 5e-324  # the least positive float
# (key, a value just past its rule, the first value within it)
_BOUNDARIES = [
    *((key, 0, _LEAST_MODEL[key]) for key in _LEAST_MODEL
      if key != "model.blocks_per_layer"),
    ("model.blocks_per_layer", [0], [1]),
    ("train.epochs", 0, 1),
    ("train.learning_rate", -_TINY, 0.0),
    ("train.batch_size", 0, 1),
    ("train.seed", -1, 0),
    ("train.log_every", -1, 0),
    ("tvl1.lambda_weight", 0.0, _TINY),
    ("tvl1.theta", 0.0, _TINY),
    ("tvl1.tau", 0.0, _TINY),
    ("tvl1.n_warps", 0, 1),
    ("tvl1.n_inner_iters", 0, 1),
    ("tvl1.pyramid_levels", 0, 1),
    ("tvl1.pyramid_scale", 0.0, _TINY),
    ("tvl1.pyramid_scale", 1.0, 1.0 - 2 ** -53),
    ("flow.region_px", 0, 1),
    ("flow.include_nose", 1, False),
]


def test_boundaries_cover_every_config_key():
    assert {key for key, _, _ in _BOUNDARIES} == set(build_run_config(None, {}).flat_dict())


@pytest.mark.parametrize("key,invalid,valid", _BOUNDARIES,
                         ids=[f"{key}={invalid!r}" for key, invalid, _ in _BOUNDARIES])
def test_every_config_key_rule_holds_at_its_boundary(key, invalid, valid):
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be ")):
        build_run_config(None, {**_LEAST_MODEL, key: invalid})
    assert build_run_config(None, {**_LEAST_MODEL, key: valid}).flat_dict()[key] == valid


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.findall(r"^\| `([a-z0-9_]+\.[a-z0-9_]+)` \|", readme, flags=re.M)
    assert sorted(table) == sorted(build_run_config(None, {}).flat_dict())


def test_build_run_config_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match="deep.json: invalid JSON"):
        build_run_config(str(path), {})


# Any JSON object over the known keys yields a RunConfig or an AhmsaError.
_KNOWN_KEYS = sorted(build_run_config(None, {}).flat_dict())
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
_PLAUSIBLE = st.one_of(st.integers(-2, 40), st.floats(-1, 2), st.booleans(),
                       st.sampled_from(["none", "standardize"]),
                       st.lists(st.integers(0, 3), max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.dictionaries(st.sampled_from(_KNOWN_KEYS + ["model.bogus"]),
                              st.one_of(_PLAUSIBLE, _JSON_VALUES), max_size=6))
def test_build_run_config_arbitrary_values(tmp_path, values):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(values))
    try:
        run = build_run_config(str(path), {})
    except AhmsaError:
        return
    for section in (run.model, run.train, run.tvl1, run.flow):
        replace(section)  # builds it anew, and so checks it again


def test_confusion_csv_format():
    text = confusion_to_csv([[1, 2, 0], [0, 3, 0], [0, 0, 4]])
    lines = text.strip().split("\n")
    assert lines[0] == "true\\pred,negative,positive,surprise"
    assert lines[1] == "negative,1,2,0"


def test_confusion_svg_deterministic():
    counts = [[5, 1, 0], [0, 6, 0], [1, 0, 5]]
    assert confusion_to_svg(counts) == confusion_to_svg(counts)
