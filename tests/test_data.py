import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ahmsa.data
from ahmsa.data import (
    MANIFEST_HEADER,
    ConfusionMatrix,
    DatasetManifest,
    gen_synthetic,
    load_manifest,
    loso_splits,
    map_emotion,
    uar,
    uf1,
)
from ahmsa.errors import AhmsaError, ValidationError
from test_optflow import _FullDisk


# -- map_emotion -------------------------------------------------------------


@pytest.mark.parametrize("label,expected", [
    ("happy", 1),
    ("sad", 0), ("disgust", 0), ("contempt", 0), ("fear", 0), ("anger", 0),
    ("surprise", 2), ("surprised", 2),
    ("positive", 1), ("negative", 0),
])
def test_map_emotion_table(label, expected):
    assert map_emotion(label) == expected


def test_map_emotion_case_insensitive():
    assert map_emotion("HAPPY") == 1
    assert map_emotion(" Disgust ") == 0
    assert map_emotion("Surprised") == 2


def test_map_emotion_unknown_label_named():
    with pytest.raises(ValidationError, match="bored"):
        map_emotion("bored")


# -- load_manifest ------------------------------------------------------------


def _row(db="dbA", subject="s01", sample="s01_00", onset="o.pgm", apex="a.pgm",
         emotion="happy"):
    return (f"{db},{subject},{sample},{onset},{apex},"
            f"10,12,30,12,20,20,12,30,28,30,{emotion}")


def _write(tmp_path, rows):
    path = tmp_path / "manifest.csv"
    path.write_text(MANIFEST_HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def test_load_manifest_header_only(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(MANIFEST_HEADER + "\n")
    with pytest.raises(ValidationError, match="no samples"):
        load_manifest(path, check_paths=False)


def test_load_manifest_three_rows(tmp_path):
    rows = [
        _row(subject="s01", sample="a"),
        _row(subject="s02", sample="b", emotion="surprised"),
        _row(subject="s01", sample="c", emotion="fear"),
    ]
    manifest = load_manifest(_write(tmp_path, rows), check_paths=False)
    assert len(manifest) == 3
    assert manifest.by_subject == {"s01": [0, 2], "s02": [1]}
    assert manifest.samples[1].class_id == 2
    assert manifest.samples[2].class_id == 0


def test_load_manifest_maps_each_coordinate_column_to_its_landmark(tmp_path):
    """Each coordinate column lands in the landmark field and axis its header
    names, which a gen_synthetic -> load_manifest round trip cannot show."""
    assert MANIFEST_HEADER.split(",")[5:15] == [
        "lx_eye", "ly_eye", "rx_eye", "ry_eye", "nx", "ny",
        "lx_lip", "ly_lip", "rx_lip", "ry_lip"]
    path = _write(tmp_path, ["dbA,s01,a,o.pgm,a.pgm,11,12,21,22,31,32,41,42,51,52,happy"])
    lm = load_manifest(path, check_paths=False).samples[0].landmarks
    assert lm.left_eye == (11, 12) and lm.right_eye == (21, 22)
    assert lm.nose == (31, 32)
    assert lm.left_lip == (41, 42) and lm.right_lip == (51, 52)


def test_load_manifest_unknown_emotion_names_line_and_label(tmp_path):
    rows = [_row(sample="a"), _row(sample="b", emotion="bored")]
    with pytest.raises(ValidationError, match=r"line 3.*bored"):
        load_manifest(_write(tmp_path, rows), check_paths=False)


def test_load_manifest_duplicate_sample_id(tmp_path):
    rows = [_row(sample="dup"), _row(subject="s02", sample="dup")]
    with pytest.raises(ValidationError, match="duplicate"):
        load_manifest(_write(tmp_path, rows), check_paths=False)


def test_load_manifest_subject_shared_across_databases(tmp_path):
    # LOSO folds key on the subject id alone, so one id in two databases
    # would merge two people into one fold
    rows = [_row(db="dbA", subject="s01", sample="a"),
            _row(db="dbA", subject="s02", sample="b"),
            _row(db="dbB", subject="s01", sample="c"),
            _row(db="dbB", subject="s01", sample="d")]
    with pytest.raises(ValidationError) as err:
        load_manifest(_write(tmp_path, rows), check_paths=False)
    msg = str(err.value)
    assert "line 4: subject 's01' of database 'dbB'" in msg
    assert "database 'dbA' (line 2)" in msg
    assert "line 5" not in msg  # one problem per clash, at its first line


@pytest.mark.parametrize("field,role", [("db", "database"), ("subject", "subject"),
                                        ("sample", "sample")])
@pytest.mark.parametrize("char", ["/", "\0"])
def test_load_manifest_rejects_ids_that_cannot_name_a_file(tmp_path, field, role, char):
    # the database, subject and sample ids make up the sample's .flow file name
    bad = f"x{char}y"
    rows = [_row(sample="a"), _row(**{"sample": "b", field: bad})]
    with pytest.raises(ValidationError,
                       match=re.escape(f"line 3: {role} id {bad!r} cannot be part of")):
        load_manifest(_write(tmp_path, rows), check_paths=False)


def test_load_manifest_comma_in_path_rejected(tmp_path):
    rows = [_row(onset="weird,name.pgm")]
    with pytest.raises(ValidationError, match="fields"):
        load_manifest(_write(tmp_path, rows), check_paths=False)


def test_load_manifest_non_integer_coordinates(tmp_path):
    row = _row().replace("10,12", "10.5,12", 1)
    with pytest.raises(ValidationError, match="integers"):
        load_manifest(_write(tmp_path, [row]), check_paths=False)


def test_load_manifest_missing_file():
    with pytest.raises(ValidationError, match="not found"):
        load_manifest("/nonexistent/manifest.csv")


def test_load_manifest_checks_image_paths(tmp_path):
    path = _write(tmp_path, [_row()])
    with pytest.raises(ValidationError, match="onset image missing"):
        load_manifest(path, check_paths=True)


def test_load_manifest_header_mismatch(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValidationError, match="header"):
        load_manifest(path)


def test_load_manifest_aggregates_problems(tmp_path):
    rows = [_row(sample="a", emotion="bored"),
            _row(sample="b", onset="x,y.pgm")]
    with pytest.raises(ValidationError) as err:
        load_manifest(_write(tmp_path, rows), check_paths=False)
    msg = str(err.value)
    assert "line 2" in msg and "line 3" in msg


# Any manifest content yields a manifest or an AhmsaError, never another exception.

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_FIELD = st.one_of(st.sampled_from(["10", "-3", "x", "", " 7 ", "1_0", "happy",
                                    "Surprise", "o.pgm", "/abs/a.pgm", "s01"]),
                   st.text(max_size=6))


@st.composite
def _manifest_like(draw):
    """The real header over rows of mostly the right field count, so the fuzz
    reaches the coordinate, label, duplicate and path checks."""
    header = draw(st.sampled_from([MANIFEST_HEADER, MANIFEST_HEADER, "database,subject"]))
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([16, 16, 16, 15, 17]))
        if n == 16 and draw(st.booleans()):
            fields = _row(subject=draw(_FIELD), sample=draw(_FIELD),
                          emotion=draw(_FIELD)).split(",")
        else:
            fields = [draw(_FIELD) for _ in range(n)]
        rows.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\n\n"]))
    return (header + newline + newline.join(rows)).encode("utf-8")


@FUZZ
@given(raw=st.one_of(st.binary(max_size=300), _manifest_like()))
def test_load_manifest_arbitrary_bytes(tmp_path, raw):
    path = tmp_path / "manifest.csv"
    path.write_bytes(raw)
    for check_paths in (False, True):
        try:
            manifest = load_manifest(path, check_paths=check_paths)
        except AhmsaError:
            continue
        assert isinstance(manifest, DatasetManifest) and len(manifest) >= 1


# -- loso_splits ------------------------------------------------------------------


def _manifest_of(subject_sample_pairs, tmp_path):
    rows = [_row(subject=s, sample=f"{s}_{i}")
            for i, s in enumerate(subject_sample_pairs)]
    return load_manifest(_write(tmp_path, rows), check_paths=False)


def test_loso_one_fold_per_subject(tmp_path):
    manifest = _manifest_of(["s1", "s2", "s3", "s4", "s5"] * 2, tmp_path)
    folds = loso_splits(manifest)
    assert [f[0] for f in folds] == ["s1", "s2", "s3", "s4", "s5"]


def test_loso_partition_property(tmp_path):
    manifest = _manifest_of(["s1", "s2", "s3", "s1", "s2"], tmp_path)
    everything = set(range(len(manifest)))
    for _, train, test in loso_splits(manifest):
        assert set(train) & set(test) == set()
        assert set(train) | set(test) == everything


def test_loso_no_leakage(tmp_path):
    manifest = _manifest_of(["s1", "s2", "s3"] * 3, tmp_path)
    for subject, train, _ in loso_splits(manifest):
        assert all(manifest.samples[i].subject_id != subject for i in train)


def test_loso_single_subject_rejected(tmp_path):
    manifest = _manifest_of(["only", "only"], tmp_path)
    with pytest.raises(ValidationError, match="2 subjects"):
        loso_splits(manifest)


def test_loso_invariant_to_row_order(tmp_path):
    rows = [_row(subject=s, sample=f"{s}_{i}")
            for i, s in enumerate(["s1", "s2", "s3", "s1", "s2", "s3"])]
    m1 = load_manifest(_write(tmp_path, rows), check_paths=False)
    m2 = load_manifest(_write(tmp_path, rows[::-1]), check_paths=False)
    folds1 = loso_splits(m1)
    folds2 = loso_splits(m2)
    for (s1, tr1, te1), (s2, tr2, te2) in zip(folds1, folds2):
        assert s1 == s2
        assert [m1.samples[i].sample_id for i in tr1] == \
               [m2.samples[i].sample_id for i in tr2]
        assert [m1.samples[i].sample_id for i in te1] == \
               [m2.samples[i].sample_id for i in te2]


# -- confusion matrix ---------------------------------------------------------------


def test_confusion_accumulate_diagonal():
    cm = ConfusionMatrix()
    cm.add(0, 0)
    assert cm.counts[0, 0] == 1 and cm.total() == 1


def test_confusion_accumulate_off_diagonal():
    cm = ConfusionMatrix()
    cm.add(1, 2)
    assert cm.counts[1, 2] == 1
    assert cm.counts.sum() - cm.counts[1, 2] == 0


def test_confusion_conservation():
    rng = np.random.default_rng(0)
    cm = ConfusionMatrix()
    for _ in range(57):
        cm.add(int(rng.integers(3)), int(rng.integers(3)))
    assert cm.total() == 57


def test_confusion_out_of_range():
    cm = ConfusionMatrix()
    with pytest.raises(ValidationError):
        cm.add(3, 0)
    with pytest.raises(ValidationError):
        cm.add(0, -1)


# -- uf1 / uar --------------------------------------------------------------------------


def test_uf1_perfect_diagonal():
    cm = ConfusionMatrix(counts=np.diag([5, 3, 9]))
    assert uf1(cm) == 1.0


def test_uar_perfect_diagonal():
    cm = ConfusionMatrix(counts=np.diag([5, 3, 9]))
    assert uar(cm) == 1.0


def test_uf1_hand_matrix():
    cm = ConfusionMatrix(n_classes=2, counts=[[2, 0], [1, 1]])
    assert abs(uf1(cm) - 11.0 / 15.0) < 1e-12


def test_uar_hand_matrix():
    cm = ConfusionMatrix(n_classes=2, counts=[[2, 0], [1, 1]])
    assert abs(uar(cm) - 0.75) < 1e-12


def test_per_class_accuracy_hand_matrix():
    cm = ConfusionMatrix(counts=[[2, 0, 0], [1, 3, 0], [0, 0, 0]])
    assert cm.per_class_accuracy() == [1.0, 0.75, 0.0]


def test_uf1_all_predictions_one_class():
    n = 4
    counts = np.zeros((3, 3), dtype=int)
    counts[:, 0] = n  # every sample predicted class 0
    cm = ConfusionMatrix(counts=counts)
    assert abs(uf1(cm) - 1.0 / 6.0) < 1e-12


def test_uar_chance_level_for_uniform_predictions():
    rng = np.random.default_rng(1)
    cm = ConfusionMatrix()
    for _ in range(6000):
        cm.add(int(rng.integers(3)), int(rng.integers(3)))
    assert abs(uar(cm) - 1.0 / 3.0) < 0.03


def test_uf1_empty_class_is_zero_with_warning():
    counts = [[3, 0, 0], [0, 2, 0], [0, 0, 0]]
    cm = ConfusionMatrix(counts=counts)
    with pytest.warns(UserWarning, match="F1"):
        score = uf1(cm)
    assert abs(score - 2.0 / 3.0) < 1e-12


def test_uar_empty_class_excluded_with_warning():
    counts = [[3, 0, 0], [1, 1, 0], [0, 0, 0]]
    cm = ConfusionMatrix(counts=counts)
    with pytest.warns(UserWarning, match="UAR"):
        score = uar(cm)
    assert abs(score - 0.75) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_metrics_invariant_under_class_permutation(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 20, (3, 3))
    perm = rng.permutation(3)
    cm = ConfusionMatrix(counts=counts)
    cm_perm = ConfusionMatrix(counts=counts[np.ix_(perm, perm)])
    assert abs(uf1(cm) - uf1(cm_perm)) < 1e-12
    assert abs(uar(cm) - uar(cm_perm)) < 1e-12


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_metrics_bounded(seed):
    rng = np.random.default_rng(seed)
    cm = ConfusionMatrix(counts=rng.integers(0, 50, (3, 3)) + np.eye(3, dtype=int))
    assert 0.0 <= uf1(cm) <= 1.0
    assert 0.0 <= uar(cm) <= 1.0


def test_metrics_recomputable_from_counts():
    cm = ConfusionMatrix(counts=[[10, 2, 1], [3, 7, 0], [0, 1, 9]])
    clone = ConfusionMatrix(counts=cm.counts.tolist())
    assert uf1(cm) == uf1(clone)
    assert uar(cm) == uar(clone)


# -- gen_synthetic -----------------------------------------------------------------------


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_gen_synthetic_counts(tmp_path):
    manifest, _ = gen_synthetic(tmp_path, seed=42, n_subjects=6,
                                samples_per_subject=9)
    assert len(manifest) == 54
    labels = manifest.labels()
    assert [(labels == c).sum() for c in range(3)] == [18, 18, 18]
    assert len(manifest.subjects) == 6
    pgms = list((tmp_path / "images").glob("*.pgm"))
    assert len(pgms) == 108


def test_gen_synthetic_deterministic(tmp_path):
    gen_synthetic(tmp_path / "a", seed=7, n_subjects=2, samples_per_subject=3)
    gen_synthetic(tmp_path / "b", seed=7, n_subjects=2, samples_per_subject=3)
    assert _tree_hash(tmp_path / "a") == _tree_hash(tmp_path / "b")


def test_gen_synthetic_seed_changes_content(tmp_path):
    gen_synthetic(tmp_path / "a", seed=7, n_subjects=2, samples_per_subject=3)
    gen_synthetic(tmp_path / "b", seed=8, n_subjects=2, samples_per_subject=3)
    assert _tree_hash(tmp_path / "a") != _tree_hash(tmp_path / "b")


@pytest.mark.parametrize("name,value", [
    ("n_subjects", 2.5), ("n_subjects", True), ("samples_per_subject", 3.0),
    ("image_size", 64.5), ("image_size", "64"), ("seed", 1.0),
])
def test_gen_synthetic_rejects_non_integer_sizes(tmp_path, name, value):
    kwargs = dict(seed=0, n_subjects=2, samples_per_subject=3, image_size=32)
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got {value!r}"):
        gen_synthetic(tmp_path / "out", **{**kwargs, name: value})
    assert not (tmp_path / "out").exists()


def test_failed_manifest_write_keeps_the_previous_file(tmp_path, monkeypatch):
    sizes = dict(n_subjects=2, samples_per_subject=3, image_size=32)
    gen_synthetic(tmp_path, seed=7, **sizes)
    before = (tmp_path / "manifest.csv").read_bytes()
    monkeypatch.setattr(ahmsa.data, "open", _FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left"):
        gen_synthetic(tmp_path, seed=8, **sizes)
    assert (tmp_path / "manifest.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["images", "manifest.csv"]


def test_gen_synthetic_validation():
    with pytest.raises(ValidationError, match="2 subjects"):
        gen_synthetic("/tmp/unused", seed=0, n_subjects=1, samples_per_subject=3)
    with pytest.raises(ValidationError, match="multiple"):
        gen_synthetic("/tmp/unused", seed=0, n_subjects=2, samples_per_subject=4)


def test_gen_synthetic_surprise_motion_in_eye_regions(tmp_path):
    """Class-dependent motion lands where it should: run the flow oracle."""
    from ahmsa.optflow import read_pgm, tvl1_flow

    manifest, _ = gen_synthetic(tmp_path, seed=42, n_subjects=2,
                                samples_per_subject=3)
    surprise = next(s for s in manifest.samples if s.class_id == 2)
    onset = read_pgm(surprise.onset_path)
    apex = read_pgm(surprise.apex_path)
    flow = tvl1_flow(onset, apex)
    mag = np.hypot(flow.u, flow.v)

    def region_mean(point, r=5):
        x, y = point
        return mag[max(y - r, 0):y + r, max(x - r, 0):x + r].mean()

    lm = surprise.landmarks
    eye = 0.5 * (region_mean(lm.left_eye) + region_mean(lm.right_eye))
    lip = 0.5 * (region_mean(lm.left_lip) + region_mean(lm.right_lip))
    assert eye / max(lip, 1e-9) > 2.0
