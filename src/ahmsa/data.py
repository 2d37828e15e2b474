"""Dataset manifests, the three-class emotion mapping, LOSO splits,
class-balanced metrics, and a synthetic onset/apex generator for end-to-end
verification without access to the restricted face databases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError, is_int
from .optflow import LandmarkSet, _bilinear_sample, _gaussian_blur, write_pgm

CLASS_NAMES = ("negative", "positive", "surprise")
N_CLASSES = 3

# raw emotion word -> class id (0 negative, 1 positive, 2 surprise);
# category names map to themselves so manifests may carry either granularity
EMOTION_MAP = {
    "happy": 1,
    "positive": 1,
    "sad": 0,
    "disgust": 0,
    "contempt": 0,
    "fear": 0,
    "anger": 0,
    "negative": 0,
    "surprise": 2,
    "surprised": 2,
}

MANIFEST_HEADER = (
    "database,subject,sample,onset_path,apex_path,"
    "lx_eye,ly_eye,rx_eye,ry_eye,nx,ny,lx_lip,ly_lip,rx_lip,ry_lip,emotion"
)
_N_FIELDS = len(MANIFEST_HEADER.split(","))


def map_emotion(raw_label: str) -> int:
    """Case-insensitive raw label -> class id, or ValidationError naming it."""
    key = raw_label.strip().lower()
    if key not in EMOTION_MAP:
        raise ValidationError(
            f"unknown emotion label {raw_label!r}; expected one of "
            f"{sorted(EMOTION_MAP)}"
        )
    return EMOTION_MAP[key]


@dataclass(frozen=True)
class Sample:
    database_id: str
    subject_id: str
    sample_id: str
    onset_path: Path
    apex_path: Path
    landmarks: LandmarkSet
    emotion_raw: str
    class_id: int


@dataclass
class DatasetManifest:
    samples: list[Sample]
    by_subject: dict[str, list[int]] = field(init=False)

    def __post_init__(self):
        index: dict[str, list[int]] = {}
        for i, s in enumerate(self.samples):
            index.setdefault(s.subject_id, []).append(i)
        self.by_subject = index

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def subjects(self) -> list[str]:
        return sorted(self.by_subject)

    def labels(self) -> np.ndarray:
        return np.array([s.class_id for s in self.samples], dtype=np.int64)


def load_manifest(path, check_paths: bool = True) -> DatasetManifest:
    """Parse a manifest CSV; collects every row problem before failing.

    Fields are comma-split with no quoting, so paths containing commas are
    rejected (as a wrong field count).  Relative paths resolve against the
    manifest's directory.
    """
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"manifest not found: {path}")
    base = path.parent
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise ValidationError(f"{path}: empty file")
    if lines[0].strip() != MANIFEST_HEADER:
        raise ValidationError(
            f"{path}: header mismatch\n  expected: {MANIFEST_HEADER}\n"
            f"  got:      {lines[0].strip()}"
        )

    samples: list[Sample] = []
    problems: list[str] = []
    seen_ids: dict[str, int] = {}
    subject_dbs: dict[str, tuple[str, int]] = {}  # subject -> (database, line)
    clashes: set[tuple[str, str]] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != _N_FIELDS:
            problems.append(
                f"line {lineno}: {len(parts)} fields, expected {_N_FIELDS} "
                "(paths containing commas are not supported)"
            )
            continue
        (db, subject, sample_id, onset, apex,
         lx_eye, ly_eye, rx_eye, ry_eye, nx, ny,
         lx_lip, ly_lip, rx_lip, ry_lip, emotion) = (p.strip() for p in parts)
        try:
            coords = [int(v) for v in
                      (lx_eye, ly_eye, rx_eye, ry_eye, nx, ny,
                       lx_lip, ly_lip, rx_lip, ry_lip)]
        except ValueError:
            problems.append(f"line {lineno}: landmark coordinates must be integers")
            continue
        try:
            class_id = map_emotion(emotion)
        except ValidationError:
            problems.append(f"line {lineno}: unknown emotion label {emotion!r}")
            continue
        if sample_id in seen_ids:
            problems.append(
                f"line {lineno}: duplicate sample id {sample_id!r} "
                f"(first seen on line {seen_ids[sample_id]})"
            )
            continue
        seen_ids[sample_id] = lineno
        first_db, first_line = subject_dbs.setdefault(subject, (db, lineno))
        if first_db != db and (subject, db) not in clashes:
            clashes.add((subject, db))
            # LOSO holds out a subject id, so this would merge two people
            problems.append(
                f"line {lineno}: subject {subject!r} of database {db!r} is also "
                f"a subject of database {first_db!r} (line {first_line}); "
                "subject ids must be unique across databases")
        onset_path = (base / onset) if not Path(onset).is_absolute() else Path(onset)
        apex_path = (base / apex) if not Path(apex).is_absolute() else Path(apex)
        if check_paths:
            for role, p in (("onset", onset_path), ("apex", apex_path)):
                if not p.is_file():
                    problems.append(
                        f"line {lineno} (sample {sample_id}): {role} image missing: {p}"
                    )
        landmarks = LandmarkSet(
            left_eye=(coords[0], coords[1]),
            right_eye=(coords[2], coords[3]),
            nose=(coords[4], coords[5]),
            left_lip=(coords[6], coords[7]),
            right_lip=(coords[8], coords[9]),
        )
        samples.append(Sample(
            database_id=db, subject_id=subject, sample_id=sample_id,
            onset_path=onset_path, apex_path=apex_path,
            landmarks=landmarks, emotion_raw=emotion, class_id=class_id,
        ))
    if problems:
        raise ValidationError(f"{path}: " + "; ".join(problems))
    if not samples:
        raise ValidationError(f"{path}: no samples")
    return DatasetManifest(samples=samples)


def loso_splits(manifest: DatasetManifest) -> list[tuple[str, list[int], list[int]]]:
    """One (held_out_subject, train_indices, test_indices) fold per subject.

    Folds are ordered by subject id; index lists are ordered canonically by
    (subject_id, sample_id), so splits are invariant to manifest row order.
    """
    subjects = manifest.subjects
    if len(subjects) < 2:
        raise ValidationError(
            f"LOSO needs at least 2 subjects, manifest has {len(subjects)}"
        )

    def canonical(indices):
        return sorted(indices, key=lambda i: (manifest.samples[i].subject_id,
                                              manifest.samples[i].sample_id))

    folds = []
    for subject in subjects:
        test = canonical(manifest.by_subject[subject])
        train = canonical(
            i for s in subjects if s != subject for i in manifest.by_subject[s]
        )
        folds.append((subject, train, test))
    return folds


# -- confusion matrix and metrics ------------------------------------------------


class ConfusionMatrix:
    """C x C integer counts; rows are true classes, columns predictions."""

    def __init__(self, n_classes: int = N_CLASSES,
                 counts: np.ndarray | None = None):
        if counts is not None:
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (n_classes, n_classes) or (counts < 0).any():
                raise ValidationError(
                    f"counts must be a non-negative {n_classes}x{n_classes} matrix"
                )
            self.counts = counts.copy()
        else:
            self.counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        self.n_classes = n_classes

    def add(self, true_class: int, predicted_class: int) -> None:
        for name, value in (("true", true_class), ("predicted", predicted_class)):
            if not 0 <= value < self.n_classes:
                raise ValidationError(
                    f"{name} class {value} out of range [0, {self.n_classes})"
                )
        self.counts[true_class, predicted_class] += 1

    def total(self) -> int:
        return int(self.counts.sum())

    def tp(self, c: int) -> int:
        return int(self.counts[c, c])

    def fp(self, c: int) -> int:
        return int(self.counts[:, c].sum() - self.counts[c, c])

    def fn(self, c: int) -> int:
        return int(self.counts[c, :].sum() - self.counts[c, c])

    def support(self, c: int) -> int:
        return int(self.counts[c, :].sum())

    def per_class_accuracy(self) -> list[float]:
        return [
            self.tp(c) / self.support(c) if self.support(c) else 0.0
            for c in range(self.n_classes)
        ]

    def merged(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        if other.n_classes != self.n_classes:
            raise ValidationError("cannot merge matrices of different sizes")
        return ConfusionMatrix(self.n_classes, self.counts + other.counts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConfusionMatrix)
                and np.array_equal(self.counts, other.counts))

    def __repr__(self) -> str:
        return f"ConfusionMatrix({self.counts.tolist()})"


def uf1(matrix: ConfusionMatrix) -> float:
    """Macro-averaged F1: mean over classes of 2*TP / (2*TP + FP + FN).

    A class with TP = FP = FN = 0 contributes an F1 of 0, with a warning.
    """
    scores = []
    for c in range(matrix.n_classes):
        denom = 2 * matrix.tp(c) + matrix.fp(c) + matrix.fn(c)
        if denom == 0:
            warnings.warn(
                f"class {c} has no TP/FP/FN; defining its F1 as 0", stacklevel=2
            )
            scores.append(0.0)
        else:
            scores.append(2 * matrix.tp(c) / denom)
    return float(np.mean(scores))


def uar(matrix: ConfusionMatrix) -> float:
    """Unweighted average recall: mean over classes of TP / n_c.

    Classes with no samples are excluded from the mean, with a warning.
    """
    recalls = []
    for c in range(matrix.n_classes):
        n_c = matrix.support(c)
        if n_c == 0:
            warnings.warn(
                f"class {c} has no samples; excluding it from UAR", stacklevel=2
            )
            continue
        recalls.append(matrix.tp(c) / n_c)
    if not recalls:
        raise ValidationError("UAR undefined: every class is empty")
    return float(np.mean(recalls))


# -- synthetic dataset -------------------------------------------------------------

# raw labels emitted per class, cycled deterministically
_RAW_LABELS = {
    0: ("sad", "disgust", "contempt", "fear", "anger"),
    1: ("happy",),
    2: ("surprised",),
}


def _smooth_field(rng: np.random.Generator, size: int, sigma: float) -> np.ndarray:
    field_ = _gaussian_blur(rng.standard_normal((size, size)), sigma)
    return field_ / max(field_.std(), 1e-9)


def _gaussian_window(size: int, cx: float, cy: float, radius: float) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size, dtype=np.float64),
                         np.arange(size, dtype=np.float64), indexing="ij")
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * radius ** 2))


def _base_landmarks(size: int, jitter: np.ndarray) -> LandmarkSet:
    pts = {
        "left_eye": (0.30, 0.35),
        "right_eye": (0.70, 0.35),
        "nose": (0.50, 0.55),
        "left_lip": (0.35, 0.75),
        "right_lip": (0.65, 0.75),
    }
    coords = {}
    for idx, (name, (fx, fy)) in enumerate(pts.items()):
        x = int(round(fx * size + jitter[2 * idx]))
        y = int(round(fy * size + jitter[2 * idx + 1]))
        coords[name] = (int(np.clip(x, 2, size - 3)), int(np.clip(y, 2, size - 3)))
    return LandmarkSet(**coords)


def _class_displacement(class_id: int, landmarks: LandmarkSet, size: int,
                        magnitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Localized motion field: lips shift vertically, eyes shift outward."""
    radius = size / 10.0
    du = np.zeros((size, size))
    dv = np.zeros((size, size))
    if class_id == 0:  # negative: lip regions move down
        for x, y in (landmarks.left_lip, landmarks.right_lip):
            dv += magnitude * _gaussian_window(size, x, y, radius)
    elif class_id == 1:  # positive: lip regions move up
        for x, y in (landmarks.left_lip, landmarks.right_lip):
            dv -= magnitude * _gaussian_window(size, x, y, radius)
    else:  # surprise: eye regions move outward
        lx, ly = landmarks.left_eye
        rx, ry = landmarks.right_eye
        du -= magnitude * _gaussian_window(size, lx, ly, radius)
        du += magnitude * _gaussian_window(size, rx, ry, radius)
    return du, dv


def gen_synthetic(out_dir, seed: int = 42, n_subjects: int = 6,
                  samples_per_subject: int = 9,
                  image_size: int = 64) -> tuple[DatasetManifest, Path]:
    """Render a balanced synthetic micro-expression dataset to disk.

    Every sample gets an onset frame (smooth per-subject texture) and an apex
    frame produced by warping class-dependent motion (1-3 px) into the
    landmark regions.  Emits PGM pairs plus a manifest CSV; fully determined
    by the seed.  Returns the loaded manifest and the manifest path.
    """
    for name, value in (("seed", seed), ("n_subjects", n_subjects),
                        ("samples_per_subject", samples_per_subject),
                        ("image_size", image_size)):
        if not is_int(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n_subjects < 2:
        raise ValidationError(f"need at least 2 subjects for LOSO, got {n_subjects}")
    if samples_per_subject < 3 or samples_per_subject % N_CLASSES != 0:
        raise ValidationError(
            "samples_per_subject must be a positive multiple of "
            f"{N_CLASSES} for balanced classes, got {samples_per_subject}"
        )
    if image_size < 32:
        raise ValidationError(f"image_size must be at least 32, got {image_size}")

    out_dir = Path(out_dir)
    images_dir = out_dir / "images"
    images_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(image_size, dtype=np.float64),
                         np.arange(image_size, dtype=np.float64), indexing="ij")

    rows = []
    counters = {0: 0, 1: 0, 2: 0}
    for si in range(n_subjects):
        subject = f"s{si + 1:02d}"
        jitter = rng.uniform(-2.0, 2.0, 10)
        landmarks = _base_landmarks(image_size, jitter)
        style = _smooth_field(rng, image_size, sigma=6.0)
        for k in range(samples_per_subject):
            class_id = k % N_CLASSES
            raw_options = _RAW_LABELS[class_id]
            emotion = raw_options[counters[class_id] % len(raw_options)]
            counters[class_id] += 1

            texture = _smooth_field(rng, image_size, sigma=2.0)
            onset = 0.5 + 0.16 * texture + 0.05 * style
            onset = np.clip(onset, 0.02, 0.98)

            magnitude = rng.uniform(1.0, 3.0)
            du, dv = _class_displacement(class_id, landmarks, image_size, magnitude)
            apex = _bilinear_sample(onset, yy - dv, xx - du)
            apex = np.clip(apex, 0.0, 1.0)

            sample_id = f"{subject}_{k:02d}"
            onset_name = f"{sample_id}_onset.pgm"
            apex_name = f"{sample_id}_apex.pgm"
            write_pgm(images_dir / onset_name, onset)
            write_pgm(images_dir / apex_name, apex)
            lm = landmarks
            rows.append(
                f"synthetic,{subject},{sample_id},"
                f"images/{onset_name},images/{apex_name},"
                f"{lm.left_eye[0]},{lm.left_eye[1]},"
                f"{lm.right_eye[0]},{lm.right_eye[1]},"
                f"{lm.nose[0]},{lm.nose[1]},"
                f"{lm.left_lip[0]},{lm.left_lip[1]},"
                f"{lm.right_lip[0]},{lm.right_lip[1]},{emotion}"
            )

    manifest_path = out_dir / "manifest.csv"
    manifest_path.write_text(MANIFEST_HEADER + "\n" + "\n".join(rows) + "\n",
                             encoding="utf-8")
    return load_manifest(manifest_path), manifest_path
