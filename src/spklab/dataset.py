"""Synthetic speaker datasets: clustered points on the unit sphere standing
in for audio-chunk features, split into disjoint train/dev/cohort/test
speaker partitions with file-level verification trials.

Each speaker owns a latent direction drawn uniformly on the sphere; every
chunk is that direction plus isotropic Gaussian noise of configurable
spread, optionally passed through the SNR augmentation. Files group a
fixed number of chunks; trials compare file-level embeddings.

On disk a dataset is a manifest (text) plus one flat .npy matrix holding
all chunk rows, so identical seeds produce byte-identical files. A dataset,
generated or loaded, keeps that matrix as read-only float64 rows, and each
file is a run of its rows. `SpeakerDataset.rows` alone reads them and decides
how a list of files is handed out: as one view of the matrix where the layout
puts them end to end, as `generate_dataset` lays them out and `save_dataset`
writes them, else as a copy. The training pool and the scoring stacks take their
rows from it. A partition's trials are one `TrialIndex`, built with the dataset, and
the partition staged for scoring is an `EvalPack` (`SpeakerDataset.eval_pack`).
"""

import itertools
import math
import os
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from spklab.errors import DomainError, read_lines, write_echo, write_text
from spklab.sampling import TrainPool, augment_rows, snr_bounds
from spklab.scoring import Trial, TrialIndex, read_trials, write_trials

PARTITIONS = ("train", "dev", "cohort", "test")
TRIAL_PARTITIONS = ("dev", "test")  # the partitions with a trial list, trials_<name>.txt
EMBED_STACK_FILES = 128  # files per stacked forward in embed_files; bounds its temporaries

MANIFEST_NAME = "manifest.txt"
FEATURES_NAME = "features.npy"
SPEC_NAME = "dataset_spec.txt"


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Shape and difficulty of a generated dataset."""

    n_speakers_train: int = 50
    n_speakers_dev: int = 10
    n_speakers_cohort: int = 20
    n_speakers_test: int = 10
    files_per_speaker: int = 5
    chunks_per_file: int = 5
    feature_dim: int = 32
    intra_speaker_spread: float = 0.3
    seed: int = 0
    trials_per_speaker: int = 20
    augment_snr_db: tuple[float, float] | None = None

    def __post_init__(self):
        counts = (
            self.n_speakers_train, self.n_speakers_dev,
            self.n_speakers_cohort, self.n_speakers_test,
            self.files_per_speaker, self.chunks_per_file, self.feature_dim,
        )
        if min(counts) < 1:
            raise DomainError("all dataset counts and dims must be positive")
        # a trial list has both classes only with two speakers and two files of each
        for name in ("n_speakers_dev", "n_speakers_test", "files_per_speaker"):
            if getattr(self, name) < 2:
                raise DomainError(f"{name} must be at least 2, so that the dev and test trials "
                                  f"have both classes, got {getattr(self, name)}")
        if not 0 < self.intra_speaker_spread < math.inf:
            raise DomainError(f"intra_speaker_spread must be positive and finite, "
                              f"got {self.intra_speaker_spread}")
        if self.trials_per_speaker < 2:
            raise DomainError("trials_per_speaker must be at least 2")
        if self.augment_snr_db is not None:
            snr_bounds(self.augment_snr_db)

    @property
    def n_speakers_total(self) -> int:
        return (self.n_speakers_train + self.n_speakers_dev
                + self.n_speakers_cohort + self.n_speakers_test)

    def partition_speakers(self) -> dict[str, range]:
        """Each partition's speaker ids, consecutive from 0 in `PARTITIONS` order."""
        sizes = (self.n_speakers_train, self.n_speakers_dev, self.n_speakers_cohort,
                 self.n_speakers_test)
        ends = itertools.accumulate(sizes)
        return {p: range(end - n, end) for p, n, end in zip(PARTITIONS, sizes, ends)}


@dataclass(frozen=True)
class FileRecord:
    file_id: str
    speaker: int
    partition: str
    start: int  # its first row in the dataset's matrix
    n: int  # its row count, one row per chunk


@dataclass(frozen=True, eq=False)
class EvalPack:
    """A dataset partition staged for scoring (`SpeakerDataset.eval_pack`): the dataset's
    feature dimension, the files' chunk stacks, and the partition's `TrialIndex`, whose
    `ids` give the file order (a train or cohort pack has no trials)."""

    feature_dim: int
    # (rows, (F, n_chunks, feature_dim) stack): the pack's files grouped by chunk count
    # (groups in order of first appearance), rows in file order, at most EMBED_STACK_FILES
    stacks: list[tuple[np.ndarray, np.ndarray]]
    index: TrialIndex


@dataclass(frozen=True, eq=False)
class SpeakerDataset:
    """Partitioned speakers, their files and each partition's `TrialIndex`, over one read-only
    (rows, d) float64 chunk matrix: a file's features are its record's `n` rows from its
    `start`, and `rows` is their one reader. `generate_dataset` lays the files end to end in
    file-id order, as `save_dataset` writes them; `load_dataset` keeps the manifest's layout.
    `files` is a read-only mapping of frozen records."""

    matrix: np.ndarray
    files: Mapping[str, FileRecord]
    partitions: dict[str, list[int]]
    trials: dict[str, TrialIndex]

    @property
    def feature_dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self, file_ids: Sequence[str]) -> np.ndarray:
        """The files' chunk rows end to end in the given order, as one (rows, d) array: a
        read-only view of the matrix when the starts put each file where the one before it
        ends, else a float64 copy ((0, d) for no files)."""
        records = [self.files[fid] for fid in file_ids]
        ends = [rec.start + rec.n for rec in records]
        if records and all(rec.start == end for rec, end in zip(records[1:], ends)):
            return self.matrix[records[0].start : ends[-1]]
        return np.concatenate([np.empty((0, self.feature_dim)),
                               *(self.matrix[rec.start : end] for rec, end in zip(records, ends))],
                              dtype=np.float64)

    def train_pool(self) -> TrainPool:
        """Chunks of the train speakers in one array, by train-local label 0..K-1, files of
        one label in `files` order (see `rows`)."""
        label_of = {spk: i for i, spk in enumerate(self.partitions["train"])}
        train = sorted((rec for rec in self.files.values() if rec.partition == "train"),
                       key=lambda rec: label_of[rec.speaker])
        sizes = [0] * len(label_of)
        for rec in train:
            sizes[label_of[rec.speaker]] += rec.n
        return TrainPool(self.rows([rec.file_id for rec in train]), sizes)

    def eval_pack(self, partition: str) -> EvalPack:
        """The partition staged for scoring, with its `TrialIndex`; each stack is what `rows`
        gives for its files, a view where they lie end to end, else a copy."""
        if partition not in PARTITIONS:
            raise DomainError(f"unknown partition {partition!r}, not one of {PARTITIONS}")
        ids = self.trials[partition].ids
        by_count: dict[int, list[int]] = {}
        for row, fid in enumerate(ids):
            by_count.setdefault(self.files[fid].n, []).append(row)
        parts = [rows[i:i + EMBED_STACK_FILES]
                 for rows in by_count.values() for i in range(0, len(rows), EMBED_STACK_FILES)]
        stacks = [(np.array(part), self.rows([ids[r] for r in part])
                   .reshape(len(part), -1, self.feature_dim)) for part in parts]
        return EvalPack(self.feature_dim, stacks, self.trials[partition])


def file_id(speaker: int, file_index: int) -> str:
    return f"s{speaker:04d}_f{file_index:02d}"


def speaker_chunks(
    latent: np.ndarray,
    n_chunks: int,
    spread: float,
    rng: np.random.Generator,
    augment_snr_db: tuple[float, float] | None = None,
) -> np.ndarray:
    """Draw chunk feature rows around one speaker's latent direction."""
    chunks = latent[None, :] + spread * rng.standard_normal((n_chunks, latent.size))
    if augment_snr_db is not None:
        chunks = augment_rows(chunks, augment_snr_db, rng)
    return chunks


def _unit_sphere(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _make_trials(
    speakers: Sequence[int],
    spec: SyntheticDatasetSpec,
    rng: np.random.Generator,
) -> list[Trial]:
    """Per speaker, in the given order: all same-speaker file pairs (capped at half the
    per-speaker trial budget) plus an equal number of sampled cross-speaker pairs."""
    files_by_speaker = {spk: [file_id(spk, f) for f in range(spec.files_per_speaker)]
                        for spk in speakers}
    trials: list[Trial] = []
    per_class = spec.trials_per_speaker // 2
    for spk in speakers:
        own = files_by_speaker[spk]
        targets = [(a, b) for i, a in enumerate(own) for b in own[i + 1:]]
        if len(targets) > per_class:
            picked = rng.choice(len(targets), size=per_class, replace=False)
            targets = [targets[i] for i in sorted(picked)]
        others = [fid for other in speakers if other != spk for fid in files_by_speaker[other]]
        seen = set()
        nontargets = []
        while len(nontargets) < len(targets) and others:
            pair = (own[rng.integers(0, len(own))], others[rng.integers(0, len(others))])
            if pair not in seen:
                seen.add(pair)
                nontargets.append(pair)
        trials.extend(Trial(a, b, True) for a, b in targets)
        trials.extend(Trial(a, b, False) for a, b in nontargets)
    return trials


def generate_dataset(spec: SyntheticDatasetSpec) -> SpeakerDataset:
    """Build the full dataset in memory, deterministically from the seed, with the files
    end to end in file-id order; a DomainError if a feature value overflows float64."""
    rng = np.random.default_rng(spec.seed)
    latents = _unit_sphere(rng, spec.n_speakers_total, spec.feature_dim)
    speakers = spec.partition_speakers()

    chunks: dict[str, tuple[str, int, np.ndarray]] = {}  # file id -> (partition, speaker, rows)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check below
        for name in PARTITIONS:
            for spk in speakers[name]:
                for f in range(spec.files_per_speaker):
                    chunks[file_id(spk, f)] = (name, spk, speaker_chunks(
                        latents[spk], spec.chunks_per_file, spec.intra_speaker_spread,
                        rng, spec.augment_snr_db,
                    ))
    order = sorted(chunks)
    matrix = np.concatenate([chunks[fid][2] for fid in order])
    if not np.isfinite(matrix).all():
        raise DomainError(f"generated features overflow float64 (intra_speaker_spread "
                          f"{spec.intra_speaker_spread}, augment_snr_db {spec.augment_snr_db})")

    n = spec.chunks_per_file
    layout = [(fid, *chunks[fid][:2], i * n, n) for i, fid in enumerate(order)]
    return _dataset(matrix, layout,
                    {p: _make_trials(speakers[p], spec, rng) for p in TRIAL_PARTITIONS})


def _dataset(matrix: np.ndarray, layout: Sequence[tuple[str, str, int, int, int]],
             trials: Mapping[str, Sequence[Trial]]) -> SpeakerDataset:
    """The dataset over float64 `matrix`, made read-only, of the files that `layout` places
    there, one (file id, partition, speaker, start, n) per file, with the partitions' `trials`."""
    matrix.flags.writeable = False
    return SpeakerDataset(
        matrix=matrix,
        files=MappingProxyType({fid: FileRecord(fid, speaker, partition, start, n)
                                for fid, partition, speaker, start, n in layout}),
        partitions={p: sorted({speaker for _, q, speaker, _, _ in layout if q == p})
                    for p in PARTITIONS},
        trials={p: TrialIndex.of(trials.get(p, ()), sorted(fid for fid, q, *_ in layout if q == p))
                for p in PARTITIONS},
    )


def save_dataset(ds: SpeakerDataset, out_dir) -> None:
    """Write the manifest (files in file-id order, at their starts), the chunk matrix as
    laid out, and the trial lists."""
    lines = [f"feature_dim {ds.feature_dim}"] + [
        f"{fid} {rec.partition} {rec.speaker} {rec.start} {rec.n}"
        for fid, rec in sorted(ds.files.items())]
    write_text(os.path.join(out_dir, MANIFEST_NAME), "\n".join(lines) + "\n")
    np.save(os.path.join(out_dir, FEATURES_NAME), ds.matrix)
    for p in TRIAL_PARTITIONS:
        write_trials(os.path.join(out_dir, f"trials_{p}.txt"), ds.trials[p])


def _manifest_ints(path, line_no: int, fields: list[str]) -> list[int]:
    """The integer fields of a manifest line; a one-line DomainError naming the line if one
    is not an integer."""
    try:
        return [int(v) for v in fields]
    except ValueError as exc:
        raise DomainError(f"{path}:{line_no}: bad manifest line: {exc}") from None


def load_dataset(data_dir) -> SpeakerDataset:
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise DomainError(f"no dataset manifest at {manifest_path}")
    features_path = os.path.join(data_dir, FEATURES_NAME)
    try:  # a truncated or malformed .npy, or values that are not real numbers
        features = np.load(features_path)
        if features.dtype.kind not in "iuf":  # complex, bool or strings
            raise ValueError(f"dtype {features.dtype} is not integer or float")
    except ValueError as exc:
        raise DomainError(f"{features_path}: {exc}") from None
    features = np.ascontiguousarray(features, dtype=np.float64)  # `rows` hands out views of it

    feature_dim = None
    partition_of: dict[int, str] = {}  # speaker -> partition; the partitions are disjoint
    layout: list[tuple[str, str, int, int, int]] = []
    line_of: dict[str, int] = {}
    for line_no, line in enumerate(read_lines(manifest_path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != (2 if parts[0] == "feature_dim" else 5):
            raise DomainError(f"{manifest_path}:{line_no}: bad manifest line")
        if parts[0] == "feature_dim":
            feature_dim, = _manifest_ints(manifest_path, line_no, parts[1:])
            if features.shape[1:] != (feature_dim,):
                raise DomainError(f"{manifest_path}:{line_no}: feature_dim {feature_dim}, "
                                  f"but {FEATURES_NAME} has shape {features.shape}")
            continue
        fid, partition = parts[:2]
        speaker, start, n = _manifest_ints(manifest_path, line_no, parts[2:])
        if partition not in PARTITIONS:
            raise DomainError(f"{manifest_path}:{line_no}: unknown partition {partition!r}")
        if fid in line_of:
            raise DomainError(f"{manifest_path}:{line_no}: file id {fid} repeats line "
                              f"{line_of[fid]}")
        line_of[fid] = line_no
        if n <= 0:
            raise DomainError(f"{manifest_path}:{line_no}: file {fid} has no rows (n = {n})")
        if start < 0 or start + n > features.shape[0]:
            raise DomainError(f"{manifest_path}:{line_no}: rows {start}..{start + n} are not "
                              f"inside the {features.shape[0]} rows of {FEATURES_NAME}")
        if partition_of.setdefault(speaker, partition) != partition:
            raise DomainError(f"{manifest_path}:{line_no}: speaker {speaker} is in both the "
                              f"{partition_of[speaker]} and the {partition} partition")
        layout.append((fid, partition, speaker, start, n))
    if feature_dim is None:
        raise DomainError(f"{manifest_path}: missing feature_dim header")
    # one pass; a bad row no file uses is harmless
    if not np.isfinite(features).all():
        for fid, _, _, start, n in layout:
            if not np.isfinite(features[start : start + n]).all():
                raise DomainError(f"{manifest_path}:{line_of[fid]}: file {fid} has a "
                                  f"non-finite feature value")
    ds = _dataset(features, layout, {p: read_trials(os.path.join(data_dir, f"trials_{p}.txt"))
                                     for p in TRIAL_PARTITIONS})
    for p, index in ds.trials.items():  # a trial's label must agree with its files' speakers
        speaker = np.array([ds.files[fid].speaker for fid in index.ids], dtype=int)
        bad = np.flatnonzero(index.target != (speaker[index.enroll] == speaker[index.test]))
        if bad.size:
            raise DomainError(f"{os.path.join(data_dir, f'trials_{p}.txt')}: trial "
                              f"{' vs '.join(index.pairs()[bad[0]])}: label contradicts the manifest")
    return ds


def gen_synthetic_dataset(spec: SyntheticDatasetSpec, out_dir) -> SpeakerDataset:
    """Generate a dataset and write it under `out_dir`, with the spec's echo."""
    ds = generate_dataset(spec)
    save_dataset(ds, out_dir)
    write_echo(os.path.join(out_dir, SPEC_NAME), spec)
    return ds
