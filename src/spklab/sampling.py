"""Speaker-balanced mini-batches, in-batch tuple lists, and augmentation.

A batch stacks a fixed number of chunks from a fixed number of distinct
speakers; a pair or triplet batch holds at least two speakers with two
chunks each, so it has both positives and negatives. The contrast losses
take every tuple the batch admits (no mining) straight from its labels;
the pair and triplet lists formed here enumerate the same tuples one by
one and are the oracle those losses are tested against. White Gaussian
noise at a drawn SNR stands in for real background-noise augmentation.
"""

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from spklab.errors import DomainError

BATCH_MODES = ("classification", "pairs", "triplets")


@dataclass(frozen=True)
class BatchSpec:
    """How to build one batch: speakers per batch, chunks per speaker, mode.

    Classification batches default to 128 speakers x 1 chunk; pair/triplet
    batches need 2+ speakers with 2+ chunks each, or a batch has no
    negatives (or no positives) and its loss cannot move.
    """

    speakers_per_batch: int = 128
    chunks_per_speaker: int = 1
    mode: str = "classification"

    def __post_init__(self):
        if self.speakers_per_batch < 1 or self.chunks_per_speaker < 1:
            raise DomainError("speakers_per_batch and chunks_per_speaker must be positive")
        if self.mode not in BATCH_MODES:
            raise DomainError(f"unknown batch mode {self.mode!r}")
        if self.mode in ("pairs", "triplets"):
            if self.chunks_per_speaker < 2:
                raise DomainError(f"{self.mode} mode needs at least 2 chunks per speaker")
            if self.speakers_per_batch < 2:
                raise DomainError(f"{self.mode} mode needs at least 2 speakers per batch")

    @property
    def batch_size(self) -> int:
        return self.speakers_per_batch * self.chunks_per_speaker


@dataclass
class LabeledBatch:
    """Chunk feature rows with their speaker labels (train-local indices)."""

    features: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise DomainError("features must be (N, d) with one label per row")


@dataclass
class TupleIndex:
    """Pair and triplet index lists formed over one batch.

    Positives/negatives are unordered pairs listed once (i < j); triplets
    are (anchor, positive, negative) with anchor/positive ordered, so both
    (a, p, n) and (p, a, n) appear.
    """

    positives: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    negatives: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    triplets: np.ndarray = field(default_factory=lambda: np.empty((0, 3), dtype=np.int64))

    def __post_init__(self):
        self.positives = np.asarray(self.positives, dtype=np.int64).reshape(-1, 2)
        self.negatives = np.asarray(self.negatives, dtype=np.int64).reshape(-1, 2)
        self.triplets = np.asarray(self.triplets, dtype=np.int64).reshape(-1, 3)


def balanced_batch(
    chunks_by_speaker: Mapping[int, np.ndarray],
    spec: BatchSpec,
    rng: np.random.Generator,
    speakers=None,
) -> LabeledBatch:
    """Draw a batch with every chosen speaker equally represented.

    Speakers are drawn uniformly without replacement (or taken from the
    `speakers` sequence when the epoch scheduler supplies one); each
    contributes exactly `chunks_per_speaker` chunks sampled without
    replacement from its pool. Deterministic given the rng state.
    """
    available = sorted(chunks_by_speaker)
    if speakers is None:
        if len(available) < spec.speakers_per_batch:
            raise DomainError(
                f"need {spec.speakers_per_batch} speakers, dataset has {len(available)}"
            )
        speakers = rng.choice(available, size=spec.speakers_per_batch, replace=False)
    elif len(speakers) != spec.speakers_per_batch:
        raise DomainError("speaker list length must equal speakers_per_batch")

    rows = []
    labels = []
    for spk in speakers:
        pool = np.asarray(chunks_by_speaker[int(spk)], dtype=np.float64)
        if pool.shape[0] < spec.chunks_per_speaker:
            raise DomainError(
                f"speaker {spk} has {pool.shape[0]} chunks, "
                f"batch needs {spec.chunks_per_speaker}"
            )
        picked = rng.choice(pool.shape[0], size=spec.chunks_per_speaker, replace=False)
        rows.append(pool[np.sort(picked)])
        labels.extend([int(spk)] * spec.chunks_per_speaker)
    return LabeledBatch(np.vstack(rows), np.asarray(labels, dtype=np.int64))


def epoch_batches(
    chunks_by_speaker: Mapping[int, np.ndarray],
    spec: BatchSpec,
    rng: np.random.Generator,
) -> Iterator[LabeledBatch]:
    """Yield one epoch of balanced batches.

    The speaker list is shuffled once per epoch and consumed in
    consecutive groups; the final group wraps around to the front of the
    shuffled list when the speaker count is not a multiple of the batch's
    speaker count, so every speaker is visited at least once per epoch.
    """
    speakers = np.asarray(sorted(chunks_by_speaker))
    n = len(speakers)
    if n < spec.speakers_per_batch:
        raise DomainError(f"need {spec.speakers_per_batch} speakers, dataset has {n}")
    order = rng.permutation(n)
    n_batches = -(-n // spec.speakers_per_batch)  # ceil
    for b in range(n_batches):
        idx = np.arange(b * spec.speakers_per_batch, (b + 1) * spec.speakers_per_batch) % n
        yield balanced_batch(chunks_by_speaker, spec, rng, speakers=speakers[order[idx]])


def form_pairs(labels) -> TupleIndex:
    """All unordered sample pairs, split into positives/negatives by label."""
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.size < 2:
        raise DomainError("pair formation needs at least 2 labeled samples")
    i, j = np.triu_indices(y.size, k=1)
    same = y[i] == y[j]
    pairs = np.column_stack([i, j])
    return TupleIndex(positives=pairs[same], negatives=pairs[~same])


def form_triplets(labels) -> TupleIndex:
    """All (anchor, positive, negative) index triples with y_a == y_p != y_n."""
    y = np.asarray(labels, dtype=np.int64)
    if y.ndim != 1 or y.size < 2:
        raise DomainError("triplet formation needs at least 2 labeled samples")
    a, p = np.nonzero(np.equal.outer(y, y) & ~np.eye(y.size, dtype=bool))
    out = []
    negatives_of = {label: np.nonzero(y != label)[0] for label in np.unique(y)}
    for ai, pi in zip(a, p):
        negs = negatives_of[y[ai]]
        if negs.size:
            out.append(np.column_stack([
                np.full(negs.size, ai), np.full(negs.size, pi), negs,
            ]))
    triplets = np.vstack(out) if out else np.empty((0, 3), dtype=np.int64)
    return TupleIndex(triplets=triplets)


def form_tuples(labels, mode: str) -> TupleIndex:
    """Tuple formation appropriate for a batch mode (empty for classification)."""
    if mode == "pairs":
        return form_pairs(labels)
    if mode == "triplets":
        return form_triplets(labels)
    return TupleIndex()


def augment_chunk(features, snr_db_range, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean white noise at an SNR drawn uniformly from the range.

    The noise is rescaled so 10*log10(signal power / noise power) equals
    the drawn value exactly. All-zero features are rejected (their SNR is
    undefined).
    """
    x = np.asarray(features, dtype=np.float64)
    lo, hi = float(snr_db_range[0]), float(snr_db_range[1])
    if lo > hi:
        raise DomainError(f"snr range low {lo} > high {hi}")
    if not np.all(np.isfinite(x)):
        raise DomainError("augment_chunk: non-finite features")
    signal_power = float(np.mean(x**2))
    if signal_power == 0.0:
        raise DomainError("augment_chunk: all-zero features, SNR undefined")
    snr_db = rng.uniform(lo, hi)
    noise = rng.standard_normal(x.shape)
    noise_power = float(np.mean(noise**2))
    target_power = signal_power / 10.0 ** (snr_db / 10.0)
    return x + noise * np.sqrt(target_power / noise_power)
