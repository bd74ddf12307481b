"""Speaker-balanced mini-batches, in-batch tuple lists, and augmentation.

A batch is a `(features, labels)` pair: a fixed number of chunks from
each of a fixed number of distinct speakers. A pair or triplet batch needs
at least two speakers with two chunks each, or it has no positives or no
negatives; `training.init_run` checks that rule. The contrast losses take
every tuple the batch admits (no mining) straight from its labels; the
pair and triplet lists formed here enumerate the same tuples one by one
and are the oracle those losses are tested against. White Gaussian noise
at a drawn SNR (`augment_rows`) stands in for real background-noise
augmentation.

A run's training chunks sit in one `TrainPool` array, label by label, which the
pool keeps as given: `dataset.SpeakerDataset.train_pool` hands over the train rows,
whose files were checked where the dataset was loaded or generated. A batch draws
its chunks with one bounded-integer call: per speaker of an n-row pool, c values
below n - c + 1, ..., n pick c distinct rows by Floyd's algorithm (Bentley & Floyd
1987: a value already taken becomes the bound's own top, n - c + k), followed by
c - 1 values below c, ..., 2.
Those last values are the shuffle that numpy's `Generator.choice`, drawing c of
n without replacement, makes of its picks; the batch sorts its picks and so
throws them away, but drawing them keeps the generator's stream, and every later
batch, exactly as one `choice` call per speaker leaves it wherever `choice` draws
by Floyd's algorithm (pools up to 10,000 rows, or at most a fiftieth of a larger
pool). Beyond that, where `choice` shuffles a tail of range(n) instead, Floyd's
draw is the definition: its picks are still uniform, but not `choice`'s.
"""

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from spklab.errors import DomainError

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


class TrainPool:
    """Every training chunk row in one `(rows, d)` float64 array, in label order: label k's
    chunks are rows `offsets[k] : offsets[k] + sizes[k]`, for labels 0..K-1."""

    def __init__(self, features: np.ndarray, sizes: Sequence[int]):
        """Pool `features`, rows already in label order, `sizes[k]` of them for label k; the
        array is kept as given, a loaded dataset's view included."""
        self.features = features
        self.sizes = np.asarray(sizes, dtype=np.int64)
        if len(self.sizes) == 0 or features.ndim != 2 or self.sizes.sum() != len(features):
            raise DomainError(f"training pool rows of shape {features.shape} are not "
                              f"{self.sizes.tolist()} rows for labels 0..K-1")
        self.offsets = np.cumsum(self.sizes) - self.sizes

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.sizes)


def _floyd_picks(sizes: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted picks of c distinct rows from pools of `sizes` rows, one row of picks per pool,
    from one bounded-integer call: per pool in turn, Floyd's c draws, then the c - 1 draws of
    `choice`'s shuffle (see the module docstring)."""
    highs = np.empty((len(sizes), 2 * c - 1), dtype=np.int64)
    highs[:, :c] = sizes[:, None] + np.arange(1 - c, 1)
    highs[:, c:] = np.arange(c, 1, -1)
    picks = rng.integers(0, highs)[:, :c]
    for k in range(1, c):  # Floyd's rule: a value already taken becomes the top, n - c + k
        taken = (picks[:, :k] == picks[:, k:k + 1]).any(axis=1)
        picks[taken, k] = sizes[taken] - c + k
    picks.sort(axis=1)
    return picks


def balanced_batch(
    pool: TrainPool,
    chunks_per_speaker: int,
    rng: np.random.Generator,
    speakers: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a batch of the given distinct speakers, each equally represented, as its
    `(features, labels)` pair: (N, d) chunk rows and their (N,) train-local labels.

    Each speaker contributes exactly `chunks_per_speaker` chunks sampled
    without replacement from its pool, in pool order. The chunks of all
    speakers come from one bounded-integer draw by Floyd's algorithm, which
    keeps the values and generator state of one `Generator.choice` of c
    rows without replacement per speaker in turn wherever `choice` draws by
    Floyd too (see the module docstring). One gather from the pool follows.
    """
    c = chunks_per_speaker
    speakers = np.asarray(speakers, dtype=np.int64)
    if speakers.min() < 0 or speakers.max() >= len(pool):
        bad = speakers[(speakers < 0) | (speakers >= len(pool))][0]
        raise DomainError(f"speaker {bad} is not in the training pool")
    ranked = np.sort(speakers)  # not np.unique, which imports numpy.ma
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    if repeated.size:
        raise DomainError(f"speaker {repeated[0]} is given more than once for one batch")
    sizes = pool.sizes[speakers]
    if sizes.min() < c:
        short = np.argmax(sizes < c)
        raise DomainError(f"speaker {speakers[short]} has {sizes[short]} chunks, batch needs {c}")
    rows = (pool.offsets[speakers][:, None] + _floyd_picks(sizes, c, rng)).ravel()
    return pool.features[rows], np.repeat(speakers, c)


def epoch_batches(
    pool: TrainPool,
    speakers_per_batch: int,
    chunks_per_speaker: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield one epoch of balanced batches, each a `balanced_batch` pair.

    The speaker list is shuffled once per epoch and consumed in
    consecutive groups; the final group wraps around to the front of the
    shuffled list when the speaker count is not a multiple of the batch's
    speaker count, so every speaker is visited at least once per epoch.
    """
    n = len(pool)
    if n < speakers_per_batch:
        raise DomainError(f"need {speakers_per_batch} speakers, dataset has {n}")
    order = rng.permutation(n)
    n_batches = -(-n // speakers_per_batch)  # ceil
    for b in range(n_batches):
        idx = np.arange(b * speakers_per_batch, (b + 1) * speakers_per_batch) % n
        yield balanced_batch(pool, chunks_per_speaker, rng, order[idx])


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
    """Tuple formation for a batch mode: "pairs", "triplets", or "classification" (empty)."""
    if mode == "pairs":
        return form_pairs(labels)
    if mode == "triplets":
        return form_triplets(labels)
    return TupleIndex()


def snr_bounds(snr_db_range) -> tuple[float, float]:
    """The (low, high) bounds in dB of an augmentation SNR range, as floats; a DomainError
    unless low <= high and each bound's power ratio 10^(dB/10) is a positive finite float
    (a nan or infinite bound has none)."""
    lo, hi = float(snr_db_range[0]), float(snr_db_range[1])
    for bound in (lo, hi):
        try:
            ratio = 10.0 ** (bound / 10.0)
        except OverflowError:
            ratio = math.inf
        if not 0.0 < ratio < math.inf:
            raise DomainError(f"snr bound {bound} dB: its power ratio 10^(dB/10) is not a "
                              f"positive finite float")
    if lo > hi:
        raise DomainError(f"snr range low {lo} > high {hi}")
    return lo, hi


def augment_chunk(features, snr_db_range, rng: np.random.Generator) -> np.ndarray:
    """Add zero-mean white noise at an SNR drawn uniformly from the range (see
    `snr_bounds`).

    The noise is rescaled so 10*log10(signal power / noise power) equals
    the drawn value exactly. All-zero features are rejected (their SNR is
    undefined).
    """
    x = np.asarray(features, dtype=np.float64)
    lo, hi = snr_bounds(snr_db_range)
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


def augment_rows(x: np.ndarray, snr_db_range, rng: np.random.Generator) -> np.ndarray:
    """`augment_chunk` of each row of the (n, d) matrix `x` in turn, n >= 1, stacked: each
    row draws its own SNR and noise from `rng`, so the draws are those of the row loop."""
    return np.vstack([augment_chunk(row, snr_db_range, rng) for row in x])
