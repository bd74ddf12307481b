"""Balanced batching, exhaustive tuple formation, and SNR augmentation."""

import copy
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, pool_of
from spklab.dataset import SyntheticDatasetSpec
from spklab.errors import DomainError
from spklab.sampling import (
    TrainPool,
    TupleIndex,
    augment_chunk,
    augment_rows,
    balanced_batch,
    epoch_batches,
    form_pairs,
    form_triplets,
    form_tuples,
)
from spklab.training import TrainConfig


def make_pool(n_speakers, chunks_each, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return TrainPool(rng.standard_normal((n_speakers * chunks_each, dim)),
                     [chunks_each] * n_speakers)


class TestBalancedBatch:
    def test_classification_batch_of_128(self):
        pool = make_pool(150, 2)
        rng = np.random.default_rng(1)
        features, labels = balanced_batch(pool, 1, rng, rng.permutation(150)[:128])
        assert features.shape == (128, 4)
        assert len(np.unique(labels)) == 128

    def test_contrast_batch_counts(self):
        pool = make_pool(25, 5)
        rng = np.random.default_rng(2)
        features, labels = balanced_batch(pool, 3, rng, np.arange(20))
        assert features.shape[0] == 60
        labels, counts = np.unique(labels, return_counts=True)
        assert len(labels) == 20
        assert np.all(counts == 3)

    def test_chunks_sampled_without_replacement(self):
        pool = make_pool(4, 3)
        rng = np.random.default_rng(3)
        features, labels = balanced_batch(pool, 3, rng, [3, 1, 0, 2])
        for spk in range(4):
            rows = features[labels == spk]
            assert len(np.unique(rows.round(12), axis=0)) == 3

    def test_insufficient_speakers(self):
        pool = make_pool(10, 5)
        with pytest.raises(DomainError, match="need 20 speakers, dataset has 10"):
            next(epoch_batches(pool, 20, 3, np.random.default_rng(0)))
        with pytest.raises(DomainError, match="speaker 10 is not in the training pool"):
            balanced_batch(pool, 3, np.random.default_rng(0), [0, 10])

    def test_insufficient_chunks(self):
        pool = make_pool(5, 2)
        with pytest.raises(DomainError, match="chunks"):
            balanced_batch(pool, 3, np.random.default_rng(0), np.arange(5))

    def test_deterministic_given_seed(self):
        pool = make_pool(30, 4)
        speakers = np.arange(10)
        a = balanced_batch(pool, 2, np.random.default_rng(42), speakers)
        b = balanced_batch(pool, 2, np.random.default_rng(42), speakers)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


def reference_batch(pool, chunks_per_speaker, rng, speakers):
    """The per-speaker draw that `balanced_batch` replaces, kept as its oracle: one
    `rng.choice` per speaker in turn, each speaker's picked rows in pool order."""
    rows, labels = [], []
    for spk in speakers:
        chunks = np.asarray(pool[int(spk)], dtype=np.float64)
        if chunks.shape[0] < chunks_per_speaker:
            raise DomainError(f"speaker {spk} has {chunks.shape[0]} chunks, "
                              f"batch needs {chunks_per_speaker}")
        picked = rng.choice(chunks.shape[0], size=chunks_per_speaker, replace=False)
        rows.append(chunks[np.sort(picked)])
        labels.extend([int(spk)] * chunks_per_speaker)
    return np.vstack(rows), np.asarray(labels, dtype=np.int64)


def assert_same_draw(pool, n_speakers, chunks_per_speaker, seed, speakers=None):
    """balanced_batch of the dict `pool` and the reference agree on the batch, or on the
    error, and leave their generators in the same state. Without `speakers`, `n_speakers`
    of them are drawn first by `rng.choice` over the labels, from the stream both then go
    on with."""
    rng = np.random.default_rng(seed)
    if speakers is None:
        speakers = rng.choice(len(pool), size=n_speakers, replace=False)
    rng_ref = copy.deepcopy(rng)
    try:
        want = reference_batch(pool, chunks_per_speaker, rng_ref, speakers)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            balanced_batch(pool_of(pool), chunks_per_speaker, rng, speakers)
        assert str(got.value) == str(exc)
        return
    features, labels = balanced_batch(pool_of(pool), chunks_per_speaker, rng, speakers)
    np.testing.assert_array_equal(features, want[0])
    np.testing.assert_array_equal(labels, want[1])
    assert features.dtype == want[0].dtype and labels.dtype == want[1].dtype
    assert rng.bit_generator.state == rng_ref.bit_generator.state


class TestBatchDrawOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 60), min_size=1, max_size=12),
        chunks=st.integers(1, 5),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_speaker_choice(self, sizes, chunks, data, seed):
        # unbalanced pools; a pool smaller than the chunk count must fail alike
        rng = np.random.default_rng(seed)
        pool = {k: rng.standard_normal((n, 3)) for k, n in enumerate(sizes)}
        n_speakers = data.draw(st.integers(1, len(sizes)), label="speakers_per_batch")
        if data.draw(st.booleans(), label="speakers passed"):
            speakers = data.draw(st.permutations(range(len(sizes))), label="order")[:n_speakers]
            assert_same_draw(pool, n_speakers, chunks, seed, np.asarray(speakers))
        else:
            assert_same_draw(pool, n_speakers, chunks, seed)

    @pytest.mark.parametrize("chunks", [201, 250])
    def test_matches_scalar_floyd_past_choice_floyd_pools(self, chunks):
        # Generator.choice shuffles a tail of range(n), not Floyd, for such pools; the batch
        # keeps Floyd's draw there, checked against a scalar per-speaker Floyd oracle
        rng = np.random.default_rng(4)
        pool = {0: rng.standard_normal((300, 1)),
                1: rng.standard_normal((10_001, 1)),
                2: rng.standard_normal((11_000, 1))}
        speakers = np.array([1, 0, 2])
        rng, rng_ref = np.random.default_rng(8), np.random.default_rng(8)
        highs = [[*range(len(pool[spk]) - chunks + 1, len(pool[spk]) + 1),
                  *range(chunks, 1, -1)] for spk in speakers]
        draws = rng_ref.integers(0, np.array(highs))  # the one bounded-integer call
        want = []
        for spk, draw in zip(speakers, draws.tolist()):
            n, picked = len(pool[spk]), set()
            for k in range(chunks):  # Floyd: t below n - c + k + 1, else n - c + k if taken
                t = draw[k]
                picked.add(n - chunks + k if t in picked else t)
            want.append(pool[spk][sorted(picked)])
        features, labels = balanced_batch(pool_of(pool), chunks, rng, speakers)
        np.testing.assert_array_equal(features, np.vstack(want))
        np.testing.assert_array_equal(labels, np.repeat(speakers, chunks))
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_short_pool_names_the_speaker(self):
        pool = TrainPool(np.ones((11, 2)), [5, 5, 1])
        with pytest.raises(DomainError, match="speaker 2 has 1 chunks, batch needs 3"):
            balanced_batch(pool, 3, np.random.default_rng(0), speakers=[0, 2])

    def test_repeated_speaker_is_named(self):
        # a pairs batch of one speaker twice would hold no negatives
        pool = make_pool(3, 4)
        for speakers in ([0, 0], [2, 1, 2]):
            with pytest.raises(DomainError, match=f"speaker {speakers[-1]} is given more than once"):
                balanced_batch(pool, 2, np.random.default_rng(0), speakers)

    def test_pool_keeps_given_rows(self):
        blocks = {1: np.full((2, 2), 1.0), 0: np.zeros((3, 2))}
        rows = np.concatenate([blocks[0], blocks[1]])
        pool = TrainPool(rows, [3, 2])
        assert pool.features is rows
        np.testing.assert_array_equal(pool.features, pool_of(blocks).features)
        with pytest.raises(DomainError, match=r"rows of shape \(4, 2\) are not \[3, 2\] rows"):
            TrainPool(rows[1:], [3, 2])
        with pytest.raises(DomainError, match="labels 0..K-1"):
            TrainPool(np.empty((0, 2)), [])

    def test_pool_is_one_array_in_label_order(self):
        # speaker 1's file comes first in file-id order, so the dataset copies the rows
        data = dataset_of({"a": np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]),
                           "b": np.zeros((3, 2))}, partition="train", speakers={"a": 1, "b": 0})
        pool = data.train_pool()
        assert pool.features.shape == (6, 2)
        assert not np.shares_memory(pool.features, data.matrix)
        np.testing.assert_array_equal(pool.sizes, [3, 3])
        np.testing.assert_array_equal(pool.offsets, [0, 3])
        np.testing.assert_array_equal(pool.features[:, 0], [0.0, 0.0, 0.0, 1.0, 1.0, 2.0])
        assert len(pool) == 2 and pool.feature_dim == 2
        assert not isinstance(pool, Mapping)


class TestEpochBatches:
    def test_visits_every_speaker(self):
        pool = make_pool(13, 3)
        rng = np.random.default_rng(5)
        batches = list(epoch_batches(pool, 5, 1, rng))
        assert len(batches) == math.ceil(13 / 5)
        seen = np.unique(np.concatenate([labels for _, labels in batches]))
        np.testing.assert_array_equal(seen, np.arange(13))

    def test_each_batch_balanced(self):
        pool = make_pool(13, 3)
        rng = np.random.default_rng(6)
        for _, labels in epoch_batches(pool, 5, 2, rng):
            labels, counts = np.unique(labels, return_counts=True)
            assert len(labels) == 5
            assert np.all(counts == 2)

    def test_deterministic(self):
        pool = make_pool(9, 3)
        a = [labels for _, labels in epoch_batches(pool, 4, 1, np.random.default_rng(7))]
        b = [labels for _, labels in epoch_batches(pool, 4, 1, np.random.default_rng(7))]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def pair_count(s, c):
    return s * math.comb(c, 2)


def neg_count(s, c):
    return math.comb(s * c, 2) - pair_count(s, c)


def triplet_count(s, c):
    return s * c * (c - 1) * (s - 1) * c


class TestFormPairs:
    def test_20x3_counts(self):
        labels = np.repeat(np.arange(20), 3)
        tuples = form_pairs(labels)
        assert len(tuples.positives) == 60
        assert len(tuples.negatives) == 1710

    def test_two_samples_same_label(self):
        tuples = form_pairs(np.array([4, 4]))
        assert len(tuples.positives) == 1
        assert len(tuples.negatives) == 0

    def test_two_samples_different_labels(self):
        tuples = form_pairs(np.array([0, 1]))
        assert len(tuples.positives) == 0
        assert len(tuples.negatives) == 1

    def test_pairs_unordered_once_and_label_consistent(self):
        labels = np.array([0, 1, 0, 2, 1, 1])
        tuples = form_pairs(labels)
        seen = set()
        for i, j in np.vstack([tuples.positives, tuples.negatives]):
            assert i < j
            assert (i, j) not in seen
            seen.add((i, j))
        assert len(seen) == math.comb(6, 2)
        for i, j in tuples.positives:
            assert labels[i] == labels[j]
        for i, j in tuples.negatives:
            assert labels[i] != labels[j]

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            form_pairs(np.array([0]))


class TestFormTriplets:
    def test_40x3_count(self):
        labels = np.repeat(np.arange(40), 3)
        assert len(form_triplets(labels).triplets) == 28080

    def test_2x2_enumeration(self):
        labels = np.array([0, 0, 1, 1])
        triplets = form_triplets(labels).triplets
        assert len(triplets) == 8
        expected = {
            (0, 1, 2), (0, 1, 3), (1, 0, 2), (1, 0, 3),
            (2, 3, 0), (2, 3, 1), (3, 2, 0), (3, 2, 1),
        }
        assert {tuple(t) for t in triplets} == expected

    def test_single_speaker_yields_none(self):
        assert len(form_triplets(np.array([3, 3, 3])).triplets) == 0

    def test_label_constraints_exhaustive(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 4, size=10)
        triplets = form_triplets(labels).triplets
        for a, p, n in triplets:
            assert a != p
            assert labels[a] == labels[p]
            assert labels[a] != labels[n]
        # duplicate-free
        assert len({tuple(t) for t in triplets}) == len(triplets)

    def test_closed_forms_spot_checks(self):
        for s, c in ((3, 2), (5, 3), (4, 4)):
            labels = np.repeat(np.arange(s), c)
            pairs = form_pairs(labels)
            assert len(pairs.positives) == pair_count(s, c)
            assert len(pairs.negatives) == neg_count(s, c)
            assert len(form_triplets(labels).triplets) == triplet_count(s, c)

    def test_form_tuples_dispatch(self):
        labels = np.array([0, 0, 1, 1])
        assert len(form_tuples(labels, "pairs").positives) == 2
        assert len(form_tuples(labels, "triplets").triplets) == 8
        empty = form_tuples(labels, "classification")
        assert len(empty.positives) == len(empty.triplets) == 0


class TestAugmentChunk:
    def test_constructed_snr_is_exact(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(64) * 3.0
        out = augment_chunk(x, (15.0, 15.0), np.random.default_rng(10))
        noise = out - x
        measured = 10.0 * np.log10(np.mean(x**2) / np.mean(noise**2))
        assert abs(measured - 15.0) < 1e-9

    def test_high_snr_keeps_features_close(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(128)
        out = augment_chunk(x, (60.0, 60.0), np.random.default_rng(12))
        rel = np.linalg.norm(out - x) / np.linalg.norm(x)
        assert rel < 0.005

    def test_draws_fall_in_range(self):
        rng = np.random.default_rng(13)
        x = np.ones(32)
        for _ in range(50):
            out = augment_chunk(x, (10.0, 20.0), rng)
            noise = out - x
            snr = 10.0 * np.log10(np.mean(x**2) / np.mean(noise**2))
            assert 10.0 - 1e-9 <= snr <= 20.0 + 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(DomainError, match="SNR"):
            augment_chunk(np.zeros(8), (10.0, 20.0), np.random.default_rng(0))

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            augment_chunk(np.ones(8), (20.0, 10.0), np.random.default_rng(0))

    @pytest.mark.parametrize("bounds", [(-4000.0, 0.0), (0.0, 4000.0), (math.nan, 0.0),
                                        (0.0, math.inf), (-math.inf, 0.0)])
    def test_range_without_finite_power_ratio_rejected(self, bounds):
        # one check, in augment_chunk and in the dataset spec and training config that
        # carry the range
        message = r"snr bound .* dB: its power ratio 10\^\(dB/10\) is not a positive finite"
        with pytest.raises(DomainError, match=message):
            augment_chunk(np.ones(8), bounds, np.random.default_rng(0))
        with pytest.raises(DomainError, match=message):
            SyntheticDatasetSpec(augment_snr_db=bounds)
        with pytest.raises(DomainError, match=message):
            TrainConfig(augment_snr_db=bounds)

    @pytest.mark.parametrize("shape", [(1, 8), (5, 3)], ids=["one_row", "five_rows"])
    def test_rows_match_the_row_loop(self, shape):
        # augment_rows is augment_chunk row by row: the same values and the same stream after
        x = np.random.default_rng(14).standard_normal(shape)
        rng, rng_ref = np.random.default_rng(15), np.random.default_rng(15)
        got = augment_rows(x, (10.0, 20.0), rng)
        want = np.vstack([augment_chunk(row, (10.0, 20.0), rng_ref) for row in x])
        np.testing.assert_array_equal(got, want)
        assert got.shape == shape
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_deterministic(self):
        x = np.linspace(1.0, 2.0, 16)
        a = augment_chunk(x, (10.0, 20.0), np.random.default_rng(99))
        b = augment_chunk(x, (10.0, 20.0), np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)


class TestTupleIndex:
    def test_tuple_index_reshapes(self):
        t = TupleIndex(positives=[[0, 1]], triplets=[[0, 1, 2]])
        assert t.positives.shape == (1, 2)
        assert t.negatives.shape == (0, 2)
        assert t.triplets.shape == (1, 3)
