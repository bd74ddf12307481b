"""Training loop contracts: SGD identity, determinism, selection, grid
search, divergence handling, and checkpoint serialization."""

import logging
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, pack_of, score_per_trial
from spklab import encoder as enc
from spklab import losses, sampling, scoring, training
from spklab.embedding import mean_embedding
from spklab.dataset import EMBED_STACK_FILES
from spklab.errors import DomainError, TrainingDiverged
from spklab.training import (
    Checkpoint,
    TrainConfig,
    dev_eer,
    embed_files,
    grid_search,
    init_run,
    initial_checkpoint,
    load_checkpoint,
    save_checkpoint,
    select_best,
    train,
)


def toy_problem(n_speakers=4, chunks=6, dim=6, spread=0.2, seed=0, files=2):
    """Tiny separable dataset: per-speaker latent plus noise, with a small
    dev pack over held-out files of the same speakers."""
    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((n_speakers, dim))
    latents /= np.linalg.norm(latents, axis=1, keepdims=True)
    pool = sampling.TrainPool(np.concatenate([
        latents[spk] + spread * rng.standard_normal((chunks, dim)) for spk in range(n_speakers)
    ]), [chunks] * n_speakers)
    dev_files = {}
    speakers = {}
    for spk in range(n_speakers):
        for f in range(files):
            fid = f"s{spk}_f{f}"
            dev_files[fid] = latents[spk] + spread * rng.standard_normal((3, dim))
            speakers[fid] = spk
    trials = []
    fids = sorted(dev_files)
    for i, a in enumerate(fids):
        for b in fids[i + 1:]:
            trials.append(scoring.Trial(a, b, speakers[a] == speakers[b]))
    return pool, pack_of(dev_files, trials)


BASE = TrainConfig(
    loss_kind="aam", learning_rate=0.05, epochs=3, seed=0, alpha=10.0, margin=0.05,
    speakers_per_batch=2, chunks_per_speaker=1, hidden_dim=8, embedding_dim=4,
)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        pool, dev = toy_problem()
        config = TrainConfig(**{**vars(BASE), "learning_rate": 0.0})
        before = initial_checkpoint(pool, config, dev)
        checkpoints = train(pool, config, dev)
        for ckpt in checkpoints:
            np.testing.assert_array_equal(ckpt.encoder.w1, before.encoder.w1)
            np.testing.assert_array_equal(ckpt.encoder.w2, before.encoder.w2)
            np.testing.assert_array_equal(ckpt.encoder.loss_arrays["centers"],
                                          before.encoder.loss_arrays["centers"])
            assert ckpt.dev_eer == before.dev_eer

    def test_deterministic_checkpoints(self):
        pool, dev = toy_problem()
        a = train(pool, BASE, dev)
        b = train(pool, BASE, dev)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.encoder.w1, y.encoder.w1)
            np.testing.assert_array_equal(x.encoder.b2, y.encoder.b2)
            np.testing.assert_array_equal(x.encoder.loss_arrays["centers"],
                                          y.encoder.loss_arrays["centers"])
            assert x.dev_eer == y.dev_eer

    def test_one_checkpoint_per_epoch(self):
        pool, dev = toy_problem()
        checkpoints = train(pool, BASE, dev)
        assert [c.epoch for c in checkpoints] == [0, 1, 2]

    def test_loss_decreases_within_epoch_on_separable_toy(self):
        # two linearly separable speakers, batch-wise SGD with the angular
        # margin loss: the running loss goes down across the epoch
        rng = np.random.default_rng(1)
        pool = sampling.TrainPool(np.concatenate([
            np.array([2.0, 0.0]) + 0.05 * rng.standard_normal((8, 2)),
            np.array([0.0, 2.0]) + 0.05 * rng.standard_normal((8, 2)),
        ]), [8, 8])
        params = enc.init_encoder(2, 8, 4, rng)
        state = losses.init_loss_state("aam", 2, 4, losses.LossHyper(10.0, 0.05), rng)
        values = []
        for _ in range(6):  # several passes to see the in-epoch trend
            for features, labels in sampling.epoch_batches(pool, 2, 4, rng):
                embeddings, cache = enc.forward(params, features)
                out = losses.evaluate_loss("aam", embeddings, labels, state)
                values.append(out.value)
                grads = enc.backward(params, cache, out.grad_embeddings)
                enc.sgd_step(params, grads, 0.1)
                state.arrays["centers"] -= 0.1 * out.grads["centers"]
        assert values[-1] < values[0]
        assert min(values) == values[-1] or values[-1] < np.median(values)

    def test_contrast_batch_needs_two_chunks_per_speaker(self, monkeypatch):
        # one chunk per speaker gives no positives; the rule holds before the run's first
        # draw, for every contrast kind and whatever its epoch count
        pool, dev = toy_problem()
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("the run drew"))
        for kind, mode in (("contrastive", "pairs"), ("triplet_hinge", "triplets"),
                           ("triplet_sigmoid", "triplets")):
            for epochs in (0, 1):
                config = TrainConfig(**{**vars(BASE), "loss_kind": kind,
                                        "chunks_per_speaker": 1, "epochs": epochs})
                with pytest.raises(DomainError) as exc:
                    train(pool, config, dev)
                assert str(exc.value) == f"{mode} mode needs at least 2 chunks per speaker"

    @pytest.mark.parametrize("kind, mode", [("contrastive", "pairs"),
                                            ("triplet_sigmoid", "triplets")],
                             ids=["pairs", "triplets"])
    def test_contrast_batch_needs_two_speakers(self, kind, mode):
        # one speaker gives no negatives: the loss and its gradients stay 0
        pool, dev = toy_problem()
        one = TrainConfig(**{**vars(BASE), "loss_kind": kind,
                             "speakers_per_batch": 1, "chunks_per_speaker": 3})
        with pytest.raises(DomainError) as exc:
            train(pool, one, dev)
        assert str(exc.value) == f"{mode} mode needs at least 2 speakers per batch"
        # 2 x 2 is the least contrast batch; a classification batch may be one speaker
        assert len(train(pool, replace(one, speakers_per_batch=2, chunks_per_speaker=2), dev)) == 3
        assert len(train(pool, replace(one, loss_kind="aam"), dev)) == 3

    def test_divergence_names_batch(self):
        # linear logits are not scale-invariant, so a huge step rate drives
        # them non-finite within the first epoch
        pool, dev = toy_problem()
        config = TrainConfig(**{**vars(BASE), "loss_kind": "ce", "learning_rate": 1e200})
        with pytest.raises(TrainingDiverged, match="batch"):
            with np.errstate(all="ignore"):
                train(pool, config, dev)

    def test_non_finite_center_loss_diverges_at_the_first_batch(self):
        # a finite lambda of 1e308 carries the penalty sum of the first batch past the
        # largest float; the loss's own value check reports it as divergence
        pool, dev = toy_problem()
        config = TrainConfig(**{**vars(BASE), "loss_kind": "center", "lam": 1e308})
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged, match="epoch 0 batch 0: loss value is not finite"):
                train(pool, config, dev)

    def test_bad_center_penalty_fails_at_construction(self):
        with pytest.raises(DomainError, match="unknown center penalty 'bogus'"):
            TrainConfig(loss_kind="center", center_penalty="bogus")

    def test_labels_must_be_contiguous(self):
        # a pool's sizes give labels 0..K-1 their rows in turn: rows missing label 0's do not fit
        pool, dev = toy_problem()
        with pytest.raises(DomainError, match="0..K-1"):
            train(sampling.TrainPool(pool.features[pool.sizes[0]:], pool.sizes), BASE, dev)

    def test_augmented_training_runs(self):
        pool, dev = toy_problem()
        config = TrainConfig(**{**vars(BASE), "augment_snr_db": (10.0, 20.0), "epochs": 1})
        checkpoints = train(pool, config, dev)
        assert len(checkpoints) == 1
        assert np.all(np.isfinite(checkpoints[0].encoder.w1))

    def test_contrast_loss_training_runs(self):
        pool, dev = toy_problem(chunks=8)
        config = TrainConfig(
            loss_kind="triplet_sigmoid", learning_rate=0.05, epochs=2, seed=0,
            alpha=10.0, speakers_per_batch=3, chunks_per_speaker=2,
            hidden_dim=8, embedding_dim=4,
        )
        checkpoints = train(pool, config, dev)
        assert len(checkpoints) == 2


def assert_same_run(run, other):
    """Bit for bit the same run: generator state, live arrays, and every checkpoint's epoch,
    dev EER and arrays. Between continuations a run keeps no batch temporaries."""
    assert run.rng.bit_generator.state == other.rng.bit_generator.state
    assert run.state.scratch == {}
    assert run.params.loss_arrays is run.state.arrays
    pairs = [(run.params, other.params)] + [
        (ckpt.encoder, expected.encoder)
        for ckpt, expected in zip(run.checkpoints, other.checkpoints, strict=True)]
    for params, expected in pairs:
        assert list(params.arrays()) == list(expected.arrays())
        for name, array in expected.arrays().items():
            assert np.array_equal(params.arrays()[name], array), name
    assert ([(c.epoch, c.dev_eer) for c in run.checkpoints]
            == [(c.epoch, c.dev_eer) for c in other.checkpoints])


class TestRun:
    @pytest.mark.parametrize("augment", [None, (10.0, 20.0)], ids=["plain", "augmented"])
    @pytest.mark.parametrize("kind", losses.LOSS_KINDS)
    def test_continuing_equals_one_longer_run(self, kind, augment):
        # a run continued by a epochs and then by b is one run of a + b epochs
        pool, dev = toy_problem()
        config = replace(BASE, loss_kind=kind, chunks_per_speaker=2, augment_snr_db=augment)
        whole = training.continue_run(init_run(config, pool), pool, dev, 3)
        assert [c.epoch for c in whole.checkpoints] == [0, 1, 2]
        for a, b in ((0, 3), (1, 2), (2, 1), (3, 0)):
            run = training.continue_run(init_run(config, pool), pool, dev, a)
            assert training.continue_run(run, pool, dev, b) is run
            assert_same_run(run, whole)

    def test_continued_divergence_names_the_run_epoch(self):
        # epochs and batches count on from the run's last checkpoint
        pool, dev = toy_problem()
        run = training.continue_run(init_run(replace(BASE, loss_kind="ce"), pool), pool, dev, 2)
        run.config = replace(run.config, learning_rate=1e200)
        with pytest.raises(TrainingDiverged, match=r"epoch 2 batch \d") as exc, \
                np.errstate(all="ignore"):
            training.continue_run(run, pool, dev, 1)
        assert exc.value.epoch == 2


class TestSelectBest:
    def _ckpt(self, epoch, dev_eer):
        params = enc.init_encoder(2, 2, 2, np.random.default_rng(0))
        return Checkpoint(epoch, params, dev_eer)

    def test_argmin(self):
        cs = [self._ckpt(0, 0.3), self._ckpt(1, 0.1), self._ckpt(2, 0.2)]
        assert select_best(cs).epoch == 1

    def test_tie_breaks_to_earliest(self):
        cs = [self._ckpt(0, 0.2), self._ckpt(1, 0.2)]
        assert select_best(cs).epoch == 0

    def test_single(self):
        only = self._ckpt(5, 0.4)
        assert select_best([only]) is only

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            select_best([])

    def test_selected_is_no_worse_than_all(self):
        rng = np.random.default_rng(51)
        cs = [self._ckpt(i, float(v)) for i, v in enumerate(rng.uniform(0, 1, 20))]
        best = select_best(cs)
        assert all(best.dev_eer <= c.dev_eer for c in cs)


class TestGridSearch:
    def test_grid_of_one(self):
        pool, dev = toy_problem()
        assert grid_search(pool, [BASE], 1, dev).config is BASE

    def test_zero_lr_loses_on_learnable_problem(self):
        # untrained dev EER is ~0.46 on this fixture; a live learning rate
        # reaches ~0.04 within the budget, so lr=0 cannot win
        pool, dev = toy_problem(spread=0.8, chunks=8)
        frozen = TrainConfig(**{**vars(BASE), "learning_rate": 0.0})
        live = TrainConfig(**{**vars(BASE), "learning_rate": 0.05})
        chosen = grid_search(pool, [frozen, live], 8, dev)
        assert chosen.config is live

    def test_diverging_config_disqualified(self, caplog):
        pool, dev = toy_problem()
        bad = TrainConfig(**{**vars(BASE), "loss_kind": "ce", "learning_rate": 1e200})
        with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
            chosen = grid_search(pool, [bad, BASE], 1, dev)
        assert chosen.config is BASE
        assert any("disqualified" in r.message for r in caplog.records)

    def test_all_failing_raises(self):
        pool, dev = toy_problem()
        bad = TrainConfig(**{**vars(BASE), "loss_kind": "ce", "learning_rate": 1e200})
        with pytest.raises(DomainError, match="failed"), np.errstate(all="ignore"):
            grid_search(pool, [bad], 1, dev)

    def test_empty_grid_rejected(self):
        pool, dev = toy_problem()
        with pytest.raises(DomainError):
            grid_search(pool, [], 1, dev)


class TestCheckpointIO:
    def test_round_trip_bit_exact(self, tmp_path):
        pool, dev = toy_problem()
        config = TrainConfig(**{**vars(BASE), "loss_kind": "center"})
        ckpt = train(pool, config, dev)[-1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, ckpt, config)
        loaded, echo = load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert loaded.dev_eer == ckpt.dev_eer
        np.testing.assert_array_equal(loaded.encoder.w1, ckpt.encoder.w1)
        np.testing.assert_array_equal(loaded.encoder.b1, ckpt.encoder.b1)
        np.testing.assert_array_equal(loaded.encoder.w2, ckpt.encoder.w2)
        np.testing.assert_array_equal(loaded.encoder.b2, ckpt.encoder.b2)
        for name in ("centers", "bias", "gamma"):
            np.testing.assert_array_equal(loaded.encoder.loss_arrays[name],
                                          ckpt.encoder.loss_arrays[name])
        assert loaded.encoder.activation == ckpt.encoder.activation
        assert echo["loss_kind"] == "'center'"
        assert echo["epochs"] == "3"

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(losses.LOSS_KINDS),
        dims=st.tuples(*[st.integers(1, 6)] * 4),
        activation=st.sampled_from(enc.ACTIVATIONS),
        seed=st.integers(0, 2**32 - 1),
        dev_eer=st.floats(0.0, 1.0),
    )
    def test_round_trip_every_loss_kind(self, kind, dims, activation, seed, dev_eer):
        # save -> load -> save gives the same bytes, and every trainable
        # array of the run comes back under its name, in the run's order
        feature_dim, hidden_dim, embedding_dim, n_classes = dims
        config = TrainConfig(loss_kind=kind, seed=seed, hidden_dim=hidden_dim,
                             embedding_dim=embedding_dim, activation=activation,
                             speakers_per_batch=2, chunks_per_speaker=2)  # every kind's shape
        pool = sampling.TrainPool(np.zeros((2 * n_classes, feature_dim)), [2] * n_classes)
        params = init_run(config, pool).params
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.ckpt", Path(tmp) / "second.ckpt"
            save_checkpoint(first, Checkpoint(-1, params, dev_eer), config)
            loaded, _ = load_checkpoint(first)
            save_checkpoint(second, loaded, config)
            assert first.read_bytes() == second.read_bytes()
        assert (loaded.epoch, loaded.dev_eer) == (-1, dev_eer)
        assert loaded.encoder.activation == activation
        assert list(loaded.encoder.arrays()) == list(params.arrays())
        for name, arr in params.arrays().items():
            np.testing.assert_array_equal(loaded.encoder.arrays()[name], arr)

    def test_magic_and_version_checked(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOTACKPT 1\nend\n")
        with pytest.raises(DomainError, match="checkpoint"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "trunc.ckpt"
        path.write_text("SPKLABCKPT 1\nepoch 0\n")
        with pytest.raises(DomainError):
            load_checkpoint(path)


class TestEvalHelpers:
    def test_embed_files_averages_chunks(self):
        rng = np.random.default_rng(53)
        params = enc.init_encoder(4, 6, 3, rng)
        chunks = rng.standard_normal((5, 4))
        out = embed_files(params, pack_of({"f": chunks}))
        direct, _ = enc.forward(params, chunks)
        np.testing.assert_allclose(out[0], direct.mean(axis=0), atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        chunk_counts=st.lists(st.integers(1, 8), min_size=1, max_size=12),
        dims=st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(1, 20)),
        activation=st.sampled_from(enc.ACTIVATIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_embed_files_equals_per_file_forward(self, chunk_counts, dims, activation, seed):
        # one stacked forward per chunk count gives each file the embedding
        # of its own forward call plus mean_embedding, bit for bit
        rng = np.random.default_rng(seed)
        params = enc.init_encoder(*dims, rng, activation)
        files = {f"f{i:02d}": rng.standard_normal((n, dims[0])) for i, n in enumerate(chunk_counts)}
        out = embed_files(params, pack_of(files))
        assert out.shape == (len(files), dims[2])
        for row, file_id in zip(out, sorted(files)):
            expected = mean_embedding(enc.forward(params, files[file_id])[0])
            assert np.array_equal(row, expected), file_id

    @staticmethod
    def unstaged_eer(params, files, trials):
        """The per-epoch dev EER with each trial scored alone over a file-id dict of the
        `embed_files` rows, then `eer`: the oracle of `dev_eer`'s trial index."""
        embeddings = dict(zip(sorted(files), embed_files(params, pack_of(files))))
        return scoring.eer(score_per_trial(trials, embeddings)).eer

    @staticmethod
    def scored_files(counts, dim, rng):
        """Files `f000`, `f001`, ... of the given chunk counts around four speakers' latents,
        file i around latent i % 4, and trials of both classes over them."""
        latents = rng.standard_normal((4, dim))
        files = {f"f{i:03d}": latents[i % 4] + rng.standard_normal((n, dim))
                 for i, n in enumerate(counts)}
        ids = sorted(files)
        pairs = [(0, 4, True), (0, 1, False)] + [
            (a, b, a % 4 == b % 4) for a, b in rng.integers(0, len(ids), size=(30, 2)) if a != b
        ]
        return files, [scoring.Trial(ids[a], ids[b], t) for a, b, t in pairs]

    @settings(max_examples=60, deadline=None)
    @given(
        chunk_counts=st.lists(st.integers(1, 6), min_size=5, max_size=24),
        one_big_group=st.booleans(),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 8)),
        activation=st.sampled_from(enc.ACTIVATIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dev_eer_equals_unstaged_path(self, chunk_counts, one_big_group, dims, activation,
                                          seed):
        # mixed chunk counts, and optionally one count with more files than one stack holds
        rng = np.random.default_rng(seed)
        counts = chunk_counts + [2] * (EMBED_STACK_FILES + 3) * one_big_group
        files, trials = self.scored_files(counts, dims[0], rng)
        pack = pack_of(files, trials)
        for _ in range(2):  # the second call reuses the pack
            params = enc.init_encoder(*dims, rng, activation)
            assert dev_eer(params, pack) == self.unstaged_eer(params, files, trials)

    @settings(max_examples=30, deadline=None)
    @given(
        chunk_counts=st.lists(st.integers(1, 6), max_size=16),
        extra=st.integers(1, 40),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 16), st.integers(1, 8)),
        activation=st.sampled_from(enc.ACTIVATIONS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dataset_pack_takes_views_and_copies(self, chunk_counts, extra, dims, activation,
                                                 seed):
        # the counts 1, 2, 1 lead the file-id order, so the stack of count 1 is a copy; the
        # files of count 7, more than one stack holds, lie end to end at the back: views
        rng = np.random.default_rng(seed)
        counts = [1, 2, 1] + chunk_counts + [7] * (EMBED_STACK_FILES + extra)
        files, trials = self.scored_files(counts, dims[0], rng)
        data = dataset_of(files, trials)
        pack = data.eval_pack("dev")
        views = [np.shares_memory(stack, data.matrix) for _, stack in pack.stacks]
        assert any(views) and not all(views)
        params = enc.init_encoder(*dims, rng, activation)
        for row, file_id in zip(embed_files(params, pack), sorted(files), strict=True):
            assert np.array_equal(row, mean_embedding(enc.forward(params, files[file_id])[0]))
        assert dev_eer(params, pack) == self.unstaged_eer(params, files, trials)

    def dev_error_pair(self, params, files, trials):
        """Error texts of building the pack and scoring it with dev_eer, and of the oracle."""
        texts = []
        for score in (lambda: dev_eer(params, pack_of(files, trials)),
                      lambda: self.unstaged_eer(params, files, trials)):
            with pytest.raises(DomainError) as exc:
                score()
            texts.append(str(exc.value))
        return texts

    def test_dev_eer_zero_norm_names_the_trial(self):
        rng = np.random.default_rng(55)
        params = enc.init_encoder(4, 6, 3, rng, "identity")  # zero biases: zero in, zero out
        files = {"a": rng.standard_normal((2, 4)), "b": np.zeros((2, 4)),
                 "c": rng.standard_normal((3, 4))}
        trials = [scoring.Trial("a", "c", True), scoring.Trial("c", "b", False)]
        staged, unstaged = self.dev_error_pair(params, files, trials)
        assert staged == unstaged
        assert "trial c vs b" in staged and "zero norm" in staged

    @pytest.mark.parametrize("bad", ["unknown_id", "one_class", "every_dim"])
    def test_dev_eer_bad_pack_fails_as_unstaged(self, bad):
        rng = np.random.default_rng(56)
        params = enc.init_encoder(4, 6, 3, rng)
        files = {"a": rng.standard_normal((2, 4)), "b": rng.standard_normal((2, 4)),
                 "c": rng.standard_normal((2, 4))}
        trials = [scoring.Trial("a", "b", True), scoring.Trial("a", "c", False)]
        if bad == "unknown_id":
            trials.append(scoring.Trial("c", "zz", False))
        elif bad == "one_class":
            trials = trials[:1]
        else:  # every_dim
            files = {file_id: np.zeros((2, 5)) for file_id in files}
        staged, unstaged = self.dev_error_pair(params, files, trials)
        assert staged == unstaged

    def test_initial_checkpoint_has_epoch_minus_one(self):
        pool, dev = toy_problem()
        ckpt = initial_checkpoint(pool, BASE, dev)
        assert ckpt.epoch == -1
        assert 0.0 <= ckpt.dev_eer <= 1.0
