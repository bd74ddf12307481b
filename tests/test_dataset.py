"""Synthetic dataset generation: partition structure, trial lists,
degenerate-geometry behavior, and on-disk round trips."""

import re
import tempfile
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rows_and_index
from spklab.dataset import (
    PARTITIONS,
    SyntheticDatasetSpec,
    file_id,
    gen_synthetic_dataset,
    generate_dataset,
    load_dataset,
    speaker_chunks,
)
from spklab.embedding import mean_embedding
from spklab.errors import DomainError
from spklab.training import TrainConfig, dev_eer, init_run, train
from spklab.scoring import Trial, eer, score_trials

SMALL = SyntheticDatasetSpec(
    n_speakers_train=8, n_speakers_dev=3, n_speakers_cohort=4, n_speakers_test=3,
    files_per_speaker=3, chunks_per_file=2, feature_dim=6, intra_speaker_spread=0.3,
    seed=5, trials_per_speaker=4,
)


def edit_manifest_field(data_dir, line_no, index, value):
    """Sets field `index` of manifest line `line_no` (1-based) to `value`, unless `value` is
    None; returns the line's fields as they were."""
    manifest = Path(data_dir) / "manifest.txt"
    lines = manifest.read_text().splitlines()
    fields = lines[line_no - 1].split()
    if value is not None:
        lines[line_no - 1] = " ".join(fields[:index] + [value] + fields[index + 1:])
        manifest.write_text("\n".join(lines) + "\n")
    return fields


class TestGeneration:
    def test_default_partition_sizes(self):
        ds = generate_dataset(SyntheticDatasetSpec(seed=1))
        sizes = {name: len(spks) for name, spks in ds.partitions.items()}
        assert sizes == {"train": 50, "dev": 10, "cohort": 20, "test": 10}
        all_speakers = [s for spks in ds.partitions.values() for s in spks]
        assert len(all_speakers) == 90

    def test_partitions_disjoint(self):
        ds = generate_dataset(SMALL)
        seen = set()
        for spks in ds.partitions.values():
            for s in spks:
                assert s not in seen
                seen.add(s)

    def test_file_shapes(self):
        ds = generate_dataset(SMALL)
        assert len(ds.files) == 18 * 3
        for rec in ds.files.values():
            assert rec.features.shape == (2, 6)
            assert np.all(np.isfinite(rec.features))

    def test_deterministic(self):
        a = generate_dataset(SMALL)
        b = generate_dataset(SMALL)
        for fid in a.files:
            np.testing.assert_array_equal(a.files[fid].features, b.files[fid].features)
        assert [(t.enroll, t.test, t.is_target) for t in a.trials["dev"]] == [
            (t.enroll, t.test, t.is_target) for t in b.trials["dev"]
        ]

    def test_train_pool_labels(self):
        ds = generate_dataset(SMALL)
        pool = ds.train_pool()
        assert len(pool) == 8
        np.testing.assert_array_equal(pool.sizes, [6] * 8)  # 3 files x 2 chunks
        assert pool.features.shape == (48, 6)

    def test_eval_pack_per_partition(self):
        # dev and test packs index their own trials; train and cohort packs carry none
        ds = generate_dataset(SMALL)
        for partition in ("train", "cohort"):
            pack = ds.eval_pack(partition)
            assert pack.ids == sorted(f for f, r in ds.files.items() if r.partition == partition)
            assert pack.feature_dim == SMALL.feature_dim and pack.index.enroll.size == 0
        for partition, trials in ds.trials.items():
            pack = ds.eval_pack(partition)
            assert [pack.ids[i] for i in pack.index.enroll] == [t.enroll for t in trials]
            assert [pack.ids[i] for i in pack.index.test] == [t.test for t in trials]
            assert pack.index.target.tolist() == [t.is_target for t in trials]
        with pytest.raises(DomainError, match="unknown partition 'eval'"):
            ds.eval_pack("eval")

    def test_tiny_spread_separates_perfectly(self):
        # near-zero spread collapses每 speaker's chunks onto the latent, so
        # raw cosine scoring of file means is error-free
        spec = SyntheticDatasetSpec(**{**vars(SMALL), "intra_speaker_spread": 1e-9})
        ds = generate_dataset(spec)
        pack = ds.eval_pack("test")
        embeddings = {fid: mean_embedding(ds.files[fid].features) for fid in pack.ids}
        assert eer(score_trials(*rows_and_index(embeddings, ds.trials["test"]))).eer == 0.0

    def test_identical_latents_are_indistinguishable(self):
        # two speakers sharing one latent: scores carry no label signal, so
        # the EER sits near one half
        rng = np.random.default_rng(11)
        latent = rng.standard_normal(16)
        latent /= np.linalg.norm(latent)
        embeddings = {}
        trials = []
        for spk in ("a", "b"):
            for f in range(10):
                chunks = speaker_chunks(latent, 4, 0.4, rng)
                embeddings[f"{spk}{f}"] = mean_embedding(chunks)
        for i in range(10):
            for j in range(i + 1, 10):
                trials.append(Trial(f"a{i}", f"a{j}", True))
                trials.append(Trial(f"a{i}", f"b{j}", False))
        report = eer(score_trials(*rows_and_index(embeddings, trials)))
        assert abs(report.eer - 0.5) < 0.25

    def test_augmented_generation(self):
        spec = SyntheticDatasetSpec(**{**vars(SMALL), "augment_snr_db": (10.0, 20.0)})
        plain = generate_dataset(SMALL)
        noisy = generate_dataset(spec)
        fid = sorted(plain.files)[0]
        assert not np.allclose(plain.files[fid].features, noisy.files[fid].features)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DomainError):
            SyntheticDatasetSpec(n_speakers_train=0)
        with pytest.raises(DomainError):
            SyntheticDatasetSpec(intra_speaker_spread=0.0)
        for name in ("n_speakers_dev", "n_speakers_test", "files_per_speaker"):
            with pytest.raises(DomainError, match=f"^{name} must be at least 2"):
                SyntheticDatasetSpec(**{name: 1})


class TestTrials:
    def test_labels_consistent_with_speakers(self):
        ds = generate_dataset(SMALL)
        speaker_of = {fid: rec.speaker for fid, rec in ds.files.items()}
        for t in ds.trials["dev"] + ds.trials["test"]:
            assert t.enroll != t.test
            assert t.is_target == (speaker_of[t.enroll] == speaker_of[t.test])

    def test_trials_stay_inside_partition(self):
        ds = generate_dataset(SMALL)
        part_of = {fid: rec.partition for fid, rec in ds.files.items()}
        assert all(part_of[t.enroll] == part_of[t.test] == "dev" for t in ds.trials["dev"])
        assert all(part_of[t.enroll] == part_of[t.test] == "test" for t in ds.trials["test"])

    def test_per_speaker_budget(self):
        ds = generate_dataset(SMALL)  # trials_per_speaker=4 -> 2 target + 2 non
        targets = sum(t.is_target for t in ds.trials["dev"])
        nontargets = sum(not t.is_target for t in ds.trials["dev"])
        assert targets == nontargets == 2 * 3  # 3 dev speakers


class TestOnDisk:
    def test_round_trip(self, tmp_path):
        ds = gen_synthetic_dataset(SMALL, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        assert back.feature_dim == ds.feature_dim
        assert back.partitions == ds.partitions
        assert sorted(back.files) == sorted(ds.files)
        for fid in ds.files:
            np.testing.assert_array_equal(back.files[fid].features, ds.files[fid].features)
            assert back.files[fid].speaker == ds.files[fid].speaker
        assert [(t.enroll, t.test, t.is_target) for t in back.trials["test"]] == [
            (t.enroll, t.test, t.is_target) for t in ds.trials["test"]
        ]

    def test_byte_identical_regeneration(self, tmp_path):
        gen_synthetic_dataset(SMALL, tmp_path / "a")
        gen_synthetic_dataset(SMALL, tmp_path / "b")
        for name in ("manifest.txt", "features.npy", "trials_dev.txt",
                     "trials_test.txt", "dataset_spec.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_spec_echo_is_never_read(self, tmp_path):
        # dataset_spec.txt records the spec for a reader; a directory in its place still loads
        ds = gen_synthetic_dataset(SMALL, tmp_path / "data")
        spec_echo = tmp_path / "data" / "dataset_spec.txt"
        assert spec_echo.read_text() == "".join(
            f"{key} = {value!r}\n" for key, value in sorted(vars(SMALL).items()))
        spec_echo.unlink()
        spec_echo.mkdir()
        assert np.array_equal(load_dataset(tmp_path / "data").matrix, ds.matrix)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DomainError, match="manifest"):
            load_dataset(tmp_path)

    def test_truncated_features_rejected(self, tmp_path):
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        path = tmp_path / "data" / "features.npy"
        whole = path.read_bytes()
        features = np.load(path)
        for bad, match in (
            (features[:-1], r"manifest\.txt:\d+: rows .* not inside the"),
            (features[:, :-1], r"manifest\.txt:1: feature_dim"),
            (features.ravel(), r"manifest\.txt:1: feature_dim"),
        ):
            np.save(path, bad)
            with pytest.raises(DomainError, match=match):
                load_dataset(tmp_path / "data")
        path.write_bytes(whole[:-100])
        with pytest.raises(DomainError, match="features.npy"):
            load_dataset(tmp_path / "data")

    def test_non_real_features_rejected(self, tmp_path):
        # complex values would lose their imaginary parts, bools and numeric strings would
        # load as numbers
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        path = tmp_path / "data" / "features.npy"
        features = np.load(path)
        shifted = features + 0j
        shifted[0] += 5j
        for bad in (shifted, features > 0, features.astype(str)):
            np.save(path, bad)
            dtype = re.escape(str(bad.dtype))
            with pytest.raises(DomainError, match=rf"features\.npy: dtype {dtype} is not integer or float$"):
                load_dataset(tmp_path / "data")

    def test_repeated_file_id_names_both_lines(self, tmp_path):
        # a repeated id would otherwise replace the earlier file's rows
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        first = edit_manifest_field(tmp_path / "data", 2, 0, None)[0]
        edit_manifest_field(tmp_path / "data", 3, 0, first)
        with pytest.raises(DomainError, match=rf"manifest\.txt:3: file id {first} repeats line 2$"):
            load_dataset(tmp_path / "data")

    def test_empty_file_is_named(self, tmp_path):
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        fid = edit_manifest_field(tmp_path / "data", 4, 4, "0")[0]
        with pytest.raises(DomainError, match=rf"manifest\.txt:4: file {fid} has no rows \(n = 0\)$"):
            load_dataset(tmp_path / "data")

    def test_non_finite_feature_is_named(self, tmp_path):
        # a nan row would otherwise reach training and fail there as a
        # diverged loss
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        fid, _, _, start, n = edit_manifest_field(tmp_path / "data", 5, 0, None)
        path = tmp_path / "data" / "features.npy"
        for value in (np.nan, np.inf):
            features = np.load(path)
            features[int(start) + int(n) - 1, 0] = value
            np.save(path, features)
            with pytest.raises(DomainError,
                               match=rf"manifest\.txt:5: file {fid} has a non-finite feature value$"):
                load_dataset(tmp_path / "data")

    def test_speaker_in_two_partitions_is_named(self, tmp_path):
        # test trials would otherwise score a training speaker
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        lines = (tmp_path / "data" / "manifest.txt").read_text().splitlines()
        line_no = next(k for k, line in enumerate(lines, 1) if line.split()[1:2] == ["test"])
        edit_manifest_field(tmp_path / "data", line_no, 2, "0")
        with pytest.raises(DomainError, match=rf"manifest\.txt:{line_no}: speaker 0 is in both "
                                              r"the train and the test partition$"):
            load_dataset(tmp_path / "data")

    def test_no_train_file_fails_the_pool(self, tmp_path):
        gen_synthetic_dataset(SMALL, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.txt"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if " train " not in line))
        data = load_dataset(tmp_path / "data")
        assert data.rows([]).shape == (0, SMALL.feature_dim)
        with pytest.raises(DomainError, match="training pool"):
            data.train_pool()

    def test_file_id_format(self):
        assert file_id(3, 12) == "s0003_f12"


def permute_rows(data_dir, seed):
    """Rewrites the dataset's feature matrix with its files' rows in a seeded random file
    order and the manifest's starts to match; the manifest keeps its line order."""
    manifest = Path(data_dir) / "manifest.txt"
    header, *lines = manifest.read_text().splitlines()
    features = np.load(Path(data_dir) / "features.npy")
    fields = [line.split() for line in lines]
    start, blocks = 0, []
    for k in np.random.default_rng(seed).permutation(len(fields)):
        first, n = int(fields[k][3]), int(fields[k][4])
        blocks.append(features[first:first + n])
        fields[k][3] = str(start)
        start += n
    np.save(Path(data_dir) / "features.npy", np.concatenate(blocks))
    manifest.write_text("\n".join([header] + [" ".join(f) for f in fields]) + "\n")


class TestLoadedViews:
    """A loaded dataset's training pool and scoring stacks are read-only views of its one
    chunk matrix where the manifest lays their files end to end, and copies otherwise."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        # the default spec: a train pool of 320 KB, a cohort of 128 KB
        views, copies = tmp_path_factory.mktemp("views"), tmp_path_factory.mktemp("copies")
        gen_synthetic_dataset(SyntheticDatasetSpec(), views)
        gen_synthetic_dataset(SyntheticDatasetSpec(), copies)
        permute_rows(copies, seed=3)
        return load_dataset(views), load_dataset(copies)

    @pytest.fixture(scope="class")
    def retyped(self, tmp_path_factory):
        # (features saved as float32 or int64, features of the same values saved as float64)
        pairs = {}
        for dtype in (np.float32, np.int64):
            pair = []
            for saved in (dtype, np.float64):
                out = tmp_path_factory.mktemp("retyped")
                gen_synthetic_dataset(SyntheticDatasetSpec(), out)
                features = np.load(out / "features.npy").astype(dtype)
                np.save(out / "features.npy", features.astype(saved))
                pair.append(load_dataset(out))
            pairs[dtype] = pair
        return pairs

    @staticmethod
    def arrays(data):
        return [data.train_pool().features] + [
            stack for p in PARTITIONS for _, stack in data.eval_pack(p).stacks]

    def test_pool_and_stacks_are_read_only_views(self, loaded):
        data = loaded[0]
        for array in self.arrays(data):
            assert np.shares_memory(array, data.matrix)
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1.0
        for record in data.files.values():
            with pytest.raises(ValueError, match="read-only"):
                record.features[0, 0] = 0.0

    def test_generated_dataset_is_laid_out_as_loaded(self, loaded):
        # generate_dataset hands out the same read-only views that load_dataset does
        generated, data = generate_dataset(SyntheticDatasetSpec()), loaded[0]
        assert np.array_equal(generated.matrix, data.matrix)
        assert ({fid: rec.start for fid, rec in generated.files.items()}
                == {fid: rec.start for fid, rec in data.files.items()})
        for array, expected in zip(self.arrays(generated), self.arrays(data), strict=True):
            assert np.shares_memory(array, generated.matrix) and not array.flags.writeable
            assert np.array_equal(array, expected)

    def test_file_records_cannot_be_replaced(self, loaded):
        # rows() reads the matrix by the records' starts, so a changed start would hand out
        # rows that are not the record's features
        for data in (loaded[0], generate_dataset(SMALL)):
            fid = next(iter(data.files))
            with pytest.raises(TypeError):
                data.files[fid] = data.files[fid]
            with pytest.raises(FrozenInstanceError):
                data.files[fid].start = 0
            with pytest.raises(FrozenInstanceError):
                data.files = {}

    def test_other_dtypes_load_as_float64_views(self, retyped):
        for data, reference in retyped.values():
            assert data.matrix.dtype == np.float64
            assert np.array_equal(data.matrix, reference.matrix)
            for array, expected in zip(self.arrays(data), self.arrays(reference), strict=True):
                assert array.dtype == np.float64 and np.shares_memory(array, data.matrix)
                assert not array.flags.writeable and np.array_equal(array, expected)

    def test_permuted_rows_are_copied_to_the_same_arrays(self, loaded):
        views, copies = loaded
        for view, copy in zip(self.arrays(views), self.arrays(copies), strict=True):
            assert not np.shares_memory(copy, copies.matrix)
            assert view.shape == copy.shape and np.array_equal(view, copy)
        pool_v, pool_c = views.train_pool(), copies.train_pool()
        np.testing.assert_array_equal(pool_v.sizes, pool_c.sizes)
        np.testing.assert_array_equal(pool_v.offsets, pool_c.offsets)
        for p in PARTITIONS:
            pack_v, pack_c = views.eval_pack(p), copies.eval_pack(p)
            assert pack_v.ids == pack_c.ids
            for (rows_v, _), (rows_c, _) in zip(pack_v.stacks, pack_c.stacks, strict=True):
                np.testing.assert_array_equal(rows_v, rows_c)

    def test_permuted_rows_train_and_score_alike(self, loaded):
        config = TrainConfig(loss_kind="contrastive", epochs=2, learning_rate=0.1, margin=0.2,
                             speakers_per_batch=10, chunks_per_speaker=3, seed=2)
        runs = [train(data.train_pool(), config, data.eval_pack("dev")) for data in loaded]
        for ckpt_v, ckpt_c in zip(*runs, strict=True):
            assert ckpt_v.dev_eer == ckpt_c.dev_eer
            for name, array in ckpt_v.encoder.arrays().items():
                assert np.array_equal(array, ckpt_c.encoder.arrays()[name]), name
        params = init_run(config, loaded[0].train_pool()).params
        for partition in ("dev", "test"):
            assert (dev_eer(params, loaded[0].eval_pack(partition))
                    == dev_eer(params, loaded[1].eval_pack(partition)))

    def test_views_allocate_no_feature_copy(self, loaded, retyped):
        # the copy path allocates every train and partition row again, far over the bound
        peaks = []
        for data in (loaded[0], retyped[np.float32][0], loaded[1]):
            tracemalloc.start()
            try:
                data.train_pool()
                for p in PARTITIONS:
                    data.eval_pack(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks[:2]) < 64 * 1024 < peaks[2], peaks


small_specs = st.builds(
    SyntheticDatasetSpec,
    n_speakers_train=st.integers(1, 3), n_speakers_dev=st.integers(2, 3),
    n_speakers_cohort=st.integers(1, 3), n_speakers_test=st.integers(2, 3),
    files_per_speaker=st.integers(2, 3), chunks_per_file=st.integers(1, 3),
    feature_dim=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
    trials_per_speaker=st.integers(2, 6),
)


def trial_tuples(trials):
    return [(t.enroll, t.test, t.is_target) for t in trials]


class TestLoaderProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=small_specs)
    def test_round_trip(self, spec):
        with tempfile.TemporaryDirectory() as out:
            ds = gen_synthetic_dataset(spec, out)
            back = load_dataset(out)
        assert back.feature_dim == ds.feature_dim
        assert back.partitions == ds.partitions
        assert sorted(back.files) == sorted(ds.files)
        for fid, rec in ds.files.items():
            np.testing.assert_array_equal(back.files[fid].features, rec.features)
            assert (back.files[fid].speaker, back.files[fid].partition) == (rec.speaker,
                                                                             rec.partition)
        assert trial_tuples(back.trials["dev"]) == trial_tuples(ds.trials["dev"])
        assert trial_tuples(back.trials["test"]) == trial_tuples(ds.trials["test"])

    @settings(max_examples=40, deadline=None)
    @given(spec=small_specs, mutation=st.sampled_from(
        ["non_integer_count", "zero_count", "past_rows", "feature_dim"]), data=st.data())
    def test_mutated_manifest_line_names_it(self, spec, mutation, data):
        with tempfile.TemporaryDirectory() as out:
            gen_synthetic_dataset(spec, out)
            manifest = Path(out) / "manifest.txt"
            lines = manifest.read_text().splitlines()
            rows = np.load(Path(out) / "features.npy").shape[0]
            line_no = 1 if mutation == "feature_dim" else data.draw(
                st.integers(2, len(lines)), label="line")
            fields = lines[line_no - 1].split()
            if mutation == "feature_dim":
                fields[1] = str(spec.feature_dim + 1)
            elif mutation == "non_integer_count":
                fields[4] = data.draw(st.sampled_from(["2.5", "x", "1e3"]), label="count")
            elif mutation == "zero_count":
                fields[4] = "0"
            else:
                fields[3] = str(rows - int(fields[4]) + 1)
            lines[line_no - 1] = " ".join(fields)
            manifest.write_text("\n".join(lines) + "\n")
            with pytest.raises(DomainError, match=rf"manifest\.txt:{line_no}: ") as exc:
                load_dataset(out)
        assert "\n" not in str(exc.value)
