"""Experiment orchestration: per-loss defaults, grids, the budget-0 path,
and consistency between single runs and comparison rows."""

from dataclasses import replace
from pathlib import Path


import numpy as np
import pytest

from spklab import dataset as ds
from spklab import encoder, experiment, scoring, training
from spklab.config import Config, empty_config, parse_config
from spklab.errors import ConfigError, DomainError, TrainingDiverged

SPEC = ds.SyntheticDatasetSpec(
    n_speakers_train=10, n_speakers_dev=4, n_speakers_cohort=6, n_speakers_test=4,
    files_per_speaker=3, chunks_per_file=3, feature_dim=12,
    intra_speaker_spread=0.3, seed=4, trials_per_speaker=6,
)

EVAL = experiment.EvalOptions(n_bootstrap=100)


def compare_config(kinds, **training):
    """A config for `compare_losses`: the loss kinds, EVAL's bootstrap size, one
    epoch and one grid epoch, and any further `[training]` values."""
    return Config({"eval": {"compare_losses": tuple(kinds), "n_bootstrap": 100},
                   "training": {"epochs": 1, "grid_epochs": 1, **training}})


@pytest.fixture(scope="module")
def data():
    return ds.generate_dataset(SPEC)


@pytest.fixture(scope="module")
def wide():
    """Enough training speakers that no tuned batch shape is capped."""
    return ds.generate_dataset(replace(SPEC, n_speakers_train=130, files_per_speaker=2))


# The tuned operating point of each loss kind: (learning_rate, margin,
# speakers_per_batch, chunks_per_speaker); every other field is shared.
TUNED = {
    "ce": (0.1, 0.0, 128, 1),
    "ce_nobias": (0.1, 0.0, 128, 1),
    "coco": (0.1, 0.0, 128, 1),
    "aam": (0.01, 0.05, 128, 1),
    "center": (0.1, 0.0, 128, 1),
    "contrastive": (0.1, 0.2, 20, 3),
    "triplet_hinge": (0.01, 0.1, 40, 3),
    "triplet_sigmoid": (0.01, 0.0, 40, 3),
}
# The README example config sets lr 0.01, margin 0.05, 25 speakers, 1 chunk.
README_POINT = (0.01, 0.05, 25, 1)
CONFIG_REPR = (
    "{{'loss_kind': {kind!r}, 'learning_rate': {0!r}, 'epochs': 30, 'seed': 0, "
    "'alpha': 10.0, 'margin': {1!r}, 'lam': 1.0, 'center_penalty': 'squared_cos_distance', "
    "'speakers_per_batch': {2!r}, 'chunks_per_speaker': {3!r}, 'hidden_dim': 32, "
    "'embedding_dim': 16, 'activation': 'tanh', 'augment_snr_db': None}}"
)


class TestDefaults:
    @pytest.mark.parametrize("kind", sorted(TUNED))
    def test_tuned_operating_points(self, kind, wide, tmp_path):
        # the repr pins each value's type too (a margin of 0.0, not 0)
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        cfg = tmp_path / "readme.cfg"
        cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        for config, point in ((empty_config(), TUNED[kind]), (parse_config(cfg), README_POINT)):
            built = experiment.base_config(kind, wide, 0, config)
            assert repr(vars(built)) == CONFIG_REPR.format(*point, kind=kind)

    def test_batch_shapes_capped_by_dataset(self, data):
        # tuned 20/40-speaker batches shrink to the 10 available speakers
        contrastive = experiment.base_config("contrastive", data, 0, empty_config())
        assert contrastive.speakers_per_batch == 10
        triplet = experiment.base_config("triplet_sigmoid", data, 0, empty_config())
        assert triplet.speakers_per_batch == 10

    def test_default_lr_grid(self, data):
        grid = experiment.default_grid("ce", data, 0, empty_config())
        assert sorted({c.learning_rate for c in grid}) == [0.001, 0.01, 0.1]
        assert len(grid) == 3

    def test_contrast_grid_crosses_batch_shapes(self, data):
        grid = experiment.default_grid("contrastive", data, 0, empty_config())
        shapes = {(c.speakers_per_batch, c.chunks_per_speaker) for c in grid}
        assert shapes == {(10, 2), (10, 3)}
        assert len(grid) == 6  # 3 learning rates x 2 shapes

    def test_contrast_grid_ignores_global_single_chunk(self, data, tmp_path):
        # the global chunks_per_speaker = 1 suits the classification losses;
        # the contrast losses still get every shape of their own grid
        cfg = tmp_path / "one_chunk.cfg"
        cfg.write_text("[training]\nchunks_per_speaker = 1\n")
        for kind in ("contrastive", "triplet_sigmoid"):
            grid = experiment.default_grid(kind, data, 0, parse_config(cfg))
            shapes = {(c.speakers_per_batch, c.chunks_per_speaker) for c in grid}
            assert shapes == {(10, 2), (10, 3)}
            assert len(grid) == 6

    def test_grids_cross_only_the_hyper_parameters_a_kind_reads(self, wide, tmp_path):
        # 3 learning rates, 4 batch shapes for the contrast losses, and the
        # alpha and lambda grids only where the loss reads them; a grid over
        # a value the loss never reads would train identical candidates
        cfg = tmp_path / "grids.cfg"
        cfg.write_text("[loss]\nalpha_grid = 5, 10\nlambda_grid = 0.5, 1, 2\n")
        config = parse_config(cfg)
        expected = {"ce": 3, "coco": 6, "aam": 6, "center": 9, "contrastive": 12,
                    "triplet_sigmoid": 24}
        for kind, count in expected.items():
            grid = experiment.default_grid(kind, wide, 0, config)
            assert len(grid) == len(set(grid)) == count, kind
            base = experiment.base_config(kind, wide, 0, config)
            alphas = {5.0, 10.0} if kind in ("coco", "aam", "triplet_sigmoid") else {base.alpha}
            assert {c.alpha for c in grid} == alphas, kind
            assert {c.lam for c in grid} == ({0.5, 1.0, 2.0} if kind == "center" else {base.lam})
            assert {c.margin for c in grid} == {base.margin}

    def test_top_n_candidates_respect_cohort(self):
        opts = experiment.EvalOptions()
        cands = experiment.top_n_candidates(18, opts)
        assert cands[0] >= 2 and cands[-1] == 18
        pinned = experiment.EvalOptions(top_n_candidates=(4, 2, 18))
        assert experiment.top_n_candidates(18, pinned) == [4, 2, 18]
        # a configured size outside [2, cohort files] fails, even beside sizes that fit
        for sizes, bad in (((2, 4, 99), 99), ((1, 19), 1), ((5, 5000), 5000), ((1, 5), 1)):
            with pytest.raises(ConfigError, match=rf"^\[eval\] top_n_candidates: {bad} lies outside"):
                experiment.top_n_candidates(18, experiment.EvalOptions(top_n_candidates=sizes))
        with pytest.raises(ConfigError, match="top_n_candidates"):
            experiment.top_n_candidates(1, opts)  # a one-file cohort fits no default either


class TestRunExperiment:
    def test_budget_zero_equals_untrained_evaluation(self, data, tmp_path):
        config = experiment.base_config("aam", data, 0, empty_config())
        config = replace(config, speakers_per_batch=5)
        result = experiment.run_experiment(
            data, "aam", tmp_path / "run", seed=0, budget_epochs=0,
            grid=[config], eval_options=EVAL,
        )
        pool = data.train_pool()
        untrained = training.initial_checkpoint(pool, replace(config, epochs=0),
                                                data.eval_pack("dev"))
        from spklab import scoring
        test_pack = data.eval_pack("test")
        scored = scoring.score_trials(training.embed_files(untrained.encoder, test_pack),
                                      test_pack.index)
        assert result.raw.eer == scoring.eer(scored).eer

    def test_emits_files_and_improvement(self, data, tmp_path):
        config = replace(experiment.base_config("aam", data, 0, empty_config()),
                         speakers_per_batch=5)
        result = experiment.run_experiment(
            data, "aam", tmp_path / "run", seed=0, budget_epochs=2,
            grid=[config], eval_options=EVAL,
        )
        for name in ("best.ckpt", "scores_test_raw.txt", "report_raw.txt",
                     "det_raw.csv", "scores_test_snorm.txt", "report_snorm.txt",
                     "result.txt"):
            assert (tmp_path / "run" / name).exists()
        assert result.normalized is not None
        if result.raw.eer > 0:
            expected = 100.0 * (result.raw.eer - result.normalized.eer) / result.raw.eer
            assert abs(result.improvement_pct - expected) < 1e-9

    def test_perfectly_separated_run_reports_zero_improvement(self, tmp_path):
        easy = ds.generate_dataset(replace(SPEC, intra_speaker_spread=1e-6))
        config = replace(experiment.base_config("aam", easy, 0, empty_config()),
                         speakers_per_batch=5)
        result = experiment.run_experiment(
            easy, "aam", tmp_path / "run", seed=0, budget_epochs=0,
            grid=[config], eval_options=EVAL,
        )
        assert result.raw.eer == 0.0
        assert result.improvement_pct == 0.0

    def test_checkpoint_loadable(self, data, tmp_path):
        config = replace(experiment.base_config("coco", data, 0, empty_config()),
                         speakers_per_batch=5)
        result = experiment.run_experiment(
            data, "coco", tmp_path / "run", seed=0, budget_epochs=1,
            grid=[config], eval_options=EVAL,
        )
        ckpt, echo = training.load_checkpoint(tmp_path / "run" / "best.ckpt")
        assert echo["loss_kind"] == "'coco'"
        assert "centers" in ckpt.encoder.loss_arrays
        assert (tmp_path / "run" / "result.txt").read_text().startswith("loss: coco\n")
        assert result.csv_row().startswith("coco,")

    def test_grid_config_of_another_kind_fails_before_training(self, data, tmp_path,
                                                               monkeypatch):
        # the record's kind is its config's, so a grid that trains another kind than the
        # run names would write a summary that contradicts its own checkpoint
        coco = replace(experiment.base_config("coco", data, 0, empty_config()),
                       speakers_per_batch=5)
        aam = replace(coco, loss_kind="aam")
        monkeypatch.setattr(training, "continue_run", lambda *args: pytest.fail("trained"))
        with pytest.raises(DomainError, match=r"^a coco run got a grid config that trains aam$"):
            experiment.run_experiment(data, "coco", tmp_path / "run", seed=0, budget_epochs=1,
                                      grid=[coco, aam], eval_options=EVAL)
        assert not (tmp_path / "run").exists()


class TestTrainAndScore:
    """The grid winner's run goes on from its grid epochs to the full budget, so no epoch
    trains twice, and its outputs are those of retraining the winner from epoch 0."""

    @staticmethod
    def grid(data, epochs):
        # three batch shapes, so each candidate makes its own steps per epoch; over three
        # epochs the winner's best is its last, below its first two
        base = experiment.base_config("aam", data, 0, empty_config())
        return [replace(base, learning_rate=lr, speakers_per_batch=s, chunks_per_speaker=2,
                        epochs=epochs) for lr, s in ((0.05, 3), (0.1, 4), (0.3, 5))]

    def test_winner_continues_from_its_grid_epochs(self, data, tmp_path, monkeypatch):
        grid, n_train = self.grid(data, epochs=3), len(data.partitions["train"])
        winner = training.grid_search(data.train_pool(), grid, 1, data.eval_pack("dev")).config
        steps, runs = [], []
        sgd_step, init_run = encoder.sgd_step, training.init_run
        monkeypatch.setattr(encoder, "sgd_step", lambda *args: steps.append(1) or sgd_step(*args))
        monkeypatch.setattr(training, "init_run",
                            lambda *args: runs.append(args[0]) or init_run(*args))
        experiment.train_and_score(data, tmp_path / "run", grid, EVAL, grid_epochs=1)
        per_epoch = [-(-n_train // config.speakers_per_batch) for config in grid]
        assert len(steps) == sum(per_epoch) + 2 * per_epoch[grid.index(winner)]
        assert runs == grid

    @pytest.mark.parametrize("epochs", [2, 0])
    def test_budget_below_the_grid_epochs_selects_among_its_first(self, data, tmp_path, epochs):
        grid, pool, dev = self.grid(data, epochs), data.train_pool(), data.eval_pack("dev")
        if epochs:  # an explicit grid budget above the full one fails before training
            with pytest.raises(ConfigError, match=r"^\[training\] grid_epochs must be at most "
                                                  r"epochs \(2\), got 3$"):
                experiment.train_and_score(data, tmp_path / "run", grid, EVAL,
                                           grid_epochs=3)
            assert not (tmp_path / "run").exists()
            return
        # at a full budget of 0 the default grid budget is 0 too: nothing is ranked, and the
        # first config's untrained snapshot is saved
        result = experiment.train_and_score(data, tmp_path / "run", grid, EVAL)
        chosen = grid[0]
        retrained = training.best_checkpoint(pool, chosen, dev, training.train(pool, chosen, dev))
        assert retrained.epoch == -1
        training.save_checkpoint(tmp_path / "retrained.ckpt", retrained, chosen)
        assert ((tmp_path / "run" / "best.ckpt").read_bytes()
                == (tmp_path / "retrained.ckpt").read_bytes())
        test_pack = data.eval_pack("test")
        embeddings = training.embed_files(retrained.encoder, test_pack)
        assert np.array_equal(result.raw_scores.values,
                              scoring.score_trials(embeddings, test_pack.index).values)

    def test_grid_of_one_trains_without_a_search(self, data, tmp_path):
        config = self.grid(data, epochs=2)[0]
        result = experiment.train_and_score(data, tmp_path / "run", [config], EVAL,
                                            grid_epochs=1)
        assert result.config == config
        # divergence raises the text a fresh run of the config raises
        bad = replace(experiment.base_config("ce", data, 0, empty_config()), learning_rate=1e200,
                      epochs=3)
        pool, dev = data.train_pool(), data.eval_pack("dev")
        with pytest.raises(TrainingDiverged) as fresh, np.errstate(all="ignore"):
            training.train(pool, bad, dev)
        with pytest.raises(TrainingDiverged) as scored, np.errstate(all="ignore"):
            experiment.train_and_score(data, tmp_path / "bad", [bad], EVAL, grid_epochs=1)
        assert str(scored.value) == str(fresh.value)
        assert not (tmp_path / "bad").exists()


class TestEvaluateEncoder:
    def test_degenerate_cohort_still_writes_the_raw_outputs(self, tmp_path):
        # one cohort file repeated gives every file a flat cohort, so s-norm fails after
        # the raw scores, DET and report are written, with the bytes of a raw-only run;
        # the manifest points every cohort file at the first one's rows
        ds.gen_synthetic_dataset(SPEC, tmp_path / "data")
        manifest = tmp_path / "data" / "manifest.txt"
        lines = [line.split() for line in manifest.read_text().splitlines()]
        first = next(fields for fields in lines if fields[1:2] == ["cohort"])
        for fields in lines:
            if fields[1:2] == ["cohort"]:
                fields[3:] = first[3:]
        manifest.write_text("".join(" ".join(fields) + "\n" for fields in lines))
        flat = ds.load_dataset(tmp_path / "data")
        params = training.init_run(training.TrainConfig(), flat.train_pool()).params
        (tmp_path / "snorm").mkdir()
        (tmp_path / "raw").mkdir()
        with pytest.raises(DomainError, match="every candidate cohort size was degenerate"):
            experiment.report_one(experiment.score_test(params, flat, tmp_path / "snorm", EVAL),
                                  EVAL, seed=1)
        raw_only = replace(EVAL, use_snorm=False)
        experiment.report_one(experiment.score_test(params, flat, tmp_path / "raw", raw_only),
                              raw_only, seed=1)
        names = sorted(path.name for path in (tmp_path / "raw").iterdir())
        assert names == ["det_raw.csv", "report_raw.txt", "scores_test_raw.txt"]
        assert sorted(path.name for path in (tmp_path / "snorm").iterdir()) == names
        for name in names:
            assert (tmp_path / "snorm" / name).read_bytes() == (tmp_path / "raw" / name).read_bytes()


class TestCompare:
    def test_single_loss_row_matches_run_experiment(self, data, tmp_path):
        results = experiment.compare_losses(data, tmp_path / "cmp", 0, compare_config(["aam"]))
        assert len(results) == 1
        kind, res = results[0]
        solo = experiment.run_experiment(
            data, "aam", tmp_path / "solo", seed=0, budget_epochs=1,
            grid_epochs=1, eval_options=EVAL,
            grid=experiment.default_grid("aam", data, 0, empty_config()),
        )
        assert res.raw.eer == solo.raw.eer
        assert res.normalized.eer == solo.normalized.eer
        csv = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert csv[0] == experiment.COMPARE_CSV_HEADER
        assert csv[1] == solo.csv_row()

    def test_row_without_snorm_ends_in_nan(self, data, tmp_path):
        config = replace(experiment.base_config("aam", data, 0, empty_config()),
                         speakers_per_batch=5)
        result = experiment.run_experiment(
            data, "aam", tmp_path / "run", seed=0, budget_epochs=0, grid=[config],
            eval_options=replace(EVAL, use_snorm=False),
        )
        assert result.normalized is None and result.csv_row().endswith(",nan,nan")
        raw = replace(result.raw, eer=1 / 3, ci_low=0.1234567891234, ci_high=2 / 3)
        assert (replace(result, raw=raw).csv_row()
                == "aam,0.333333333,0.123456789,0.666666667,nan,nan")

    def test_failing_loss_recorded_others_proceed(self, data, tmp_path, caplog):
        import logging

        # no contrast-loss batch shape has the two chunks a triplet needs
        config = compare_config(["aam", "triplet_sigmoid"], chunks_grid=(1,))
        with caplog.at_level(logging.WARNING):
            results = experiment.compare_losses(data, tmp_path / "cmp", 0, config)
        by_kind = dict(results)
        assert by_kind["aam"] is not None
        assert by_kind["triplet_sigmoid"] is None
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert "triplet_sigmoid,nan,nan,nan,nan,nan" in lines
        assert (tmp_path / "cmp" / "failures.txt").exists()
        assert not (tmp_path / "cmp" / "triplet_sigmoid").exists()

    def test_each_resample_is_drawn_once(self, data, tmp_path, made_generators):
        # the bootstrap is the only tuple-seeded generator: one per resample for every
        # report of every loss, not one per report
        experiment.compare_losses(data, tmp_path / "cmp", 0, compare_config(["aam", "coco"]))
        assert [s for s in made_generators if isinstance(s, tuple)] == [(0, i) for i in range(100)]

    def test_failed_snorm_keeps_the_raw_report_and_other_rows(self, data, tmp_path, monkeypatch):
        # coco's cohort tuning (the second loss's) fails as a flat cohort does: coco is a
        # failed row with the raw outputs of a clean run, and the aam row is unchanged
        config = compare_config(["aam", "coco"])
        clean = experiment.compare_losses(data, tmp_path / "clean", 0, config)
        tune, calls = scoring.tune_cohort_size, []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise DomainError("every candidate cohort size was degenerate")
            return tune(*args, **kwargs)

        monkeypatch.setattr(scoring, "tune_cohort_size", second_fails)
        failed = experiment.compare_losses(data, tmp_path / "failed", 0, config)
        assert failed[0][1].csv_row() == clean[0][1].csv_row() and failed[1] == ("coco", None)
        lines = (tmp_path / "failed" / "compare.csv").read_text().splitlines()
        assert lines[:2] == (tmp_path / "clean" / "compare.csv").read_text().splitlines()[:2]
        assert lines[2] == "coco,nan,nan,nan,nan,nan"
        assert ((tmp_path / "failed" / "failures.txt").read_text()
                == "coco: every candidate cohort size was degenerate\n")
        kept = {"aam": sorted(path.name for path in (tmp_path / "clean" / "aam").iterdir()),
                "coco": ["best.ckpt", "config_echo.txt", "det_raw.csv", "report_raw.txt",
                         "scores_test_raw.txt"]}
        for kind, names in kept.items():
            assert sorted(path.name for path in (tmp_path / "failed" / kind).iterdir()) == names
            for name in names:
                assert ((tmp_path / "failed" / kind / name).read_bytes()
                        == (tmp_path / "clean" / kind / name).read_bytes())

    def test_needs_at_least_one_loss(self, data, tmp_path):
        with pytest.raises(DomainError):
            experiment.compare_losses(data, tmp_path / "cmp", 0, compare_config([]))
