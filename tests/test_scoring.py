"""Trial scoring, adaptive s-norm, EER against the brute-force threshold
scan and the float-sweep oracle, bootstrap intervals and their percentiles,
and the text file formats."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (
    DEFAULT_RNG,
    brute_force_eer_bracket,
    rows_and_index,
    score_per_trial,
    scores_of,
    sweep_eer,
    sweep_operating_points,
)
from spklab import scoring
from spklab.embedding import cosine_similarity
from spklab.errors import DegenerateCohortError, DomainError
from spklab.scoring import (
    SNORM_STD_MODES,
    Cohort,
    EerReport,
    Scores,
    Trial,
    TrialIndex,
    adaptive_snorm,
    det_points,
    eer,
    eer_bootstrap_ci,
    eer_from_scores,
    format_report,
    read_trials,
    score_trials,
    snorm_trials,
    tune_cohort_size,
    write_det_csv,
    write_report,
    write_scores,
    write_trials,
)


def tied_scores(max_size=60):
    """A score list of 1..max_size entries, rounded so that ties are common."""
    return st.tuples(st.integers(1, max_size), st.integers(0, 2**32 - 1),
                     st.sampled_from([0, 1, 2, 9])).map(
        lambda c: np.round(np.random.default_rng(c[1]).normal(0.0, 1.0, c[0]), c[2]))


def trial_list(index):
    """The index's trials as `Trial`s, read from its id, row and target arrays."""
    return [Trial(index.ids[e], index.ids[t], target) for e, t, target
            in zip(index.enroll.tolist(), index.test.tolist(), index.target.tolist())]


def trials_from(tar, non):
    trials = [Trial(f"t{i}", f"x{i}", True) for i in range(len(tar))]
    trials += [Trial(f"n{i}", f"y{i}", False) for i in range(len(non))]
    return scores_of(trials, [*tar, *non])


class TestScoreTrials:
    EMB = {
        "a": np.array([1.0, 2.0]),
        "b": np.array([2.0, 1.0]),
        "ortho": np.array([-2.0, 1.0]),
    }

    def test_same_file_scores_one(self):
        scored = score_trials(*rows_and_index(self.EMB, [Trial("a", "a", True)]))
        assert abs(scored.values[0] - 1.0) < 1e-12
        exact = score_trials(*rows_and_index({"u": np.array([1.0, 0.0])}, [Trial("u", "u", True)]))
        assert exact.values[0] == 1.0

    def test_orthogonal_scores_zero(self):
        scored = score_trials(*rows_and_index(self.EMB, [Trial("a", "ortho", False)]))
        assert abs(scored.values[0]) < 1e-15

    def test_hand_value(self):
        scored = score_trials(*rows_and_index(self.EMB, [Trial("a", "b", True)]))
        assert abs(scored.values[0] - 0.8) < 1e-12

    def test_order_preserved_and_inputs_untouched(self):
        trials = [Trial("a", "b", True), Trial("b", "ortho", False)]
        scored = score_trials(*rows_and_index(self.EMB, trials))
        assert [(t.enroll, t.test) for t in trial_list(scored.index)] == [
            ("a", "b"), ("b", "ortho")]
        assert trials == [Trial("a", "b", True), Trial("b", "ortho", False)]

    def test_unknown_reference_names_trial(self):
        with pytest.raises(DomainError, match="ghost"):
            score_trials(*rows_and_index(self.EMB, [Trial("a", "ghost", True)]))

    def test_zero_norm_names_trial(self):
        emb = {"a": np.array([1.0, 0.0]), "z": np.zeros(2)}
        with pytest.raises(DomainError, match="a vs z"):
            score_trials(*rows_and_index(emb, [Trial("a", "z", True)]))

    def test_first_zero_norm_trial_named(self):
        emb = {"a": np.array([1.0, 0.0]), "z": np.zeros(2)}
        trials = [Trial("a", "a", True), Trial("z", "a", False), Trial("a", "z", True)]
        with pytest.raises(DomainError, match="^trial z vs a: cosine_similarity: operand 'a' "
                                              "has zero norm$") as staged:
            score_trials(*rows_and_index(emb, trials))
        with pytest.raises(DomainError) as per_trial:
            score_per_trial(trials, emb)
        assert str(staged.value) == str(per_trial.value)

    def test_first_unknown_id_trial_named(self):
        # the index is built before any norm is read: an unknown id fails first, even
        # after a zero-norm trial
        emb = {"a": np.array([1.0, 0.0]), "z": np.zeros(2)}
        trials = [Trial("a", "a", True), Trial("z", "a", False), Trial("a", "ghost", True),
                  Trial("phantom", "a", True)]
        with pytest.raises(DomainError, match="^trial a vs ghost: unknown file id 'ghost'$"):
            rows_and_index(emb, trials)

    def test_empty_trial_list(self):
        assert score_trials(*rows_and_index(self.EMB, [])).values.tolist() == []

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 32), n_files=st.integers(1, 12), n_trials=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_scalar_cosine_loop(self, dim, n_files, n_trials, seed):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n_files, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n_files, 1))
        emb = {f"f{i}": row for i, row in enumerate(rows)}
        pairs = rng.integers(0, n_files, size=(n_trials, 2))
        trials = [Trial(f"f{a}", f"f{b}", i % 2 == 0) for i, (a, b) in enumerate(pairs)]
        scored = score_trials(*rows_and_index(emb, trials))
        assert [(t.enroll, t.test, t.is_target) for t in trial_list(scored.index)] == \
            [(t.enroll, t.test, t.is_target) for t in trials]
        assert scored.values.tolist() == \
            [cosine_similarity(emb[t.enroll], emb[t.test]) for t in trials]


class TestEer:
    def test_perfect_separation(self):
        report = eer(trials_from([0.9, 0.8], [0.1, 0.2]))
        assert report.eer == 0.0

    def test_total_confusion(self):
        report = eer(trials_from([0.1, 0.2], [0.8, 0.9]))
        assert report.eer == 1.0

    def test_interleaved_scores(self):
        report = eer(trials_from([0.8, 0.2], [0.7, 0.1]))
        assert abs(report.eer - 0.5) < 1e-12

    def test_all_equal_scores(self):
        report = eer(trials_from([0.3, 0.3], [0.3, 0.3]))
        assert abs(report.eer - 0.5) < 1e-12

    def test_missing_class_rejected(self):
        with pytest.raises(DomainError):
            eer(trials_from([0.5], []))
        with pytest.raises(DomainError):
            eer(trials_from([], [0.5]))

    def test_unscored_trial_rejected(self):
        index = TrialIndex.of([Trial("a", "b", True), Trial("a", "c", False)], ["a", "b", "c"])
        with pytest.raises(DomainError, match="^1 scores for 2 trials$"):
            eer(Scores(index, np.array([0.1])))

    def test_matches_brute_force_bracket(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n_tar = int(rng.integers(1, 200))
            n_non = int(rng.integers(1, 200))
            tar = rng.normal(0.5, 1.0, size=n_tar)
            non = rng.normal(0.0, 1.0, size=n_non)
            value, _ = eer_from_scores(tar, non)
            lo, hi = brute_force_eer_bracket(tar, non)
            assert lo - 1e-12 <= value <= hi + 1e-12
            if lo == hi:
                assert abs(value - lo) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(tar=tied_scores(), non=tied_scores(), shift=st.sampled_from([0.0, 0.5, 1.0]))
    def test_within_brute_force_bracket_with_ties(self, tar, non, shift):
        # classes of size 1 and rounded scores with many ties, targets shifted up
        value, _ = eer_from_scores(tar + shift, non)
        lo, hi = brute_force_eer_bracket(tar + shift, non)
        assert lo - 1e-12 <= value <= hi + 1e-12
        if lo == hi:
            assert abs(value - lo) < 1e-9

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(33)
        tar = rng.normal(0.5, 1.0, size=40)
        non = rng.normal(0.0, 1.0, size=60)
        base, _ = eer_from_scores(tar, non)
        for f in (lambda s: 2.0 * s + 1.0, np.exp, np.tanh):
            value, _ = eer_from_scores(f(tar), f(non))
            assert value == base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(35)
        trials = trials_from(rng.normal(0.5, 1.0, 30), rng.normal(0.0, 1.0, 30))
        base = eer(trials).eer
        listed = trial_list(trials.index)
        for _ in range(5):
            order = rng.permutation(trials.values.size)
            perm = scores_of([listed[i] for i in order], trials.values[order])
            assert eer(perm).eer == base

    def test_threshold_sits_at_crossing(self):
        # exact crossing case: threshold 0.7, EER 0.5
        report = eer(trials_from([0.8, 0.2], [0.7, 0.1]))
        assert abs(report.threshold - 0.7) < 1e-12

    def test_det_points_span_the_sweep(self):
        pts = det_points(trials_from([0.9, 0.8], [0.1, 0.2]))
        assert pts[0, 0] == 1.0 and pts[0, 1] == 0.0
        assert pts[-1, 0] == 0.0 and pts[-1, 1] == 1.0


def signed_rounded_scores(max_size=60):
    """1..max_size scores rounded to 0-3 decimals, every zero of a random sign."""
    def draw(c):
        rng = np.random.default_rng(c[1])
        x = np.round(rng.normal(0.0, 1.0, c[0]), c[2])
        return np.where(x == 0.0, np.copysign(0.0, rng.random(c[0]) - 0.5), x)
    return st.tuples(st.integers(1, max_size), st.integers(0, 2**32 - 1),
                     st.integers(0, 3)).map(draw)


class TestCountKernel:
    @settings(max_examples=400, deadline=None)
    @given(tar=signed_rounded_scores(), non=signed_rounded_scores(20),
           shift=st.sampled_from([0.0, 0.5]))
    def test_eer_and_det_equal_float_sweep(self, tar, non, shift):
        # classes of size 1 and of unequal sizes, tie-heavy scores and mixed +/-0.0
        tar = tar + shift
        assert eer_from_scores(tar, non) == sweep_eer(tar, non)
        _, far, frr = sweep_operating_points(tar, non)
        assert np.array_equal(det_points(trials_from(tar, non)), np.column_stack([far, frr]))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 2000), seed=st.integers(0, 2**32 - 1), decimals=st.integers(1, 4),
           confidence=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_percentile_equals_numpy(self, n, seed, decimals, confidence):
        ranked = np.sort(np.round(np.random.default_rng(seed).random(n), decimals))
        half = 100.0 * (1.0 - confidence) / 2.0
        got = (scoring._percentile(ranked, half), scoring._percentile(ranked, 100.0 - half))
        assert got == tuple(np.percentile(ranked, [half, 100.0 - half]))

    def test_counts_beyond_exact_bound_rejected(self):
        # n_tar * n_non >= 2**52 could put two distinct rates within an ulp; one distinct
        # score, whose sweep runs (FAR, FRR) = (1, 0) to (0, 1), shows where the bound is
        def one_score(n_tar, n_non):
            return scoring._crossing(np.array([[[0, n_tar]], [[0, n_non]]]), n_tar, n_non)

        with pytest.raises(DomainError, match=r"2\*\*52"):
            one_score(1 << 26, 1 << 26)
        assert one_score(1, (1 << 52) - 1)[0].tolist() == [0.5]


class TestAdaptiveSnorm:
    def test_identity_fixture_returns_raw(self):
        # cohort scores for both sides are {+1, -1}: mu = 0, sigma = 1
        e = np.array([1.0, 0.0])
        cohort = Cohort(np.array([[1.0, 0.0], [-1.0, 0.0]]), top_n=2)
        raw = 1.0
        assert abs(adaptive_snorm(raw, e, e, cohort) - raw) < 1e-12

    def test_symmetry_exact(self):
        rng = np.random.default_rng(37)
        cohort = Cohort(rng.standard_normal((10, 4)), top_n=4)
        for _ in range(20):
            e, t = rng.standard_normal((2, 4))
            raw = rng.uniform(-1, 1)
            assert adaptive_snorm(raw, e, t, cohort) == adaptive_snorm(raw, t, e, cohort)

    def test_three_element_cohort_hand_computation(self):
        e = np.array([1.0, 0.0])
        t = np.array([0.0, 1.0])
        cohort_rows = np.array([[1.0, 1.0], [1.0, -1.0], [-3.0, 4.0]])
        cohort = Cohort(cohort_rows, top_n=3)
        raw = 0.0
        # cohort cosines by hand
        s_e = [1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), -3.0 / 5.0]
        s_t = [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 4.0 / 5.0]
        mu_e = sum(s_e) / 3.0
        sd_e = math.sqrt(sum((v - mu_e) ** 2 for v in s_e) / 3.0)
        mu_t = sum(s_t) / 3.0
        sd_t = math.sqrt(sum((v - mu_t) ** 2 for v in s_t) / 3.0)
        expected = 0.5 * ((raw - mu_e) / sd_e + (raw - mu_t) / sd_t)
        assert abs(adaptive_snorm(raw, e, t, cohort) - expected) < 1e-12

    def test_degenerate_cohort_raises(self):
        e = np.array([1.0, 0.0])
        cohort = Cohort(np.array([[2.0, 0.0], [3.0, 0.0]]), top_n=2)  # both cos = 1
        with pytest.raises(DegenerateCohortError):
            adaptive_snorm(0.5, e, e, cohort)

    def test_top_n_bounds(self):
        with pytest.raises(DomainError):
            Cohort(np.eye(3), top_n=1)
        with pytest.raises(DomainError):
            Cohort(np.eye(3), top_n=4)

    def test_sample_std_mode_differs(self):
        rng = np.random.default_rng(39)
        cohort = Cohort(rng.standard_normal((8, 3)), top_n=5)
        e, t = rng.standard_normal((2, 3))
        pop = adaptive_snorm(0.3, e, t, cohort, std_mode="population")
        samp = adaptive_snorm(0.3, e, t, cohort, std_mode="sample")
        assert pop != samp
        with pytest.raises(DomainError):
            adaptive_snorm(0.3, e, t, cohort, std_mode="bogus")

    def test_batched_path_matches_scalar_op(self):
        rng = np.random.default_rng(41)
        emb = {f"f{i}": rng.standard_normal(4) for i in range(6)}
        cohort = Cohort(rng.standard_normal((9, 4)), top_n=4)
        trials = [Trial("f0", "f1", True), Trial("f2", "f3", False), Trial("f4", "f5", True)]
        scored = score_trials(*rows_and_index(emb, trials))
        batched = snorm_trials(*rows_and_index(emb, trials), cohort)
        for t, before, after in zip(trials, scored.values, batched.values):
            expected = adaptive_snorm(before, emb[t.enroll], emb[t.test], cohort)
            assert abs(after - expected) < 1e-15


@st.composite
def snorm_cases(draw):
    """Random file embeddings of mixed norms, a cohort of 2-60 rows in 2-32
    dimensions (optionally all rows identical), scored trials with both
    classes and repeated files, and a std mode."""
    dim = draw(st.integers(2, 32))
    n_cohort = draw(st.integers(2, 60))
    n_files = draw(st.integers(1, 8))
    n_trials = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(n):
        return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))

    cohort = rows(n_cohort)
    if draw(st.booleans()):
        cohort = np.repeat(cohort[:1], n_cohort, axis=0)
    emb = {f"f{i}": row for i, row in enumerate(rows(n_files))}
    pairs = rng.integers(0, n_files, size=(n_trials, 2))
    trials = [Trial(f"f{a}", f"f{b}", i % 2 == 0) for i, (a, b) in enumerate(pairs)]
    scored = score_trials(*rows_and_index(emb, trials))
    return emb, cohort, scored, draw(st.sampled_from(SNORM_STD_MODES))


def scalar_snorm(scored, emb, cohort, std_mode):
    """Trial-by-trial adaptive_snorm; a degenerate trial raises."""
    trials = trial_list(scored.index)
    return scores_of(trials, [
        adaptive_snorm(score, emb[t.enroll], emb[t.test], cohort, std_mode)
        for t, score in zip(trials, scored.values)
    ])


def is_degenerate(trial, score, emb, cohort, std_mode):
    try:
        adaptive_snorm(score, emb[trial.enroll], emb[trial.test], cohort, std_mode)
    except DegenerateCohortError:
        return True
    return False


class TestSnormAgainstScalarOracle:
    """The cohort statistics behind snorm_trials and tune_cohort_size against the
    scalar path, one trial and one candidate at a time."""

    @settings(max_examples=150, deadline=None)
    @given(case=snorm_cases(), data=st.data())
    def test_snorm_trials_equals_adaptive_snorm(self, case, data):
        emb, cohort_rows, scored, std_mode = case
        cohort = Cohort(cohort_rows, data.draw(st.integers(2, len(cohort_rows))))
        try:
            expected = scalar_snorm(scored, emb, cohort, std_mode)
        except DegenerateCohortError:
            with pytest.raises(DegenerateCohortError):
                snorm_trials(*rows_and_index(emb, trial_list(scored.index)), cohort, std_mode)
            return
        got = snorm_trials(*rows_and_index(emb, trial_list(scored.index)), cohort, std_mode)
        assert [(t.enroll, t.test, t.is_target) for t in trial_list(got.index)] == [
            (t.enroll, t.test, t.is_target) for t in trial_list(scored.index)
        ]
        assert got.values.tolist() == expected.values.tolist()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=snorm_cases(), data=st.data())
    def test_tune_cohort_size_equals_scalar_loop(self, case, data, caplog):
        emb, cohort_rows, scored, std_mode = case
        candidates = data.draw(st.lists(st.integers(2, len(cohort_rows)), min_size=1, max_size=7))
        best, best_eer, warnings = None, None, []
        for top_n in sorted(set(candidates)):
            cohort = Cohort(cohort_rows, top_n)
            degenerate = next((t for t, score in zip(trial_list(scored.index), scored.values)
                               if is_degenerate(t, score, emb, cohort, std_mode)), None)
            if degenerate is not None:
                warnings.append(
                    f"cohort size {top_n} disqualified: cohort top-{top_n} scores have "
                    f"near-zero spread for trial {degenerate.enroll} vs {degenerate.test}"
                )
                continue
            value = eer(scalar_snorm(scored, emb, cohort, std_mode)).eer
            if best is None or value < best_eer:
                best, best_eer = top_n, value
        if np.all(cohort_rows == cohort_rows[0]):
            assert best is None  # identical rows leave no spread at any top_n

        staged = rows_and_index(emb, trial_list(scored.index))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spklab.scoring"):
            if best is None:
                with pytest.raises(DomainError, match="every candidate"):
                    tune_cohort_size(*staged, cohort_rows, candidates, std_mode)
            else:
                assert tune_cohort_size(*staged, cohort_rows, candidates, std_mode) == best
        assert [r.getMessage() for r in caplog.records] == warnings


def snorm_outcome(staged, cohort_rows, top_n, candidates, std_mode):
    """snorm_trials' values at `top_n` and tune_cohort_size's pick over `candidates`, each
    as the error text where it raises."""
    outcome = []
    cohort = Cohort(cohort_rows, top_n)
    for run in (lambda: snorm_trials(*staged, cohort, std_mode).values.tolist(),
                lambda: tune_cohort_size(*staged, cohort_rows, candidates, std_mode)):
        try:
            outcome.append(run())
        except DomainError as exc:
            outcome.append(str(exc))
    return outcome


class TestSnormBlocks:
    """The cohort statistics a block of files at a time, against the default block."""

    @settings(max_examples=60, deadline=None)
    @given(case=snorm_cases(), data=st.data())
    def test_block_size_moves_no_score(self, case, data):
        # blocks of one file, of a few files not dividing the files, and of all files at once
        emb, cohort_rows, scored, std_mode = case
        top_n = data.draw(st.integers(2, len(cohort_rows)))
        candidates = data.draw(st.lists(st.integers(2, len(cohort_rows)), min_size=1, max_size=7))
        staged = rows_and_index(emb, trial_list(scored.index))
        default = snorm_outcome(staged, cohort_rows, top_n, candidates, std_mode)
        n_cells = len(emb) * len(cohort_rows)
        for block_cells in (1, 3 * len(cohort_rows), n_cells, n_cells + 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(scoring, "SNORM_BLOCK_CELLS", block_cells)
                assert snorm_outcome(staged, cohort_rows, top_n, candidates, std_mode) == default

    def test_memory_is_bounded_by_the_block(self):
        # 800 files against 4,000 cohort files: a (files, cohort) cosine matrix alone is
        # 25.6 MB, and the whole matrix with its temporaries peaked at 49 MB
        rng = np.random.default_rng(57)
        files = rng.standard_normal((800, 16))
        cohort_rows = rng.standard_normal((4000, 16))
        pairs = rng.integers(0, 800, size=(800, 2))
        ids = [f"f{i:03d}" for i in range(800)]
        index = TrialIndex.of([Trial(ids[a], ids[b], i % 2 == 0)
                               for i, (a, b) in enumerate(pairs)], ids)
        tracemalloc.start()
        try:
            top_n = tune_cohort_size(files, index, cohort_rows, [2, 5, 10, 20, 50, 100, 4000])
            snorm_trials(files, index, Cohort(cohort_rows, top_n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak


class TestBootstrap:
    def test_perfect_separation_gives_zero_width_ci(self):
        trials = trials_from([0.9, 0.8, 0.7], [0.1, 0.2, 0.3])
        report, = eer_bootstrap_ci([trials], 200, seed=1)
        assert report.ci_low == 0.0 and report.ci_high == 0.0

    def test_degenerate_equal_scores(self):
        trials = trials_from([0.5] * 4, [0.5] * 4)
        report, = eer_bootstrap_ci([trials], 150, seed=2)
        assert report.ci_low == report.ci_high
        assert abs(report.eer - 0.5) < 1e-12

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(43)
        trials = trials_from(rng.normal(0.5, 1.0, 50), rng.normal(0.0, 1.0, 50))
        a, = eer_bootstrap_ci([trials], 200, seed=7)
        b, = eer_bootstrap_ci([trials], 200, seed=7)
        assert (a.ci_low, a.ci_high) == (b.ci_low, b.ci_high)
        c, = eer_bootstrap_ci([trials], 200, seed=8)
        assert (a.ci_low, a.ci_high) != (c.ci_low, c.ci_high)

    def test_percentile_interval_brackets_resample_median(self):
        rng = np.random.default_rng(45)
        trials = trials_from(rng.normal(0.6, 1.0, 500), rng.normal(0.0, 1.0, 500))
        report, = eer_bootstrap_ci([trials], 1000, seed=9)
        boot = []
        tar = trials.values[trials.index.target]
        non = trials.values[~trials.index.target]
        for i in range(1000):
            r = np.random.default_rng((9, i))
            boot.append(eer_from_scores(
                tar[r.integers(0, tar.size, tar.size)],
                non[r.integers(0, non.size, non.size)],
            )[0])
        median = float(np.median(boot))
        assert report.ci_low <= median <= report.ci_high

    @settings(max_examples=60, deadline=None)
    @given(tar=tied_scores(), non=tied_scores(), n_bootstrap=st.integers(100, 260),
           block_cells=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_interval_equals_per_resample_loop(self, tar, non, n_bootstrap, block_cells, seed):
        # the batched resamples give the interval of the per-resample loop
        # exactly; small block budgets make blocks of 1 to a few resamples
        # that do not divide n_bootstrap
        boot = []
        for i in range(n_bootstrap):
            r = np.random.default_rng((seed, i))
            boot.append(eer_from_scores(tar[r.integers(0, tar.size, tar.size)],
                                        non[r.integers(0, non.size, non.size)])[0])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scoring, "BOOTSTRAP_BLOCK_CELLS", block_cells)
            report, = eer_bootstrap_ci([trials_from(tar, non)], n_bootstrap, seed=seed)
        half = 100.0 * (1.0 - 0.95) / 2.0  # the report's rank, 2.5 up to rounding
        assert (report.ci_low, report.ci_high) == tuple(np.percentile(boot, [half, 100.0 - half]))
        assert (report.eer, report.threshold) == eer_from_scores(tar, non)

    def test_memory_is_bounded_by_the_block(self):
        # 1,000 resamples of 10,000 trials: a matrix of every resample's draws alone is 20 MB
        rng = np.random.default_rng(59)
        trials = trials_from(rng.normal(0.5, 1.0, 4000), rng.normal(0.0, 1.0, 6000))
        tracemalloc.start()
        try:
            eer_bootstrap_ci([trials], 1000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak

    def test_needs_enough_resamples(self):
        with pytest.raises(DomainError):
            eer_bootstrap_ci([trials_from([0.9], [0.1])], 50)

    def test_report_invariants(self):
        with pytest.raises(DomainError):
            EerReport(eer=1.2, threshold=0.0)
        with pytest.raises(DomainError):
            EerReport(eer=0.5, threshold=0.0, ci_low=0.6, ci_high=0.4)


def per_resample_interval(tar, non, n_bootstrap, seed):
    """The 95% interval of the per-resample loop, one generator per resample, at the
    report's percentile ranks."""
    boot = []
    for i in range(n_bootstrap):
        r = DEFAULT_RNG((seed, i))
        boot.append(eer_from_scores(tar[r.integers(0, tar.size, tar.size)],
                                    non[r.integers(0, non.size, non.size)])[0])
    half = 100.0 * (1.0 - 0.95) / 2.0
    return tuple(np.percentile(boot, [half, 100.0 - half]))


class TestSharedDraws:
    def test_reports_with_equal_counts_build_the_draws_once(self, made_generators):
        rng = DEFAULT_RNG(47)
        cases = [(rng.normal(0.6, 1.0, 30), rng.normal(0.0, 1.0, 40)),
                 (np.round(rng.normal(0.2, 1.0, 30), 1), np.round(rng.normal(0.0, 1.0, 40), 1))]
        reports = eer_bootstrap_ci([trials_from(tar, non) for tar, non in cases], 150, seed=5)
        assert made_generators == [(5, i) for i in range(150)]
        for report, (tar, non) in zip(reports, cases, strict=True):
            assert (report.ci_low, report.ci_high) == per_resample_interval(tar, non, 150, 5)
            assert (report.eer, report.threshold) == eer_from_scores(tar, non)

    def test_block_holds_the_positions_in_the_smallest_unsigned_type(self):
        (start, draws), = scoring._draw_blocks(3, 100, 5, 7, rows=100)
        assert start == 0 and draws.shape == (100, 12) and draws.dtype == np.uint8
        assert draws[:, :5].max() < 5 and draws[:, 5:].min() >= 5 and draws.max() < 12
        for n_tar, n_non in ((200, 200), (65_000, 535)):
            (_, draws), = scoring._draw_blocks(3, 1, n_tar, n_non, rows=1)
            assert draws.dtype == np.uint16

    def test_score_sets_must_share_class_counts(self):
        with pytest.raises(DomainError, match="share class counts"):
            eer_bootstrap_ci([trials_from([0.9, 0.8], [0.1]), trials_from([0.9], [0.1, 0.2])], 100)
        assert eer_bootstrap_ci([], 100) == []

    def test_changed_seed_count_or_classes_draw_afresh(self, made_generators):
        rng = DEFAULT_RNG(53)
        tar, non = rng.normal(0.5, 1.0, 25), rng.normal(0.0, 1.0, 35)
        for seed, n_bootstrap, n_tar, n_non in [(1, 120, 25, 35), (2, 120, 25, 35),
                                                (2, 130, 25, 35), (2, 130, 24, 35),
                                                (2, 130, 24, 34), (1, 120, 25, 35)]:
            made_generators.clear()
            report, = eer_bootstrap_ci([trials_from(tar[:n_tar], non[:n_non])], n_bootstrap,
                                       seed=seed)
            assert made_generators == [(seed, i) for i in range(n_bootstrap)]
            assert (report.ci_low, report.ci_high) == per_resample_interval(
                tar[:n_tar], non[:n_non], n_bootstrap, seed)


class TestTuneCohortSize:
    def test_single_candidate(self):
        rng = np.random.default_rng(47)
        emb = {f"f{i}": rng.standard_normal(3) for i in range(4)}
        scored = [Trial("f0", "f1", True), Trial("f2", "f3", False)]
        cohort = rng.standard_normal((5, 3))
        assert tune_cohort_size(*rows_and_index(emb, scored), cohort, [3]) == 3

    def test_smaller_candidate_wins_on_fixture(self):
        # frozen fixture: top_n=2 yields a lower dev EER than the full cohort
        rng = np.random.default_rng(16)
        emb = {f"f{i}": rng.standard_normal(4) for i in range(8)}
        cohort = rng.standard_normal((6, 4))
        trials = [Trial(f"f{i}", f"f{i+1}", i < 4) for i in range(0, 8, 2)]
        eer2 = eer(snorm_trials(*rows_and_index(emb, trials), Cohort(cohort, 2))).eer
        eer6 = eer(snorm_trials(*rows_and_index(emb, trials), Cohort(cohort, 6))).eer
        assert eer2 < eer6
        assert tune_cohort_size(*rows_and_index(emb, trials), cohort, [2, 6]) == 2

    def test_degenerate_candidate_disqualified_with_warning(self, caplog):
        # cohort rows parallel to every embedding direction produce sigma 0
        # for top_n=2; the larger candidate survives
        emb = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1e-9])}
        cohort = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
        scored = [Trial("a", "b", True), Trial("a", "a", False)]
        with caplog.at_level(logging.WARNING):
            best = tune_cohort_size(*rows_and_index(emb, scored), cohort, [2, 3])
        assert best == 3
        assert any("disqualified" in r.message for r in caplog.records)

    def test_all_degenerate_raises(self):
        emb = {"a": np.array([1.0, 0.0])}
        cohort = np.array([[1.0, 0.0], [2.0, 0.0]])
        scored = [Trial("a", "a", True), Trial("a", "a", False)]
        with pytest.raises(DomainError, match="degenerate"):
            tune_cohort_size(*rows_and_index(emb, scored), cohort, [2])

    def test_empty_candidates(self):
        with pytest.raises(DomainError):
            tune_cohort_size(*rows_and_index({}, []), np.eye(3), [])

    def test_tie_breaks_to_smallest(self):
        # symmetric cohort: both candidates give identical EER
        rng = np.random.default_rng(49)
        emb = {f"f{i}": rng.standard_normal(5) for i in range(6)}
        trials = [Trial(f"f{i}", f"f{i+1}", i < 3) for i in range(0, 6, 2)]
        cohort = rng.standard_normal((4, 5))
        e3 = eer(snorm_trials(*rows_and_index(emb, trials), Cohort(cohort, 3))).eer
        e4 = eer(snorm_trials(*rows_and_index(emb, trials), Cohort(cohort, 4))).eer
        best = tune_cohort_size(*rows_and_index(emb, trials), cohort, [4, 3])
        assert best == (3 if e3 <= e4 else 4)


class TestFileFormats:
    def test_trials_round_trip(self, tmp_path):
        index = TrialIndex.of([Trial("e1", "t1", True), Trial("e2", "t2", False)],
                              ["e1", "e2", "t1", "t2"])
        path = tmp_path / "trials.txt"
        write_trials(path, index)
        assert path.read_text() == "1 e1 t1\n0 e2 t2\n"
        back = read_trials(path)
        assert [(t.enroll, t.test, t.is_target) for t in back] == [
            ("e1", "t1", True), ("e2", "t2", False)
        ]

    @settings(max_examples=60, deadline=None)
    @given(n_files=st.integers(1, 8), n_trials=st.integers(0, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_written_index_reads_back_as_its_trials(self, tmp_path_factory, n_files, n_trials,
                                                     seed):
        # any index over any file order: written, then read, it gives the trials it was made of
        rng = np.random.default_rng(seed)
        ids = [f"f{i}" for i in rng.permutation(n_files)]
        trials = [Trial(ids[a], ids[b], bool(rng.integers(2)))
                  for a, b in rng.integers(0, n_files, size=(n_trials, 2))]
        path = tmp_path_factory.mktemp("trials") / "trials.txt"
        write_trials(path, TrialIndex.of(trials, ids))
        assert read_trials(path) == trials

    def test_bad_trial_line(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("2 a b\n")
        with pytest.raises(DomainError, match="bad trial line"):
            read_trials(path)

    def test_scores_nine_significant_digits(self, tmp_path):
        path = tmp_path / "scores.txt"
        write_scores(path, scores_of([Trial("e", "t", True)], [1.0 / 3.0]))
        assert path.read_text() == "e t 0.333333333\n"

    def test_unscored_rejected(self, tmp_path):
        index = TrialIndex.of([Trial("e", "t", True)], ["e", "t"])
        with pytest.raises(DomainError):
            write_scores(tmp_path / "s.txt", Scores(index, np.array([])))

    def test_report_format(self, tmp_path):
        report = EerReport(
            eer=0.125, threshold=0.25, ci_low=0.0, ci_high=0.25,
            n_bootstrap=500, n_target=10, n_nontarget=20, top_n=8,
        )
        text = format_report(report)
        for key in ("eer:", "threshold:", "ci_low:", "ci_high:",
                    "n_bootstrap: 500", "n_target: 10", "n_nontarget: 20", "top_n: 8"):
            assert key in text
        path = tmp_path / "report.txt"
        write_report(path, report)
        assert path.read_text() == text

    def test_point_report_omits_ci(self):
        text = format_report(EerReport(eer=0.1, threshold=0.0))
        assert "ci_low" not in text and "top_n" not in text

    def test_det_csv(self, tmp_path):
        path = tmp_path / "det.csv"
        write_det_csv(path, trials_from([0.9], [0.1]))
        lines = path.read_text().splitlines()
        assert lines[0] == "far,frr"
        assert len(lines) > 2

    def test_det_csv_matches_per_scalar_format(self, tmp_path):
        # rates in thirds, whose .9g text is where a float and a numpy scalar could part
        scores = trials_from([0.9, 0.5, 0.2], [0.8, 0.3, 0.1])
        path = tmp_path / "det.csv"
        write_det_csv(path, scores)
        per_scalar = "".join(f"{far:.9g},{frr:.9g}\n" for far, frr in det_points(scores))
        assert path.read_text() == "far,frr\n" + per_scalar
        assert "0.666666667,0.333333333\n" in per_scalar
