"""Verification back end: cosine trial scoring, adaptive s-norm, EER, and
bootstrap confidence intervals.

Scores are cosine similarities (higher = more similar). The equal error
rate is the crossing of the piecewise-linear false-acceptance and
false-rejection curves swept over the sorted distinct scores, linearly
interpolated when no threshold hits the crossing exactly.
"""

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spklab.embedding import ZERO_NORM_EPS, cosine_similarity
from spklab.errors import DegenerateCohortError, DomainError, read_lines, write_text

logger = logging.getLogger(__name__)

SNORM_STD_MODES = ("population", "sample")
SNORM_MIN_STD = 1e-12
BOOTSTRAP_BLOCK_CELLS = 1 << 13  # resamples x trials in one bootstrap block
# each tail of the 95% bootstrap interval, in the float that 100 * (1 - 0.95) / 2 rounds to
# (2.500000000000002), so the interval bounds keep their bits
CI_TAIL_PERCENT = 100.0 * (1.0 - 0.95) / 2.0
SNORM_BLOCK_CELLS = 1 << 14  # files x cohort files in one s-norm block: 128 KB of cosines


@dataclass
class Trial:
    """One enrollment/test comparison with its ground truth."""

    enroll: str
    test: str
    is_target: bool


@dataclass
class Cohort:
    """Held-out file embeddings used for score normalization, and how many
    of the top cohort scores enter the statistics."""

    embeddings: np.ndarray  # (n_cohort, dim)
    top_n: int

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] == 0:
            raise DomainError("cohort needs a non-empty (n, dim) embedding matrix")
        if not 2 <= self.top_n <= self.embeddings.shape[0]:
            raise DomainError(
                f"top_n must lie in [2, {self.embeddings.shape[0]}], got {self.top_n}"
            )


@dataclass(frozen=True)
class EerReport:
    """EER point estimate and threshold, plus the bootstrap interval when
    one was computed (ci fields are None for point-only reports)."""

    eer: float
    threshold: float
    ci_low: float | None = None
    ci_high: float | None = None
    n_bootstrap: int = 0
    n_target: int = 0
    n_nontarget: int = 0
    top_n: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.eer <= 1.0:
            raise DomainError(f"eer out of [0, 1]: {self.eer}")
        if (self.ci_low is None) != (self.ci_high is None):
            raise DomainError("ci bounds must be both present or both absent")
        if self.ci_low is not None:
            if not (0.0 <= self.ci_low <= self.ci_high <= 1.0):
                raise DomainError(f"bad ci interval [{self.ci_low}, {self.ci_high}]")


@dataclass(frozen=True)
class TrialIndex:
    """Trials over the rows of a (files, dim) embedding matrix: the files' ids, which name a
    trial in errors and files, and each trial's enrollment row, test row and target flag."""

    ids: Sequence[str]
    enroll: np.ndarray
    test: np.ndarray
    target: np.ndarray

    @classmethod
    def of(cls, trials: Sequence[Trial], file_ids: Sequence[str]) -> "TrialIndex":
        """The index of `trials` over files in the order of `file_ids`; a DomainError
        names the first trial with an unknown file id."""
        row = {file_id: i for i, file_id in enumerate(file_ids)}
        for t in trials:
            for ref in (t.enroll, t.test):
                if ref not in row:
                    raise DomainError(f"trial {t.enroll} vs {t.test}: unknown file id {ref!r}")
        enroll = np.array([row[t.enroll] for t in trials], dtype=np.intp)
        test = np.array([row[t.test] for t in trials], dtype=np.intp)
        return cls(list(file_ids), enroll, test, np.array([t.is_target for t in trials], dtype=bool))

    def pairs(self) -> list[tuple[str, str]]:
        """Each trial's (enrollment id, test id), by which errors and files name it."""
        return [(self.ids[e], self.ids[t]) for e, t in zip(self.enroll.tolist(), self.test.tolist())]


@dataclass(frozen=True)
class Scores:
    """One float64 score per trial of `index`, in the index's order."""

    index: TrialIndex
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.index.target.shape:
            raise DomainError(f"{self.values.size} scores for {self.index.target.size} trials")


def score_trials(embeddings: np.ndarray, index: TrialIndex) -> Scores:
    """Score every trial with the cosine of its enrollment/test rows of `embeddings`, each
    equal to cosine_similarity's bit for bit (`trial_cosines`)."""
    return Scores(index, trial_cosines(embeddings, index))


def trial_cosines(embeddings: np.ndarray, index: TrialIndex) -> np.ndarray:
    """Clamped cosine of every trial's two rows of a (files, dim) matrix, with
    cosine_similarity's arithmetic (np.vecdot dot products and norms, one division, the
    clamp), so each equals it bit for bit. A row with a norm <= ZERO_NORM_EPS fails as
    cosine_similarity does, naming the first trial that uses it."""
    norms = np.sqrt(np.vecdot(embeddings, embeddings))
    zero = norms[np.stack((index.enroll, index.test))] <= ZERO_NORM_EPS
    if zero.any():
        i = int(zero.any(axis=0).argmax())
        raise DomainError(f"trial {' vs '.join(index.pairs()[i])}: cosine_similarity: operand "
                          f"{'a' if zero[0, i] else 'b'!r} has zero norm")
    scores = (np.vecdot(embeddings[index.enroll], embeddings[index.test])
              / (norms[index.enroll] * norms[index.test]))
    np.clip(scores, -1.0, 1.0, out=scores)
    return scores


def cohort_stats(embedding, cohort: Cohort, std_mode: str = "population") -> tuple[float, float]:
    """Mean and std of the top_n largest cosine scores against the cohort (scalar oracle)."""
    if std_mode not in SNORM_STD_MODES:
        raise DomainError(f"unknown std mode {std_mode!r}")
    scores = np.array([cosine_similarity(embedding, c) for c in cohort.embeddings])
    top = np.sort(scores)[-cohort.top_n:]
    ddof = 0 if std_mode == "population" else 1
    return float(top.mean()), float(top.std(ddof=ddof))


def adaptive_snorm(raw_score: float, enroll, test, cohort: Cohort, std_mode: str = "population") -> float:
    """Symmetric score normalization against the top-N cohort scores.

        s' = ((raw - mu_e) / sigma_e + (raw - mu_t) / sigma_t) / 2

    where mu/sigma are taken over each side's top_n highest cohort
    cosines. The standard deviation uses the population formula by
    default (std_mode="sample" divides by top_n - 1 instead). A spread
    below 1e-12 on either side raises DegenerateCohortError. This is the
    scalar reference for `snorm_trials`, one trial at a time.
    """
    mu_e, sd_e = cohort_stats(enroll, cohort, std_mode)
    mu_t, sd_t = cohort_stats(test, cohort, std_mode)
    if sd_e < SNORM_MIN_STD or sd_t < SNORM_MIN_STD:
        raise DegenerateCohortError(
            f"cohort top-{cohort.top_n} scores have near-zero spread "
            f"(sigma_e={sd_e:.3e}, sigma_t={sd_t:.3e})"
        )
    return 0.5 * ((raw_score - mu_e) / sd_e + (raw_score - mu_t) / sd_t)


def _top_cohort_stats(embeddings: np.ndarray, cohort_embeddings: np.ndarray,
                      top_ns: Sequence[int], std_mode: str) -> np.ndarray:
    """(2, len(top_ns), files): each file's mean, then std, over its top_n largest cohort
    cosines for each top_n, with `cohort_stats`' arithmetic so each equals it bit for bit
    (cosine_matrix normalizes first and rounds differently). The files go a block of
    SNORM_BLOCK_CELLS cosines at a time, each row sorted once for every top_n."""
    if std_mode not in SNORM_STD_MODES:
        raise DomainError(f"unknown std mode {std_mode!r}")
    dim = cohort_embeddings.shape[1]
    if embeddings.shape[1:] != (dim,):
        raise DomainError(f"s-norm needs file embeddings of the cohort's dimension {dim}")
    norms_f, norms_c = (np.sqrt(np.vecdot(m, m)) for m in (embeddings, cohort_embeddings))
    if np.any(norms_f <= ZERO_NORM_EPS) or np.any(norms_c <= ZERO_NORM_EPS):
        raise DomainError("s-norm needs nonzero file and cohort embeddings")
    ddof = 0 if std_mode == "population" else 1
    stats = np.empty((2, len(top_ns), len(embeddings)))
    step = max(1, SNORM_BLOCK_CELLS // len(cohort_embeddings))
    for start in range(0, len(embeddings), step):
        rows = slice(start, start + step)
        cosines = np.vecdot(embeddings[rows, None, :], cohort_embeddings)
        cosines /= norms_f[rows, None] * norms_c
        np.clip(cosines, -1.0, 1.0, out=cosines)
        cosines.sort(axis=1)
        for k, top_n in enumerate(top_ns):
            top = cosines[:, -top_n:]
            stats[0, k, rows] = top.mean(axis=1)
            stats[1, k, rows] = top.std(axis=1, ddof=ddof)
    return stats


def _snorm(raw: np.ndarray, index: TrialIndex, top_n: int, mu: np.ndarray,
           sd: np.ndarray) -> np.ndarray:
    """Adaptive s-norm of every trial's raw score from each file's top_n cohort mean and
    std, with the arithmetic of `adaptive_snorm` on whole arrays."""
    enroll, test = index.enroll, index.test
    degenerate = np.flatnonzero((sd[enroll] < SNORM_MIN_STD) | (sd[test] < SNORM_MIN_STD))
    if degenerate.size:
        raise DegenerateCohortError(f"cohort top-{top_n} scores have near-zero spread for "
                                    f"trial {' vs '.join(index.pairs()[degenerate[0]])}")
    return 0.5 * ((raw - mu[enroll]) / sd[enroll] + (raw - mu[test]) / sd[test])


def snorm_trials(embeddings: np.ndarray, index: TrialIndex, cohort: Cohort,
                 std_mode: str = "population") -> Scores:
    """Score every trial raw (`trial_cosines`) and apply adaptive s-norm with each file's
    cohort statistics from `_top_cohort_stats`, a block of files at a time; each normalized
    score equals `adaptive_snorm` on its trial exactly."""
    raw = trial_cosines(embeddings, index)
    stats = _top_cohort_stats(embeddings, cohort.embeddings, [cohort.top_n], std_mode)
    return Scores(index, _snorm(raw, index, cohort.top_n, *stats[:, 0]))


def split_classes(scores: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Target and non-target scores; a DomainError unless both classes are present."""
    if target.all() or not target.any():
        raise DomainError("EER needs at least one target and one non-target trial")
    return scores[target], scores[~target]


def _counts(tar: np.ndarray, non: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct scores of both classes, and the exclusive counts (#tar < t, #non < t)
    at each distinct score t, then (n_tar, n_non). Equal scores (-0.0, 0.0) are one, stood
    for by the first of their run in one np.sort."""
    ranked = np.sort(np.concatenate([tar, non]))
    first = np.ones(ranked.size + 1, dtype=bool)  # run starts, then the sentinel
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:-1])
    starts = np.flatnonzero(first)  # #tar + #non < t at each score, then the total
    scores = ranked[starts[:-1]]
    below_tar = np.append(np.searchsorted(np.sort(tar), scores), tar.size)
    return scores, np.stack([below_tar, starts - below_tar])


def _resampled_counts(positions: np.ndarray, n_tar: int, n_scores: int) -> np.ndarray:
    """`_counts`' exclusive counts, as (2, rows, n_scores + 1), of resamples given as
    positions on the `n_scores` sorted distinct scores (`n_tar` targets, then non-targets).
    A row repeats its next present count at a score it lacks, so its crossing is unmoved."""
    rows = len(positions)
    row_of = np.arange(rows)[:, None] + rows * (np.arange(positions.shape[1]) >= n_tar)
    counts = np.bincount((positions + n_scores * row_of).ravel(), minlength=2 * rows * n_scores)
    below = np.zeros((2, rows, n_scores + 1), dtype=np.int64)
    np.cumsum(counts.reshape(2, rows, n_scores), axis=2, out=below[:, :, 1:])
    return below


def _crossing(below: np.ndarray, n_tar: int, n_non: int,
              thresholds: np.ndarray | None = None) -> list[np.ndarray]:
    """EER of each row of exclusive counts `below` (2, rows, points), and of `thresholds`
    there when given, at the row's first point k with FAR <= FRR: taken at k where
    FAR - FRR is 0, else interpolated from k - 1. k is found exactly in integers,
    (n_non - bn) * n_tar <= bt * n_non, and rates are divided only at k - 1 and k: distinct
    rationals over n_tar and n_non lie 1 / (n_tar * n_non) apart, more than an ulp in
    [0, 1] while n_tar * n_non < 2**52, the bound this checks."""
    if n_tar * n_non >= 1 << 52:
        raise DomainError(f"EER needs n_target * n_nontarget < 2**52, got {n_tar} * {n_non}")
    bt, bn = below
    k = np.argmax((n_non - bn) * n_tar <= bt * n_non, axis=1)
    at = (np.arange(len(k))[:, None], k[:, None] - [1, 0])  # points k - 1 and k
    far = (n_non - bn[at]) / n_non
    d = far - bt[at] / n_tar
    u = d[:, 0] / (d[:, 0] - d[:, 1])
    return [np.where(d[:, 1] == 0.0, v[:, 1], v[:, 0] + u * (v[:, 1] - v[:, 0]))
            for v in ([far] if thresholds is None else [far, thresholds[at]])]


def eer_from_scores(tar: np.ndarray, non: np.ndarray) -> tuple[float, float]:
    """(EER, threshold) at the FAR/FRR crossing, linearly interpolated."""
    scores, below = _counts(tar, non)
    thresholds = np.append(scores, scores[-1] + 1.0)[None]  # a sentinel past the max score
    eer_value, threshold = _crossing(below[:, None], tar.size, non.size, thresholds)
    return float(eer_value[0]), float(threshold[0])


def eer(scores: Scores) -> EerReport:
    """Point EER report (no confidence interval) of scored trials."""
    tar, non = split_classes(scores.values, scores.index.target)
    value, threshold = eer_from_scores(tar, non)
    return EerReport(value, threshold, n_target=tar.size, n_nontarget=non.size)


def check_n_bootstrap(n_bootstrap: int) -> None:
    if n_bootstrap < 100:
        raise DomainError(f"n_bootstrap must be >= 100, got {n_bootstrap}")


def _draw_blocks(seed: int, n_bootstrap: int, n_tar: int, n_non: int, rows: int):
    """Yield (start, draws) for each block of up to `rows` resamples: row r of `draws` holds
    the trial positions of resample start + r, the target draws, then the non-target draws
    shifted by n_tar, of `default_rng((seed, start + r))`. `draws` is one buffer of the
    smallest unsigned type that holds the positions, refilled for every block."""
    buffer = np.empty((rows, n_tar + n_non), dtype=np.min_scalar_type(n_tar + n_non))
    for start in range(0, n_bootstrap, rows):
        draws = buffer[:n_bootstrap - start]
        for i, row in enumerate(draws, start):
            rng = np.random.default_rng((seed, i))
            row[:n_tar] = rng.integers(0, n_tar, size=n_tar)
            row[n_tar:] = n_tar + rng.integers(0, n_non, size=n_non)
        yield start, draws


def _percentile(ranked: np.ndarray, percent: float) -> float:
    """np.percentile of ascending `ranked` values by its default (linear) method and
    arithmetic: virtual index (n - 1) * q, its neighbours lerped from the nearer one."""
    v = (ranked.size - 1) * (percent / 100)
    j = min(int(v), ranked.size - 1)
    a, b, t = ranked[j], ranked[min(j + 1, ranked.size - 1)], v - j
    return float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)


def eer_bootstrap_ci(scores: Sequence[Scores], n_bootstrap: int, seed: int = 0) -> list[EerReport]:
    """EER of each score set with a 95% empirical-percentile bootstrap confidence interval;
    a report's `top_n` stays None, for a caller that normalized the scores to set.

    Targets and non-targets are resampled with replacement independently,
    preserving each class count, so every resample keeps both classes
    populated. Each resample draws its RNG substream from (seed, index),
    making the interval deterministic and order-independent. The score sets
    must share their class counts, so one draw of a resample serves them all:
    one pass builds each resample's generator once and sweeps every score set
    with the same block of draws (`_draw_blocks`), as one count matrix per
    set with `eer_from_scores`' EERs. A block holds BOOTSTRAP_BLOCK_CELLS
    trial positions or one resample, whichever is more, so memory is bounded
    by the block, not by n_bootstrap x trials.
    """
    check_n_bootstrap(n_bootstrap)
    classes = [split_classes(s.values, s.index.target) for s in scores]
    sizes = sorted({(tar.size, non.size) for tar, non in classes})
    if len(sizes) > 1:
        raise DomainError(f"bootstrap score sets must share class counts, got (targets, "
                          f"non-targets) {', '.join(map(str, sizes))}")
    if not classes:
        return []
    (n_tar, n_non), = sizes
    ranked = []  # each set's distinct-score count, and each trial's position among them
    for tar, non in classes:
        distinct = _counts(tar, non)[0]
        ranked.append((distinct.size, np.searchsorted(distinct, np.concatenate([tar, non]))))

    boot = np.empty((len(ranked), n_bootstrap))
    rows = max(1, BOOTSTRAP_BLOCK_CELLS // (n_tar + n_non))
    for start, draws in _draw_blocks(seed, n_bootstrap, n_tar, n_non, rows):
        for b, (n_scores, pos) in zip(boot, ranked):
            below = _resampled_counts(pos[draws], n_tar, n_scores)
            b[start:start + len(draws)], = _crossing(below, n_tar, n_non)

    boot.sort(axis=1)
    reports = []
    for (tar, non), b in zip(classes, boot):
        value, threshold = eer_from_scores(tar, non)
        reports.append(EerReport(
            value, threshold,
            ci_low=_percentile(b, CI_TAIL_PERCENT),
            ci_high=_percentile(b, 100.0 - CI_TAIL_PERCENT),
            n_bootstrap=n_bootstrap, n_target=n_tar, n_nontarget=n_non,
        ))
    return reports


def det_points(scores: Scores) -> np.ndarray:
    """(FAR, FRR) operating points over the score sweep, for DET export."""
    tar, non = split_classes(scores.values, scores.index.target)
    bt, bn = _counts(tar, non)[1]
    return np.column_stack([(non.size - bn) / non.size, bt / tar.size])


def tune_cohort_size(embeddings: np.ndarray, index: TrialIndex, cohort_embeddings: np.ndarray,
                     candidates: Sequence[int], std_mode: str = "population") -> int:
    """Pick the top_n minimizing the EER of the trials after normalization.

    The trials are scored once, and each file's cohort statistics for every
    candidate come from one pass of `_top_cohort_stats`, a block of files at
    a time. Ties go to the smallest candidate; candidates that hit a
    degenerate cohort are disqualified with a logged warning. Raises
    DomainError if no candidate survives.
    """
    if len(candidates) == 0:
        raise DomainError("tune_cohort_size: empty candidate list")
    raw = trial_cosines(embeddings, index)
    split_classes(raw, index.target)  # both classes present
    top_ns = sorted(set(int(c) for c in candidates))
    cohorts = [Cohort(cohort_embeddings, top_n) for top_n in top_ns]  # each size in range
    stats = _top_cohort_stats(embeddings, cohorts[0].embeddings, top_ns, std_mode)
    best_n, best_eer = None, None
    for top_n, mu, sd in zip(top_ns, *stats):
        try:
            normalized = _snorm(raw, index, top_n, mu, sd)
        except DegenerateCohortError as exc:
            logger.warning("cohort size %d disqualified: %s", top_n, exc)
            continue
        candidate_eer, _ = eer_from_scores(*split_classes(normalized, index.target))
        if best_eer is None or candidate_eer < best_eer:
            best_n, best_eer = top_n, candidate_eer
    if best_n is None:
        raise DomainError("every candidate cohort size was degenerate")
    return best_n


# --- text formats -----------------------------------------------------------
#
# Trial list: one per line, "<label> <enroll_id> <test_id>", label 1 = target.
# Score file: one per line, "<enroll_id> <test_id> <score>" (9 significant digits).
# Report:     "key: value" lines.


def write_trials(path, index: TrialIndex) -> None:
    write_text(path, "".join(f"{1 if target else 0} {enroll} {test}\n" for (enroll, test), target
                             in zip(index.pairs(), index.target.tolist())))


def read_trials(path) -> list[Trial]:
    out = []
    for line_no, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3 or parts[0] not in ("0", "1"):
            raise DomainError(f"{path}:{line_no}: bad trial line {line.rstrip()!r}")
        out.append(Trial(parts[1], parts[2], parts[0] == "1"))
    return out


def write_scores(path, scores: Scores) -> None:
    write_text(path, "".join(f"{enroll} {test} {score:.9g}\n" for (enroll, test), score
                             in zip(scores.index.pairs(), scores.values.tolist())))


def format_report(report: EerReport) -> str:
    lines = [f"eer: {report.eer!r}", f"threshold: {report.threshold!r}"]
    if report.ci_low is not None:
        lines += [f"ci_low: {report.ci_low!r}", f"ci_high: {report.ci_high!r}"]
    lines += [
        f"n_bootstrap: {report.n_bootstrap}",
        f"n_target: {report.n_target}",
        f"n_nontarget: {report.n_nontarget}",
    ]
    if report.top_n is not None:
        lines.append(f"top_n: {report.top_n}")
    return "\n".join(lines) + "\n"


def write_report(path, report: EerReport) -> None:
    write_text(path, format_report(report))


def write_det_csv(path, scores: Scores) -> None:
    write_text(path, "far,frr\n" + "".join(f"{far:.9g},{frr:.9g}\n"
                                         for far, frr in det_points(scores).tolist()))
