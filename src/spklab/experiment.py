"""Experiment orchestration: grid search, full training, raw and
score-normalized evaluation, and multi-loss comparison tables.

The protocol per loss: grid-search candidate configs on dev EER with a short
epoch budget (none for a lone config or a budget of 0), continue the winner's
run to the full budget, select the best epoch on dev, score the test trials
raw, tune the s-norm cohort size on dev, then score the test trials normalized.
Each scored encoder is one `ExperimentResult`. The bootstrap reports of every
score set of a run (raw and s-norm, of each loss in `compare`) come from one
`eer_bootstrap_ci` pass after the last loss is scored (`write_reports`), so
each resample is drawn once. Everything is seeded and sequential, so a rerun
reproduces every output file byte for byte.
"""

import itertools
import logging
import math
import os
from dataclasses import dataclass, replace

from spklab import losses, scoring, training
from spklab.config import Config
from spklab.dataset import SpeakerDataset
from spklab.errors import ConfigError, DomainError, TrainingDiverged, write_echo, write_text

logger = logging.getLogger(__name__)

COMPARE_CSV_HEADER = "loss,eer_raw,ci_low,ci_high,eer_snorm,improvement_pct"

# The six-loss roster compared in the study (the bias-free and hinge
# variants stay available as loss kinds but are not part of the roster).
DEFAULT_COMPARE_LOSSES = ("ce", "coco", "aam", "center", "contrastive", "triplet_sigmoid")

LR_GRID = (0.001, 0.01, 0.1)
SPEAKERS_GRID = (20, 40)
CHUNKS_GRID = (2, 3)

# The [loss] grid key of each hyper-parameter a loss kind can read.
HYPER_GRIDS = {"alpha": "alpha_grid", "margin": "margin_grid", "lam": "lambda_grid"}


@dataclass
class EvalOptions:
    n_bootstrap: int = 500
    top_n_candidates: tuple[int, ...] | None = None
    snorm_std: str = "population"
    use_snorm: bool = True

    def __post_init__(self):
        scoring.check_n_bootstrap(self.n_bootstrap)


def base_config(loss_kind: str, dataset: SpeakerDataset, seed: int, config: Config) -> training.TrainConfig:
    """The loss kind's tuned point (`losses.KINDS`), overridden by any explicit
    config values, with the batch's speaker count capped by the training speakers."""
    values = losses.loss_kind(loss_kind).tuned | config.field_values(
        training.TrainConfig, "encoder", "loss", "training")
    built = training.TrainConfig(
        **values, loss_kind=loss_kind, seed=seed, augment_snr_db=config.snr_range("training"),
    )
    n_train = len(dataset.partitions["train"])
    return replace(built, speakers_per_batch=min(built.speakers_per_batch, n_train))


def eval_options(config: Config) -> EvalOptions:
    """The `[eval]` settings; each absent key keeps its field default."""
    return EvalOptions(**config.field_values(EvalOptions, "eval"))


def grid_budget(grid_epochs: int | None, epochs: int) -> int:
    """Epochs each grid candidate trains: `grid_epochs` when set, at most the full
    budget of `epochs`, else a tenth of that budget, at least 1 but never above it."""
    if grid_epochs is None:
        return min(epochs, max(1, epochs // 10))
    if grid_epochs < 1:
        raise ConfigError(f"[training] grid_epochs must be at least 1, got {grid_epochs}")
    if grid_epochs > epochs:
        raise ConfigError(f"[training] grid_epochs must be at most epochs ({epochs}), "
                          f"got {grid_epochs}")
    return grid_epochs


def default_grid(loss_kind: str, dataset: SpeakerDataset, seed: int, config: Config) -> list[training.TrainConfig]:
    """Candidate configs for the initial search: the learning-rate grid,
    crossed with batch-shape candidates for the contrast losses and with the
    `*_grid` values of each hyper-parameter the kind reads, around its tuned
    point."""
    base = base_config(loss_kind, dataset, seed, config)
    row = losses.KINDS[loss_kind]
    n_train = len(dataset.partitions["train"])

    lrs = config.get("training", "lr_grid", LR_GRID)
    speakers = config.get("training", "speakers_grid", SPEAKERS_GRID)
    chunks = config.get("training", "chunks_grid", CHUNKS_GRID)
    checks = [("training", "lr_grid", "learning_rate", lrs),
              ("training", "speakers_grid", "speakers_per_batch", speakers),
              ("training", "chunks_grid", "chunks_per_speaker", chunks)]
    checks += [("loss", key, name, config.get("loss", key, ())) for name, key in HYPER_GRIDS.items()]
    for section, key, name, values in checks:  # every grid value is checked, read or not
        for i, value in enumerate(values):
            try:
                replace(base, **{name: value})
            except DomainError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None
            if value in values[:i]:  # two candidates that train alike
                raise ConfigError(f"[{section}] {key} lists {value} twice")
    shapes = sorted({(min(s, n_train), c) for s in speakers for c in chunks})
    if row.mode == "classification":
        shapes = [(base.speakers_per_batch, base.chunks_per_speaker)]
    hypers = [config.get("loss", HYPER_GRIDS[name], (getattr(base, name),)) for name in row.reads]

    return [
        replace(base, learning_rate=lr, speakers_per_batch=s, chunks_per_speaker=c,
                **dict(zip(row.reads, values)))
        for lr, (s, c), *values in itertools.product(lrs, shapes, *hypers)
    ]


def top_n_candidates(cohort_size: int, opts: EvalOptions) -> list[int]:
    """Cohort sizes to tune s-norm over: the configured ones, each of which must
    lie in [2, cohort_size], or else the default sizes that do; a ConfigError
    naming a configured size outside, or when no default fits."""
    if opts.top_n_candidates:
        for n in opts.top_n_candidates:
            if not 2 <= n <= cohort_size:
                raise ConfigError(f"[eval] top_n_candidates: {n} lies outside [2, {cohort_size} cohort files]")
        return list(opts.top_n_candidates)
    candidates = [n for n in sorted({2, 5, 10, 20, 50, 100, cohort_size}) if 2 <= n <= cohort_size]
    if not candidates:
        raise ConfigError(f"[eval] top_n_candidates: no default size lies in [2, {cohort_size} cohort files]")
    return candidates


@dataclass(frozen=True)
class ExperimentResult:
    """One scored encoder, written under `out_dir`: its raw test scores, the normalized ones
    at the tuned cohort size unless s-norm is off or failed (its error kept), a trained
    loss's chosen config (which names its kind), and the reports `write_reports` fills in."""

    out_dir: str | os.PathLike
    raw_scores: scoring.Scores
    normalized_scores: scoring.Scores | None = None
    top_n: int | None = None
    snorm_error: DomainError | None = None
    config: training.TrainConfig | None = None
    raw: scoring.EerReport | None = None
    normalized: scoring.EerReport | None = None

    @property
    def improvement_pct(self) -> float:
        if self.normalized is None or self.raw.eer == 0:
            return 0.0
        return 100.0 * (self.raw.eer - self.normalized.eer) / self.raw.eer

    def csv_row(self) -> str:
        snorm, improvement = ((math.nan, math.nan) if self.normalized is None
                              else (self.normalized.eer, self.improvement_pct))
        return (f"{self.config.loss_kind},{self.raw.eer:.9g},{self.raw.ci_low:.9g},"
                f"{self.raw.ci_high:.9g},{snorm:.9g},{improvement:.9g}")


def score_test(encoder, dataset: SpeakerDataset, out_dir, opts: EvalOptions) -> ExperimentResult:
    """Score the test trials raw and, unless s-norm is off, normalized with top_n tuned on
    dev; write the DET points and the score files under `out_dir` once the raw scores hold
    both classes."""
    if opts.use_snorm:  # a bad option fails before any file is written
        candidates = top_n_candidates(len(dataset.trials["cohort"].ids), opts)
    test_pack = dataset.eval_pack("test")
    test_embeddings = training.embed_files(encoder, test_pack)
    raw = scoring.score_trials(test_embeddings, test_pack.index)
    scoring.split_classes(raw.values, raw.index.target)  # both classes, or no --out
    scoring.write_det_csv(os.path.join(out_dir, "det_raw.csv"), raw)
    scoring.write_scores(os.path.join(out_dir, "scores_test_raw.txt"), raw)
    if not opts.use_snorm:
        return ExperimentResult(out_dir, raw)
    try:
        cohort_embeddings = training.embed_files(encoder, dataset.eval_pack("cohort"))
        dev_pack = dataset.eval_pack("dev")
        top_n = scoring.tune_cohort_size(
            training.embed_files(encoder, dev_pack), dev_pack.index, cohort_embeddings,
            candidates, opts.snorm_std,
        )
        cohort = scoring.Cohort(cohort_embeddings, top_n)
        normalized = scoring.snorm_trials(test_embeddings, test_pack.index, cohort, opts.snorm_std)
    except DomainError as exc:
        return ExperimentResult(out_dir, raw, snorm_error=exc)
    scoring.write_scores(os.path.join(out_dir, "scores_test_snorm.txt"), normalized)
    return ExperimentResult(out_dir, raw, normalized, top_n)


def write_reports(
    results: list[ExperimentResult], opts: EvalOptions, seed: int
) -> list[ExperimentResult]:
    """Each record with its raw and normalized (None without s-norm scores) bootstrap
    reports, from one `eer_bootstrap_ci` pass over every score set, written under its
    `out_dir`, with the summary of a trained loss whose s-norm did not fail."""
    sets = [r.raw_scores for r in results]
    sets += [r.normalized_scores for r in results if r.normalized_scores is not None]
    reports = scoring.eer_bootstrap_ci(sets, opts.n_bootstrap, seed=seed)
    normalized_reports = iter(reports[len(results):])
    out = []
    for result, raw in zip(results, reports):
        scoring.write_report(os.path.join(result.out_dir, "report_raw.txt"), raw)
        normalized = None
        if result.normalized_scores is not None:
            normalized = replace(next(normalized_reports), top_n=result.top_n)
            scoring.write_report(os.path.join(result.out_dir, "report_snorm.txt"), normalized)
        result = replace(result, raw=raw, normalized=normalized)
        if result.config is not None and result.snorm_error is None:
            _write_result_summary(os.path.join(result.out_dir, "result.txt"), result)
        out.append(result)
    return out


def report_one(result: ExperimentResult, opts: EvalOptions, seed: int) -> ExperimentResult:
    """The one record `write_reports` reports; raises its s-norm failure, if any."""
    result, = write_reports([result], opts, seed)
    if result.snorm_error is not None:
        raise result.snorm_error
    return result


def train_and_score(
    dataset: SpeakerDataset, out_dir, grid: list[training.TrainConfig], opts: EvalOptions,
    grid_epochs: int | None = None,
) -> ExperimentResult:
    """Grid-search `grid`, continue the winner's run to the full budget, the first config's
    epochs, save its best checkpoint (the untrained snapshot at 0) and score the test trials
    with it, writing under `out_dir` only once training has succeeded."""
    epochs = grid[0].epochs
    grid_epochs = grid_budget(grid_epochs, epochs)
    if opts.use_snorm:  # a bad [eval] top_n_candidates fails before training
        top_n_candidates(len(dataset.trials["cohort"].ids), opts)

    pool = dataset.train_pool()
    dev_pack = dataset.eval_pack("dev")
    run = training.grid_search(pool, grid, grid_epochs, dev_pack)
    training.continue_run(run, pool, dev_pack, epochs - len(run.checkpoints))
    chosen = replace(run.config, epochs=epochs)
    best = training.best_checkpoint(pool, chosen, dev_pack, run.checkpoints)

    training.save_checkpoint(os.path.join(out_dir, "best.ckpt"), best, chosen)
    write_echo(os.path.join(out_dir, "config_echo.txt"), chosen)
    return replace(score_test(best.encoder, dataset, out_dir, opts), config=chosen)


def run_experiment(
    dataset: SpeakerDataset,
    loss_kind: str,
    out_dir,
    seed: int = 0,
    budget_epochs: int | None = None,
    grid_epochs: int | None = None,
    *,
    grid: list[training.TrainConfig],
    eval_options: EvalOptions,
) -> ExperimentResult:
    """Full per-loss protocol over the candidate configs of `grid`, each of which must train
    `loss_kind`, the one-loss case of `compare_losses`; writes scores, reports, and the
    selected checkpoint under `out_dir` and returns the reported record, or raises its
    s-norm failure. The full budget is `budget_epochs`, or the grid configs' own epochs."""
    for config in grid:  # before anything trains or is written
        if config.loss_kind != loss_kind:
            raise DomainError(f"a {loss_kind} run got a grid config that trains {config.loss_kind}")
    if budget_epochs is not None:
        grid = [replace(config, epochs=budget_epochs) for config in grid]
    scored = train_and_score(dataset, out_dir, grid, eval_options, grid_epochs)
    return report_one(scored, eval_options, seed)


def _write_result_summary(path, result: ExperimentResult) -> None:
    lines = [
        f"loss: {result.config.loss_kind}",
        f"eer_raw: {result.raw.eer!r}",
        f"ci_low: {result.raw.ci_low!r}",
        f"ci_high: {result.raw.ci_high!r}",
    ]
    if result.normalized is not None:
        lines += [
            f"eer_snorm: {result.normalized.eer!r}",
            f"snorm_ci_low: {result.normalized.ci_low!r}",
            f"snorm_ci_high: {result.normalized.ci_high!r}",
            f"top_n: {result.normalized.top_n}",
            f"improvement_pct: {result.improvement_pct!r}",
        ]
    lines += [
        f"learning_rate: {result.config.learning_rate!r}",
        f"epochs: {result.config.epochs}",
        f"seed: {result.config.seed}",
    ]
    write_text(path, "\n".join(lines) + "\n")


def compare_losses(
    dataset: SpeakerDataset, out_dir, seed: int, config: Config
) -> list[tuple[str, ExperimentResult | None]]:
    """Run the full protocol once per loss of `[eval] compare_losses` and emit a
    comparison CSV; the grid budget and the `[eval]` options come from `config` too.

    Every loss's grid is built, and a bad config value raised, before any
    loss trains. Each loss is trained and scored (`train_and_score`), then one
    bootstrap pass reports every loss's scores and writes its summary
    (`write_reports`). A loss that fails in training or s-norm is recorded as
    a nan row, with its raw outputs when s-norm failed, and the others
    proceed.
    """
    loss_kinds = config.get("eval", "compare_losses", DEFAULT_COMPARE_LOSSES)
    grid_epochs = config.get("training", "grid_epochs")
    opts = eval_options(config)
    if len(loss_kinds) < 1:
        raise DomainError("compare_losses needs at least one loss kind")
    for i, kind in enumerate(loss_kinds):
        if kind in loss_kinds[:i]:  # both would train into one directory and one csv row
            raise DomainError(f"compare_losses lists {kind} twice")
    grids = {kind: default_grid(kind, dataset, seed, config) for kind in loss_kinds}
    scored: list[ExperimentResult] = []
    errors: dict[str, Exception] = {}
    for kind in loss_kinds:
        try:
            scored.append(train_and_score(dataset, os.path.join(out_dir, kind), grids[kind],
                                          opts, grid_epochs))
        except (DomainError, TrainingDiverged, OSError) as exc:
            logger.warning("loss %s failed: %s", kind, exc)
            errors[kind] = exc
    results: dict[str, ExperimentResult | None] = dict.fromkeys(loss_kinds)
    for result in write_reports(scored, opts, seed):
        kind = result.config.loss_kind
        if result.snorm_error is None:
            results[kind] = result
        else:
            logger.warning("loss %s failed: %s", kind, result.snorm_error)
            errors[kind] = result.snorm_error

    csv_lines = [COMPARE_CSV_HEADER]
    for kind, result in results.items():
        if result is None:
            csv_lines.append(f"{kind},nan,nan,nan,nan,nan")
        else:
            csv_lines.append(result.csv_row())
    write_text(os.path.join(out_dir, "compare.csv"), "\n".join(csv_lines) + "\n")
    if errors:
        write_text(os.path.join(out_dir, "failures.txt"),
                   "".join(f"{kind}: {errors[kind]}\n" for kind in loss_kinds if kind in errors))
    return list(results.items())
