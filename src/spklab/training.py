"""SGD training loop, dev-set model selection, grid search, and checkpoint
serialization.

One run owns its parameter state and RNG stream; every batch takes one
plain SGD step over the run's one name -> array mapping: the encoder
weights and whatever the loss trains alongside (class centers, bias,
penalty centers), all at the same fixed learning rate. After each epoch
the encoder is frozen, the dev files are embedded and averaged, and the
dev EER is recorded as a checkpoint.
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from spklab import encoder as enc
from spklab import losses, sampling, scoring
from spklab.errors import DomainError, TrainingDiverged, read_lines

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "SPKLABCKPT"
CHECKPOINT_VERSION = 1
ARRAY_NAMES = enc.ENCODER_ARRAYS + losses.TRAINED_ARRAYS
EMBED_STACK_FILES = 128  # files per stacked forward in embed_files; bounds its temporaries


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run needs besides the data."""

    loss_kind: str = "aam"
    learning_rate: float = 0.01
    epochs: int = 30
    seed: int = 0
    alpha: float = 10.0
    margin: float = 0.05
    lam: float = 1.0
    center_penalty: str = "squared_cos_distance"
    speakers_per_batch: int = 128
    chunks_per_speaker: int = 1
    hidden_dim: int = 32
    embedding_dim: int = 16
    activation: str = "tanh"
    augment_snr_db: tuple[float, float] | None = None

    def __post_init__(self):
        losses.loss_kind(self.loss_kind)
        if not 0 <= self.learning_rate < math.inf:
            raise DomainError(f"learning rate must be non-negative and finite, "
                              f"got {self.learning_rate}")
        if self.epochs < 0:
            raise DomainError("epochs must be non-negative")
        for name in ("speakers_per_batch", "chunks_per_speaker", "hidden_dim", "embedding_dim"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1, got {getattr(self, name)}")
        self.hyper()  # a bad alpha, margin, lambda or penalty fails when a grid is built
        for name in losses.KINDS[self.loss_kind].domains:
            losses.check_domain(self.loss_kind, name, getattr(self, name))

    def batch_spec(self) -> sampling.BatchSpec:
        return sampling.BatchSpec(self.speakers_per_batch, self.chunks_per_speaker,
                                  losses.KINDS[self.loss_kind].mode)

    def hyper(self) -> losses.LossHyper:
        return losses.LossHyper(self.alpha, self.margin, self.lam, self.center_penalty)


@dataclass
class Checkpoint:
    """Frozen snapshot of a run's trainable arrays (the encoder's and the
    loss's, see `EncoderParams`) with its epoch index and dev EER."""

    epoch: int
    encoder: enc.EncoderParams
    dev_eer: float

    def __post_init__(self):
        if not 0.0 <= self.dev_eer <= 1.0:
            raise DomainError(f"dev EER out of [0, 1]: {self.dev_eer}")


@dataclass(eq=False)
class EvalPack:
    """One partition staged for scoring when built: its file ids in sorted order, the
    files' chunk stacks, and its trials' index over those files (a cohort has no trials).

    Every file is an (n_chunks, feature_dim) array with n_chunks > 0, of the first such
    file's feature_dim; a file that is not fails the build naming the file, and a trial
    naming an unknown file fails it as `scoring.TrialIndex.of` does. A stack is
    `rows(ids)` for its file ids, those files' rows end to end (a dataset passes its
    `SpeakerDataset.rows`, which may hand out a view); without `rows` it is a copy.
    """

    files: Mapping[str, np.ndarray]  # file_id -> (n_chunks, feature_dim)
    trials: Sequence[scoring.Trial] = ()
    rows: Callable[[list[str]], np.ndarray] | None = None
    ids: list[str] = field(init=False)
    feature_dim: int | None = field(init=False)  # None for a pack without files
    # (rows, (F, n_chunks, feature_dim) stack): the pack's files grouped by chunk count
    # (groups in order of first appearance), rows in file order, at most EMBED_STACK_FILES
    stacks: list[tuple[np.ndarray, np.ndarray]] = field(init=False)
    index: scoring.TrialIndex = field(init=False)

    def __post_init__(self):
        self.ids = sorted(self.files)
        shapes = [np.shape(self.files[file_id]) for file_id in self.ids]
        self.feature_dim = next((s[1] for s in shapes if len(s) == 2), None)
        by_count: dict[int, list[int]] = {}
        for row, (file_id, shape) in enumerate(zip(self.ids, shapes)):
            if len(shape) != 2 or shape[1] != self.feature_dim or shape[0] == 0:
                raise DomainError(f"file {file_id}: features must be a non-empty (n_chunks, "
                                  f"{self.feature_dim}) array, got shape {shape}")
            by_count.setdefault(shape[0], []).append(row)
        parts = [rows[i:i + EMBED_STACK_FILES]
                 for rows in by_count.values() for i in range(0, len(rows), EMBED_STACK_FILES)]
        self.stacks = [(np.array(part), self._stack([self.ids[r] for r in part]))
                       for part in parts]
        self.index = scoring.TrialIndex.of(self.trials, self.ids)

    def _stack(self, ids: list[str]) -> np.ndarray:
        """The (F, n_chunks, feature_dim) stack of files of one chunk count."""
        rows = (self.rows(ids) if self.rows is not None
                else np.concatenate([self.files[file_id] for file_id in ids], dtype=np.float64))
        return rows.reshape(len(ids), len(self.files[ids[0]]), self.feature_dim)


def embed_files(params: enc.EncoderParams, pack: EvalPack) -> np.ndarray:
    """The pack's file embeddings as an (n_files, embedding_dim) array in file order: each
    file's chunks encoded and averaged, one forward per stack, so each row is bit for bit a
    per-file forward plus `mean_embedding`."""
    if pack.feature_dim not in (None, params.input_dim):
        raise DomainError(f"the encoder takes {params.input_dim}-dim features, the files "
                          f"have {pack.feature_dim}")
    embeddings = np.empty((len(pack.ids), params.embedding_dim))
    for rows, stack in pack.stacks:
        embeddings[rows] = enc.forward(params, stack)[0].mean(axis=1)
    return embeddings


def dev_eer(params: enc.EncoderParams, pack: EvalPack) -> float:
    """EER of the pack's trials scored by the cosines of `embed_files` rows
    (`scoring.trial_cosines`), with `eer_from_scores`: `eer(score_trials(...)).eer` bit
    for bit."""
    scores = scoring.trial_cosines(embed_files(params, pack), pack.index)
    return scoring.eer_from_scores(*scoring.split_classes(scores, pack.index.target))[0]


def _check_finite_params(params: enc.EncoderParams, epoch: int, batch_index: int) -> None:
    for a in params.arrays().values():
        if not np.all(np.isfinite(a)):
            raise TrainingDiverged(
                f"non-finite parameter after epoch {epoch} batch {batch_index}",
                epoch, batch_index,
            )


def init_run(
    config: TrainConfig, feature_dim: int, n_classes: int
) -> tuple[enc.EncoderParams, losses.LossState, np.random.Generator]:
    """Fresh encoder and loss state drawn from the run seed, encoder first.
    The params hold the state's arrays too, so one SGD step updates both."""
    rng = np.random.default_rng(config.seed)
    params = enc.init_encoder(
        feature_dim, config.hidden_dim, config.embedding_dim, rng, config.activation
    )
    state = losses.init_loss_state(
        config.loss_kind, n_classes, config.embedding_dim, config.hyper(), rng)
    params.loss_arrays = state.arrays
    return params, state, rng


def initial_checkpoint(
    pool: sampling.TrainPool,
    config: TrainConfig,
    dev_pack: EvalPack,
) -> Checkpoint:
    """Untrained snapshot (epoch -1) under the run seed, dev EER included."""
    params, _, _ = init_run(config, pool.feature_dim, len(pool))
    return Checkpoint(-1, params, dev_eer(params, dev_pack))


def train(
    pool: sampling.TrainPool,
    config: TrainConfig,
    dev_pack: EvalPack,
) -> list[Checkpoint]:
    """Run `config.epochs` epochs of balanced-batch SGD; returns one
    checkpoint per epoch (parameters and dev EER after that epoch).

    Deterministic given the config seed. Raises TrainingDiverged naming
    the batch index if the loss or any parameter goes non-finite.
    """
    params, state, rng = init_run(config, pool.feature_dim, len(pool))
    spec = config.batch_spec()
    lr = config.learning_rate

    checkpoints = []
    # no numpy warning on overflow: a non-finite loss or parameter raises TrainingDiverged below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for batch_index, batch in enumerate(sampling.epoch_batches(pool, spec, rng)):
                feats = batch.features
                if config.augment_snr_db is not None:
                    feats = np.vstack([
                        sampling.augment_chunk(row, config.augment_snr_db, rng) for row in feats
                    ])
                try:
                    embeddings, cache = enc.forward(params, feats)
                    out = losses.evaluate_loss(config.loss_kind, embeddings, batch.labels, state)
                except DomainError as exc:
                    # mid-run numeric failure (overflowed activations, non-finite
                    # loss inputs or value) is divergence, not a caller contract violation
                    raise TrainingDiverged(
                        f"loss evaluation failed at epoch {epoch} batch {batch_index}: {exc}",
                        epoch, batch_index,
                    ) from exc
                grads = enc.backward(params, cache, out.grad_embeddings) | out.grads
                enc.sgd_step(params, grads, lr)
                _check_finite_params(params, epoch, batch_index)
            checkpoints.append(Checkpoint(epoch, params.copy(), dev_eer(params, dev_pack)))
    return checkpoints


def train_and_select(
    pool: sampling.TrainPool, config: TrainConfig, dev_pack: EvalPack
) -> tuple[list[Checkpoint], Checkpoint]:
    """Train for `config.epochs`; returns the per-epoch checkpoints and the
    best of them, or the untrained snapshot when there are no epochs."""
    checkpoints = train(pool, config, dev_pack)
    if not checkpoints:
        return checkpoints, initial_checkpoint(pool, config, dev_pack)
    return checkpoints, select_best(checkpoints)


def select_best(checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """Checkpoint with the lowest dev EER; ties break to the earliest epoch."""
    if len(checkpoints) == 0:
        raise DomainError("select_best: empty checkpoint list")
    return min(checkpoints, key=lambda ckpt: ckpt.dev_eer)


def grid_search(
    pool: sampling.TrainPool,
    grid: Sequence[TrainConfig],
    budget_epochs: int,
    dev_pack: EvalPack,
) -> TrainConfig:
    """Train every config for `budget_epochs` and return the one whose best
    dev EER is lowest (first in grid order on ties). A config that fails
    to train is disqualified with a logged warning.
    """
    if len(grid) == 0:
        raise DomainError("grid_search: empty grid")
    best_config, best_eer = None, None
    for config in grid:
        short = replace(config, epochs=budget_epochs)
        try:
            checkpoints = train(pool, short, dev_pack)
        except (TrainingDiverged, DomainError) as exc:
            logger.warning("grid config %s disqualified: %s", short, exc)
            continue
        candidate = select_best(checkpoints).dev_eer
        if best_eer is None or candidate < best_eer:
            best_config, best_eer = config, candidate
    if best_config is None:
        raise DomainError("grid_search: every configuration failed to train")
    return best_config


# --- checkpoint container ----------------------------------------------------
#
# Textual, versioned, round-trip exact:
#
#   SPKLABCKPT 1
#   epoch <int>
#   dev_eer <repr float>
#   config <key> <value>        (zero or more lines, config echo)
#   array <name> <ndim> <d0> [<d1> ...]
#   <row-major values, one line, repr floats>
#   end


def _format_array(name: str, arr: np.ndarray) -> str:
    dims = " ".join(str(d) for d in arr.shape)
    values = " ".join(repr(float(v)) for v in arr.reshape(-1))
    return f"array {name} {arr.ndim} {dims}\n{values}\n"


def save_checkpoint(path, ckpt: Checkpoint, config: TrainConfig) -> None:
    parts = [
        f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n",
        f"epoch {ckpt.epoch}\n",
        f"dev_eer {ckpt.dev_eer!r}\n",
    ]
    for key, value in sorted(vars(config).items()):
        parts.append(f"config {key} {value!r}\n")
    parts.append(f"config_ext activation {ckpt.encoder.activation}\n")
    arrays = ckpt.encoder.arrays()
    for name in sorted(arrays):
        parts.append(_format_array(name, arrays[name]))
    parts.append("end\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def load_checkpoint(path) -> tuple[Checkpoint, dict]:
    """Read a checkpoint file back; returns (checkpoint, config echo dict)."""
    lines = read_lines(path)
    if not lines or lines[0].split() != [CHECKPOINT_MAGIC, str(CHECKPOINT_VERSION)]:
        raise DomainError(f"{path}: not a version-{CHECKPOINT_VERSION} checkpoint file")

    epoch, eer_value = None, None
    config_echo: dict[str, str] = {}
    arrays: dict[str, np.ndarray] = {}
    activation = "tanh"
    i = 1
    while i < len(lines):
        line = lines[i]
        if line == "end":
            break
        head, _, rest = line.partition(" ")
        if head not in ("epoch", "dev_eer", "config", "config_ext", "array"):
            raise DomainError(f"{path}: unrecognized checkpoint line {line!r}")
        try:
            if head == "epoch":
                epoch = int(rest)
            elif head == "dev_eer":
                eer_value = float(rest)
            elif head == "config":
                key, _, value = rest.partition(" ")
                config_echo[key] = value
            elif head == "config_ext":
                key, _, value = rest.partition(" ")
                if key == "activation":
                    activation = value
            else:
                fields = rest.split()
                shape = tuple(int(d) for d in fields[2:])
                if len(shape) != int(fields[1]):
                    raise ValueError(f"{len(shape)} dimensions given for ndim {fields[1]}")
                if fields[0] not in ARRAY_NAMES:
                    raise ValueError(f"unknown array name {fields[0]!r}")
                if fields[0] in arrays:
                    raise ValueError(f"array {fields[0]!r} given twice")
                i += 1
                flat = np.array([float(v) for v in lines[i].split()], dtype=np.float64)
                if not np.all(np.isfinite(flat)):
                    raise ValueError(f"array {fields[0]!r} has a non-finite value")
                arrays[fields[0]] = flat.reshape(shape)
        except (ValueError, IndexError) as exc:
            raise DomainError(f"{path}: bad checkpoint line {line!r}: {exc}") from None
        i += 1
    else:
        raise DomainError(f"{path}: missing end marker")

    if epoch is None or eer_value is None:
        raise DomainError(f"{path}: missing epoch or dev_eer")
    for required in enc.ENCODER_ARRAYS:
        if required not in arrays:
            raise DomainError(f"{path}: missing encoder array {required!r}")
    params = enc.EncoderParams(
        **{name: arrays[name] for name in enc.ENCODER_ARRAYS}, activation=activation,
        loss_arrays={name: arrays[name] for name in losses.TRAINED_ARRAYS if name in arrays},
    )
    return Checkpoint(epoch, params, eer_value), config_echo
