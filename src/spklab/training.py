"""SGD training loop, dev-set model selection, grid search, and checkpoint
serialization.

One `Run` owns its config, parameter state, RNG stream and checkpoints, and
`continue_run` trains it on by any number of epochs, so a grid winner goes on
to the full budget where its search left off. Every batch takes one plain SGD
step over the run's one name -> array mapping: the encoder weights and
whatever the loss trains alongside (class centers, bias, penalty centers), all
at the same fixed learning rate. After each epoch the encoder is frozen, the
dev files (a `dataset.EvalPack`) are embedded and averaged, and the dev EER
is recorded as a checkpoint.
"""

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from spklab import encoder as enc
from spklab import losses, sampling, scoring
from spklab.dataset import EvalPack
from spklab.errors import DomainError, TrainingDiverged, read_lines

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = "SPKLABCKPT"
CHECKPOINT_VERSION = 1
ARRAY_NAMES = enc.ENCODER_ARRAYS + losses.TRAINED_ARRAYS


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
        if self.augment_snr_db is not None:
            sampling.snr_bounds(self.augment_snr_db)
        self.hyper()  # a bad alpha, margin, lambda or penalty fails when a grid is built
        for name in losses.KINDS[self.loss_kind].domains:
            losses.check_domain(self.loss_kind, name, getattr(self, name))

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


@dataclass(eq=False)
class Run:
    """One training run: its config as given (the epochs trained so far are its checkpoints,
    not `config.epochs`), the params, which hold the loss state's arrays too, the loss state,
    the generator, and one checkpoint per epoch trained so far. A run that raised is spent."""

    config: TrainConfig
    params: enc.EncoderParams
    state: losses.LossState
    rng: np.random.Generator
    checkpoints: list[Checkpoint] = field(default_factory=list)


def init_run(config: TrainConfig, pool: sampling.TrainPool) -> Run:
    """A fresh run of `config` on `pool`, encoder then loss state drawn from the run seed. A
    pair or triplet kind's batch without 2+ speakers x 2+ chunks has no negatives or no
    positives: a DomainError before any draw."""
    mode = losses.KINDS[config.loss_kind].mode
    if mode in ("pairs", "triplets"):
        if config.chunks_per_speaker < 2:
            raise DomainError(f"{mode} mode needs at least 2 chunks per speaker")
        if config.speakers_per_batch < 2:
            raise DomainError(f"{mode} mode needs at least 2 speakers per batch")
    rng = np.random.default_rng(config.seed)
    params = enc.init_encoder(
        pool.feature_dim, config.hidden_dim, config.embedding_dim, rng, config.activation
    )
    state = losses.init_loss_state(
        config.loss_kind, len(pool), config.embedding_dim, config.hyper(), rng)
    params.loss_arrays = state.arrays
    return Run(config, params, state, rng)


def initial_checkpoint(
    pool: sampling.TrainPool, config: TrainConfig, dev_pack: EvalPack
) -> Checkpoint:
    """Untrained snapshot (epoch -1) under the run seed, dev EER included."""
    params = init_run(config, pool).params
    return Checkpoint(-1, params, dev_eer(params, dev_pack))


def continue_run(run: Run, pool: sampling.TrainPool, dev_pack: EvalPack, epochs: int) -> Run:
    """Train `run` on by `epochs` epochs of balanced-batch SGD, adding one checkpoint per
    epoch (parameters and dev EER after it), numbered on from the run's last; returns the
    run. Continuing by a epochs and then by b is bit for bit one continuation by a + b.
    Raises TrainingDiverged naming the epoch and batch if the loss or a parameter goes
    non-finite."""
    config, params = run.config, run.params
    # no numpy warning on overflow: a non-finite loss or parameter raises TrainingDiverged below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for epoch in range(len(run.checkpoints), len(run.checkpoints) + epochs):
            batches = sampling.epoch_batches(
                pool, config.speakers_per_batch, config.chunks_per_speaker, run.rng)
            for batch_index, (feats, labels) in enumerate(batches):
                if config.augment_snr_db is not None:
                    feats = sampling.augment_rows(feats, config.augment_snr_db, run.rng)
                try:
                    embeddings, cache = enc.forward(params, feats)
                    out = losses.evaluate_loss(config.loss_kind, embeddings, labels, run.state)
                except DomainError as exc:
                    # mid-run numeric failure (overflowed activations, non-finite
                    # loss inputs or value) is divergence, not a caller contract violation
                    raise TrainingDiverged(
                        f"loss evaluation failed at epoch {epoch} batch {batch_index}: {exc}",
                        epoch, batch_index,
                    ) from exc
                grads = enc.backward(params, cache, out.grad_embeddings) | out.grads
                enc.sgd_step(params, grads, config.learning_rate)
                if not all(np.all(np.isfinite(a)) for a in params.arrays().values()):
                    raise TrainingDiverged(f"non-finite parameter after epoch {epoch} batch "
                                           f"{batch_index}", epoch, batch_index)
            run.checkpoints.append(Checkpoint(epoch, params.copy(), dev_eer(params, dev_pack)))
    run.state.scratch.clear()  # a run waiting to go on (a grid's best) holds no batch temporaries
    return run


def train(pool: sampling.TrainPool, config: TrainConfig, dev_pack: EvalPack) -> list[Checkpoint]:
    """Run `config.epochs` epochs of a fresh run (`init_run`, `continue_run`); returns its
    checkpoints. Deterministic given the config seed."""
    return continue_run(init_run(config, pool), pool, dev_pack, config.epochs).checkpoints


def best_checkpoint(pool: sampling.TrainPool, config: TrainConfig, dev_pack: EvalPack,
                    checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """The best of a run's `checkpoints`, or with none the untrained snapshot of `config`."""
    return select_best(checkpoints) if checkpoints else initial_checkpoint(pool, config, dev_pack)


def select_best(checkpoints: Sequence[Checkpoint]) -> Checkpoint:
    """Checkpoint with the lowest dev EER; ties break to the earliest epoch."""
    if len(checkpoints) == 0:
        raise DomainError("select_best: empty checkpoint list")
    return min(checkpoints, key=lambda ckpt: ckpt.dev_eer)


def grid_search(pool: sampling.TrainPool, grid: Sequence[TrainConfig], budget_epochs: int,
                dev_pack: EvalPack) -> Run:
    """Train a run of every config for `budget_epochs` and return the one whose best dev EER
    is lowest (first in grid order on ties), ready to continue to its config's full epochs.
    A config that fails to train is disqualified with a logged warning.
    """
    if len(grid) == 0:
        raise DomainError("grid_search: empty grid")
    best_run, best_eer = None, None
    for config in grid:
        try:
            run = continue_run(init_run(config, pool), pool, dev_pack, budget_epochs)
        except (TrainingDiverged, DomainError) as exc:
            logger.warning("grid config %s disqualified: %s",
                           replace(config, epochs=budget_epochs), exc)
            continue
        candidate = select_best(run.checkpoints).dev_eer
        if best_eer is None or candidate < best_eer:
            best_run, best_eer = run, candidate
    if best_run is None:
        raise DomainError("grid_search: every configuration failed to train")
    return best_run


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
    with open(path, "w", encoding="utf-8") as fh:
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
    try:
        params = enc.EncoderParams(
            **{name: arrays[name] for name in enc.ENCODER_ARRAYS}, activation=activation,
            loss_arrays={name: arrays[name] for name in losses.TRAINED_ARRAYS if name in arrays},
        )
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
    return Checkpoint(epoch, params, eer_value), config_echo
