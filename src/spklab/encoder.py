"""Small feedforward encoder with hand-derived backpropagation.

One hidden layer maps input features to embeddings:

    z1 = x @ W1^T + b1;  h = act(z1);  e = h @ W2^T + b2

The hidden nonlinearity defaults to tanh (smooth everywhere, so finite
difference checks stay clean); `identity` and `sigmoid` are available.
Forward caches the activations needed by backward, stamped with the
parameter version so a stale cache is rejected instead of silently
producing wrong gradients.
"""

import copy
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spklab.embedding import stable_sigmoid
from spklab.errors import DomainError

# name -> (activation h = act(z), its derivative from z and h)
ACTIVATION_TABLE: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda z, h: 1.0 - h**2),
    "identity": (lambda z: z, lambda z, h: np.ones_like(z)),
    "sigmoid": (stable_sigmoid, lambda z, h: h * (1.0 - h)),
}
ACTIVATIONS = tuple(ACTIVATION_TABLE)
ENCODER_ARRAYS = ("w1", "b1", "w2", "b2")


@dataclass
class EncoderParams:
    """Trainable arrays of one run plus a version counter bumped on every
    in-place update (used to invalidate forward caches).

    The encoder's weights and biases are fields; `loss_arrays` holds what
    the loss trains alongside them (class centers, bias, penalty centers
    gamma) under those names. `arrays()` is the run's one ordered
    name -> array mapping that the SGD step and the checkpoints loop over.
    """

    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (embedding, hidden)
    b2: np.ndarray  # (embedding,)
    activation: str = "tanh"
    version: int = 0
    loss_arrays: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise DomainError(f"unknown activation {self.activation!r}")
        for name, ndim in zip(ENCODER_ARRAYS, (2, 1, 2, 1)):  # weight matrices, bias vectors
            shape = np.shape(getattr(self, name))
            if len(shape) != ndim:
                raise DomainError(f"encoder array {name!r} has shape {shape}, not {ndim}-D")
        if self.w1.shape[0] != self.b1.shape[0] or self.w2.shape[0] != self.b2.shape[0]:
            raise DomainError("bias lengths must match weight output dims")
        if self.w2.shape[1] != self.w1.shape[0]:
            raise DomainError("layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def embedding_dim(self) -> int:
        return self.w2.shape[0]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ENCODER_ARRAYS} | self.loss_arrays

    def copy(self) -> "EncoderParams":
        return copy.deepcopy(self)


@dataclass
class ForwardCache:
    """Activations saved by forward for the matching backward call."""

    x: np.ndarray
    z1: np.ndarray
    h: np.ndarray
    params_id: int
    params_version: int


def init_encoder(
    input_dim: int,
    hidden_dim: int,
    embedding_dim: int,
    rng: np.random.Generator,
    activation: str = "tanh",
) -> EncoderParams:
    """Centered-uniform initialization with scale 1/sqrt(fan_in); zero biases."""
    if min(input_dim, hidden_dim, embedding_dim) < 1:
        raise DomainError("all encoder dimensions must be positive")
    s1 = 1.0 / np.sqrt(input_dim)
    s2 = 1.0 / np.sqrt(hidden_dim)
    return EncoderParams(
        w1=rng.uniform(-s1, s1, size=(hidden_dim, input_dim)),
        b1=np.zeros(hidden_dim),
        w2=rng.uniform(-s2, s2, size=(embedding_dim, hidden_dim)),
        b2=np.zeros(embedding_dim),
        activation=activation,
    )


def forward(params: EncoderParams, features) -> tuple[np.ndarray, ForwardCache]:
    """Encode a (N, input_dim) batch, or an (F, n, input_dim) stack of batches, each
    slice by its own gemm and so bit for bit as if alone; returns embeddings and cache."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.input_dim:
        raise DomainError(
            f"features must be (N, {params.input_dim}), got shape {x.shape}"
        )
    z1 = x @ params.w1.T + params.b1
    h = ACTIVATION_TABLE[params.activation][0](z1)
    e = h @ params.w2.T + params.b2
    cache = ForwardCache(x=x, z1=z1, h=h, params_id=id(params), params_version=params.version)
    return e, cache


def backward(params: EncoderParams, cache: ForwardCache, grad_embeddings) -> dict[str, np.ndarray]:
    """Chain-rule gradients of sum(grad_embeddings * embeddings) w.r.t. the
    encoder's arrays, by name."""
    if cache.params_id != id(params) or cache.params_version != params.version:
        raise DomainError("stale forward cache: parameters changed since forward")
    de = np.asarray(grad_embeddings, dtype=np.float64)
    if de.shape != (cache.x.shape[0], params.embedding_dim):
        raise DomainError("grad_embeddings shape does not match the forward batch")
    dh = de @ params.w2
    dz1 = dh * ACTIVATION_TABLE[params.activation][1](cache.z1, cache.h)
    return {"w1": dz1.T @ cache.x, "b1": dz1.sum(axis=0),
            "w2": de.T @ cache.h, "b2": de.sum(axis=0)}


def sgd_step(params: EncoderParams, grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place plain-SGD update of every trainable array by its
    gradient of the same name; bumps the cache version."""
    for name, arr in params.arrays().items():
        arr -= lr * grads[name]
    params.version += 1
