"""Loss functions over speaker embeddings, each with exact analytic gradients.

Two families:

* classification losses: cross entropy over per-class logits, where the
  logit layer ranges from a plain linear map down to pure-angle variants
  (scaled cosine, additive angular margin), plus a center-penalty variant;
* contrast losses: cosine-based contrastive, hinge triplet, and sigmoid
  triplet terms summed over every tuple a batch admits (no mining). The
  training path computes them from the batch labels and one clipped batch
  cosine matrix S = U U^T (`*_dense`); the versions over explicit tuple
  lists (`contrastive_loss`, `triplet_loss_*`, fed by
  `sampling.form_pairs`/`form_triplets`) stay as their oracle.

Every loss returns a LossOutput holding the scalar value and gradients with
respect to the embeddings and, by name, any trainable arrays (class
centers, bias, per-class penalty centers gamma). `finite_difference_check`
is the verification oracle used by the test suite. `KINDS` is the one
table of loss kinds, read by training, the grids and config validation.

Gradient building block: with unit rows u_i = x_i/|x_i| and v_k = c_k/|c_k|
and s = u_i . v_k,

    d s / d x_i = (v_k - s * u_i) / |x_i|
    d s / d c_k = (u_i - s * v_k) / |c_k|

Every cosine-based loss stands on one layer: `_cosines` checks the rows
through the norms that normalize them and returns U, V, the norms and
S = U V^T (V = U for a batch), and `_cosine_grads` is the one gradient
block, dX = (W V - rowsum(W * S) U) / |x| for a loss that weighs S_ik with
W_ik. The angular logits take dC from it with the roles of U and V swapped;
the contrast losses weigh each pair of the batch from both ends, W = G + G^T.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spklab.embedding import normalize_rows, stable_sigmoid
from spklab.errors import DomainError
from spklab.sampling import TupleIndex

# Names of the arrays a loss can train, in the order they are drawn.
TRAINED_ARRAYS = ("centers", "bias", "gamma")

CENTER_PENALTIES = ("squared_cos_distance", "one_minus_cos_sq")

# Below this sine the additive-margin gradient factor falls back to the
# margin-free value (the exact factor sin(theta+m)/sin(theta) blows up).
AAM_SIN_GUARD = 1e-6


@dataclass(frozen=True)
class LossHyper:
    """Every hyper-parameter a `KINDS` row reads: the angular losses' scale and
    margin, and the center loss's penalty weight lam and penalty reading. Each
    is checked here, whether or not the run's kind reads it."""

    alpha: float = 1.0
    margin: float = 0.0
    lam: float = 1.0
    center_penalty: str = "squared_cos_distance"

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 <= self.margin < math.inf:
            raise DomainError(f"margin must be non-negative and finite, got {self.margin}")
        if not 0 <= self.lam < math.inf:
            raise DomainError(f"lambda must be non-negative and finite, got {self.lam}")
        if self.center_penalty not in CENTER_PENALTIES:
            raise DomainError(f"unknown center penalty {self.center_penalty!r}")


@dataclass
class ClassifierParams:
    """Trainable class centers (K, m) and optional bias (K,) of the logit layer."""

    centers: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise DomainError("centers must be a (K, m) matrix")
        if not np.all(np.isfinite(self.centers)):
            raise DomainError("centers contain non-finite entries")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.centers.shape[0],):
                raise DomainError("bias length must equal the number of centers")

    @property
    def n_classes(self) -> int:
        return self.centers.shape[0]


@dataclass
class CenterLossParams:
    """Per-class penalty centers gamma (K, m), weight lam >= 0, and the
    penalty reading used for the center term (see `center_loss`)."""

    gamma: np.ndarray
    lam: float = 1.0
    penalty: str = "squared_cos_distance"

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        if self.gamma.ndim != 2:
            raise DomainError("gamma must be a (K, m) matrix")
        if not np.all(np.isfinite(self.gamma)):
            raise DomainError("gamma contains non-finite entries")
        LossHyper(lam=self.lam, center_penalty=self.penalty)  # its lambda and penalty checks


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss plus gradients, shaped exactly like their parameters.

    `n_terms` counts the terms combined: the batch's rows for a classification loss, the
    pairs or triplets a contrast loss sums over. A loss builds its output once, from its
    final value and gradients, so the one check below (a finite, non-negative value)
    covers every kind's result.
    """

    value: float
    grad_embeddings: np.ndarray | None = None
    grads: dict[str, np.ndarray] = field(default_factory=dict)  # centers, bias, gamma
    n_terms: int = 0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"loss value is not finite: {self.value}")
        if self.value < 0.0:
            raise DomainError(f"loss value is negative: {self.value}")


@dataclass
class Logits:
    """Per-sample class logits with a vector-Jacobian product for backprop.

    `backward(g)` maps an upstream (N, K) gradient to the gradient w.r.t.
    the embeddings and a dict of gradients w.r.t. "centers" and, where the
    layer has one, "bias".
    """

    values: np.ndarray
    backward: Callable[[np.ndarray], tuple]


def _check_embeddings(embeddings, dim: int | None = None) -> np.ndarray:
    """The embeddings as a float64 (N, m) matrix, with m == `dim` where given. Only
    the shape is checked here: a layer checks the values once, as it reads them
    (`_cosines` through the norms, `logits_linear` entry by entry)."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise DomainError("embeddings must be a (N, m) matrix")
    if dim is not None and x.shape[1] != dim:
        raise DomainError(f"embedding dim {x.shape[1]} != center dim {dim}")
    return x


def _check_labels(labels, n_samples: int, n_classes: int | None = None) -> np.ndarray:
    """The labels as int64, one per sample and, where `n_classes` is given, in [0, n_classes)."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n_samples,):
        raise DomainError(f"labels must have shape ({n_samples},), got {y.shape}")
    if n_classes is not None and y.size and (y.min() < 0 or y.max() >= n_classes):
        raise DomainError(f"label out of range [0, {n_classes}): {y[np.argmax((y < 0) | (y >= n_classes))]}")
    return y


def logits_linear(embeddings, params: ClassifierParams) -> Logits:
    """Linear classification layer: sigma_i = x_i . C^T, plus the bias b where
    `params` has one; only then does `backward` return a "bias" gradient."""
    x = _check_embeddings(embeddings, params.centers.shape[1])
    if not np.all(np.isfinite(x)):
        raise DomainError(f"non-finite embedding at row {int(np.argmin(np.isfinite(x).all(axis=1)))}")
    return _linear(x, params)


def _linear(x: np.ndarray, params: ClassifierParams) -> Logits:
    """`logits_linear` of (N, m) float64 rows that the caller has checked."""
    c, b = params.centers, params.bias
    values = x @ c.T
    if b is not None:
        values += b

    def backward(g: np.ndarray):
        grads = {"centers": g.T @ x}
        if b is not None:
            grads["bias"] = g.sum(axis=0)
        return g @ c, grads

    return Logits(values, backward)


def logits_nobias(embeddings, params: ClassifierParams) -> Logits:
    """Bias-free linear layer: sigma_ik = x_i . c_k = |x||c| cos(theta), the
    linear layer over the centers alone."""
    return logits_linear(embeddings, ClassifierParams(params.centers))


def _cosines(embeddings, centers: np.ndarray | None = None, scratch=None):
    """(U, |x|, V, |c|, S): the unit rows and norms of the embeddings x, of the
    centers (the batch itself without them: V = U) and S = U V^T.

    Each input is checked once, by `normalize_rows`, through the norms that
    normalize it: a NaN, inf or zero row fails with a DomainError naming it.
    A batch's S, whose diagonal rounds past 1, is clipped to [-1, 1] as the
    tuple oracles' pair cosines are, and kept in `scratch` (see `_scratch`)."""
    x = _check_embeddings(embeddings, None if centers is None else centers.shape[1])
    u, xn = normalize_rows(x, "embedding")
    if centers is None:
        s = np.matmul(u, u.T, out=_scratch(scratch, "s", (len(u), len(u))))
        return u, xn, u, xn, np.clip(s, -1.0, 1.0, out=s)
    v, cn = normalize_rows(centers, "center")
    return u, xn, v, cn, u @ v.T


def _cosine_grads(w, ws, u, xn, v):
    """The building block above: the gradient of sum_ik W_ik S_ik w.r.t. the
    rows x behind U, given ws = W * S."""
    return (w @ v - ws.sum(axis=1, keepdims=True) * u) / xn[:, None]


def _angular_backward(w, u, xn, v, cn, s):
    """Gradients of sum_ik W_ik S_ik w.r.t. the embeddings and the centers, as
    a `Logits.backward` result."""
    ws = w * s
    return _cosine_grads(w, ws, u, xn, v), {"centers": _cosine_grads(w.T, ws.T, v, cn, u)}


def logits_coco(embeddings, params: ClassifierParams, hyper: LossHyper) -> Logits:
    """Pure-angle logits: sigma_ik = alpha * cos(theta_ik)."""
    u, xn, v, cn, s = _cosines(embeddings, params.centers)
    alpha = hyper.alpha
    return Logits(alpha * s, lambda g: _angular_backward(alpha * g, u, xn, v, cn, s))


def logits_aam(embeddings, labels, params: ClassifierParams, hyper: LossHyper) -> Logits:
    """Additive angular margin logits.

    The target-class entry becomes alpha * cos(theta + m) with
    theta = arccos(clamped cosine); other entries are plain alpha * cos.
    The target-entry derivative w.r.t. the cosine is sin(theta+m)/sin(theta),
    replaced by 1 when sin(theta) < AAM_SIN_GUARD.
    """
    check_domain("aam", "margin", hyper.margin)
    u, xn, v, cn, s = _cosines(embeddings, params.centers)
    y = _check_labels(labels, len(u), params.n_classes)
    alpha, m = hyper.alpha, hyper.margin
    rows = np.arange(len(u))

    s_target = np.clip(s[rows, y], -1.0, 1.0)
    theta = np.arccos(s_target)
    values = alpha * s.copy()
    values[rows, y] = alpha * np.cos(theta + m)
    sin_t = np.sin(theta)
    safe = sin_t >= AAM_SIN_GUARD
    factor = np.ones_like(s)
    factor[rows[safe], y[safe]] = np.sin(theta[safe] + m) / sin_t[safe]
    return Logits(values, lambda g: _angular_backward(alpha * g * factor, u, xn, v, cn, s))


def cross_entropy(logits: Logits, labels) -> LossOutput:
    """Cross entropy over a layer's per-sample logits; the gradient is pushed
    through the layer's `backward` to its embeddings and its centers and bias."""
    values = logits.values
    if values.ndim != 2:
        raise DomainError("logits must be a (N, K) matrix")
    if not np.all(np.isfinite(values)):
        raise DomainError("logits contain non-finite entries")
    n = values.shape[0]
    y = _check_labels(labels, n, values.shape[1])

    # the mean negative log-softmax of the target logit, max-subtracted
    z = values - values.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    dlogits = np.exp(logp)
    rows = np.arange(n)
    dlogits[rows, y] -= 1.0
    dlogits /= n
    grad_embeddings, grads = logits.backward(dlogits)
    return LossOutput(float(-logp[rows, y].mean()), grad_embeddings, grads, n_terms=n)


def center_loss(embeddings, labels, params: ClassifierParams, cparams: CenterLossParams) -> LossOutput:
    """Cross entropy plus a penalty pulling each embedding toward its class
    center gamma_k (angle-wise).

    Default penalty reading is the squared cosine distance (1 - cos)^2,
    matching the contrastive positive term; the `one_minus_cos_sq` switch
    selects the literal 1 - cos^2 reading instead. The cross-entropy part
    uses the linear logits, with the bias where `params` has one.
    """
    x = _check_embeddings(embeddings, params.centers.shape[1])
    if cparams.gamma.shape != params.centers.shape:
        raise DomainError("gamma must have the same shape as the centers")
    u, xn = normalize_rows(x, "embedding")  # the one check of the rows, through their norms
    y = np.asarray(labels, dtype=np.int64)
    ce = cross_entropy(_linear(x, params), y)  # checks the labels against the centers

    gamma_used = cparams.gamma[y]
    g_unit, g_norms = normalize_rows(gamma_used, "gamma row")
    s = np.clip((u * g_unit).sum(axis=1), -1.0, 1.0)

    if cparams.penalty == "squared_cos_distance":
        pen = (1.0 - s) ** 2
        dpen = -2.0 * (1.0 - s)
    else:  # one_minus_cos_sq
        pen = 1.0 - s**2
        dpen = -2.0 * s

    lam = cparams.lam
    w = 0.5 * lam * dpen
    grad_gamma = np.zeros_like(cparams.gamma)
    np.add.at(grad_gamma, y, (w / g_norms)[:, None] * (u - s[:, None] * g_unit))
    return LossOutput(float(ce.value + 0.5 * lam * pen.sum()),
                      ce.grad_embeddings + (w / xn)[:, None] * (g_unit - s[:, None] * u),
                      ce.grads | {"gamma": grad_gamma}, n_terms=ce.n_terms)


def _pair_cosines(u: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return np.clip((u[i] * u[j]).sum(axis=1), -1.0, 1.0)


def _accumulate_pair_grads(dx, u, xn, i, j, s, w):
    """dx[i] += w * d cos(x_i, x_j) / d x_i, and symmetrically for j."""
    np.add.at(dx, i, (w / xn[i])[:, None] * (u[j] - s[:, None] * u[i]))
    np.add.at(dx, j, (w / xn[j])[:, None] * (u[i] - s[:, None] * u[j]))


def contrastive_loss(embeddings, pairs: TupleIndex, hyper: LossHyper) -> LossOutput:
    """Cosine contrastive loss summed over explicit pair lists.

    Positive pairs contribute (1 - cos)^2; negative pairs contribute
    max(m - (1 - cos), 0)^2. The hinge subgradient at exactly zero
    activation is 0.
    """
    check_domain("contrastive", "margin", hyper.margin)
    x = _check_embeddings(embeddings)
    for name, idx in (("positive", pairs.positives), ("negative", pairs.negatives)):
        if idx.size and np.any(idx[:, 0] == idx[:, 1]):
            raise DomainError(f"{name} pair references the same index twice")
        if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
            raise DomainError(f"{name} pair index out of range")

    u, xn = normalize_rows(x, "embedding")
    dx = np.zeros_like(x)
    value = 0.0

    if len(pairs.positives):
        i, j = pairs.positives[:, 0], pairs.positives[:, 1]
        s = _pair_cosines(u, i, j)
        value += float(((1.0 - s) ** 2).sum())
        _accumulate_pair_grads(dx, u, xn, i, j, s, -2.0 * (1.0 - s))

    if len(pairs.negatives):
        i, j = pairs.negatives[:, 0], pairs.negatives[:, 1]
        s = _pair_cosines(u, i, j)
        h = hyper.margin - (1.0 - s)
        active = h > 0
        value += float((h[active] ** 2).sum())
        _accumulate_pair_grads(dx, u, xn, i, j, s, np.where(active, 2.0 * h, 0.0))

    n_terms = len(pairs.positives) + len(pairs.negatives)
    return LossOutput(value, grad_embeddings=dx, n_terms=n_terms)


def _check_triplets(embeddings, labels, triplets: np.ndarray):
    """The embeddings of an explicit triplet list, checked with the list, and
    their unit rows and norms."""
    x = _check_embeddings(embeddings)
    y = _check_labels(labels, len(x))
    if triplets.size:
        if triplets.min() < 0 or triplets.max() >= x.shape[0]:
            raise DomainError("triplet index out of range")
        a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
        if np.any(a == p):
            raise DomainError("triplet uses the same sample as anchor and positive")
        if np.any(y[a] != y[p]) or np.any(y[a] == y[n]):
            raise DomainError("triplet labels must satisfy y_a == y_p != y_n")
    return x, *normalize_rows(x, "embedding")


def _triplet_grads(x, u, xn, triplets, w_an, w_ap):
    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    s_ap = _pair_cosines(u, a, p)
    s_an = _pair_cosines(u, a, n)
    dx = np.zeros_like(x)
    np.add.at(dx, a, (w_an / xn[a])[:, None] * (u[n] - s_an[:, None] * u[a])
              + (w_ap / xn[a])[:, None] * (u[p] - s_ap[:, None] * u[a]))
    np.add.at(dx, p, (w_ap / xn[p])[:, None] * (u[a] - s_ap[:, None] * u[p]))
    np.add.at(dx, n, (w_an / xn[n])[:, None] * (u[a] - s_an[:, None] * u[n]))
    return dx


def triplet_loss_hinge(embeddings, labels, tuples: TupleIndex, hyper: LossHyper) -> LossOutput:
    """Hinge triplet loss: sum of max(cos(a,n) - cos(a,p) + m, 0)."""
    triplets = tuples.triplets
    x, u, xn = _check_triplets(embeddings, labels, triplets)
    if len(triplets) == 0:
        return LossOutput(0.0, grad_embeddings=np.zeros_like(x))

    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    g = _pair_cosines(u, a, n) - _pair_cosines(u, a, p) + hyper.margin
    active = g > 0
    value = float(g[active].sum())
    w = active.astype(np.float64)
    dx = _triplet_grads(x, u, xn, triplets, w, -w)
    return LossOutput(value, grad_embeddings=dx, n_terms=len(triplets))


def triplet_loss_sigmoid(embeddings, labels, tuples: TupleIndex, hyper: LossHyper) -> LossOutput:
    """Sigmoid triplet loss: sum of sigmoid(alpha * (cos(a,n) - cos(a,p))).

    Every term lies in (0, 1), so large violations saturate instead of
    dominating the batch; no margin parameter is involved.
    """
    triplets = tuples.triplets
    x, u, xn = _check_triplets(embeddings, labels, triplets)
    if len(triplets) == 0:
        return LossOutput(0.0, grad_embeddings=np.zeros_like(x))

    a, p, n = triplets[:, 0], triplets[:, 1], triplets[:, 2]
    sig = stable_sigmoid(hyper.alpha * (_pair_cosines(u, a, n) - _pair_cosines(u, a, p)))
    value = float(sig.sum())
    w = hyper.alpha * sig * (1.0 - sig)
    dx = _triplet_grads(x, u, xn, triplets, w, -w)
    return LossOutput(value, grad_embeddings=dx, n_terms=len(triplets))


def _scratch(scratch: dict[str, np.ndarray] | None, name: str, shape) -> np.ndarray:
    """An uninitialised float64 array of `shape` for a dense kernel's temporary: a fresh one
    without `scratch`, else the one kept there under `name`, made again only when the batch
    shape changes. A run passes its `LossState.scratch`, so its batches reuse their (N, N)
    and (N, k, N) temporaries instead of faulting in new pages for them on every batch."""
    if scratch is None:
        return np.empty(shape)
    array = scratch.get(name)
    if array is None or array.shape != shape:
        array = scratch[name] = np.empty(shape)
    return array


def contrastive_loss_dense(embeddings, labels, hyper: LossHyper, scratch=None) -> LossOutput:
    """`contrastive_loss` over every unordered pair of the batch, from the
    batch cosine matrix and the label mask.

    The negative hinge max(m - (1 - S), 0) is 0 off the active pairs, so
    its square and doubled value are the negative terms and slopes; the
    positive ones are copied over them where the labels agree. Only the
    pairs above the diagonal count. `scratch` (see `_scratch`) keeps the
    (N, N) temporaries from batch to batch."""
    check_domain("contrastive", "margin", hyper.margin)
    u, xn, _, _, s = _cosines(embeddings, scratch=scratch)
    y = _check_labels(labels, len(u))
    n = len(y)
    same = y[:, None] == y[None, :]
    upper = np.arange(n)[:, None] < np.arange(n)
    dist = np.subtract(1.0, s, out=_scratch(scratch, "dist", s.shape))
    h = np.subtract(hyper.margin, dist, out=_scratch(scratch, "h", s.shape))
    np.maximum(h, 0.0, out=h)
    terms = np.square(h, out=_scratch(scratch, "terms", s.shape))
    np.square(dist, out=terms, where=same)
    h *= 2.0
    np.multiply(dist, -2.0, out=h, where=same)
    np.copyto(h, 0.0, where=~upper)
    g_sym = np.add(h, h.T, out=_scratch(scratch, "g_sym", s.shape))  # W = G + G^T
    dx = _cosine_grads(g_sym, np.multiply(g_sym, s, out=h), u, xn, u)
    value = float(terms[upper].sum())
    return LossOutput(value, grad_embeddings=dx, n_terms=n * (n - 1) // 2)


def _anchor_positives(y: np.ndarray):
    """(P, valid) of `_triplet_loss_dense` from one stable argsort of the
    labels, which lists each label's samples in index order: anchor a's
    j-th positive is entry j of its label's run, or entry j + 1 from a's
    own place in the run on."""
    n = len(y)
    order = np.argsort(y, kind="stable")
    sorted_y = y[order]
    start = np.searchsorted(sorted_y, y)
    count = np.searchsorted(sorted_y, y, side="right") - start - 1
    place = np.empty(n, dtype=np.intp)
    place[order] = np.arange(n)
    j = np.arange(count.max(initial=0))
    at = start[:, None] + j
    at += at >= place[:, None]
    valid = j < count[:, None]
    p = np.where(valid, order[np.minimum(at, n - 1)], np.arange(n)[:, None])
    return p, valid


def _triplet_loss_dense(embeddings, labels, term, slope, scratch=None) -> LossOutput:
    """Sum of term(S[a, n] - S[a, p]) over every (anchor, positive, negative)
    of the batch with y_a == y_p != y_n and a != p.

    The differences form an (N, k, N) tensor: row a of P lists the anchor's
    positives in index order, padded with a itself up to k, the largest
    positive count, and `valid` marks the real ones, so unbalanced labels
    work too. `term` maps the differences to the terms and `slope` the
    terms to d term / d difference, each in place on the one tensor and
    given a second tensor of its shape to use; the slopes are finite and
    never negative, so multiplying by the mask zeroes the padding and the
    same-label negatives to +0.0. `scratch` (see `_scratch`) keeps the
    (N, N) and (N, k, N) temporaries from batch to batch.
    """
    u, xn, _, _, s = _cosines(embeddings, scratch=scratch)
    y = _check_labels(labels, len(u))
    p, valid = _anchor_positives(y)
    rows = np.arange(len(y))[:, None]
    mask = valid[:, :, None] & (y[:, None] != y[None, :])[:, None, :]
    spare = _scratch(scratch, "spare", mask.shape)
    terms = term(np.subtract(s[:, None, :], s[rows, p][:, :, None],
                             out=_scratch(scratch, "terms", mask.shape)), spare)
    value = float(terms[mask].sum())
    w = slope(terms, spare)
    w *= mask
    g = np.sum(w, axis=1, out=_scratch(scratch, "g", s.shape))  # weight on S[a, n]
    g[rows, p] -= w.sum(axis=2)  # weight on S[a, p]; padding adds 0 to S[a, a]
    g_sym = np.add(g, g.T, out=_scratch(scratch, "g_sym", s.shape))  # W = G + G^T
    dx = _cosine_grads(g_sym, np.multiply(g_sym, s, out=g), u, xn, u)
    return LossOutput(value, grad_embeddings=dx, n_terms=int(np.count_nonzero(mask)))


def triplet_loss_hinge_dense(embeddings, labels, hyper: LossHyper, scratch=None) -> LossOutput:
    """`triplet_loss_hinge` over every triplet of the batch."""
    def hinge(d, spare):
        d += hyper.margin
        return np.maximum(d, 0.0, out=d)

    def step(t, spare):  # t > 0 exactly where the hinge is active
        return np.greater(t, 0.0, out=t)

    return _triplet_loss_dense(embeddings, labels, hinge, step, scratch)


def triplet_loss_sigmoid_dense(embeddings, labels, hyper: LossHyper, scratch=None) -> LossOutput:
    """`triplet_loss_sigmoid` over every triplet of the batch."""
    def sigmoid(d, spare):
        d *= hyper.alpha
        return stable_sigmoid(d, out=d, den=spare)

    def slope(sig, spare):  # alpha * sig * (1 - sig)
        complement = np.subtract(1.0, sig, out=spare)
        sig *= hyper.alpha
        sig *= complement
        return sig

    return _triplet_loss_dense(embeddings, labels, sigmoid, slope, scratch)


def finite_difference_check(loss_fn, inputs: dict, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` maps a dict of named arrays to (value, grads) where grads
    carries one array per input name. Every coordinate of every input is
    perturbed by +/- epsilon; the error per coordinate is
    |analytic - numeric| / max(1, |numeric|). Reports, never raises.
    """
    if not 0 < epsilon <= 1e-2:
        raise DomainError(f"epsilon must lie in (0, 1e-2], got {epsilon}")
    arrays = {k: np.asarray(v, dtype=np.float64).copy() for k, v in inputs.items()}
    _, analytic = loss_fn(arrays)

    worst = 0.0
    for name, arr in arrays.items():
        grad = np.asarray(analytic[name], dtype=np.float64)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + epsilon
            up, _ = loss_fn(arrays)
            flat[idx] = orig - epsilon
            down, _ = loss_fn(arrays)
            flat[idx] = orig
            numeric = (up - down) / (2.0 * epsilon)
            err = abs(grad.reshape(-1)[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


@dataclass
class LossState:
    """One run's loss: its hyper-parameters (all of them, in `hyper`), the
    arrays it trains, by name: "centers", "bias" and "gamma" where the loss
    kind has them, and in `scratch` the dense contrast kernels' temporaries
    between batches."""

    hyper: LossHyper
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class LossKind:
    """What a loss kind is: the `sampling.form_tuples` mode of its batches
    ("classification", "pairs" or "triplets"), the arrays it trains (of
    TRAINED_ARRAYS, in draw order), the hyper-parameters it reads (of "alpha",
    "margin", "lam"), the TrainConfig fields where its tuned point differs from
    TrainConfig's defaults (aam's point), its evaluation of one batch as
    (embeddings, labels, LossState) -> LossOutput, and the closed range of each
    hyper-parameter it bounds beyond LossHyper's."""

    mode: str
    arrays: tuple[str, ...]
    reads: tuple[str, ...]
    tuned: dict[str, object]
    evaluate: Callable[[np.ndarray, np.ndarray, LossState], LossOutput]
    domains: dict[str, tuple[float, float]] = field(default_factory=dict)


def _classifier(state: LossState) -> ClassifierParams:
    return ClassifierParams(state.arrays["centers"], state.arrays.get("bias"))


def _linear_ce(embeddings, labels, state: LossState) -> LossOutput:
    """Cross entropy over the linear layer, which is defined at a zero embedding; a batch
    rejects a zero row here all the same, naming it as every other kind does."""
    x = _check_embeddings(embeddings, state.arrays["centers"].shape[1])
    normalize_rows(x)  # the one check of the rows, through the norms every cosine layer checks
    return cross_entropy(_linear(x, _classifier(state)), labels)


_CLASSIFICATION_TUNED = {"learning_rate": 0.1, "margin": 0.0}

KINDS: dict[str, LossKind] = {
    "ce": LossKind("classification", ("centers", "bias"), (), _CLASSIFICATION_TUNED, _linear_ce),
    "ce_nobias": LossKind("classification", ("centers",), (), _CLASSIFICATION_TUNED, _linear_ce),
    "coco": LossKind(
        "classification", ("centers",), ("alpha",), _CLASSIFICATION_TUNED,
        lambda x, y, st: cross_entropy(logits_coco(x, _classifier(st), st.hyper), y)),
    "aam": LossKind(
        "classification", ("centers",), ("alpha", "margin"), {},
        lambda x, y, st: cross_entropy(logits_aam(x, y, _classifier(st), st.hyper), y),
        domains={"margin": (0.0, 0.5)}),
    "center": LossKind(
        "classification", ("centers", "bias", "gamma"), ("lam",), _CLASSIFICATION_TUNED,
        lambda x, y, st: center_loss(x, y, _classifier(st), CenterLossParams(
            st.arrays["gamma"], st.hyper.lam, st.hyper.center_penalty))),
    "contrastive": LossKind(
        "pairs", (), ("margin",),
        {"learning_rate": 0.1, "margin": 0.2, "speakers_per_batch": 20, "chunks_per_speaker": 3},
        lambda x, y, st: contrastive_loss_dense(x, y, st.hyper, st.scratch),
        domains={"margin": (math.ulp(0.0), math.inf)}),  # ulp(0.0): the least float above 0
    "triplet_hinge": LossKind(
        "triplets", (), ("margin",),
        {"margin": 0.1, "speakers_per_batch": 40, "chunks_per_speaker": 3},
        lambda x, y, st: triplet_loss_hinge_dense(x, y, st.hyper, st.scratch)),
    "triplet_sigmoid": LossKind(
        "triplets", (), ("alpha",),
        {"margin": 0.0, "speakers_per_batch": 40, "chunks_per_speaker": 3},
        lambda x, y, st: triplet_loss_sigmoid_dense(x, y, st.hyper, st.scratch)),
}
LOSS_KINDS = tuple(KINDS)


def loss_kind(name: str) -> LossKind:
    """The table row of a loss kind; a DomainError for an unknown name."""
    if name not in KINDS:
        raise DomainError(f"unknown loss kind {name!r}")
    return KINDS[name]


def check_domain(kind: str, name: str, value: float) -> None:
    """A DomainError unless `value` lies in the closed range the kind's row gives `name`."""
    lo, hi = KINDS[kind].domains[name]
    if not lo <= value <= hi:
        raise DomainError(f"{kind} {name} must lie in [{lo}, {hi}], got {value}")


def init_loss_state(
    kind: str, n_classes: int, embedding_dim: int, hyper: LossHyper, rng: np.random.Generator
) -> LossState:
    """A run's loss state under `hyper`, which checked every hyper-parameter
    when it was made, with the arrays the kind trains, in its row's draw order.

    Centers and gamma are drawn from a centered uniform distribution with
    scale 1/sqrt(m); the bias starts at zero and draws nothing.
    """
    state = LossState(hyper)
    for name in loss_kind(kind).arrays:
        if name == "bias":
            state.arrays[name] = np.zeros(n_classes)
        else:
            scale = 1.0 / np.sqrt(embedding_dim)
            state.arrays[name] = rng.uniform(-scale, scale, size=(n_classes, embedding_dim))
    return state


def evaluate_loss(kind, embeddings, labels, state: LossState) -> LossOutput:
    """Evaluate one batch with the kind's table row; the contrast losses take
    every tuple of the batch from its labels."""
    return loss_kind(kind).evaluate(embeddings, labels, state)
