"""Shared test helpers: random loss instances away from hinge kinks, the
finite-difference adapters per loss kind, the brute-force EER oracle, the
float-sweep EER and DET oracle, the per-trial scoring oracle, the embedding
dict as scoring inputs, trials and their scores as `scoring.Scores`, the
datasets, training pools and evaluation packs of given files, and a fixture
that records the seed of every numpy generator built.
"""

import numpy as np
import pytest

from spklab import dataset, losses, sampling, scoring
from spklab.embedding import cosine_similarity
from spklab.errors import DomainError


# Hyper-parameters used for random gradient-check instances (the tuned
# operating points of each loss).
INSTANCE_HYPER = {
    "ce": losses.LossHyper(alpha=1.0, margin=0.0),
    "ce_nobias": losses.LossHyper(alpha=1.0, margin=0.0),
    "coco": losses.LossHyper(alpha=10.0, margin=0.0),
    "aam": losses.LossHyper(alpha=10.0, margin=0.05),
    "center": losses.LossHyper(alpha=1.0, margin=0.0),
    "contrastive": losses.LossHyper(alpha=1.0, margin=0.2),
    "triplet_hinge": losses.LossHyper(alpha=1.0, margin=0.1),
    "triplet_sigmoid": losses.LossHyper(alpha=10.0, margin=0.0),
}

KINK_GAP = 1e-3


def _labels_with_tuples(rng, batch, n_classes):
    """Labels guaranteeing at least one positive pair and one negative."""
    while True:
        y = rng.integers(0, n_classes, size=batch)
        if len(np.unique(y)) >= 2 and len(np.unique(y)) < batch:
            return y


def _near_kink(kind, x, y, tuples, hyper):
    """True when any hinge argument sits within KINK_GAP of its boundary,
    or an embedding/center cosine is close enough to +/-1 to trip the
    angular-margin guard."""
    from spklab.embedding import normalize_rows

    u, _ = normalize_rows(x)
    if kind == "contrastive" and len(tuples.negatives):
        i, j = tuples.negatives[:, 0], tuples.negatives[:, 1]
        s = (u[i] * u[j]).sum(axis=1)
        if np.any(np.abs(hyper.margin - (1.0 - s)) < KINK_GAP):
            return True
    if kind == "triplet_hinge" and len(tuples.triplets):
        a, p, n = tuples.triplets.T
        g = (u[a] * u[n]).sum(axis=1) - (u[a] * u[p]).sum(axis=1) + hyper.margin
        if np.any(np.abs(g) < KINK_GAP):
            return True
    return False


def draw_instance(kind, rng, dim=8, n_classes=5, batch=6):
    """Random embeddings/labels/params for one gradient-check instance,
    re-drawn until no tuple term sits near a hinge kink and no cosine is
    extreme enough to trip the angular guard."""
    hyper = INSTANCE_HYPER[kind]
    while True:
        x = rng.standard_normal((batch, dim))
        y = _labels_with_tuples(rng, batch, n_classes)
        scale = 1.0 / np.sqrt(dim)
        centers = rng.uniform(-scale, scale, size=(n_classes, dim))
        bias = 0.1 * rng.standard_normal(n_classes)
        gamma = rng.uniform(-scale, scale, size=(n_classes, dim))
        if kind == "contrastive":
            tuples = sampling.form_pairs(y)
        elif losses.KINDS[kind].mode == "triplets":
            tuples = sampling.form_triplets(y)
        else:
            tuples = sampling.TupleIndex()
        from spklab.embedding import normalize_rows

        u, _ = normalize_rows(x)
        v, _ = normalize_rows(centers)
        if kind in ("coco", "aam", "center") and np.abs(u @ v.T).max() > 0.999:
            continue
        if _near_kink(kind, x, y, tuples, hyper):
            continue
        return x, y, centers, bias, gamma, tuples, hyper


def fd_callable(kind, y, tuples, hyper, lam=1.0, penalty="squared_cos_distance"):
    """(inputs -> (value, grads)) closure for finite_difference_check.

    The input dict always carries 'x'; classification kinds add 'c' (and
    'b'/'g' where the loss trains them).
    """

    def fn(arrays):
        x = arrays["x"]
        if kind in ("ce", "center"):
            params = losses.ClassifierParams(arrays["c"], arrays["b"])
        elif kind in ("ce_nobias", "coco", "aam"):
            params = losses.ClassifierParams(arrays["c"])
        else:
            params = None

        if kind == "ce":
            out = losses.cross_entropy(losses.logits_linear(x, params), y)
            return out.value, {"x": out.grad_embeddings, "c": out.grads["centers"], "b": out.grads["bias"]}
        if kind == "ce_nobias":
            out = losses.cross_entropy(losses.logits_nobias(x, params), y)
            return out.value, {"x": out.grad_embeddings, "c": out.grads["centers"]}
        if kind == "coco":
            out = losses.cross_entropy(losses.logits_coco(x, params, hyper), y)
            return out.value, {"x": out.grad_embeddings, "c": out.grads["centers"]}
        if kind == "aam":
            out = losses.cross_entropy(losses.logits_aam(x, y, params, hyper), y)
            return out.value, {"x": out.grad_embeddings, "c": out.grads["centers"]}
        if kind == "center":
            cparams = losses.CenterLossParams(arrays["g"], lam=lam, penalty=penalty)
            out = losses.center_loss(x, y, params, cparams)
            return out.value, {
                "x": out.grad_embeddings, "c": out.grads["centers"],
                "b": out.grads["bias"], "g": out.grads["gamma"],
            }
        if kind == "contrastive":
            out = losses.contrastive_loss(x, tuples, hyper)
            return out.value, {"x": out.grad_embeddings}
        if kind == "triplet_hinge":
            out = losses.triplet_loss_hinge(x, y, tuples, hyper)
            return out.value, {"x": out.grad_embeddings}
        if kind == "triplet_sigmoid":
            out = losses.triplet_loss_sigmoid(x, y, tuples, hyper)
            return out.value, {"x": out.grad_embeddings}
        raise ValueError(kind)

    return fn


def fd_inputs(kind, x, centers, bias, gamma):
    inputs = {"x": x}
    if kind in ("ce", "ce_nobias", "coco", "aam", "center"):
        inputs["c"] = centers
    if kind in ("ce", "center"):
        inputs["b"] = bias
    if kind == "center":
        inputs["g"] = gamma
    return inputs


def gradient_check_instance(kind, rng, epsilon=1e-5, **draw_kw):
    """Max relative finite-difference error for one random instance."""
    x, y, centers, bias, gamma, tuples, hyper = draw_instance(kind, rng, **draw_kw)
    fn = fd_callable(kind, y, tuples, hyper)
    return losses.finite_difference_check(fn, fd_inputs(kind, x, centers, bias, gamma), epsilon)


def brute_force_eer_bracket(tar, non):
    """Direct threshold scan over midpoints plus +/-inf.

    Returns (lo, hi): the bracket that the crossing of the step-function
    FAR/FRR curves must fall inside. lo == hi when a candidate threshold
    hits FAR == FRR exactly.
    """
    tar = np.asarray(tar, dtype=np.float64)
    non = np.asarray(non, dtype=np.float64)
    scores = np.unique(np.concatenate([tar, non]))
    mids = (scores[:-1] + scores[1:]) / 2.0
    cands = np.concatenate([[-np.inf], mids, [np.inf]])
    far = (non[None, :] >= cands[:, None]).mean(axis=1)
    frr = (tar[None, :] < cands[:, None]).mean(axis=1)
    d = far - frr
    k = int(np.argmax(d <= 0))
    if d[k] == 0.0:
        return float(far[k]), float(far[k])
    j = k - 1
    lo = max(frr[j], far[k])
    hi = min(far[j], frr[k])
    return float(lo), float(hi)


def sweep_operating_points(tar, non):
    """Thresholds (np.unique of both classes plus a sentinel past the max), FAR and FRR as
    floats over them: the EER sweep that the integer count kernel replaced, its oracle."""
    thresholds = np.unique(np.concatenate([tar, non]))
    below = [np.append(np.searchsorted(np.sort(c), thresholds), c.size) for c in (tar, non)]
    far, frr = (non.size - below[1]) / non.size, below[0] / tar.size
    return np.append(thresholds, thresholds[-1] + 1.0), far, frr


def sweep_eer(tar, non):
    """(EER, threshold) of the float sweep: at the first point with FAR - FRR <= 0 if it is
    0 there, else interpolated from the point before."""
    thresholds, far, frr = sweep_operating_points(tar, non)
    d = far - frr
    k = int(np.argmax(d <= 0))
    u = d[k - 1] / (d[k - 1] - d[k])
    return tuple(float(v[k] if d[k] == 0.0 else v[k - 1] + u * (v[k] - v[k - 1]))
                 for v in (far, thresholds))


def rows_and_index(embeddings, trials):
    """A {file_id: vector} dict and a trial list as the scoring functions take them: the
    vectors as the rows of one matrix in sorted file id order, and the trials' index over
    those rows."""
    ids = sorted(embeddings)
    rows = np.array([embeddings[file_id] for file_id in ids], dtype=np.float64)
    return rows, scoring.TrialIndex.of(trials, ids)


def scores_of(trials, values):
    """Trials and one score each as the `scoring.Scores` that the EER, the bootstrap and
    the writers take: the values over the trials' index in sorted file id order."""
    ids = sorted({ref for t in trials for ref in (t.enroll, t.test)})
    return scoring.Scores(scoring.TrialIndex.of(trials, ids), np.array(values, dtype=np.float64))


def score_per_trial(trials, embeddings):
    """Each trial scored alone with cosine_similarity over a {file_id: vector} dict; an error
    names the first trial that fails. The oracle of the staged scoring paths."""
    scores = []
    for t in trials:
        for ref in (t.enroll, t.test):
            if ref not in embeddings:
                raise DomainError(f"trial {t.enroll} vs {t.test}: unknown file id {ref!r}")
        try:
            s = cosine_similarity(embeddings[t.enroll], embeddings[t.test])
        except DomainError as exc:
            raise DomainError(f"trial {t.enroll} vs {t.test}: {exc}") from exc
        scores.append(s)
    return scores_of(trials, scores)


def dataset_of(files, trials=(), partition="dev", speakers=None):
    """A dataset of the {file_id: (n, d) chunk rows} `files`, all in `partition`, with
    `trials` as its dev trials: the files end to end in file-id order in one matrix, built
    by `dataset._dataset`, which `generate_dataset` and `load_dataset` share, so its pools
    and packs are the views and copies a command gets. File `fid` is speaker
    `speakers[fid]`, or speaker 0 without `speakers`."""
    ids = sorted(files)
    blocks = [np.asarray(files[fid], dtype=np.float64) for fid in ids]
    starts = np.cumsum([0] + [len(b) for b in blocks])
    layout = [(fid, partition, speakers[fid] if speakers else 0, int(start), len(block))
              for fid, start, block in zip(ids, starts, blocks)]
    return dataset._dataset(np.concatenate(blocks), layout, list(trials), [])


def pack_of(files, trials=()):
    """The `training.EvalPack` of the {file_id: (n, d) chunk rows} `files` and `trials`, as
    a dataset stages its dev partition (see `dataset_of`)."""
    return dataset_of(files, trials).eval_pack("dev")


def pool_of(blocks):
    """The `sampling.TrainPool` of the {label: (n, d) chunk rows} `blocks`, labels 0..K-1,
    as a dataset hands it out: label k is train speaker k with one file, `s0000`, `s0001`, ..."""
    files = {f"s{k:04d}": rows for k, rows in blocks.items()}
    return dataset_of(files, partition="train",
                      speakers={fid: int(fid[1:]) for fid in files}).train_pool()


# bound at import, so that a patched np.random.default_rng does not count the oracles' generators
DEFAULT_RNG = np.random.default_rng


@pytest.fixture()
def made_generators(monkeypatch):
    """Seeds of the `np.random.default_rng` generators built from here on."""
    seeds = []

    def counting(seed=None):
        seeds.append(seed)
        return DEFAULT_RNG(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds
