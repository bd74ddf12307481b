"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
import zlib
from dataclasses import replace

import numpy as np

from conftest import brute_force_eer_bracket, draw_instance, fd_callable, fd_inputs
from spklab import dataset as ds
from spklab import experiment, losses, sampling, scoring, training
from spklab.cli import main
from spklab.config import empty_config
from spklab.errors import DegenerateCohortError

EPSILON = 1e-5
GRAD_TOL = 1e-4


def _report(n, desc, ok, detail=""):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} - {desc}{detail}")
    assert ok, f"criterion {n} failed: {desc}{detail}"


def test_criterion_1_gradient_oracle():
    """All 8 loss variants match central differences on 100 random
    instances each (dim 8, K=5, batch 6, kink-adjacent draws re-drawn)."""
    start = time.time()
    worst = {}
    for kind in losses.LOSS_KINDS:
        rng = np.random.default_rng(1000 + zlib.crc32(kind.encode()) % 1000)
        errs = []
        for _ in range(100):
            x, y, centers, bias, gamma, tuples, hyper = draw_instance(kind, rng)
            fn = fd_callable(kind, y, tuples, hyper)
            errs.append(losses.finite_difference_check(
                fn, fd_inputs(kind, x, centers, bias, gamma), EPSILON
            ))
        worst[kind] = max(errs)
    elapsed = time.time() - start
    ok = all(err <= GRAD_TOL for err in worst.values()) and elapsed < 30.0
    detail = (f": worst rel err {max(worst.values()):.2e} "
              f"({max(worst, key=worst.get)}), {elapsed:.1f}s")
    _report(1, "gradient oracle for 8 loss variants", ok, detail)


def test_criterion_2_identity_suite():
    """AAM(m=0) == CoCo within 1e-12; alpha*nobias == CoCo on unit inputs
    within 1e-9; center loss at lambda=0 equals cross entropy exactly;
    every sigmoid-triplet term lies strictly in (0, 1)."""
    rng = np.random.default_rng(2024)
    aam_vs_coco = 0.0
    for _ in range(1000):
        x = rng.standard_normal((5, 6))
        c = rng.standard_normal((4, 6))
        y = rng.integers(0, 4, size=5)
        hyper0 = losses.LossHyper(alpha=10.0, margin=0.0)
        coco = losses.logits_coco(x, losses.ClassifierParams(c), hyper0)
        aam = losses.logits_aam(x, y, losses.ClassifierParams(c), hyper0)
        aam_vs_coco = max(aam_vs_coco, float(np.abs(aam.values - coco.values).max()))
    ok = aam_vs_coco <= 1e-12

    chain = 0.0
    for _ in range(200):
        x = rng.standard_normal((5, 6))
        c = rng.standard_normal((4, 6))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        nobias = losses.logits_nobias(x, losses.ClassifierParams(c)).values
        coco = losses.logits_coco(
            x, losses.ClassifierParams(c), losses.LossHyper(alpha=10.0)
        ).values
        chain = max(chain, float(np.abs(10.0 * nobias - coco).max()))
    ok = ok and chain <= 1e-9

    center_exact = True
    for _ in range(100):
        x = rng.standard_normal((5, 6))
        y = rng.integers(0, 4, size=5)
        params = losses.ClassifierParams(rng.standard_normal((4, 6)), rng.standard_normal(4))
        gamma = rng.standard_normal((4, 6))
        cl = losses.center_loss(x, y, params, losses.CenterLossParams(gamma, lam=0.0))
        ce = losses.cross_entropy(losses.logits_linear(x, params), y)
        center_exact = center_exact and cl.value == ce.value
        center_exact = center_exact and np.array_equal(cl.grad_embeddings, ce.grad_embeddings)
        center_exact = center_exact and np.array_equal(cl.grads["centers"], ce.grads["centers"])
    ok = ok and center_exact

    sigmoid_ok = True
    for _ in range(100):
        x = rng.standard_normal((6, 5))
        y = np.array([0, 0, 1, 1, 2, 2])
        tuples = sampling.form_triplets(y)
        out = losses.triplet_loss_sigmoid(x, y, tuples, losses.LossHyper(alpha=10.0))
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        terms = []
        for a, p, n in tuples.triplets:
            z = 10.0 * (float(u[a] @ u[n]) - float(u[a] @ u[p]))
            terms.append(1.0 / (1.0 + math.exp(-z)))
        sigmoid_ok = sigmoid_ok and all(0.0 < t < 1.0 for t in terms)
        sigmoid_ok = sigmoid_ok and abs(out.value - sum(terms)) < 1e-9
    ok = ok and sigmoid_ok

    detail = f": aam-coco {aam_vs_coco:.1e}, chain {chain:.1e}"
    _report(2, "identity suite (margin-free, bias-free, lambda-free, sigmoid range)", ok, detail)


def test_criterion_3_scale_invariance():
    """CoCo and AAM loss values are unchanged (<= 1e-9) when every
    embedding and every center row is scaled by any positive factor."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal((6, 8))
        c = rng.standard_normal((5, 8))
        y = rng.integers(0, 5, size=6)
        s = float(rng.uniform(1e-4, 1e4))
        for kind in ("coco", "aam"):
            hyper = losses.LossHyper(alpha=10.0, margin=0.05 if kind == "aam" else 0.0)
            state_a = losses.LossState(hyper, {"centers": c})
            state_b = losses.LossState(hyper, {"centers": s * c})
            va = losses.evaluate_loss(kind, x, y, state_a).value
            vb = losses.evaluate_loss(kind, s * x, y, state_b).value
            worst = max(worst, abs(va - vb))
    ok = worst <= 1e-9
    _report(3, "pure-angle losses invariant to positive rescaling", ok,
            f": worst drift {worst:.1e}")


def test_criterion_4_eer_oracle():
    """Interpolated EER falls inside the brute-force threshold-scan bracket
    on 200 random score sets (equality to 1e-9 at exact crossings), and is
    exactly invariant to monotone transforms and trial order."""
    rng = np.random.default_rng(4242)
    bracket_ok = True
    exact_hits = 0
    invariance_ok = True
    for i in range(200):
        n_tar = int(rng.integers(1, 500))
        n_non = int(rng.integers(1, 500))
        if i % 3 == 0:
            # quantized scores force ties and exact crossings
            tar = np.round(rng.normal(0.4, 0.5, n_tar), 1)
            non = np.round(rng.normal(0.0, 0.5, n_non), 1)
        else:
            tar = rng.normal(0.4, 1.0, n_tar)
            non = rng.normal(0.0, 1.0, n_non)
        value, _ = scoring.eer_from_scores(tar, non)
        lo, hi = brute_force_eer_bracket(tar, non)
        bracket_ok = bracket_ok and (lo - 1e-12 <= value <= hi + 1e-12)
        if lo == hi:
            exact_hits += 1
            bracket_ok = bracket_ok and abs(value - lo) <= 1e-9

        v2, _ = scoring.eer_from_scores(2.0 * tar + 3.0, 2.0 * non + 3.0)
        v3, _ = scoring.eer_from_scores(np.exp(tar), np.exp(non))
        perm_t = tar[rng.permutation(n_tar)]
        perm_n = non[rng.permutation(n_non)]
        v4, _ = scoring.eer_from_scores(perm_t, perm_n)
        invariance_ok = invariance_ok and value == v2 == v3 == v4
    ok = bracket_ok and invariance_ok and exact_hits > 0
    _report(4, "EER matches the brute-force oracle", ok,
            f": 200 sets, {exact_hits} exact crossings")


def test_criterion_5_tuple_count_closed_forms():
    """Pair and triplet counts match S*C(c,2), C(Sc,2)-S*C(c,2), and
    S*c*(c-1)*(S-1)*c for all (S, c) in {2..10} x {2..4}, with every
    emitted tuple satisfying its label constraint."""
    ok = True
    for s in range(2, 11):
        for c in range(2, 5):
            labels = np.repeat(np.arange(s), c)
            pairs = sampling.form_pairs(labels)
            triplets = sampling.form_triplets(labels).triplets
            ok = ok and len(pairs.positives) == s * math.comb(c, 2)
            ok = ok and len(pairs.negatives) == math.comb(s * c, 2) - s * math.comb(c, 2)
            ok = ok and len(triplets) == s * c * (c - 1) * (s - 1) * c
            ok = ok and all(labels[i] == labels[j] for i, j in pairs.positives)
            ok = ok and all(labels[i] != labels[j] for i, j in pairs.negatives)
            ok = ok and all(
                a != p and labels[a] == labels[p] and labels[a] != labels[n]
                for a, p, n in triplets
            )
            seen = {tuple(t) for t in triplets}
            ok = ok and len(seen) == len(triplets)
    _report(5, "tuple counts match closed forms on {2..10}x{2..4}", ok)


FIXTURE_SPEC = ds.SyntheticDatasetSpec(
    n_speakers_train=50, n_speakers_dev=20, n_speakers_cohort=20, n_speakers_test=20,
    files_per_speaker=8, chunks_per_file=5, feature_dim=32,
    intra_speaker_spread=0.25, seed=0, trials_per_speaker=40,
)

FIXTURE_CONFIG = training.TrainConfig(
    loss_kind="aam", learning_rate=0.01, epochs=30, seed=0, alpha=10.0, margin=0.05,
    speakers_per_batch=1, chunks_per_speaker=2, hidden_dim=32, embedding_dim=16,
)


def test_criterion_6_desk_scale_training():
    """30 epochs of AAM at the tuned operating point (alpha=10, m=0.05,
    lr=0.01) on the 50-speaker dim-32 fixture beat the untrained encoder
    and reach <= 10% absolute test EER; all six loss kinds run finite."""
    start = time.time()
    data = ds.generate_dataset(FIXTURE_SPEC)
    pool = data.train_pool()
    dev_pack = data.eval_pack("dev")
    test_pack = data.eval_pack("test")

    def test_eer(ckpt):
        emb = training.embed_files(ckpt.encoder, test_pack)
        return scoring.eer(scoring.score_trials(emb, test_pack.index)).eer

    untrained = training.initial_checkpoint(pool, FIXTURE_CONFIG, dev_pack)
    checkpoints = training.train(pool, FIXTURE_CONFIG, dev_pack)
    best = training.select_best(checkpoints)
    eer_untrained = test_eer(untrained)
    eer_trained = test_eer(best)

    finite_all = True
    for kind in experiment.DEFAULT_COMPARE_LOSSES:
        base = experiment.base_config(kind, data, 0, empty_config())
        short = replace(base, epochs=2)
        for ckpt in training.train(pool, short, dev_pack):
            arrays = [ckpt.encoder.w1, ckpt.encoder.b1, ckpt.encoder.w2, ckpt.encoder.b2]
            if "centers" in ckpt.encoder.loss_arrays:
                arrays.append(ckpt.encoder.loss_arrays["centers"])
            finite_all = finite_all and all(np.all(np.isfinite(a)) for a in arrays)
            finite_all = finite_all and np.isfinite(ckpt.dev_eer)
    elapsed = time.time() - start

    ok = (eer_trained < eer_untrained and eer_trained <= 0.10
          and finite_all and elapsed < 300.0)
    detail = (f": untrained {eer_untrained:.4f} -> trained {eer_trained:.4f} "
              f"(epoch {best.epoch}), six-loss finite={finite_all}, {elapsed:.0f}s")
    _report(6, "desk-scale training beats untrained encoder", ok, detail)


def test_criterion_7_snorm_contract(tmp_path):
    """s-norm symmetry is exact, the identity fixture returns the raw score
    to 1e-12, a degenerate cohort raises, and the pipeline emits raw and
    normalized reports with the relative improvement."""
    rng = np.random.default_rng(55)
    cohort = scoring.Cohort(rng.standard_normal((12, 6)), top_n=5)
    symmetric = all(
        scoring.adaptive_snorm(r, e, t, cohort) == scoring.adaptive_snorm(r, t, e, cohort)
        for r, e, t in (
            (float(rng.uniform(-1, 1)), rng.standard_normal(6), rng.standard_normal(6))
            for _ in range(50)
        )
    )

    e = np.array([1.0, 0.0])
    identity_cohort = scoring.Cohort(np.array([[1.0, 0.0], [-1.0, 0.0]]), top_n=2)
    identity_ok = abs(scoring.adaptive_snorm(0.75, e, e, identity_cohort) - 0.75) < 1e-12

    try:
        bad = scoring.Cohort(np.array([[1.0, 0.0], [2.0, 0.0]]), top_n=2)
        scoring.adaptive_snorm(0.5, e, e, bad)
        degenerate_ok = False
    except DegenerateCohortError:
        degenerate_ok = True

    spec = ds.SyntheticDatasetSpec(
        n_speakers_train=10, n_speakers_dev=4, n_speakers_cohort=6, n_speakers_test=4,
        files_per_speaker=3, chunks_per_file=3, feature_dim=12,
        intra_speaker_spread=0.3, seed=2, trials_per_speaker=6,
    )
    data = ds.generate_dataset(spec)
    result = experiment.run_experiment(
        data, "aam", tmp_path / "run", seed=2, budget_epochs=2, grid_epochs=1,
        grid=[replace(FIXTURE_CONFIG, epochs=2, speakers_per_batch=5, seed=2)],
        eval_options=experiment.EvalOptions(n_bootstrap=100),
    )
    report_ok = (result.normalized is not None
                 and (tmp_path / "run" / "report_raw.txt").exists()
                 and (tmp_path / "run" / "report_snorm.txt").exists())
    summary = (tmp_path / "run" / "result.txt").read_text()
    report_ok = report_ok and all(
        key in summary for key in ("eer_raw:", "eer_snorm:", "improvement_pct:", "top_n:")
    )

    ok = symmetric and identity_ok and degenerate_ok and report_ok
    detail = (f": symmetry={symmetric}, identity={identity_ok}, "
              f"degenerate-raises={degenerate_ok}, report-shape={report_ok}")
    _report(7, "adaptive s-norm contract and report shape", ok, detail)


def test_criterion_8_compare_determinism(tmp_path):
    """Two `compare` invocations with identical seeds emit byte-identical
    CSVs and reports."""
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text("""
[dataset]
n_speakers_train = 12
n_speakers_dev = 4
n_speakers_cohort = 6
n_speakers_test = 4
files_per_speaker = 3
chunks_per_file = 3
feature_dim = 12
intra_speaker_spread = 0.3
trials_per_speaker = 6

[training]
epochs = 2
grid_epochs = 1
lr_grid = 0.01, 0.1
speakers_grid = 6
chunks_grid = 2

[eval]
n_bootstrap = 100
""")
    data = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--seed", "11", "--out", str(data)]) == 0

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["compare", "--config", str(cfg), "--seed", "11",
                 "--data", str(data), "--out", str(out_a)]) == 0
    assert main(["compare", "--config", str(cfg), "--seed", "11",
                 "--data", str(data), "--out", str(out_b)]) == 0

    mismatches = []
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    if files_a != files_b:
        mismatches.append("file sets differ")
    for rel in files_a:
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes():
            mismatches.append(str(rel))
    ok = not mismatches and (out_a / "compare.csv").exists()
    _report(8, "compare runs are byte-identical", ok,
            f": {len(files_a)} files compared" + (f", mismatches {mismatches}" if mismatches else ""))
