"""End-to-end CLI runs on a tiny dataset, and on the README's example config."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spklab import training
from spklab.cli import COMMANDS, build_parser, main
from spklab.dataset import load_dataset
from spklab.training import load_checkpoint

TINY_CFG = """
[dataset]
n_speakers_train = 10
n_speakers_dev = 4
n_speakers_cohort = 5
n_speakers_test = 4
files_per_speaker = 3
chunks_per_file = 3
feature_dim = 12
intra_speaker_spread = 0.3
trials_per_speaker = 6

[encoder]
hidden_dim = 12
embedding_dim = 8

[training]
epochs = 2
grid_epochs = 1
speakers_per_batch = 5
lr_grid = 0.01, 0.1

[eval]
n_bootstrap = 100
compare_losses = aam, coco
"""


@pytest.fixture()
def workdir(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    data = tmp_path / "data"
    rc = main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(data)])
    assert rc == 0
    return tmp_path, cfg, data


def test_gen_data_writes_dataset(workdir):
    tmp_path, cfg, data = workdir
    ds = load_dataset(data)
    assert len(ds.partitions["train"]) == 10
    assert ds.feature_dim == 12
    assert (data / "manifest.txt").exists()


def test_train_and_evaluate(workdir):
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--seed", "3",
               "--data", str(data), "--out", str(run)])
    assert rc == 0
    ckpt_path = run / "best.ckpt"
    assert ckpt_path.exists()
    ckpt, echo = load_checkpoint(ckpt_path)
    assert echo["loss_kind"] == "'aam'"
    curve = (run / "dev_eer_curve.txt").read_text().splitlines()
    assert len(curve) == 2

    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", str(cfg), "--seed", "3", "--data", str(data),
               "--out", str(out), "--checkpoint", str(ckpt_path)])
    assert rc == 0
    for name in ("scores_test_raw.txt", "report_raw.txt", "det_raw.csv",
                 "scores_test_snorm.txt", "report_snorm.txt"):
        assert (out / name).exists()
    report = (out / "report_snorm.txt").read_text()
    assert "top_n:" in report


def test_grid_search_writes_choice(workdir):
    tmp_path, cfg, data = workdir
    out = tmp_path / "grid"
    rc = main(["grid-search", "--config", str(cfg), "--seed", "3",
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    text = (out / "chosen_config.txt").read_text()
    assert "learning_rate" in text


def test_compare_emits_csv(workdir):
    tmp_path, cfg, data = workdir
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", str(cfg), "--seed", "3",
               "--data", str(data), "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "loss,eer_raw,ci_low,ci_high,eer_snorm,improvement_pct"
    assert len(lines) == 3
    assert lines[1].startswith("aam,") and lines[2].startswith("coco,")
    for kind in ("aam", "coco"):
        assert (out / kind / "best.ckpt").exists()
        assert (out / kind / "report_raw.txt").exists()
        assert (out / kind / "report_snorm.txt").exists()
        assert (out / kind / "result.txt").exists()


def test_readme_example_compares(tmp_path):
    # the README's ```ini example, as a user would run it: six rows, no nan, each CI
    # around its EER
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    data, out = tmp_path / "data", tmp_path / "cmp"
    assert main(["gen-data", "--config", str(cfg), "--seed", "0", "--out", str(data)]) == 0
    assert main(["compare", "--config", str(cfg), "--seed", "0",
                 "--data", str(data), "--out", str(out)]) == 0
    header, *rows = (out / "compare.csv").read_text().splitlines()
    assert len(rows) == 6
    for row in rows:
        values = row.split(",")[1:]
        assert "nan" not in values, row
        eer_raw, ci_low, ci_high = map(float, values[:3])
        assert ci_low <= eer_raw <= ci_high, row


@pytest.mark.parametrize("damage", ["short", "non_numeric", "unknown_name", "repeated_name"])
def test_corrupt_checkpoint_fails_cleanly(workdir, capsys, damage):
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    ckpt = run / "best.ckpt"
    lines = ckpt.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("array ")) + 1
    name = lines[k - 1].split()[1]
    values = lines[k].split()
    if damage == "unknown_name":
        lines[k - 1] = lines[k - 1].replace(f"array {name} ", "array b3 ")
        name = "b3"
    elif damage == "repeated_name":
        lines[k + 1:k + 1] = lines[k - 1:k + 1]
    else:
        lines[k] = " ".join(values[:-1] if damage == "short" else ["nan?"] + values[1:])
    ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    rc = main(["evaluate", "--config", str(cfg), "--seed", "3", "--data", str(data),
               "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(ckpt) in err[0] and f"array {name} " in err[0]


@pytest.mark.parametrize("kind", ["contrastive", "triplet_sigmoid"])
def test_one_speaker_tuple_batches_fail_cleanly(workdir, capsys, kind):
    tmp_path, cfg, data = workdir
    one = tmp_path / "one.cfg"
    one.write_text(TINY_CFG.replace("speakers_per_batch = 5", "speakers_per_batch = 1")
                   + f"\n[loss]\nkind = {kind}\n")
    out = tmp_path / "run"
    capsys.readouterr()
    rc = main(["train", "--config", str(one), "--seed", "3",
               "--data", str(data), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "2 speakers" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind, mode", [("contrastive", "pairs"), ("triplet_sigmoid", "triplets")])
def test_one_chunk_tuple_batches_fail_before_writing(workdir, capsys, kind, mode):
    # a contrast kind at one chunk per speaker, the README's batch shape, fails with the
    # training run's one line and leaves no --out behind
    tmp_path, cfg, data = workdir
    one = tmp_path / "one.cfg"
    one.write_text(with_setting("training", "chunks_per_speaker = 1")
                   + f"\n[loss]\nkind = {kind}\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["train", "--config", str(one), "--seed", "3",
                 "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {mode} mode needs at least 2 chunks per speaker"]
    assert not out.exists()


def test_missing_data_dir_fails_cleanly(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_grid_search_and_compare_share_grid_epochs(workdir, monkeypatch):
    # with grid_epochs unset, both commands train each candidate for a
    # tenth of the full budget
    tmp_path, cfg, data = workdir
    twenty = tmp_path / "twenty.cfg"
    twenty.write_text(TINY_CFG.replace("epochs = 2\ngrid_epochs = 1\n", "epochs = 20\n"))
    seen = []

    class Stop(Exception):
        pass

    def record(pool, grid, budget_epochs, dev_pack):
        seen.append(budget_epochs)
        raise Stop

    monkeypatch.setattr(training, "grid_search", record)
    for command in ("grid-search", "compare"):
        with pytest.raises(Stop):
            main([command, "--config", str(twenty), "--seed", "3",
                  "--data", str(data), "--out", str(tmp_path / command)])
    assert seen == [2, 2]


@pytest.mark.parametrize("command, text, key", [
    ("gen-data", "[nosuchsection]\nkey = 1\n", "unknown section"),
    ("compare", TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 50"), "n_bootstrap"),
    ("compare", TINY_CFG.replace("grid_epochs = 1", "grid_epochs = 0"), "grid_epochs"),
    ("grid-search", TINY_CFG.replace("grid_epochs = 1", "grid_epochs = 0"), "grid_epochs"),
    # an explicit grid budget above the full one
    ("compare", TINY_CFG.replace("grid_epochs = 1", "grid_epochs = 3"),
     "[training] grid_epochs must be at most epochs (2), got 3"),
    ("grid-search", TINY_CFG.replace("grid_epochs = 1", "grid_epochs = 3"),
     "[training] grid_epochs must be at most epochs (2), got 3"),
    ("compare", TINY_CFG.replace("epochs = 2", "epochs = -1"), "epochs"),
    ("compare", TINY_CFG.replace("aam, coco", "aam, arcface"), "compare_losses"),
    ("compare", TINY_CFG.replace("aam, coco", "aam, coco, aam"), "compare_losses lists aam twice"),
    ("compare", TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 100\ntop_n_candidates = 1"),
     "top_n_candidates"),
    # one size in range does not excuse another outside the 15-file cohort
    ("compare", TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 100\ntop_n_candidates = 5, 5000"),
     "[eval] top_n_candidates: 5000"),
    ("compare", TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 100\ntop_n_candidates = 1, 5"),
     "[eval] top_n_candidates: 1"),
    ("compare", TINY_CFG.replace("speakers_per_batch = 5", "speakers_per_batch = 0"),
     "speakers_per_batch"),
    ("compare", TINY_CFG.replace("speakers_per_batch = 5", "chunks_per_speaker = 0"),
     "chunks_per_speaker"),
    # a list-valued key with no values names the file, section and key
    ("grid-search", TINY_CFG.replace("lr_grid = 0.01, 0.1", "lr_grid ="),
     "bad.cfg: [training] lr_grid lists no values"),
    ("compare", TINY_CFG.replace("lr_grid = 0.01, 0.1", "lr_grid ="),
     "bad.cfg: [training] lr_grid lists no values"),
    ("grid-search", TINY_CFG.replace("lr_grid = 0.01, 0.1", "lr_grid = 0.01\nspeakers_grid ="),
     "bad.cfg: [training] speakers_grid lists no values"),
    ("compare", TINY_CFG.replace("lr_grid = 0.01, 0.1", "lr_grid = 0.01\nchunks_grid ="),
     "bad.cfg: [training] chunks_grid lists no values"),
    ("compare", TINY_CFG + "\n[loss]\nalpha_grid =\n", "bad.cfg: [loss] alpha_grid lists no values"),
    ("compare", TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 100\ntop_n_candidates ="),
     "bad.cfg: [eval] top_n_candidates lists no values"),
    ("compare", TINY_CFG.replace("aam, coco", ""), "bad.cfg: [eval] compare_losses lists no values"),
], ids=["unknown_section", "n_bootstrap", "compare_grid_epochs", "grid_search_grid_epochs",
        "compare_grid_epochs_above_epochs", "grid_search_grid_epochs_above_epochs", "epochs", "compare_losses", "compare_losses_repeated", "top_n_candidates",
        "top_n_candidates_above_cohort", "top_n_candidates_below_two",
        "speakers_per_batch", "chunks_per_speaker", "grid_search_empty_lr_grid",
        "compare_empty_lr_grid", "grid_search_empty_speakers_grid", "compare_empty_chunks_grid",
        "compare_empty_alpha_grid", "empty_top_n_candidates", "empty_compare_losses"])
def test_bad_config_fails_cleanly(workdir, capsys, command, text, key):
    # a bad value stops the run before any training: exit 1, one error line
    # naming the key, no --out made
    tmp_path, cfg, data = workdir
    bad = tmp_path / "bad.cfg"
    bad.write_text(text)
    out = tmp_path / "out"
    args = [command, "--config", str(bad), "--out", str(out)]
    if command != "gen-data":
        args += ["--data", str(data)]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


@pytest.mark.parametrize("kind", ["config", "manifest", "trials", "checkpoint"])
def test_non_utf8_file_fails_cleanly(workdir, capsys, kind):
    # a 0xff byte in a text input, or a binary file (features.npy) given as the checkpoint,
    # which evaluate reads last: one error line naming the file, before anything is written
    tmp_path, cfg, data = workdir
    ckpt = data / "features.npy"
    bad = {"config": cfg, "manifest": data / "manifest.txt", "trials": data / "trials_test.txt",
           "checkpoint": ckpt}[kind]
    if kind != "checkpoint":
        bad.write_bytes(bad.read_bytes() + b"; \xff\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--data", str(data), "--out", str(out),
                 "--checkpoint", str(ckpt)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]
    assert "can't decode byte" in err[0]
    assert not out.exists()


def test_evaluate_without_top_n_candidate_fails_before_scoring(workdir, capsys):
    # no configured cohort size fits the 15-file cohort: exit 1 with one
    # error line, before any file is embedded or scored
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(TINY_CFG.replace("n_bootstrap = 100", "n_bootstrap = 100\ntop_n_candidates = 1, 16"))
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(bad), "--data", str(data), "--out", str(out),
                 "--checkpoint", str(run / "best.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "top_n_candidates" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "compare"])
def test_negative_seed_fails_before_any_work(tmp_path, capsys, command):
    # the seed is checked before the dataset is read or anything is written:
    # the missing --data directory is never reached
    out = tmp_path / "out"
    args = [command, "--seed", "-1", "--out", str(out)]
    if command != "gen-data":
        args += ["--data", str(tmp_path / "nowhere")]
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--seed" in err[0]
    assert not out.exists()


def test_parser_table_gives_each_subcommand_its_flags():
    # every subcommand takes --config, --seed and --out; every one but gen-data
    # requires --data, and evaluate alone takes --checkpoint, which it requires
    parser = build_parser()
    flags = {"gen-data": [], "train": ["--data", "d"], "grid-search": ["--data", "d"],
             "evaluate": ["--data", "d", "--checkpoint", "c"], "compare": ["--data", "d"]}
    assert list(flags) == list(COMMANDS)
    for command, extra in flags.items():
        args = parser.parse_args([command, "--config", "x.cfg", "--seed", "2", "--out", "o", *extra])
        assert (args.config, args.seed, args.out) == ("x.cfg", 2, "o")
        assert args.func is COMMANDS[command][1]
    rejected = [["gen-data", "--out", "o", "--data", "d"],
                ["evaluate", "--out", "o", "--data", "d"]]
    rejected += [[command, "--out", "o", *extra[2:]]  # without --data
                 for command, extra in flags.items() if command != "gen-data"]
    rejected += [[command, "--out", "o", *extra, "--checkpoint", "c"]
                 for command, extra in flags.items() if command != "evaluate"]
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("section, setting, message", [
    ("loss", "lambda = 1e308",
     "loss evaluation failed at epoch 0 batch 0: loss value is not finite: inf"),
    ("training", "learning_rate = 1e308", "non-finite parameter after epoch 0 batch 0"),
], ids=["lambda", "learning_rate"])
def test_overflow_in_training_fails_with_one_line(workdir, capsys, section, setting, message):
    # a finite but huge value passes every config check and overflows in the first
    # batch: one error line and no numpy warning ahead of it
    tmp_path, cfg, data = workdir
    text = TINY_CFG + "\n[loss]\nkind = center\n"
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{setting}\n"))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", str(bad), "--seed", "3",
                     "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command, kind, section, setting, message", [
    ("train", "triplet_sigmoid", "loss", "alpha = inf",
     "alpha must be positive and finite, got inf"),
    ("train", "contrastive", "loss", "margin = nan",
     "margin must be non-negative and finite, got nan"),
    ("train", "center", "loss", "lambda = nan", "lambda must be non-negative and finite, got nan"),
    ("train", "aam", "loss", "lambda = inf", "lambda must be non-negative and finite, got inf"),
    ("train", "aam", "training", "learning_rate = nan",
     "learning rate must be non-negative and finite, got nan"),
    # compare runs TINY_CFG's aam and coco
    ("compare", "aam", "loss", "alpha = inf", "alpha must be positive and finite, got inf"),
    # ce never reads the margin, yet a bad one fails
    ("grid-search", "ce", "loss", "margin = nan",
     "margin must be non-negative and finite, got nan"),
    ("compare", "aam", "loss", "alpha_grid = 10, inf",
     "[loss] alpha_grid: alpha must be positive and finite, got inf"),
    ("grid-search", "coco", "loss", "alpha_grid = 10, inf",
     "[loss] alpha_grid: alpha must be positive and finite, got inf"),
    # ce's grid crosses no alpha values, yet a bad one fails
    ("grid-search", "ce", "loss", "alpha_grid = 10, inf",
     "[loss] alpha_grid: alpha must be positive and finite, got inf"),
], ids=["alpha_inf", "margin_nan", "lambda_nan", "aam_lambda_inf", "learning_rate_nan",
        "compare_alpha_inf", "grid_search_margin_nan", "compare_alpha_grid_inf",
        "grid_search_alpha_grid_inf", "grid_search_unread_alpha_grid_inf"])
def test_non_finite_hyper_parameter_fails_before_training(workdir, capsys, command, kind,
                                                          section, setting, message):
    # rejected when the run or grid is set up: one error line naming the
    # value, no numpy warning, no "diverged" report from the first batch and
    # no candidate or loss dropped with a warning
    tmp_path, cfg, data = workdir
    text = TINY_CFG + f"\n[loss]\nkind = {kind}\n"
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{setting}\n"))
    out = tmp_path / "run"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--config", str(bad), "--seed", "3",
                     "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not list(out.rglob("best.ckpt"))


@pytest.mark.parametrize("command, kind, section, setting, message", [
    ("train", "aam", "loss", "margin = 0.6", "aam margin must lie in [0.0, 0.5], got 0.6"),
    ("grid-search", "aam", "loss", "margin = 0.6", "aam margin must lie in [0.0, 0.5], got 0.6"),
    # compare runs TINY_CFG's aam and coco
    ("compare", "coco", "loss", "margin = 0.6", "aam margin must lie in [0.0, 0.5], got 0.6"),
    ("compare", "coco", "loss", "margin_grid = 0.05, 0.6",
     "[loss] margin_grid: aam margin must lie in [0.0, 0.5], got 0.6"),
    # ce trains at one batch shape, yet every value of the shape grids is checked
    ("grid-search", "ce", "training", "speakers_grid = 0",
     "[training] speakers_grid: speakers_per_batch must be at least 1, got 0"),
    ("grid-search", "ce", "training", "chunks_grid = 2, 0",
     "[training] chunks_grid: chunks_per_speaker must be at least 1, got 0"),
    ("compare", "ce", "training", "speakers_grid = 5, 0",
     "[training] speakers_grid: speakers_per_batch must be at least 1, got 0"),
    ("train", "contrastive", "loss", "margin = 0",
     "contrastive margin must lie in [5e-324, inf], got 0.0"),
    ("grid-search", "contrastive", "loss", "margin_grid = 0.2, 0",
     "[loss] margin_grid: contrastive margin must lie in [5e-324, inf], got 0.0"),
    ("compare", "aam", "encoder", "hidden_dim = 0", "hidden_dim must be at least 1, got 0"),
    ("train", "aam", "encoder", "embedding_dim = 0", "embedding_dim must be at least 1, got 0"),
    ("grid-search", "ce", "training", "lr_grid = 0.01, nan",
     "[training] lr_grid: learning rate must be non-negative and finite, got nan"),
    ("compare", "aam", "loss", "lambda_grid = 1, inf",
     "[loss] lambda_grid: lambda must be non-negative and finite, got inf"),
], ids=["train_aam_margin", "grid_search_aam_margin", "compare_aam_margin",
        "compare_aam_margin_grid", "grid_search_ce_speakers_grid", "grid_search_ce_chunks_grid",
        "compare_speakers_grid", "train_contrastive_margin", "grid_search_contrastive_margin_grid",
        "compare_hidden_dim", "train_embedding_dim", "grid_search_lr_grid_nan",
        "compare_lambda_grid_inf"])
def test_out_of_domain_value_fails_before_training(workdir, capsys, monkeypatch, command, kind,
                                                   section, setting, message):
    # rejected when the run or grid is set up, before any loss trains: one error
    # line naming the value, no candidate or loss dropped with a warning
    tmp_path, cfg, data = workdir
    text = TINY_CFG + f"\n[loss]\nkind = {kind}\n"
    key = setting.split(" = ")[0]  # the setting replaces TINY_CFG's own value, if any
    text = "".join(line for line in text.splitlines(True) if not line.startswith(f"{key} = "))
    bad = tmp_path / "bad.cfg"
    bad.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{setting}\n"))
    monkeypatch.setattr(training, "train", lambda *args: pytest.fail("a loss trained"))
    out = tmp_path / "run"
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--seed", "3",
                 "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_compare_leaves_numpy_ma_unimported(workdir):
    # np.unique and np.percentile import all of numpy.ma lazily, at 10-17 ms and about
    # 1 MB of peak RSS per process; a compare run trains, grid-searches, scores dev EERs,
    # tunes the cohort size, bootstraps and writes DET points without them
    tmp_path, cfg, data = workdir
    args = ["compare", "--config", str(cfg), "--seed", "3", "--data", str(data),
            "--out", str(tmp_path / "cmp")]
    code = f"import sys; from spklab.cli import main; print(main({args!r}), 'numpy.ma' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_spread_fails_before_writing(tmp_path, capsys, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TINY_CFG.replace("intra_speaker_spread = 0.3", f"intra_speaker_spread = {value}"))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: intra_speaker_spread must be positive and finite, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("n_speakers_dev", 1), ("n_speakers_test", 1), ("files_per_speaker", 1),
])
def test_partition_without_both_trial_classes_fails_before_writing(tmp_path, capsys, key, value):
    # one dev speaker wrote 3 dev trials, all targets, and one file per speaker wrote empty
    # trial lists; both exited 0, and `train` then failed after making its --out
    cfg = tmp_path / "small.cfg"
    cfg.write_text(re.sub(rf"^{key} = \d+$", f"{key} = {value}", TINY_CFG, flags=re.M))
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {key} must be at least 2, so that the dev and test trials have both classes, "
        f"got {value}"]
    assert not out.exists()


def test_non_finite_checkpoint_value_fails_cleanly(workdir, capsys):
    # a nan weight would otherwise score every trial alike: EER 0.5, exit 0
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    ckpt = run / "best.ckpt"
    lines = ckpt.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("array w1 ")) + 1
    values = lines[k].split()
    lines[k] = " ".join(values[:1] + ["nan"] + values[2:])
    ckpt.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    out = tmp_path / "eval"
    rc = main(["evaluate", "--config", str(cfg), "--seed", "3", "--data", str(data),
               "--out", str(out), "--checkpoint", str(ckpt)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {ckpt}: ")
    assert err[0].endswith("array 'w1' has a non-finite value")
    assert not list(out.glob("*"))


def test_feature_dimension_mismatch_names_both(workdir, capsys):
    # a checkpoint trained on 12-dim features against a 6-dim dataset: one error line
    # naming both dimensions, before any score or report is written
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    narrow_cfg = tmp_path / "narrow.cfg"
    narrow_cfg.write_text(TINY_CFG.replace("feature_dim = 12", "feature_dim = 6"))
    narrow = tmp_path / "narrow"
    assert main(["gen-data", "--config", str(narrow_cfg), "--seed", "3", "--out", str(narrow)]) == 0
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--data", str(narrow), "--out", str(out),
                 "--checkpoint", str(run / "best.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the encoder takes 12-dim features, the files have 6"]
    assert not list(out.glob("*"))


def test_evaluate_failing_before_its_first_file_leaves_no_out(workdir, capsys):
    # a 12-dim checkpoint on a 10-dim dataset fails before any score is written,
    # and the --out directory is not made either
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    ten_cfg = tmp_path / "ten.cfg"
    ten_cfg.write_text(TINY_CFG.replace("feature_dim = 12", "feature_dim = 10"))
    ten = tmp_path / "ten"
    assert main(["gen-data", "--config", str(ten_cfg), "--seed", "3", "--out", str(ten)]) == 0
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--data", str(ten), "--out", str(out),
                 "--checkpoint", str(run / "best.ckpt")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the encoder takes 12-dim features, the files have 10"]
    assert not out.exists()


def test_non_real_features_fail_cleanly(workdir, capsys):
    # complex values would lose their imaginary parts, and bools or numeric strings would
    # load as numbers: one error line naming the file and its dtype, nothing written
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    features = np.load(data / "features.npy")
    shifted = features + 0j
    shifted[0] += 5j
    for bad in (shifted, features > 0, features.astype(str)):
        np.save(data / "features.npy", bad)
        out = tmp_path / f"eval_{bad.dtype.kind}"
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--data", str(data), "--out", str(out),
                     "--checkpoint", str(run / "best.ckpt")]) == 1
        err = capsys.readouterr().err.splitlines()
        path = data / "features.npy"
        assert err == [f"error: {path}: dtype {bad.dtype} is not integer or float"]
        assert not list(out.glob("*"))


def test_unknown_dev_file_fails_before_any_report(workdir, capsys):
    # every partition is staged before scoring: a dev trial naming an unknown file fails
    # with one error line, and no raw test report is left behind
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    trials = data / "trials_dev.txt"
    first = trials.read_text().split()[1]
    trials.write_text(trials.read_text() + f"0 {first} ghost\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--data", str(data), "--out", str(out),
                 "--checkpoint", str(run / "best.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: trial {first} vs ghost: unknown file id 'ghost'"]
    assert not list(out.glob("*"))


def test_speaker_in_two_partitions_fails_cleanly(workdir, capsys):
    tmp_path, cfg, data = workdir
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    k = next(k for k, line in enumerate(lines) if line.split()[1:2] == ["test"])
    fields = lines[k].split()
    lines[k] = " ".join(fields[:2] + ["0"] + fields[3:])
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {manifest}:{k + 1}: speaker 0 is in both the train and the test "
                   "partition"]


def with_setting(section, setting):
    """TINY_CFG with `setting` lines added to its `[section]`."""
    return TINY_CFG.replace(f"[{section}]\n", f"[{section}]\n{setting}\n")


NO_POWER_RATIO = "dB: its power ratio 10^(dB/10) is not a positive finite float"


@pytest.mark.parametrize("low, high, message", [
    ("-4000", "0", f"snr bound -4000.0 {NO_POWER_RATIO}"),
    ("0", "4000", f"snr bound 4000.0 {NO_POWER_RATIO}"),
    ("nan", "0", f"snr bound nan {NO_POWER_RATIO}"),
    ("20", "10", "snr range low 20.0 > high 10.0"),
], ids=["low_-4000", "high_4000", "nan", "low_above_high"])
@pytest.mark.parametrize("command, section", [("gen-data", "dataset"), ("train", "training")])
def test_snr_range_fails_before_any_work(workdir, capsys, command, section, low, high, message):
    # a ratio that underflows to 0 divided by zero, one that overflows raised OverflowError,
    # and a nan bound reached rng.uniform
    tmp_path, _, data = workdir
    bad = tmp_path / "bad.cfg"
    bad.write_text(with_setting(section, f"augment_snr_low = {low}\naugment_snr_high = {high}"))
    out = tmp_path / "out"
    data_flag = [] if command == "gen-data" else ["--data", str(data)]
    capsys.readouterr()
    assert main([command, "--config", str(bad), "--seed", "3", "--out", str(out),
                 *data_flag]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("text, values", [
    (TINY_CFG.replace("intra_speaker_spread = 0.3", "intra_speaker_spread = 1e308"),
     "intra_speaker_spread 1e+308, augment_snr_db None"),
    # a power ratio of 1e-320 is positive, so the range passes; the noise it scales to is not
    (with_setting("dataset", "augment_snr_low = -3200\naugment_snr_high = -3200"),
     "intra_speaker_spread 0.3, augment_snr_db (-3200.0, -3200.0)"),
], ids=["spread_1e308", "snr_-3200"])
def test_overflowing_dataset_is_never_written(tmp_path, capsys, text, values):
    # the spread printed a numpy overflow warning and wrote inf features, exit 0
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = tmp_path / "data"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["gen-data", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: generated features overflow float64 ({values})"]
    assert not out.exists()


@pytest.mark.parametrize("name, header, shape", [
    ("b2", "array b2 2 8 1", (8, 1)), ("w1", "array w1 3 12 12 1", (12, 12, 1)),
])
def test_checkpoint_array_of_wrong_rank_fails_cleanly(workdir, capsys, name, header, shape):
    # a (8, 1) b2 made evaluate fail in numpy broadcasting; a (12, 12, 1) w1 loaded
    tmp_path, cfg, data = workdir
    run = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(run)]) == 0
    ckpt = run / "best.ckpt"
    lines = ckpt.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith(f"array {name} "))
    lines[k] = header
    ckpt.write_text("\n".join(lines) + "\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg), "--seed", "3", "--data", str(data),
                 "--out", str(out), "--checkpoint", str(ckpt)]) == 1
    ndim = 1 if name[0] == "b" else 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ckpt}: encoder array {name!r} has shape {shape}, not {ndim}-D"]
    assert not out.exists()


def run_python(flags, code, env_changes=()):
    """Runs `code` in a fresh interpreter with `flags`, spklab importable; returns the run."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUTF8", None)
    env.update(env_changes)
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, env=env)


def test_every_text_file_names_its_encoding(tmp_path):
    # every file spklab reads or writes as text is opened with an explicit encoding: each
    # command runs with an EncodingWarning made an error
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    common = ["--config", str(cfg), "--seed", "3"]
    data = ["--data", str(tmp_path / "data")]
    runs = [["gen-data", *common, "--out", str(tmp_path / "data")],
            ["train", *common, *data, "--out", str(tmp_path / "run")],
            ["grid-search", *common, *data, "--out", str(tmp_path / "grid")],
            ["evaluate", *common, *data, "--out", str(tmp_path / "eval"),
             "--checkpoint", str(tmp_path / "run" / "best.ckpt")],
            ["compare", *common, *data, "--out", str(tmp_path / "cmp")]]
    code = f"from spklab.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0, argv"
    run = run_python(["-X", "warn_default_encoding", "-W", "error::EncodingWarning"], code)
    assert run.returncode == 0, run.stderr.decode()
    assert (tmp_path / "cmp" / "compare.csv").is_file()


def test_non_ascii_file_id_scores_alike_in_any_locale(workdir):
    # an ASCII locale used to fail writing the scores of a file named s00NN_f00é; UTF-8
    # mode (-X utf8=1) gives the default encoding of a UTF-8 locale
    tmp_path, cfg, data = workdir
    assert main(["train", "--config", str(cfg), "--seed", "3",
                 "--data", str(data), "--out", str(tmp_path / "run")]) == 0
    fid = load_dataset(data).trials["test"][0].enroll
    for name in ("manifest.txt", "trials_test.txt"):
        text = (data / name).read_text(encoding="utf-8")
        (data / name).write_text(text.replace(fid, f"{fid}é"), encoding="utf-8")
    outs = {}
    for mode in ("0", "1"):
        outs[mode] = tmp_path / f"eval_utf8_{mode}"
        argv = ["evaluate", "--config", str(cfg), "--seed", "3", "--data", str(data),
                "--out", str(outs[mode]), "--checkpoint", str(tmp_path / "run" / "best.ckpt")]
        code = f"from spklab.cli import main\nraise SystemExit(main({argv!r}))"
        run = run_python(["-X", f"utf8={mode}"], code, {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})
        assert (run.returncode, run.stderr) == (0, b""), run.stderr.decode()
    names = sorted(path.name for path in outs["0"].iterdir())
    assert names == sorted(path.name for path in outs["1"].iterdir())
    for name in names:
        assert (outs["0"] / name).read_bytes() == (outs["1"] / name).read_bytes(), name
    assert f"{fid}é ".encode() in (outs["0"] / "scores_test_raw.txt").read_bytes()
