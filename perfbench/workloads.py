"""The benchmark's workloads: set-up, timed `spklab` commands and the
checks on their outputs.

Each workload names the commands a user would type. Commands are lists of
`spklab` arguments; the runner starts each in a fresh child process.
Config files are written into the run's work directory.
"""

import math
from pathlib import Path
from statistics import mean

from spklab import training

from spans import LOSS_KINDS

COMPARE_HEADER = "loss,eer_raw,ci_low,ci_high,eer_snorm,improvement_pct"
TEST_TRIALS = "trials_test.txt"

README_DATASET = """[dataset]
n_speakers_train = 50
files_per_speaker = 8
chunks_per_file = 5
feature_dim = 32
intra_speaker_spread = 0.25
trials_per_speaker = 40
"""

COHORT_DATASET = """[dataset]
n_speakers_train = 50
n_speakers_dev = 20
n_speakers_cohort = 100
n_speakers_test = 20
files_per_speaker = 8
chunks_per_file = 5
feature_dim = 32
intra_speaker_spread = 0.25
trials_per_speaker = 40
"""

CONTRAST_DATASET = """[dataset]
n_speakers_train = 200
n_speakers_dev = 10
n_speakers_cohort = 2
n_speakers_test = 2
files_per_speaker = 8
chunks_per_file = 5
feature_dim = 32
intra_speaker_spread = 0.25
trials_per_speaker = 20
"""

CONTRAST_EPOCHS = 20
# Tuple-loss kind -> (speakers per batch, chunks per speaker), the tuned shapes.
CONTRAST_RUNS = {"contrastive": (20, 3), "triplet_sigmoid": (40, 3)}


def count_lines(path: Path) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip())


def read_report(path: Path) -> dict[str, str]:
    """`key: value` lines of a spklab report file."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.partition(":")
            if sep:
                out[key.strip()] = value.strip()
    return out


def checkpoint_dev_eer(path: Path) -> float:
    ckpt, _ = training.load_checkpoint(str(path))
    return ckpt.dev_eer


def check_eval_dir(out: Path, n_trials: int) -> list[str]:
    """Errors in one evaluation's raw and s-norm reports and score files."""
    errors = []
    for kind in ("raw", "snorm"):
        scores = out / f"scores_test_{kind}.txt"
        report = out / f"report_{kind}.txt"
        if not scores.is_file() or not report.is_file():
            errors.append(f"{out.name}: missing {kind} scores or report")
            continue
        lines = count_lines(scores)
        if lines != n_trials:
            errors.append(f"{scores.name}: {lines} lines for {n_trials} trials")
        values = read_report(report)
        if not 0.0 <= float(values.get("eer", "nan")) <= 1.0:
            errors.append(f"{report.name}: eer missing or out of [0, 1]")
        if kind == "snorm" and "top_n" not in values:
            errors.append(f"{report.name}: top_n not set")
    return errors


def check_checkpoint(path: Path) -> list[str]:
    try:
        checkpoint_dev_eer(path)
    except Exception as exc:  # any load failure is a failed output check
        return [f"{path.name} does not load: {exc}"]
    return []


class Workload:
    """One benchmark workload. Subclasses fill in the commands and checks."""

    name = ""
    configs: dict[str, str] = {}

    def setup(self, seed: int, cfg: Path, setup_dir: Path) -> list[list[str]]:
        """Commands that make the timed commands' inputs."""
        return [["gen-data", "--config", str(cfg / "data.cfg"), "--seed", str(seed),
                 "--out", str(setup_dir / "data")]]

    def timed(self, seed: int, cfg: Path, setup_dir: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def units(self) -> list[str]:
        """Names of the units one repeat of the timed commands attempts."""
        raise NotImplementedError

    def check(self, out: Path, setup_dir: Path) -> dict[str, list[str]]:
        """Output-check errors per unit (an empty list when it passed)."""
        raise NotImplementedError

    def untimed(self, seed: int, setup_dir: Path, out: Path, eval_dir: Path) -> list[list[str]]:
        """Commands run after timing, only to measure result quality; they
        write under `eval_dir`."""
        return []

    def quality(self, out: Path, setup_dir: Path, eval_dir: Path) -> dict[str, float]:
        """The EER metrics of the models the workload produced or evaluated."""
        raise NotImplementedError


class CompareReadme(Workload):
    name = "compare_readme"
    # The contrast losses' batch shape is pinned to the tuned 40 x 3: with the
    # default shape grid, the shape the grid picks for a seed changed the
    # work of a run by 30-40% (a 40 x 3 triplet retrain costs 4-18 times
    # the smaller shapes).
    configs = {"data.cfg": README_DATASET + (
        "\n[training]\nepochs = 30\ngrid_epochs = 3\nspeakers_grid = 40\nchunks_grid = 3\n")}

    def timed(self, seed, cfg, setup_dir, out):
        return [["compare", "--config", str(cfg / "data.cfg"), "--seed", str(seed),
                 "--data", str(setup_dir / "data"), "--out", str(out)]]

    def units(self):
        return list(LOSS_KINDS)

    def _rows(self, out: Path) -> dict[str, list[str]]:
        with open(out / "compare.csv") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != COMPARE_HEADER:
            return {}
        return {line.split(",")[0]: line.split(",") for line in lines[1:]}

    def check(self, out, setup_dir):
        n_trials = count_lines(setup_dir / "data" / TEST_TRIALS)
        try:
            rows = self._rows(out)
        except OSError as exc:
            return {kind: [f"compare.csv: {exc}"] for kind in self.units()}
        errors = {}
        for kind in self.units():
            row = rows.get(kind)
            if row is None or len(rows) != len(self.units()):
                errors[kind] = ["compare.csv: bad header, row count or missing row"]
                continue
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                values = []
            problems = []
            if len(values) != 5:
                problems.append(f"compare.csv: malformed {kind} row")
            elif any(math.isnan(v) for v in values):
                problems.append(f"compare.csv: nan in the {kind} row")
            elif not values[1] <= values[0] <= values[2]:
                problems.append(f"compare.csv: {kind} eer_raw outside [ci_low, ci_high]")
            problems += check_eval_dir(out / kind, n_trials)
            problems += check_checkpoint(out / kind / "best.ckpt")
            errors[kind] = problems
        return errors

    def quality(self, out, setup_dir, eval_dir):
        rows = self._rows(out)
        return {
            "eer_raw_mean": mean([float(rows[k][1]) for k in self.units()]),
            "eer_snorm_mean": mean([float(rows[k][4]) for k in self.units()]),
            "dev_eer_best_mean": mean(
                [checkpoint_dev_eer(out / k / "best.ckpt") for k in self.units()]
            ),
        }


class EvaluateCohort(Workload):
    name = "evaluate_cohort"
    configs = {"data.cfg": COHORT_DATASET + "\n[loss]\nkind = aam\n\n[training]\nepochs = 5\n"}

    def setup(self, seed, cfg, setup_dir):
        return super().setup(seed, cfg, setup_dir) + [
            ["train", "--config", str(cfg / "data.cfg"), "--seed", str(seed),
             "--data", str(setup_dir / "data"), "--out", str(setup_dir / "model")]
        ]

    def timed(self, seed, cfg, setup_dir, out):
        return [["evaluate", "--config", str(cfg / "data.cfg"), "--seed", str(seed),
                 "--data", str(setup_dir / "data"),
                 "--checkpoint", str(setup_dir / "model" / "best.ckpt"), "--out", str(out)]]

    def units(self):
        return ["evaluate"]

    def check(self, out, setup_dir):
        n_trials = count_lines(setup_dir / "data" / TEST_TRIALS)
        return {"evaluate": check_eval_dir(out, n_trials)}

    def quality(self, out, setup_dir, eval_dir):
        return {
            "eer_raw_mean": float(read_report(out / "report_raw.txt")["eer"]),
            "eer_snorm_mean": float(read_report(out / "report_snorm.txt")["eer"]),
            "dev_eer_best_mean": checkpoint_dev_eer(setup_dir / "model" / "best.ckpt"),
        }


class TrainContrast(Workload):
    name = "train_contrast"
    configs = {"data.cfg": CONTRAST_DATASET} | {
        f"{kind}.cfg": (f"[loss]\nkind = {kind}\n\n[training]\nepochs = {CONTRAST_EPOCHS}\n"
                        f"speakers_per_batch = {speakers}\nchunks_per_speaker = {chunks}\n")
        for kind, (speakers, chunks) in CONTRAST_RUNS.items()
    }

    def timed(self, seed, cfg, setup_dir, out):
        return [["train", "--config", str(cfg / f"{kind}.cfg"), "--seed", str(seed),
                 "--data", str(setup_dir / "data"), "--out", str(out / kind)]
                for kind in CONTRAST_RUNS]

    def units(self):
        return list(CONTRAST_RUNS)

    def check(self, out, setup_dir):
        errors = {}
        for kind in CONTRAST_RUNS:
            curve = out / kind / "dev_eer_curve.txt"
            problems = []
            if not curve.is_file():
                problems.append(f"{kind}: no dev_eer_curve.txt")
            elif count_lines(curve) != CONTRAST_EPOCHS:
                problems.append(f"{kind}: dev_eer_curve.txt needs {CONTRAST_EPOCHS} lines")
            problems += check_checkpoint(out / kind / "best.ckpt")
            errors[kind] = problems
        return errors

    def untimed(self, seed, setup_dir, out, eval_dir):
        # `train` scores only dev trials; test EERs come from evaluating each
        # trained checkpoint, outside the timed and traced commands.
        return [["evaluate", "--seed", str(seed), "--data", str(setup_dir / "data"),
                 "--checkpoint", str(out / kind / "best.ckpt"), "--out", str(eval_dir / kind)]
                for kind in CONTRAST_RUNS]

    def quality(self, out, setup_dir, eval_dir):
        evals = [eval_dir / kind for kind in CONTRAST_RUNS]
        return {
            "eer_raw_mean": mean([float(read_report(e / "report_raw.txt")["eer"]) for e in evals]),
            "eer_snorm_mean": mean(
                [float(read_report(e / "report_snorm.txt")["eer"]) for e in evals]
            ),
            "dev_eer_best_mean": mean(
                [checkpoint_dev_eer(out / kind / "best.ckpt") for kind in CONTRAST_RUNS]
            ),
        }


WORKLOADS = {w.name: w for w in (CompareReadme(), EvaluateCohort(), TrainContrast())}
