"""Experiment config: strict sections and keys, typed values, and a resolved
rendering that parses back to the same config and the same text."""

import configparser
import re

import pytest

from sadtlab import cli
from sadtlab.config import ConfigError, parse_config, resolved_text

IDX = (
    "[data]\ntrain_images = tr-img\ntrain_labels = tr-lbl\n"
    "test_images = te-img\ntest_labels = te-lbl\n"
)

DEFAULT_RESOLVED = """\
[data]
format = idx
train_images = tr-img
train_labels = tr-lbl
test_images = te-img
test_labels = te-lbl
train_files =
test_files =
train_size = 4096
test_size = 1000
num_classes = 10
cutmix = true
cutmix_alpha = 1.0

[model]
arch = simple_cnn
init_seed = 0
hidden_dims = 64

[strategy]
id = baseline
rho = 0.05
sigma_w = 0.0001
sigma_g = 0.0001
ascent_lr = schedule
agc_lambda = 0.01
rollback_to_w = false

[train]
epochs = 20
batch_size = 64
lr0 = 0.0001
seed = 0
probe_every = 5
probe_rho = 0.05
probe_batches = 2

[output]
dir = runs/run
wall_times = false
""".replace(" =\n", " = \n")  # an empty list renders as "key = " with a trailing space

# every key set away from its default
CUSTOM = """\
[data]
format = cifar10
train_files = a.bin, b.bin
test_files = t.bin
train_size = 100
test_size = 20
num_classes = 4
cutmix = no
cutmix_alpha = 0.5
[model]
arch = tiny_mlp
init_seed = 3
hidden_dims = 32, 16
[strategy]
id = sadt_v3
rho = 0.1
sigma_w = 0.002
sigma_g = 0.003
ascent_lr = 0.02
agc_lambda = 0.05
rollback_to_w = yes
[train]
epochs = 3
batch_size = 8
lr0 = 0.01
seed = 12
probe_every = 0
probe_rho = 0.1
probe_batches = 1
[output]
dir = out/custom
wall_times = on
"""


def parse(tmp_path, text, **overrides):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return parse_config(path, **overrides)


def resolved(cfg) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(resolved_text(cfg))
    return parser


class TestResolvedText:
    def test_default_resolve_config_output_is_pinned(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(IDX)
        assert cli.main(["train", "--config", str(path), "--resolve-config"]) == 0
        assert capsys.readouterr().out == DEFAULT_RESOLVED

    @pytest.mark.parametrize("text", [IDX, CUSTOM], ids=["defaults", "custom"])
    def test_round_trip_gives_equal_config_and_text(self, tmp_path, text):
        cfg = parse(tmp_path, text)
        again = parse(tmp_path, resolved_text(cfg))
        assert again == cfg
        assert resolved_text(again) == resolved_text(cfg)

    def test_custom_values_are_rendered(self, tmp_path):
        out = resolved(parse(tmp_path, CUSTOM))
        assert out["data"]["train_files"] == "a.bin, b.bin"
        assert out["data"]["cutmix"] == "false"
        assert out["model"]["hidden_dims"] == "32, 16"
        assert out["strategy"]["ascent_lr"] == "0.02"
        assert out["strategy"]["rollback_to_w"] == "true"
        assert out["output"]["wall_times"] == "true"

    def test_schedule_ascent_lr_is_the_default(self, tmp_path):
        default = parse(tmp_path, IDX)
        schedule = parse(tmp_path, IDX + "[strategy]\nascent_lr = schedule\n")
        fixed = parse(tmp_path, IDX + "[strategy]\nascent_lr = 0.02\n")
        assert schedule == default
        assert fixed != default
        assert resolved(schedule)["strategy"]["ascent_lr"] == "schedule"


class TestSeedsAndOverrides:
    def test_init_seed_defaults_to_seed(self, tmp_path):
        out = resolved(parse(tmp_path, IDX + "[train]\nseed = 7\n"))
        assert (out["train"]["seed"], out["model"]["init_seed"]) == ("7", "7")

    def test_explicit_init_seed_is_kept(self, tmp_path):
        out = resolved(parse(tmp_path, IDX + "[model]\ninit_seed = 3\n[train]\nseed = 7\n"))
        assert (out["train"]["seed"], out["model"]["init_seed"]) == ("7", "3")

    def test_seed_override_also_seeds_init(self, tmp_path):
        out = resolved(parse(tmp_path, IDX + "[train]\nseed = 7\n", seed=11))
        assert (out["train"]["seed"], out["model"]["init_seed"]) == ("11", "11")

    def test_seed_override_keeps_explicit_init_seed(self, tmp_path):
        out = resolved(parse(tmp_path, IDX + "[model]\ninit_seed = 3\n", seed=11))
        assert (out["train"]["seed"], out["model"]["init_seed"]) == ("11", "3")

    def test_out_override(self, tmp_path):
        text = IDX + "[output]\ndir = from/file\n"
        assert resolved(parse(tmp_path, text, out_dir="from/cli"))["output"]["dir"] == "from/cli"


class TestRejections:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path / "absent.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[optim\]"):
            parse(tmp_path, IDX + "[optim]\nlr = 1\n")

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown key 'lr' in \[train\]"):
            parse(tmp_path, IDX + "[train]\nlr = 1\n")

    @pytest.mark.parametrize(
        "section, key, raw",
        [
            ("data", "cutmix", "maybe"),
            ("train", "epochs", "two"),
            ("train", "lr0", "fast"),
            ("strategy", "ascent_lr", "auto"),
            ("model", "hidden_dims", "8, x"),
            ("model", "init_seed", "1.5"),
        ],
    )
    def test_bad_value_names_section_and_key(self, tmp_path, section, key, raw):
        text = IDX + f"[{section}]\n{key} = {raw}\n"
        if section == "data":
            text = IDX + f"{key} = {raw}\n"
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
            parse(tmp_path, text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (IDX + "[strategy]\nid = sadt_v9\n", "strategy id 'sadt_v9'"),
            (IDX + "[model]\narch = resnet\n", "invalid model arch 'resnet'"),
            (IDX + "format = png\n", "invalid data format 'png'"),
            ("[data]\ntrain_images = a\ntest_images = b\n",
             r"missing dataset paths in \[data\]: train_labels, test_labels"),
            ("[data]\nformat = cifar10\ntrain_files = a.bin\n",
             r"missing dataset paths in \[data\]: train_files, test_files"),
            (IDX + "[train]\nepochs = -1\n", "epochs must be >= 0"),
            (IDX + "[train]\nprobe_every = -2\n", "probe_every must be >= 0"),
            (IDX + "[train]\nbatch_size = 0\n", "batch_size must be >= 1"),
            (IDX + "[train]\nprobe_batches = 0\n", "probe_batches must be >= 1"),
            (IDX + "[model]\narch = tiny_mlp\n[strategy]\nid = sadt_v2\n",
             "sadt_v2 needs a conv layer; tiny_mlp has none"),
            (IDX + "[strategy]\nid = agc\nagc_lambda = 0\n", "agc_lambda must be positive"),
            (IDX + "[strategy]\nid = sam\nrho = 0\n", "rho must be positive, got 0.0"),
            (IDX + "[strategy]\nid = sam\nrho = nan\n", "rho must be positive, got nan"),
            (IDX + "[strategy]\nid = sadt_v1\nsigma_w = -0.1\n", "sigma_w must be >= 0"),
            (IDX + "[strategy]\nid = sadt_v2\nsigma_w = -0.1\n", "sigma_w must be >= 0"),
            (IDX + "[strategy]\nid = sadt_v3\nsigma_g = -0.1\n", "sigma_g must be >= 0"),
            (IDX + "[strategy]\nid = sadt_v3\nascent_lr = -0.1\n", "ascent_lr must be >= 0"),
            (IDX + "[strategy]\nid = agc\nagc_lambda = inf\n", "agc_lambda must be finite, got inf"),
            (IDX + "[strategy]\nid = sam\nrho = inf\n", "rho must be finite, got inf"),
            (IDX + "[strategy]\nid = sadt_v1\nsigma_w = inf\n", "sigma_w must be finite, got inf"),
            (IDX + "[strategy]\nid = sadt_v3\nsigma_g = inf\n", "sigma_g must be finite, got inf"),
            (IDX + "[strategy]\nid = sadt_v3\nascent_lr = inf\n", "ascent_lr must be finite, got inf"),
        ],
        ids=[
            "strategy-id", "arch", "format", "idx-paths", "cifar-files", "epochs",
            "probe-every", "batch-size", "probe-batches", "mlp-sadt-v2",
            "agc-lambda", "sam-rho-zero", "sam-rho-nan", "v1-sigma-w", "v2-sigma-w", "v3-sigma-g",
            "v3-ascent-lr", "agc-lambda-inf", "sam-rho-inf", "v1-sigma-w-inf", "v3-sigma-g-inf",
            "v3-ascent-lr-inf",
        ],
    )
    def test_invalid_config_rejected(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=message):
            parse(tmp_path, text)

    def test_cli_rejects_an_infinite_hyperparameter_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(IDX + "[strategy]\nid = sam\nrho = inf\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "sadtlab: error: rho must be finite, got inf\n")
        assert not out.exists()

    def test_hyperparameters_a_preset_ignores_are_not_checked(self, tmp_path):
        text = IDX + "[strategy]\nid = baseline\nrho = 0\nsigma_w = -1\nsigma_g = -1\nagc_lambda = 0\n"
        assert parse(tmp_path, text).strategy.rho == 0.0


UNPARSABLE = [
    (b"seed = 1\n" + IDX.encode(), "File contains no section headers"),
    (IDX.encode() + b"[train]\nseed = 1\nseed = 2\n",
     "option 'seed' in section 'train' already exists"),
    (IDX.encode() + b"[train]\nseed = 1\n[train]\nepochs = 2\n",
     "section 'train' already exists"),
    (b"\xff\xfe" + IDX.encode(), "can't decode byte 0xff"),
]
UNPARSABLE_IDS = ["missing-section-header", "duplicate-key", "duplicate-section", "not-utf8"]


class TestUnparsableFile:
    @pytest.mark.parametrize("blob, message", UNPARSABLE, ids=UNPARSABLE_IDS)
    def test_raises_config_error_naming_the_file(self, tmp_path, blob, message):
        path = tmp_path / "run.ini"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match=re.escape(message)) as info:
            parse_config(path)
        assert str(info.value).startswith(f"cannot parse config {path}: ")

    @pytest.mark.parametrize("blob, message", UNPARSABLE, ids=UNPARSABLE_IDS)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, blob, message):
        path = tmp_path / "run.ini"
        path.write_bytes(blob)
        assert cli.main(["train", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"sadtlab: error: cannot parse config {path}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


BAD_TRAIN_VALUES = [
    ("probe_rho = 0", "probe_rho must be positive and finite, got 0.0"),
    ("probe_rho = -0.05", "probe_rho must be positive and finite, got -0.05"),
    ("probe_rho = nan", "probe_rho must be positive and finite, got nan"),
    ("probe_rho = inf", "probe_rho must be positive and finite, got inf"),
    ("lr0 = -0.001", "lr0 must be finite and >= 0, got -0.001"),
    ("lr0 = nan", "lr0 must be finite and >= 0, got nan"),
    ("lr0 = inf", "lr0 must be finite and >= 0, got inf"),
]
BAD_TRAIN_IDS = [
    "rho-zero", "rho-negative", "rho-nan", "rho-inf", "lr0-negative", "lr0-nan", "lr0-inf",
]


class TestTrainValues:
    """A probe_rho or lr0 that would fail or mislead mid-run is rejected
    before anything is written."""

    @pytest.mark.parametrize("line, message", BAD_TRAIN_VALUES, ids=BAD_TRAIN_IDS)
    def test_parse_config_rejects(self, tmp_path, line, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse(tmp_path, IDX + f"[train]\nprobe_every = 1\n{line}\n")

    @pytest.mark.parametrize("line, message", BAD_TRAIN_VALUES, ids=BAD_TRAIN_IDS)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "run.ini"
        path.write_text(IDX + f"[train]\nprobe_every = 1\n{line}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"sadtlab: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["0", "-1", "nan"])
    def test_probe_rho_is_free_when_probes_are_off(self, tmp_path, rho):
        cfg = parse(tmp_path, IDX + f"[train]\nprobe_every = 0\nprobe_rho = {rho}\n")
        assert cfg.train.probe_every == 0

    def test_zero_lr0_is_accepted(self, tmp_path):
        assert parse(tmp_path, IDX + "[train]\nlr0 = 0\n").train.lr0 == 0.0


BAD_DATA_MODEL_VALUES = [
    ("cutmix_alpha = 0", "cutmix_alpha must be positive and finite, got 0.0"),
    ("cutmix_alpha = -1", "cutmix_alpha must be positive and finite, got -1.0"),
    ("cutmix_alpha = nan", "cutmix_alpha must be positive and finite, got nan"),
    ("cutmix_alpha = inf", "cutmix_alpha must be positive and finite, got inf"),
    ("[model]\narch = tiny_mlp\nhidden_dims = 0", "hidden_dims must all be >= 1, got 0"),
    ("[model]\narch = tiny_mlp\nhidden_dims = 8, -3", "hidden_dims must all be >= 1, got 8, -3"),
]
BAD_DATA_MODEL_IDS = [
    "alpha-zero", "alpha-negative", "alpha-nan", "alpha-inf", "hidden-zero", "hidden-negative",
]


class TestDataAndModelValues:
    """A cutmix_alpha that fails at the first step, or a hidden width that
    fails at model build, is rejected before anything is written."""

    @pytest.mark.parametrize("lines, message", BAD_DATA_MODEL_VALUES, ids=BAD_DATA_MODEL_IDS)
    def test_parse_config_rejects(self, tmp_path, lines, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse(tmp_path, IDX + f"{lines}\n")

    @pytest.mark.parametrize("lines, message", BAD_DATA_MODEL_VALUES, ids=BAD_DATA_MODEL_IDS)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, lines, message):
        path = tmp_path / "run.ini"
        path.write_text(IDX + f"{lines}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"sadtlab: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["0", "nan"])
    def test_cutmix_alpha_is_free_when_cutmix_is_off(self, tmp_path, alpha):
        assert not parse(tmp_path, IDX + f"cutmix = false\ncutmix_alpha = {alpha}\n").data.cutmix

    def test_hidden_dims_are_free_for_the_cnn(self, tmp_path):
        assert parse(tmp_path, IDX + "[model]\nhidden_dims = 0\n").model.hidden_dims == [0]

    def test_no_hidden_layer_is_accepted(self, tmp_path):
        text = IDX + "[model]\narch = tiny_mlp\nhidden_dims =\n"
        assert parse(tmp_path, text).model.hidden_dims == []


BAD_SEEDS = [
    ("[train]\nseed = -1\n", [], "[train] seed must be >= 0, got -1"),
    ("[model]\ninit_seed = -1\n", [], "[model] init_seed must be >= 0, got -1"),
    ("", ["--seed", "-1"], "[train] seed must be >= 0, got -1"),
]
BAD_SEED_IDS = ["train-seed", "init-seed", "seed-option"]


class TestSeedValues:
    """numpy rejects a negative seed only once the run draws from it; the
    config rejects it before anything is written, naming the key."""

    @pytest.mark.parametrize("lines, argv, message", BAD_SEEDS, ids=BAD_SEED_IDS)
    def test_parse_config_rejects(self, tmp_path, lines, argv, message):
        overrides = {"seed": int(argv[1])} if argv else {}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse(tmp_path, IDX + lines, **overrides)

    @pytest.mark.parametrize("lines, argv, message", BAD_SEEDS, ids=BAD_SEED_IDS)
    def test_cli_prints_one_error_line_and_returns_2(self, tmp_path, capsys, lines, argv, message):
        path = tmp_path / "run.ini"
        path.write_text(IDX + lines)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out), *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"sadtlab: error: {message}\n")
        assert not out.exists()

    def test_zero_seeds_are_accepted(self, tmp_path):
        cfg = parse(tmp_path, IDX + "[model]\ninit_seed = 0\n[train]\nseed = 0\n")
        assert (cfg.train.seed, cfg.model.init_seed) == (0, 0)
