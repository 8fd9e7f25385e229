"""The key = value configuration file format."""

import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet import classify, pipeline
from fusedet.config import KEYS, PipelineConfig, config_digest, config_lines, load_config, parse_setting


def _load(tmp_path, text):
    p = tmp_path / "cfg"
    p.write_text(text, encoding="utf-8")
    return load_config(p)


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.seed == 0
    assert cfg.seg_k == 300.0
    assert cfg.seg_min_size == 50
    assert cfg.proposals_max_per_image == 2000
    assert cfg.ifv_gmm_k == 16
    assert cfg.ifv_pca_dim == 64
    assert cfg.svm_lambda == 1e-3
    assert cfg.nms_iou == 0.3
    assert cfg.eval_iou == 0.5
    assert cfg.prior_tau is None
    assert cfg.regress_channel == "cnn"
    assert cfg.svm_hard_negatives is False


def test_empty_file_yields_defaults(tmp_path):
    assert _load(tmp_path, "") == PipelineConfig()


def test_values_comments_and_blanks(tmp_path):
    cfg = _load(
        tmp_path,
        "# full line comment\n"
        "\n"
        "seed = 5  # trailing comment\n"
        "ifv.gmm_k = 8\n"
        "seg.sigma=1.25\n"
        "svm.hard_negatives = true\n"
        "regress.channel = hog\n",
    )
    assert cfg.seed == 5
    assert cfg.ifv_gmm_k == 8
    assert cfg.seg_sigma == 1.25
    assert cfg.svm_hard_negatives is True
    assert cfg.regress_channel == "hog"


def test_tau_auto_and_numeric(tmp_path):
    assert _load(tmp_path, "prior.tau = auto").prior_tau is None
    assert _load(tmp_path, "prior.tau = 0.25").prior_tau == 0.25
    assert _load(tmp_path, "prior.tau = -1.5").prior_tau == -1.5
    assert _load(tmp_path, "prior.tau = -inf").prior_tau == -math.inf


def test_tau_rejects_non_finite_values_but_minus_infinity(tmp_path):
    for value in ("inf", "nan", "1e400", "+inf"):
        with pytest.raises(ValueError) as err:
            _load(tmp_path, f"seed = 1\nprior.tau = {value}\n")
        assert str(err.value) == f"{tmp_path / 'cfg'}:2: bad value for prior.tau: expected a finite real, got {value!r}"


@pytest.mark.parametrize(
    "key",
    ["seg.k", "seg.sigma", "ifv.gmm_tol", "ifv.variance_floor", "svm.lambda", "fusion.lambda", "regress.lambda"],
)
def test_positive_reals_reject_infinity_and_nan(tmp_path, key):
    for value in ("inf", "1e400", "nan", "1_0", "2.5e1_0", "\u0661.\u0665"):
        with pytest.raises(ValueError) as err:
            _load(tmp_path, f"{key} = {value}\n")
        assert str(err.value) == f"{tmp_path / 'cfg'}:1: bad value for {key}: expected a finite real, got {value!r}"
    assert getattr(_load(tmp_path, f"{key} = 1e300\n"), key.replace(".", "_")) == 1e300
    assert getattr(_load(tmp_path, f"{key} = 1e+20\n"), key.replace(".", "_")) == 1e20


def test_unknown_key_names_the_line(tmp_path):
    with pytest.raises(ValueError, match=r"cfg:3: unknown key 'bogus'"):
        _load(tmp_path, "seed = 1\n\nbogus = 2\n")


def test_out_of_range_names_the_line(tmp_path):
    with pytest.raises(ValueError, match=r"cfg:1: seg.k = -1 out of range \(must be > 0\)"):
        _load(tmp_path, "seg.k = -1\n")
    with pytest.raises(ValueError, match=r"must be >= 1"):
        _load(tmp_path, "svm.epochs = 0\n")
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        _load(tmp_path, "nms.iou = 0\n")


def test_regress_channel_takes_exactly_the_channels_of_classify(tmp_path):
    assert pipeline.CHANNELS is classify.CHANNELS
    for channel in classify.CHANNELS:
        assert _load(tmp_path, f"regress.channel = {channel}\n").regress_channel == channel
    for other in ("fused", "dpm", "CNN", "prior_ifv", ""):
        with pytest.raises(ValueError, match="expected one of"):
            _load(tmp_path, f"regress.channel = {other}\n")


def test_malformed_lines(tmp_path):
    with pytest.raises(ValueError, match="bad value for seed"):
        _load(tmp_path, "seed = abc\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        _load(tmp_path, "seed 5\n")
    with pytest.raises(ValueError, match="expected true or false"):
        _load(tmp_path, "svm.hard_negatives = banana\n")
    with pytest.raises(ValueError, match="expected one of"):
        _load(tmp_path, "regress.channel = dpm\n")
    # integers are ASCII decimal digits, as in every other text format
    for key, value in (
        ("seed", "1_0"),
        ("seg.min_size", "+5"),
        ("hog.cells_x", "\u0663"),
        ("svm.epochs", "-1"),
        ("seed", "-1"),
        ("ifv.patch", "2.0"),
    ):
        with pytest.raises(ValueError) as err:
            _load(tmp_path, f"{key} = {value}\n")
        assert str(err.value) == (
            f"{tmp_path / 'cfg'}:1: bad value for {key}: expected a non-negative integer, got {value!r}"
        )


def test_cross_field_validation(tmp_path):
    with pytest.raises(ValueError, match=r"ifv.window must be >= ifv.patch"):
        _load(tmp_path, "ifv.window = 8\nifv.patch = 16\n")
    with pytest.raises(ValueError, match=r"ifv.codebook_samples must be >= ifv.gmm_k"):
        _load(tmp_path, "ifv.codebook_samples = 4\nifv.gmm_k = 8\n")


def test_config_lines_are_canonical():
    cfg = PipelineConfig()
    lines = config_lines(cfg)
    assert lines == sorted(lines)
    assert len(lines) == len(dataclasses.fields(cfg))
    assert "ifv.gmm_k = 16" in lines
    assert "prior.tau = auto" in lines
    assert "svm.hard_negatives = false" in lines
    assert "seg.k = 300" in lines
    assert "svm.lambda = 0.001" in lines


def test_config_lines_round_trip(tmp_path):
    cfg = PipelineConfig(
        seed=7,
        seg_sigma=0.123456789012345,
        svm_hard_negatives=True,
        prior_tau=-2.5,
        regress_channel="hog",
        ifv_gmm_tol=1e-9,
    )
    p = tmp_path / "cfg"
    p.write_text("\n".join(config_lines(cfg)) + "\n")
    assert load_config(p) == cfg


def test_config_digest_tracks_content():
    a = PipelineConfig()
    b = PipelineConfig()
    assert config_digest(a) == config_digest(b)
    assert len(config_digest(a)) == 64
    b.seed = 1
    assert config_digest(a) != config_digest(b)


ALL_KEYS = [
    "seed",
    "seg.k",
    "seg.sigma",
    "seg.min_size",
    "proposals.max_per_image",
    "hog.cells_x",
    "hog.cells_y",
    "ifv.patch",
    "ifv.stride",
    "ifv.window",
    "ifv.pca_dim",
    "ifv.gmm_k",
    "ifv.gmm_iters",
    "ifv.gmm_tol",
    "ifv.variance_floor",
    "ifv.codebook_samples",
    "svm.lambda",
    "svm.epochs",
    "svm.negative_cap",
    "svm.hard_negatives",
    "svm.hard_negative_count",
    "fusion.lambda",
    "fusion.epochs",
    "train.pos_iou",
    "train.neg_iou",
    "regress.lambda",
    "regress.match_iou",
    "regress.channel",
    "nms.iou",
    "eval.iou",
    "prior.feature",
    "prior.recall",
    "prior.tau",
]


def test_the_key_names_are_pinned(tmp_path):
    assert len(ALL_KEYS) == 33
    assert set(KEYS) == set(ALL_KEYS)
    lines = config_lines(PipelineConfig())
    assert [line.split(" = ")[0] for line in lines] == sorted(ALL_KEYS)
    assert _load(tmp_path, "\n".join(lines)) == PipelineConfig()
    for key in ("seg_min_size", "seg.min.size", "min_size"):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            _load(tmp_path, f"{key} = 5\n")


_FINITE = dict(allow_nan=False, allow_infinity=False)
# a draw inside each declared range; the choices are the documented ones
_INTS = {">= 0": 0, ">= 1": 1, ">= 2": 2}
_REALS = {
    "> 0": st.floats(min_value=0.0, exclude_min=True, **_FINITE),
    "in (0, 1]": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "in [0, 1]": st.floats(min_value=0.0, max_value=1.0),
}
_OTHERS = {
    "svm.hard_negatives": st.booleans(),
    "regress.channel": st.sampled_from(classify.CHANNELS),
    "prior.feature": st.sampled_from(["ifv", "cnn"]),
    "prior.tau": st.none() | st.just(-math.inf) | st.floats(**_FINITE),
}


def _strategy(key):
    if key in _OTHERS:
        return _OTHERS[key]
    valid = KEYS[key].metadata["range"]
    if valid in _INTS:
        return st.integers(min_value=_INTS[valid], max_value=10**30)
    return _REALS[valid]


@st.composite
def _configs(draw):
    cfg = PipelineConfig(**{KEYS[key].name: draw(_strategy(key)) for key in ALL_KEYS})
    # the two cross-field rules of load_config
    return dataclasses.replace(
        cfg,
        ifv_window=max(cfg.ifv_window, cfg.ifv_patch),
        ifv_codebook_samples=max(cfg.ifv_codebook_samples, cfg.ifv_gmm_k),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=_configs())
def test_every_key_round_trips_through_config_lines(tmp_path_factory, cfg):
    p = tmp_path_factory.mktemp("cfg") / "cfg"
    p.write_text("\n".join(config_lines(cfg)) + "\n")
    assert load_config(p) == cfg


def _readme_config_rows():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    assert rows, "README's Configuration section has no key rows"
    for row in rows:
        keys_cell, defaults_cell = (cell.strip() for cell in row.strip("|").split("|")[:2])
        keys = re.findall(r"`([^`]+)`", keys_cell)
        defaults = [d.strip() for d in defaults_cell.split(",")]
        assert len(keys) == len(defaults), row
        yield from zip(keys, defaults)


def test_readme_config_table_states_the_declared_defaults():
    for key, default in _readme_config_rows():
        assert key in KEYS, f"README names unknown key {key!r}"
        assert parse_setting(key, default) == KEYS[key].default, f"README states {key} = {default}"
