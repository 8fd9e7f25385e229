"""Stage orchestration on a miniature synthetic dataset, plus the CLI."""

import dataclasses
import hashlib
import shutil

import numpy as np
import pytest

from fusedet import cli, pipeline
from fusedet.cache import load_arrays
from fusedet.config import PipelineConfig
from fusedet.core import Box
from fusedet.evaluation import mean_ap, read_report
from fusedet.features.cnn import load_cnn_features
from fusedet.images import read_pnm
from fusedet.manifest import read_manifest
from fusedet.pipeline import (
    MissingArtifact,
    derive_seed,
    detections_path,
    read_proposals,
    report_path,
    stage_all,
    stage_compare,
    stage_detect,
    stage_eval,
    stage_extract,
    stage_propose,
    stage_render,
    stage_train_svm,
    tag_for,
    write_proposals,
)
from fusedet.synth import SynthSpec, generate_dataset


def _micro_cfg():
    # trimmed for test speed; quality bars live in the acceptance suite
    return PipelineConfig(
        ifv_codebook_samples=1500,
        ifv_pca_dim=16,
        ifv_gmm_k=4,
        ifv_gmm_iters=20,
        svm_epochs=5,
        fusion_epochs=5,
    )


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = _micro_cfg()
    report = stage_all(
        cfg,
        out,
        train_images=8,
        test_images=8,
        classes=3,
        max_shapes=2,
        noise=0.3,
        image_size=64,
    )
    return {
        "cfg": cfg,
        "out": out,
        "report": report,
        "train_manifest": out / "data" / "train" / "manifest.txt",
        "test_manifest": out / "data" / "test" / "manifest.txt",
    }


# ------------------------------------------------------------------ helpers


def test_derive_seed_matches_an_independent_hash():
    expect = int.from_bytes(hashlib.sha256(b"0|a").digest()[:8], "little")
    assert derive_seed(0, "a") == expect
    expect = int.from_bytes(hashlib.sha256(b"7|svm|cnn|2").digest()[:8], "little")
    assert derive_seed(7, "svm", "cnn", 2) == expect
    assert derive_seed(0, "a") != derive_seed(0, "b")
    assert derive_seed(0, "a") != derive_seed(1, "a")
    assert derive_seed(0, "a", "b") != derive_seed(0, "ab")
    assert 0 <= derive_seed(3, "x") < 2**64


def test_tag_for_prefers_override_then_directory():
    assert tag_for("/data/train/manifest.txt") == "train"
    assert tag_for("/data/train/manifest.txt", "other") == "other"


def test_proposals_file_round_trip(tmp_path):
    per_image = [
        ("im_0", [Box(0.5, 1.25, 10.0, 12.0), Box(3.0, 3.0, 8.0, 9.0)]),
        ("im_1", []),
    ]
    p = tmp_path / "props.txt"
    write_proposals(p, per_image)
    got = read_proposals(p)
    assert got == {"im_0": per_image[0][1], "im_1": []}


def test_read_proposals_errors(tmp_path):
    p = tmp_path / "props.txt"
    p.write_text("im_0 1\n0 0 5 5\nim_0 0\n")
    with pytest.raises(ValueError, match="duplicate image im_0"):
        read_proposals(p)
    p.write_text("im_0 2\n0 0 5 5\n")
    with pytest.raises(ValueError, match="declares 2 boxes, file ends early"):
        read_proposals(p)
    p.write_text("im_0 1\n0 0 5\n")
    with pytest.raises(ValueError, match="bad proposal line"):
        read_proposals(p)
    p.write_text("im_0\n")
    with pytest.raises(ValueError, match="expected 'image_id count'"):
        read_proposals(p)


def test_artifact_paths_use_channel_suffixes(tmp_path):
    assert detections_path(tmp_path, "test").name == "detections_test.txt"
    assert detections_path(tmp_path, "test", "hog").name == "detections_test_hog.txt"
    assert report_path(tmp_path, "test").name == "report_test.txt"
    assert report_path(tmp_path, "test", "ifv").name == "report_test_ifv.txt"


# -------------------------------------------------------------- stage wiring


def test_missing_artifacts_name_the_stage_to_run(tmp_path):
    spec = SynthSpec(n_classes=3, n_images=2, max_shapes=1, noise=0.2, image_size=64)
    generate_dataset(tmp_path / "data", spec, seed=0)
    manifest = tmp_path / "data" / "manifest.txt"
    out = tmp_path / "out"
    out.mkdir()
    cfg = _micro_cfg()

    with pytest.raises(MissingArtifact, match="run 'propose' first"):
        stage_extract(cfg, manifest, out)
    stage_propose(cfg, manifest, out)
    with pytest.raises(MissingArtifact, match="run 'extract' first"):
        stage_train_svm(cfg, manifest, out)
    stage_extract(cfg, manifest, out)
    with pytest.raises(MissingArtifact, match="run 'train-svm' first"):
        stage_detect(cfg, manifest, out)


def test_missing_cnn_records_name_the_file_image_and_proposal(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "train" / "manifest.txt"

    def drop_last_record(name):
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))
        image_id, index = lines[-1].split()[:2]
        return f"{path}: no vector for image {image_id} proposal {index}; rerun 'extract'"

    expected = drop_last_record("cnn_train.txt")
    assert cli.main(["train-svm", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"fusedet: error: {expected}\n"

    expected = drop_last_record("cnn_images_train.txt")
    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    with pytest.raises(MissingArtifact) as err:
        pipeline.stage_train_prior(cfg, manifest, out)
    assert str(err.value) == expected


def test_all_writes_the_whole_artifact_graph(pipe):
    out = pipe["out"]
    for name in (
        "proposals_train.txt",
        "proposals_test.txt",
        "features_train.npz",
        "features_test.npz",
        "cnn_train.txt",
        "cnn_test.txt",
        "cnn_images_train.txt",
        "cnn_images_test.txt",
        "codebook_pca.model",
        "codebook_gmm.model",
        "svm_cnn.model",
        "svm_hog.model",
        "svm_ifv.model",
        "fusion.model",
        "regressor.model",
        "prior.model",
        "detections_test.txt",
        "report_test.txt",
    ):
        assert (out / name).exists(), name
    report = read_report(pipe["report"])
    assert set(report.aps) == {0, 1, 2}
    assert 0.0 <= mean_ap(report) <= 1.0


def test_every_test_image_has_proposals_within_the_cap(pipe):
    props = read_proposals(pipe["out"] / "proposals_test.txt")
    man = read_manifest(pipe["test_manifest"])
    cfg = pipe["cfg"]
    assert set(props) == {im.image_id for im in man.images}
    for image_id, boxes in props.items():
        assert 1 <= len(boxes) <= cfg.proposals_max_per_image
        for b in boxes:
            assert 0 <= b.x_min < b.x_max <= 64
            assert 0 <= b.y_min < b.y_max <= 64


def test_feature_rows_align_with_proposals(pipe):
    feats = load_arrays(pipe["out"] / "features_test.npz")
    props = read_proposals(pipe["out"] / "proposals_test.txt")
    man = read_manifest(pipe["test_manifest"])
    total = sum(len(props[im.image_id]) for im in man.images)
    assert feats["hog"].shape[0] == total
    assert feats["ifv"].shape[0] == total
    assert feats["row_image"].shape == (total,)
    assert feats["prior_ifv"].shape[0] == len(man.images)
    for i, im in enumerate(man.images):
        rows = np.nonzero(feats["row_image"] == i)[0]
        assert len(rows) == len(props[im.image_id])
        assert list(feats["row_proposal"][rows]) == list(range(len(rows)))


def test_stand_in_embeddings_are_unit_norm(pipe):
    table = load_cnn_features(pipe["out"] / "cnn_test.txt")
    assert table.dim == 3 * pipeline.CNN_EMBED_SIDE**2
    norms = [float(v @ v) for v in (table.get(*k) for k in list(table.keys())[:50])]
    assert np.allclose(norms, 1.0, atol=1e-9)


def test_detection_dump_is_sane(pipe):
    from fusedet.core import read_detections

    with open(pipe["out"] / "detections_test.txt") as fh:
        dets = read_detections(fh)
    man = read_manifest(pipe["test_manifest"])
    ids = {im.image_id for im in man.images}
    for d in dets:
        assert d.image_id in ids
        assert 0 <= d.category_id < 3
        assert 0 <= d.box.x_min < d.box.x_max <= 64


def test_rerunning_detect_and_eval_is_byte_identical(pipe):
    out = pipe["out"]
    cfg = pipe["cfg"]
    det_before = (out / "detections_test.txt").read_bytes()
    rep_before = (out / "report_test.txt").read_bytes()
    log_before = (out / "runlog_detect-fused_test.txt").read_bytes()
    stage_detect(cfg, pipe["test_manifest"], out)
    stage_eval(cfg, pipe["test_manifest"], out)
    assert (out / "detections_test.txt").read_bytes() == det_before
    assert (out / "report_test.txt").read_bytes() == rep_before
    assert (out / "runlog_detect-fused_test.txt").read_bytes() == log_before


def test_runlogs_carry_stage_tag_config_and_seed(pipe):
    text = (pipe["out"] / "runlog_eval-fused_test.txt").read_text()
    lines = text.splitlines()
    assert lines[0] == "stage eval-fused"
    assert lines[1] == "tag test"
    assert lines[2].startswith("config ") and len(lines[2].split()[1]) == 64
    assert lines[3] == f"seed {pipe['cfg'].seed}"
    assert any(ln.startswith("mAP ") for ln in lines)


def test_single_channel_detect_eval_and_compare(pipe):
    out = pipe["out"]
    cfg = pipe["cfg"]
    stage_detect(cfg, pipe["test_manifest"], out, channel="hog")
    assert (out / "detections_test_hog.txt").exists()
    stage_eval(cfg, pipe["test_manifest"], out, channel="hog")
    assert (out / "report_test_hog.txt").exists()

    wins = stage_compare(
        {"fused": out / "report_test.txt", "hog": out / "report_test_hog.txt"},
        out / "compare.txt",
    )
    assert set(wins) == {"fused", "hog"}
    assert all(v >= 0 for v in wins.values())
    assert sum(wins.values()) <= 3
    lines = (out / "compare.txt").read_text().splitlines()
    assert lines == [f"fused {wins['fused']}", f"hog {wins['hog']}"]


def test_detect_rejects_unknown_channel(pipe):
    with pytest.raises(ValueError, match="unknown detect channel"):
        stage_detect(pipe["cfg"], pipe["test_manifest"], pipe["out"], channel="dpm")


def test_eval_accepts_custom_detection_and_report_files(pipe, tmp_path):
    out = pipe["out"]
    custom_dets = tmp_path / "dets.txt"
    custom_dets.write_bytes((out / "detections_test.txt").read_bytes())
    custom_report = tmp_path / "rep.txt"
    got = stage_eval(
        pipe["cfg"],
        pipe["test_manifest"],
        out,
        detections_file=custom_dets,
        report_file=custom_report,
    )
    assert got == custom_report
    assert custom_report.read_bytes() == (out / "report_test.txt").read_bytes()


def test_render_writes_an_overlay_per_image(pipe):
    out = pipe["out"]
    overlay_dir = stage_render(pipe["cfg"], pipe["test_manifest"], out)
    man = read_manifest(pipe["test_manifest"])
    for im in man.images:
        path = overlay_dir / f"{im.image_id}.ppm"
        assert path.exists()
        img = read_pnm(path)
        assert img.pixels.shape == (64, 64, 3)


# ------------------------------------------------------------------- the cli


def test_cli_synth_propose_and_error_paths(tmp_path, capsys):
    data = tmp_path / "data"
    rc = cli.main(
        [
            "synth",
            "--out-dir",
            str(data),
            "--images",
            "2",
            "--size",
            "64",
            "--max-shapes",
            "1",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    assert "wrote 2 images" in capsys.readouterr().out

    out = tmp_path / "out"
    rc = cli.main(
        [
            "propose",
            "--manifest",
            str(data / "manifest.txt"),
            "--out-dir",
            str(out),
        ]
    )
    assert rc == 0
    assert (out / "proposals_data.txt").exists()

    # detect before training must fail cleanly, not traceback
    rc = cli.main(
        [
            "detect",
            "--manifest",
            str(data / "manifest.txt"),
            "--out-dir",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "fusedet: error:" in captured.err
    assert "run 'extract' first" in captured.err


def test_cli_compare_rejects_unnamed_reports(tmp_path, capsys):
    rc = cli.main(["compare", "just-a-path", "--out", str(tmp_path / "c.txt")])
    assert rc == 1
    assert "expected NAME=PATH" in capsys.readouterr().err


def test_cli_config_file_and_seed_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text("seg.min_size = 60\nseed = 5\n")
    data = tmp_path / "data"
    spec = SynthSpec(n_classes=3, n_images=1, max_shapes=1, noise=0.2, image_size=64)
    generate_dataset(data, spec, seed=0)
    out = tmp_path / "out"
    rc = cli.main(
        [
            "propose",
            "--manifest",
            str(data / "manifest.txt"),
            "--out-dir",
            str(out),
            "--config",
            str(cfg_file),
            "--seed",
            "9",
        ]
    )
    assert rc == 0
    text = (out / "runlog_propose_data.txt").read_text()
    assert "seed 9" in text  # --seed beats the config file

    rc = cli.main(
        [
            "propose",
            "--manifest",
            str(data / "manifest.txt"),
            "--out-dir",
            str(out),
            "--config",
            str(tmp_path / "nope.cfg"),
        ]
    )
    assert rc == 1
    assert "fusedet: error:" in capsys.readouterr().err
