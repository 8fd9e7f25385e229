"""Stage orchestration on a miniature synthetic dataset, plus the CLI."""

import dataclasses
import hashlib
import inspect
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusedet import cache, cli, modelio, pipeline
from fusedet.cache import file_sha256, load_arrays, save_arrays
from fusedet.config import PipelineConfig
from fusedet.core import Box
from fusedet.evaluation import PerClassReport, mean_ap, read_report, write_report
from fusedet.features.cnn import load_cnn_features, write_cnn_features
from fusedet.images import Image, box_corners, read_pnm, write_pnm
from fusedet.manifest import DatasetManifest, ManifestImage, read_manifest, write_manifest
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


# config-file lines that reproduce the codebook _micro_cfg fits, so a CLI run
# with an otherwise default config may reuse the fixture's codebook
MICRO_CODEBOOK = f"ifv.pca_dim = {_micro_cfg().ifv_pca_dim}\nifv.gmm_k = {_micro_cfg().ifv_gmm_k}\n"


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    cfg = _micro_cfg()
    with pytest.MonkeyPatch.context() as mp:
        parses = _count_parses(mp)
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
        "parses": parses,
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
    for text, message in (
        ("im_0 1\n0 0 5 5\nim_0 0\n", "3: duplicate image im_0"),
        ("im_0 2\n0 0 5 5\n", "1: image im_0 declares 2 boxes, file ends early"),
        ("im_0 1\n0 0 5\n", "2: bad proposal line '0 0 5'"),
        ("im_0\n", "1: expected 'image_id count', got 'im_0'"),
        ("im_0 -1\n", "1: bad box count '-1'"),
        ("im_0 x\n", "1: bad box count 'x'"),
        ("im_0 +1\n0 0 5 5\n", "1: bad box count '+1'"),
        ("im_0 1_0\n0 0 5 5\n", "1: bad box count '1_0'"),
        ("im_0 \u0661\n0 0 5 5\n", "1: bad box count '\u0661'"),
        ("im_0 1\n\n0 0 a 5\n", "3: expected a finite real, got 'a'"),
        ("im_0 1\n0 0 inf 5\n", "2: expected a finite real, got 'inf'"),
        ("im_0 0\nim_1 1\n0 0 0 5\n", "3: box must have positive area, got (0.0, 0.0, 0.0, 5.0)"),
    ):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_proposals(p)
        assert str(err.value) == f"{p}:{message}"


_COORD = st.floats(-1e6, 1e6, allow_nan=False)
_SIDE = st.floats(1e-3, 1e6)


@st.composite
def _proposal_files(draw):
    ids = draw(st.lists(st.text(alphabet="abcxyz_0123456789", min_size=1, max_size=6), max_size=5, unique=True))
    per_image = []
    for image_id in ids:
        boxes = []
        for x0, y0, w, h in draw(st.lists(st.tuples(_COORD, _COORD, _SIDE, _SIDE), max_size=6)):
            if x0 + w > x0 and y0 + h > y0:
                boxes.append(Box(x0, y0, x0 + w, y0 + h))
        per_image.append((image_id, boxes))
    return per_image


@settings(max_examples=100, deadline=None)
@given(per_image=_proposal_files())
def test_write_then_read_proposals_round_trips_any_boxes(tmp_path_factory, per_image):
    p = tmp_path_factory.mktemp("props") / "props.txt"
    write_proposals(p, per_image)
    assert read_proposals(p) == dict(per_image)


@settings(max_examples=100, deadline=None)
@given(
    per_image=_proposal_files().filter(bool),
    at=st.integers(0, 40),
    bad_count=st.sampled_from(["x", "-1", "2.5"]),
    bad_coord=st.sampled_from(["a", "nan", "inf", "-inf", None]),
)
def test_a_malformed_proposals_line_anywhere_is_rejected_with_its_number(
    tmp_path_factory, per_image, at, bad_count, bad_coord
):
    p = tmp_path_factory.mktemp("props") / "props.txt"
    write_proposals(p, per_image)
    lines = p.read_text().splitlines(keepends=True)
    at %= len(lines)
    toks = lines[at].split()
    if len(toks) == 2:  # an image header: spoil its count
        toks[1] = bad_count
    else:  # a box line: spoil its x_max, or give it zero width
        toks[2] = toks[0] if bad_coord is None else bad_coord
    lines[at] = " ".join(toks) + "\n"
    p.write_text("".join(lines))
    with pytest.raises(ValueError, match=rf"props.txt:{at + 1}: "):
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
    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    with pytest.raises(MissingArtifact) as err:
        pipeline.stage_train_prior(cfg, manifest, out)
    assert str(err.value) == expected

    shutil.copy(pipe["out"] / "cnn_train.txt", out / "cnn_train.txt")
    expected = drop_last_record("cnn_images_train.txt")
    with pytest.raises(MissingArtifact) as err:
        pipeline.stage_train_prior(cfg, manifest, out)
    assert str(err.value) == expected


# ------------------------------------------------- CNN rows in the archive


def _count_parses(monkeypatch):
    """Counts the text parses the pipeline makes from here on."""
    calls = []

    def counted(path):
        calls.append(path)
        return load_cnn_features(path)

    monkeypatch.setattr(pipeline, "load_cnn_features", counted)
    return calls


def _count_saves(monkeypatch):
    """Counts the archive writes the pipeline makes from here on."""
    saves = []
    save = cache.save_arrays

    def counted(path, arrays):
        saves.append(path)
        save(path, arrays)

    monkeypatch.setattr(cache, "save_arrays", counted)
    return saves


def _row_keys(feats, man):
    return [(man.images[i].image_id, int(p)) for i, p in zip(feats["row_image"], feats["row_proposal"])]


def _parsed_rows(text, keys):
    """The float64 vectors of a CNN features text for keys, in order."""
    index, matrix = load_cnn_features(text)
    return matrix[[index[key] for key in keys]]


def _assert_same_bits(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_a_full_synth_run_parses_no_cnn_text(pipe):
    assert pipe["parses"] == []
    assert sorted(path.name for path in pipe["out"].glob("cnn_*")) == [
        "cnn_images_test.txt",
        "cnn_images_train.txt",
        "cnn_test.txt",
        "cnn_train.txt",
    ]


def test_extract_stores_the_parse_of_its_texts_bit_for_bit(pipe):
    for split in ("train", "test"):
        feats = load_arrays(pipe["out"] / f"features_{split}.npz")
        man = read_manifest(pipe["out"] / "data" / split / "manifest.txt")
        for name, text, keys in (
            ("cnn", pipe["out"] / f"cnn_{split}.txt", _row_keys(feats, man)),
            ("prior_cnn", pipe["out"] / f"cnn_images_{split}.txt", [(im.image_id, 0) for im in man.images]),
        ):
            _assert_same_bits(feats[name], _parsed_rows(text, keys))
            assert str(feats[name + "_sha256"]) == file_sha256(text)


def test_replaced_embeddings_are_imported_into_the_archive_once(pipe, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "train" / "manifest.txt"
    archive = out / "features_train.npz"
    for name in ("cnn_train.txt", "cnn_images_train.txt"):
        index, matrix = load_cnn_features(out / name)
        write_cnn_features(out / name, [(image_id, p, 2.0 * matrix[row] + 1.0) for (image_id, p), row in index.items()])
    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    feats = load_arrays(archive)
    keys = _row_keys(feats, read_manifest(manifest))
    replaced = _parsed_rows(out / "cnn_train.txt", keys)
    assert not np.array_equal(replaced, feats["cnn"])

    calls = _count_parses(monkeypatch)
    data = pipeline._stage_inputs(manifest, out, None)
    _assert_same_bits(data.channels["cnn"], replaced)
    assert calls == [out / "cnn_train.txt"]
    stored = load_arrays(archive)
    _assert_same_bits(stored["cnn"], replaced)
    assert str(stored["cnn_sha256"]) == file_sha256(out / "cnn_train.txt")

    for stage in (pipeline.stage_train_svm, pipeline.stage_train_prior, pipeline.stage_train_fusion):
        stage(cfg, manifest, out)
    assert calls == [out / "cnn_train.txt", out / "cnn_images_train.txt"]
    stored = load_arrays(archive)
    images = [(im.image_id, 0) for im in read_manifest(manifest).images]
    _assert_same_bits(stored["prior_cnn"], _parsed_rows(out / "cnn_images_train.txt", images))
    assert str(stored["prior_cnn_sha256"]) == file_sha256(out / "cnn_images_train.txt")
    for name in ("boxes", "hog", "ifv", "prior_ifv", "row_image", "row_proposal"):
        assert stored[name].tobytes() == feats[name].tobytes(), name


_IMAGE_IDS = st.text(alphabet="ab_09.-\x00", min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    keys=st.lists(st.tuples(_IMAGE_IDS, st.integers(0, 2**40)), min_size=1, max_size=10, unique=True),
    width=st.integers(1, 5),
    data=st.data(),
)
def test_the_archive_holds_the_parse_bit_for_bit(tmp_path_factory, keys, width, data):
    values = st.floats(allow_nan=False, allow_infinity=False)
    records = [(i, p, np.array(data.draw(st.lists(values, min_size=width, max_size=width)))) for i, p in keys]
    folder = tmp_path_factory.mktemp("cnn")
    text, archive = folder / "cnn_t.txt", folder / "features_t.npz"
    write_cnn_features(text, records)
    wanted = data.draw(st.permutations(keys))[: data.draw(st.integers(0, len(keys)))]
    expected = _parsed_rows(text, wanted)

    feats = {}
    assert pipeline._import_cnn(feats, "cnn", text, wanted)
    _assert_same_bits(feats["cnn"], expected)

    # the reader serves the same rows from a split whose archive lacks them,
    # stores them, and then serves them from the archive with no parse
    ids = list(dict.fromkeys(image_id for image_id, _ in keys))
    man = DatasetManifest(categories=[], images=[ManifestImage(image_id, "unused.ppm") for image_id in ids])
    blank = np.zeros((len(wanted), 1))
    save_arrays(archive, {
        "boxes": np.zeros((len(wanted), 4)),
        "hog": blank,
        "ifv": blank,
        "row_image": np.array([ids.index(image_id) for image_id, _ in wanted], dtype=np.int64),
        "row_proposal": np.array([p for _, p in wanted], dtype=np.int64),
    })
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_parses(mp)
        _assert_same_bits(pipeline._stage_inputs(None, folder, "t", man=man).channels["cnn"], expected)
    assert calls == [text]
    stored = load_arrays(archive)
    _assert_same_bits(stored["cnn"], expected)
    assert not pipeline._import_cnn(stored, "cnn", text, wanted)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_parses(mp)
        _assert_same_bits(pipeline._stage_inputs(None, folder, "t", man=man).channels["cnn"], expected)
    assert calls == []


@pytest.mark.parametrize("damage", ["stripped", "stale"])
def test_an_archive_without_its_cnn_rows_is_restored_byte_for_byte(pipe, tmp_path, monkeypatch, damage):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "train" / "manifest.txt"
    archive = out / "features_train.npz"
    good = archive.read_bytes()
    arrays = load_arrays(archive)
    for name in ("cnn", "prior_cnn"):
        if damage == "stripped":
            del arrays[name], arrays[name + "_sha256"]
        else:
            arrays[name + "_sha256"] = np.array("0" * 64)
    save_arrays(archive, arrays)

    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    calls = _count_parses(monkeypatch)
    stage_train_svm(cfg, manifest, out)
    pipeline.stage_train_prior(cfg, manifest, out)
    assert calls == [out / "cnn_train.txt", out / "cnn_images_train.txt"]
    assert archive.read_bytes() == good
    stage_train_svm(cfg, manifest, out)
    pipeline.stage_train_prior(cfg, manifest, out)
    assert len(calls) == 2


def test_detect_imports_both_cnn_texts_with_one_rewrite(pipe, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    pipeline.stage_train_prior(cfg, pipe["train_manifest"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    archive = out / "features_test.npz"
    good = archive.read_bytes()
    arrays = load_arrays(archive)
    for name in ("cnn", "prior_cnn"):
        del arrays[name], arrays[name + "_sha256"]
    save_arrays(archive, arrays)
    stripped = archive.read_bytes()

    saves = _count_saves(monkeypatch)
    images = out / "cnn_images_test.txt"
    text = images.read_text()
    images.write_text(text + "img 0 oops\n")
    with pytest.raises(ValueError, match="cnn_images_test.txt"):
        pipeline.stage_detect(cfg, manifest, out)
    assert saves == [] and archive.read_bytes() == stripped

    images.write_text(text)
    pipeline.stage_detect(cfg, manifest, out)
    assert saves == [archive]
    assert archive.read_bytes() == good
    pipeline.stage_detect(cfg, manifest, out)
    assert saves == [archive]


def test_train_prior_imports_both_cnn_texts_with_one_rewrite(pipe, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    cfg = dataclasses.replace(pipe["cfg"], prior_feature="cnn")
    manifest = out / "data" / "train" / "manifest.txt"
    archive = out / "features_train.npz"
    texts = [out / "cnn_train.txt", out / "cnn_images_train.txt"]
    for text in texts:
        index, matrix = load_cnn_features(text)
        write_cnn_features(text, [(image_id, p, 2.0 * matrix[row] + 1.0) for (image_id, p), row in index.items()])
    before = archive.read_bytes()

    saves = _count_saves(monkeypatch)
    images = texts[1].read_text()
    texts[1].write_text(images + "img 0 oops\n")
    with pytest.raises(ValueError, match="cnn_images_train.txt"):
        pipeline.stage_train_prior(cfg, manifest, out)
    assert saves == [] and archive.read_bytes() == before

    texts[1].write_text(images)
    calls = _count_parses(monkeypatch)
    pipeline.stage_train_prior(cfg, manifest, out)
    assert calls == texts and saves == [archive]
    stored = load_arrays(archive)
    man = read_manifest(manifest)
    _assert_same_bits(stored["cnn"], _parsed_rows(texts[0], _row_keys(stored, man)))
    _assert_same_bits(stored["prior_cnn"], _parsed_rows(texts[1], [(im.image_id, 0) for im in man.images]))
    pipeline.stage_train_prior(cfg, manifest, out)
    assert calls == texts and saves == [archive]


def test_malformed_replaced_text_fails_with_its_line_and_leaves_the_archive(pipe, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    text = out / "cnn_train.txt"
    archive = (out / "features_train.npz").read_bytes()
    lines = text.read_text().splitlines(keepends=True)
    lines.insert(2, "img 0 1.0 oops\n")
    text.write_text("".join(lines))
    with pytest.raises(ValueError) as direct:
        load_cnn_features(text)
    assert str(direct.value) == f"{text}:3: malformed feature value"
    with pytest.raises(ValueError) as staged:
        stage_train_svm(pipe["cfg"], pipe["train_manifest"], out)
    assert str(staged.value) == str(direct.value)
    assert (out / "features_train.npz").read_bytes() == archive


def _snapshot(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_rerunning_train_svm_is_byte_identical(pipe, tmp_path, monkeypatch):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    before = _snapshot(out)
    calls = _count_parses(monkeypatch)
    for _ in range(2):
        stage_train_svm(pipe["cfg"], pipe["train_manifest"], out)
        assert calls == []
        assert _snapshot(out) == before


@pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
def test_a_damaged_features_archive_fails_with_a_rerun_message(pipe, tmp_path, capsys, damage):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    for verb, split in (("detect", "test"), ("train-prior", "train")):
        path = out / f"features_{split}.npz"
        good = path.read_bytes()
        path.write_bytes({"truncate": good[:1000], "garbage": b"not a zip archive\n", "empty": b""}[damage])
        assert _cli(verb, out / "data" / split / "manifest.txt", out) == 1
        assert capsys.readouterr().err == f"fusedet: error: {path}: not a readable features archive; rerun 'extract'\n"


def test_extract_refuses_a_split_of_mixed_channel_counts(tmp_path):
    spec = SynthSpec(n_classes=3, n_images=3, max_shapes=1, noise=0.2, image_size=64)
    generate_dataset(tmp_path / "data", spec, seed=0)
    manifest = tmp_path / "data" / "manifest.txt"
    man = read_manifest(manifest)
    gray = man.images[2]
    img = read_pnm(man.resolved_path(gray))
    write_pnm(Image.from_array(img.pixels[:, :, :1]), tmp_path / "data" / "gray.pgm")
    gray.path = "gray.pgm"
    write_manifest(manifest, man)
    out = tmp_path / "out"
    cfg = _micro_cfg()
    stage_propose(cfg, manifest, out)
    with pytest.raises(ValueError) as err:
        stage_extract(cfg, manifest, out)
    assert str(err.value) == (
        f"{manifest}: image {man.images[0].image_id} has 3 channels but image {gray.image_id} has 1; "
        "the images of one split must share a channel count"
    )
    assert not (out / "features_data.npz").exists() and not (out / "cnn_data.txt").exists()


def _cli(verb, manifest, out, *extra):
    return cli.main([verb, "--manifest", str(manifest), "--out-dir", str(out), *extra])


def test_models_of_another_feature_width_fail_with_a_rerun_message(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text("hog.cells_x = 3\n" + MICRO_CODEBOOK)
    expected = f"fusedet: error: {out / 'svm_hog.model'}: model scores 576-wide features but the data has 432; rerun 'train-svm'\n"
    for split, verb in (("test", "detect"), ("train", "train-fusion")):
        manifest = out / "data" / split / "manifest.txt"
        assert _cli("extract", manifest, out, "--config", str(cfg_file)) == 0
        capsys.readouterr()
        assert _cli(verb, manifest, out, "--config", str(cfg_file)) == 1
        assert capsys.readouterr().err == expected


def test_a_regressor_of_another_feature_width_fails_with_a_rerun_message(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    train, test = (out / "data" / split / "manifest.txt" for split in ("train", "test"))
    hog_cfg = tmp_path / "hog"
    hog_cfg.write_text("regress.channel = hog\n")
    assert _cli("train-regressor", train, out, "--config", str(hog_cfg)) == 0
    # every model but the regressor retrained on narrower HOG rows
    hog_cfg.write_text("regress.channel = hog\nhog.cells_x = 3\n" + MICRO_CODEBOOK)
    for verb, manifest in (("extract", train), ("extract", test), ("train-svm", train), ("train-fusion", train)):
        assert _cli(verb, manifest, out, "--config", str(hog_cfg)) == 0
    capsys.readouterr()
    path = out / "regressor.model"
    assert _cli("detect", test, out, "--config", str(hog_cfg)) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {path}: model scores 576-wide features but the data has 432; rerun 'train-regressor'\n"
    )

    path.write_text(path.read_text().replace("meta dim 576\n", "meta dim 431\n", 1))
    assert _cli("detect", test, out, "--config", str(hog_cfg)) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {path}: not a valid box regressor: category 0: expected (4, 432) coefficients, "
        "got (4, 577); rerun 'train-regressor'\n"
    )


def test_models_of_another_category_set_fail_with_a_rerun_message(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    # the train split relabelled with two categories, beside the original so
    # it keeps the tag and the extracted features of the three-category one
    man = read_manifest(out / "data" / "train" / "manifest.txt")
    for im in man.images:
        im.ground_truths = [gt for gt in im.ground_truths if gt.category_id < 2]
    two = out / "data" / "train" / "manifest_two.txt"
    write_manifest(two, DatasetManifest(man.categories[:2], man.images))
    for verb in ("train-svm", "train-fusion", "train-regressor", "train-prior"):
        assert _cli(verb, two, out) == 0
    capsys.readouterr()
    assert _cli("detect", out / "data" / "test" / "manifest.txt", out) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {out / 'svm_cnn.model'}: model categories [0, 1] are not the manifest's 0..2; "
        "rerun 'train-svm'\n"
    )


def test_old_layouts_and_malformed_banks_fail_with_a_rerun_message(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    for name, old_kind, stage in (
        ("svm_ifv.model", "svm-bank", "train-svm"),
        ("fusion.model", "fusion", "train-fusion"),
        ("prior.model", "presence-prior", "train-prior"),
    ):
        path = out / name
        text = path.read_text()
        path.write_text(text.replace("fusedet-model 1 linear-bank\n", f"fusedet-model 1 {old_kind}\n", 1))
        assert _cli("detect", manifest, out) == 1
        assert capsys.readouterr().err == (
            f"fusedet: error: {path}: model kind is '{old_kind}', expected 'linear-bank'; rerun '{stage}'\n"
        )
        path.write_text(text)

    # a corrupted version token, then a corrupted array header
    path = out / "prior.model"
    text = path.read_text()
    path.write_text(text.replace("fusedet-model 1 linear-bank\n", "fusedet-model x linear-bank\n", 1))
    assert _cli("detect", manifest, out) == 1
    assert capsys.readouterr().err == f"fusedet: error: {path}: bad version 'x'; rerun 'train-prior'\n"
    header = next(line for line in text.splitlines() if line.startswith("array "))
    bad = " ".join(header.split()[:2] + ["-1", header.split()[3]])
    lineno = text.splitlines().index(header) + 1
    path.write_text(text.replace(header + "\n", bad + "\n", 1))
    assert _cli("detect", manifest, out) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {path}:{lineno}: bad array header {bad!r}; rerun 'train-prior'\n"
    )
    path.write_text(text)

    # a weight that is not a number
    path = out / "svm_hog.model"
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    at = next(i for i, line in enumerate(lines) if line.startswith("array weights ")) + 1
    lines[at] = "x " + lines[at].split(" ", 1)[1]
    path.write_text("".join(lines))
    assert _cli("detect", manifest, out) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {path}:{at + 1}: could not convert string to float: 'x'; rerun 'train-svm'\n"
    )
    path.write_text(text)

    # a fusion model whose means are one short of its 9 weights per row
    lines = (out / "fusion.model").read_text().splitlines(keepends=True)
    at = lines.index("array feature_means 1 9\n")
    lines[at] = "array feature_means 1 8\n"
    lines[at + 1] = " ".join(lines[at + 1].split()[:8]) + "\n"
    (out / "fusion.model").write_text("".join(lines))
    assert _cli("detect", manifest, out) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {out / 'fusion.model'}: not a valid linear bank: standardization needs 9 means "
        "and scales, got (8,) and (9,); rerun 'train-fusion'\n"
    )


def test_extract_refuses_a_saved_codebook_of_another_shape(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    cfg_file = tmp_path / "cfg"
    pca, gmm = out / "codebook_pca.model", out / "codebook_gmm.model"
    # the fixture's codebook: 16 px patches (512 input dims), 16 output dims, 4 components
    for keys, path, what, saved, key, want in (
        ("ifv.pca_dim = 16\nifv.gmm_k = 8\n", gmm, "components", 4, "ifv.gmm_k", 8),
        ("ifv.pca_dim = 8\nifv.gmm_k = 4\n", pca, "output dims", 16, "ifv.pca_dim", 8),
        ("ifv.patch = 8\nifv.pca_dim = 16\nifv.gmm_k = 4\n", pca, "input dims", 512, "ifv.patch", 128),
    ):
        cfg_file.write_text(keys)
        assert _cli("extract", manifest, out, "--config", str(cfg_file)) == 1
        assert capsys.readouterr().err == (
            f"fusedet: error: {path}: saved codebook has {saved} {what} where {key} asks for {want}; "
            "delete codebook_pca.model and codebook_gmm.model and rerun 'extract' on the training split\n"
        )
    assert (out / "features_test.npz").read_bytes() == (pipe["out"] / "features_test.npz").read_bytes()
    cfg_file.write_text(MICRO_CODEBOOK)
    assert _cli("extract", manifest, out, "--config", str(cfg_file)) == 0


def test_extract_names_a_malformed_codebook_file(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text(MICRO_CODEBOOK)
    for name, kind, drop, why in (
        ("codebook_pca.model", "pca", "mean", "no 'mean' array"),
        ("codebook_gmm.model", "gmm", "means", "no 'means' array"),
        ("codebook_gmm.model", "gmm", None, "weights (1, 4), means (4, 16) and variances (3, 16) disagree"),
    ):
        path = out / name
        text = path.read_text()
        meta, arrays = modelio.read_model(path, kind)
        if drop:
            del arrays[drop]
        else:
            arrays["variances"] = arrays["variances"][:3]
        modelio.write_model(path, kind, meta, arrays)
        assert _cli("extract", manifest, out, "--config", str(cfg_file)) == 1
        assert capsys.readouterr().err == (
            f"fusedet: error: {path}: not a valid codebook: {why}; "
            "delete codebook_pca.model and codebook_gmm.model and rerun 'extract' on the training split\n"
        )
        path.write_text(text)
    assert (out / "features_test.npz").read_bytes() == (pipe["out"] / "features_test.npz").read_bytes()


@pytest.mark.parametrize(
    "name, kind, array, value, why",
    [
        ("codebook_gmm.model", "gmm", "variances", -0.5, "non-positive variances"),
        ("codebook_gmm.model", "gmm", "variances", np.nan, "non-finite variances"),
        ("codebook_gmm.model", "gmm", "weights", 0.0, "non-positive weights"),
        ("codebook_gmm.model", "gmm", "weights", np.inf, "non-finite weights"),
        ("codebook_gmm.model", "gmm", "means", -np.inf, "non-finite means"),
        ("codebook_pca.model", "pca", "mean", np.nan, "non-finite mean"),
        ("codebook_pca.model", "pca", "basis", np.inf, "non-finite basis"),
    ],
)
def test_extract_refuses_codebook_values_that_break_the_encoding(pipe, tmp_path, capsys, name, kind, array, value, why):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    cfg_file = tmp_path / "cfg"
    cfg_file.write_text(MICRO_CODEBOOK)
    path = out / name
    meta, arrays = modelio.read_model(path, kind)
    arrays[array][0, -1] = value
    modelio.write_model(path, kind, meta, arrays)
    assert _cli("extract", manifest, out, "--config", str(cfg_file)) == 1
    assert capsys.readouterr().err == (
        f"fusedet: error: {path}: not a valid codebook: {why}; "
        "delete codebook_pca.model and codebook_gmm.model and rerun 'extract' on the training split\n"
    )
    assert (out / "features_test.npz").read_bytes() == (pipe["out"] / "features_test.npz").read_bytes()


def test_hard_negative_mining_retrains_the_banks_reproducibly(pipe, tmp_path):
    cfg = dataclasses.replace(pipe["cfg"], svm_hard_negatives=True, svm_hard_negative_count=50)
    runs = []
    for name in ("first", "second"):
        out = tmp_path / name
        shutil.copytree(pipe["out"], out)
        paths = stage_train_svm(cfg, out / "data" / "train" / "manifest.txt", out)
        runs.append([path.read_bytes() for path in paths])
    assert runs[0] == runs[1]
    plain = [(pipe["out"] / path.name).read_bytes() for path in paths]
    assert any(mined != base for mined, base in zip(runs[0], plain))


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


def test_downstream_stages_read_boxes_from_the_archive_not_the_proposals(pipe, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    for split in ("train", "test"):
        (out / f"proposals_{split}.txt").unlink()
    train, test = (out / "data" / split / "manifest.txt" for split in ("train", "test"))
    for stage in (pipeline.stage_train_svm, pipeline.stage_train_fusion, pipeline.stage_train_regressor):
        stage(pipe["cfg"], train, out)
    stage_detect(pipe["cfg"], test, out)
    for name in ("svm_cnn.model", "fusion.model", "regressor.model", "detections_test.txt"):
        assert (out / name).read_bytes() == (pipe["out"] / name).read_bytes(), name


def test_detect_keeps_the_boxes_its_rows_were_extracted_from(pipe, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    manifest = out / "data" / "test" / "manifest.txt"
    cap = 6  # every test image has more proposals than this under both sigmas
    cfg = dataclasses.replace(pipe["cfg"], proposals_max_per_image=cap)
    stage_propose(cfg, manifest, out)
    stage_extract(cfg, manifest, out)
    before = read_proposals(out / "proposals_test.txt")
    detections = stage_detect(cfg, manifest, out).read_bytes()
    assert detections

    stage_propose(dataclasses.replace(cfg, seg_sigma=0.6), manifest, out)
    after = read_proposals(out / "proposals_test.txt")
    assert all(len(boxes) == cap for boxes in (*before.values(), *after.values()))
    assert after != before
    assert stage_detect(cfg, manifest, out).read_bytes() == detections


def test_an_archive_without_boxes_fails_with_a_rerun_message(pipe, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(pipe["out"], out)
    path = out / "features_test.npz"
    arrays = load_arrays(path)
    del arrays["boxes"]
    save_arrays(path, arrays)
    assert _cli("detect", out / "data" / "test" / "manifest.txt", out) == 1
    assert capsys.readouterr().err == f"fusedet: error: {path}: archive holds no proposal boxes; rerun 'extract'\n"


def test_feature_rows_align_with_proposals(pipe):
    feats = load_arrays(pipe["out"] / "features_test.npz")
    props = read_proposals(pipe["out"] / "proposals_test.txt")
    man = read_manifest(pipe["test_manifest"])
    total = sum(len(props[im.image_id]) for im in man.images)
    assert feats["hog"].shape[0] == total
    assert feats["ifv"].shape[0] == total
    assert feats["row_image"].shape == (total,)
    assert feats["prior_ifv"].shape[0] == len(man.images)
    assert feats["boxes"].dtype == np.float64
    for i, im in enumerate(man.images):
        rows = np.nonzero(feats["row_image"] == i)[0]
        assert len(rows) == len(props[im.image_id])
        assert list(feats["row_proposal"][rows]) == list(range(len(rows)))
        assert np.array_equal(feats["boxes"][rows], box_corners(props[im.image_id]))


def test_stand_in_embeddings_are_unit_norm(pipe):
    _, matrix = load_cnn_features(pipe["out"] / "cnn_test.txt")
    assert matrix.shape[1] == 3 * pipeline.CNN_EMBED_SIDE**2
    norms = [float(v @ v) for v in matrix[:50]]
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


def test_eval_names_the_file_and_line_of_a_bad_detection(pipe, tmp_path, capsys):
    dets = tmp_path / "dets.txt"
    lines = (pipe["out"] / "detections_test.txt").read_text().splitlines(keepends=True)
    image_id = lines[0].split()[0]
    lines.insert(1, f"{image_id} 0 0.5 4.0 4.0 4.0 9.0\n")
    dets.write_text("".join(lines))
    assert _cli("eval", pipe["test_manifest"], tmp_path, "--detections", str(dets)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fusedet: error: {dets}:2: box must have positive area")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("verb", [*cli.STAGE_VERBS, "all"])
def test_every_stage_verb_calls_the_stage_on_the_pipeline_module(verb, tmp_path, monkeypatch, capsys):
    # the benchmark's tracer replaces pipeline.stage_* at run time, so the
    # CLI has to look each stage up when the verb runs
    name = "stage_" + verb.replace("-", "_")
    signature = inspect.signature(getattr(pipeline, name))
    written = tmp_path / "written.txt"
    write_report(written, PerClassReport(aps={0: 0.5}, num_gt={0: 1}))  # eval and all print its mAP
    calls = []

    def stub(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return [written, written] if verb == "train-svm" else written

    monkeypatch.setattr(pipeline, name, stub)
    argv = [verb, "--out-dir", str(tmp_path)] + ([] if verb == "all" else ["--manifest", "m.txt"])
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert calls[0]["out_dir"] == str(tmp_path)
    if verb == "all":
        expected = [f"report {written}"]
    else:
        assert calls[0]["manifest_path"] == "m.txt"
        expected = [f"wrote {written}"] * (2 if verb == "train-svm" else 1)
    if verb in ("eval", "all"):
        expected.append("mAP 0.5")
    assert capsys.readouterr().out == "".join(line + "\n" for line in expected)


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
