"""Dataset manifest reading and writing."""

from pathlib import Path

import pytest

from fusedet.core import Box, GroundTruth
from fusedet.manifest import (
    DatasetManifest,
    ManifestImage,
    read_manifest,
    write_manifest,
)


def _sample_manifest(base_dir=Path(".")):
    return DatasetManifest(
        categories=["disk", "square"],
        images=[
            ManifestImage(
                image_id="im_0",
                path="images/im_0.ppm",
                ground_truths=[
                    GroundTruth("im_0", Box(1.5, 2.25, 10.0, 12.0), 0),
                    GroundTruth("im_0", Box(20.0, 20.0, 30.0, 31.0), 1),
                ],
            ),
            ManifestImage(image_id="im_1", path="images/im_1.ppm", ground_truths=[]),
        ],
        base_dir=base_dir,
    )


def test_write_read_round_trip(tmp_path):
    manifest = _sample_manifest()
    p = tmp_path / "manifest.txt"
    write_manifest(p, manifest)
    loaded = read_manifest(p)
    assert loaded.categories == ["disk", "square"]
    assert loaded.base_dir == tmp_path
    assert [im.image_id for im in loaded.images] == ["im_0", "im_1"]
    assert [im.path for im in loaded.images] == ["images/im_0.ppm", "images/im_1.ppm"]
    assert loaded.images[0].ground_truths == manifest.images[0].ground_truths
    assert loaded.images[1].ground_truths == []


def test_read_accepts_optional_sixth_token(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 disk\nim_0 a.ppm 1\n0 1 2 3 4 1\n")
    loaded = read_manifest(p)
    assert loaded.images[0].ground_truths == [
        GroundTruth("im_0", Box(1.0, 2.0, 3.0, 4.0), 0)
    ]


def test_blank_lines_are_ignored(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("\n1 disk\n\nim_0 a.ppm 0\n\n")
    assert len(read_manifest(p).images) == 1


def test_resolved_path_handles_relative_and_absolute(tmp_path):
    manifest = _sample_manifest(base_dir=tmp_path)
    assert manifest.resolved_path(manifest.images[0]) == tmp_path / "images/im_0.ppm"
    absolute = ManifestImage(image_id="x", path="/somewhere/else.ppm")
    assert manifest.resolved_path(absolute) == Path("/somewhere/else.ppm")


def test_all_ground_truths_flattens_in_order():
    manifest = _sample_manifest()
    gts = manifest.all_ground_truths()
    assert len(gts) == 2
    assert [g.image_id for g in gts] == ["im_0", "im_0"]
    assert [g.category_id for g in gts] == [0, 1]


def test_read_errors(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("")
    with pytest.raises(ValueError, match="empty manifest"):
        read_manifest(p)
    p.write_text("x disk\n")
    with pytest.raises(ValueError, match="header must start with"):
        read_manifest(p)
    p.write_text("2 disk\n")
    with pytest.raises(ValueError, match="expected 2 category names, got 1"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm\n")
    with pytest.raises(ValueError, match="must be 'image_id path gt_count'"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm x\n")
    with pytest.raises(ValueError, match="bad gt count 'x'"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm -1\n")
    with pytest.raises(ValueError, match="bad gt count '-1'"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm 1\n0 1 2 3\n")
    with pytest.raises(ValueError, match="must be"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm 1\n0 a 2 3 4\n")
    with pytest.raises(ValueError, match="malformed ground truth"):
        read_manifest(p)


_SHAPE = "must be 'category_id x_min y_min x_max y_max'"


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("x disk\n", 1, "header must start with the category count"),
        ("+1 disk\n", 1, "header must start with the category count"),
        ("\n2 disk\n", 2, "expected 2 category names, got 1"),
        ("1 disk\n\nim_0 a.ppm\n", 3, "image record 'im_0 a.ppm' must be 'image_id path gt_count'"),
        ("1 disk\nim_0 a.ppm x\n", 2, "bad gt count 'x' for image im_0"),
        ("1 disk\nim_0 a.ppm -1\n", 2, "bad gt count '-1' for image im_0"),
        ("1 disk\nim_0 a.ppm +1\n0 1 2 3 4\n", 2, "bad gt count '+1' for image im_0"),
        ("1 disk\nim_0 a.ppm 1_0\n0 1 2 3 4\n", 2, "bad gt count '1_0' for image im_0"),
        ("1 disk\nim_0 a.ppm \u0661\n0 1 2 3 4\n", 2, "bad gt count '\u0661' for image im_0"),
        ("1 disk\nim_0 a.ppm 2\n0 1 2 3 4\n", 2, "image im_0 declares 2 ground truths, file ends early"),
        ("1 disk\nim_0 a.ppm 0\nim_0 b.ppm 0\n", 3, "image_id im_0 repeats; image_ids must be unique"),
        ("1 disk\nim_0 a.ppm 1\n\n0 1 2 3\n", 4, f"ground truth '0 1 2 3' {_SHAPE}"),
        ("1 disk\nim_0 a.ppm 1\nx 1 2 3 4\n", 3, "malformed ground truth 'x 1 2 3 4': bad category_id"),
        (
            "1 disk\nim_0 a.ppm 1\n0 1 2 inf 5\n",
            3,
            "malformed ground truth '0 1 2 inf 5': expected a finite real, got 'inf'",
        ),
        (
            "1 disk\nim_0 a.ppm 1\n0 1 nan 3 5\n",
            3,
            "malformed ground truth '0 1 nan 3 5': expected a finite real, got 'nan'",
        ),
        (
            "1 disk\nim_0 a.ppm 1\n0 1 2 1 5\n",
            3,
            "malformed ground truth '0 1 2 1 5': box must have positive area, got (1.0, 2.0, 1.0, 5.0)",
        ),
        ("1 disk\nim_0 a.ppm 1\n-1 1 2 3 4\n", 3, "malformed ground truth '-1 1 2 3 4': bad category_id"),
        ("2 a b\nim_0 a.ppm 1\n+1 1 2 3 4\n", 3, "malformed ground truth '+1 1 2 3 4': bad category_id"),
        ("2 a b\nim_0 a.ppm 1\n1_0 1 2 3 4\n", 3, "malformed ground truth '1_0 1 2 3 4': bad category_id"),
        ("2 a b\nim_0 a.ppm 1\n\u0661 1 2 3 4\n", 3, "malformed ground truth '\u0661 1 2 3 4': bad category_id"),
        ("2 a b\nim_0 a.ppm 0\nim_1 b.ppm 2\n0 1 2 3 4\n2 1 2 3 4\n", 5, "image im_1: category 2 outside [0, 2)"),
    ],
)
def test_read_errors_name_the_file_and_line(tmp_path, text, lineno, message):
    p = tmp_path / "m.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_manifest(p)
    assert str(err.value) == f"{p}:{lineno}: {message}"


def test_read_rejects_truncated_ground_truth_blocks(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("1 disk\nim_0 a.ppm 2\n0 1 2 3 4\n")
    with pytest.raises(ValueError, match="declares 2 ground truths, file ends early"):
        read_manifest(p)
    p.write_text("1 disk\nim_0 a.ppm 3\n")
    with pytest.raises(ValueError, match="file ends early"):
        read_manifest(p)


def test_category_id_range_is_validated():
    with pytest.raises(ValueError, match=r"category 2 outside \[0, 2\)"):
        DatasetManifest(
            categories=["a", "b"],
            images=[
                ManifestImage(
                    image_id="x",
                    path="x.ppm",
                    ground_truths=[GroundTruth("x", Box(0, 0, 1, 1), 2)],
                )
            ],
        )


def test_duplicate_image_ids_are_rejected():
    with pytest.raises(ValueError, match="unique"):
        DatasetManifest(
            categories=["a"],
            images=[
                ManifestImage(image_id="x", path="x.ppm"),
                ManifestImage(image_id="x", path="y.ppm"),
            ],
        )


def test_write_rejects_whitespace(tmp_path):
    p = tmp_path / "m.txt"
    with pytest.raises(ValueError, match="contains whitespace"):
        write_manifest(p, DatasetManifest(categories=["two words"], images=[]))
    with pytest.raises(ValueError, match="whitespace"):
        write_manifest(
            p,
            DatasetManifest(
                categories=["a"],
                images=[ManifestImage(image_id="bad id", path="x.ppm")],
            ),
        )
