"""Dataset manifest: category name table plus per-image annotation records.

Format:

    N name_1 ... name_N
    image_id path gt_count
    category_id x_min y_min x_max y_max   (gt_count lines)
    ...

Image paths may be relative; they resolve against the manifest's directory.
An optional sixth token on a ground-truth line is accepted and ignored
(reserved difficulty flag for external datasets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from . import modelio
from .core import Box, GroundTruth


@dataclass
class ManifestImage:
    image_id: str
    path: str  # as written in the file
    ground_truths: List[GroundTruth] = field(default_factory=list)


@dataclass
class DatasetManifest:
    categories: List[str]
    images: List[ManifestImage]
    base_dir: Path = Path(".")

    def __post_init__(self):
        ids = [im.image_id for im in self.images]
        if len(set(ids)) != len(ids):
            raise ValueError("image_ids must be unique")
        n = len(self.categories)
        for im in self.images:
            for gt in im.ground_truths:
                if not 0 <= gt.category_id < n:
                    raise ValueError(
                        f"image {im.image_id}: category {gt.category_id} outside [0, {n})"
                    )

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def resolved_path(self, image: ManifestImage) -> Path:
        p = Path(image.path)
        return p if p.is_absolute() else self.base_dir / p

    def all_ground_truths(self) -> List[GroundTruth]:
        return [gt for im in self.images for gt in im.ground_truths]


def write_manifest(path, manifest: DatasetManifest) -> None:
    for name in manifest.categories:
        if any(ch.isspace() for ch in name):
            raise ValueError(f"category name {name!r} contains whitespace")
    with open(path, "w") as fh:
        fh.write(" ".join([str(manifest.n_categories)] + manifest.categories) + "\n")
        for im in manifest.images:
            if any(ch.isspace() for ch in im.image_id) or any(ch.isspace() for ch in im.path):
                raise ValueError(f"image id/path may not contain whitespace: {im.image_id!r}")
            fh.write(f"{im.image_id} {im.path} {len(im.ground_truths)}\n")
            for gt in im.ground_truths:
                coords = " ".join(
                    modelio.fmt_float(v)
                    for v in (gt.box.x_min, gt.box.y_min, gt.box.x_max, gt.box.y_max)
                )
                fh.write(f"{gt.category_id} {coords}\n")


def read_manifest(path) -> DatasetManifest:
    """The manifest at path; a malformed header, image record or ground
    truth raises ValueError prefixed with the file and line number."""
    path = Path(path)
    with open(path, "r") as fh:
        lines = [(n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty manifest")
    lineno, line = lines[0]
    header = line.split()
    if not modelio.is_count(header[0]):
        raise ValueError(f"{path}:{lineno}: header must start with the category count")
    n = int(header[0])
    if len(header) != n + 1:
        raise ValueError(f"{path}:{lineno}: expected {n} category names, got {len(header) - 1}")
    categories = header[1:]

    images: List[ManifestImage] = []
    seen = set()
    i = 1
    while i < len(lines):
        lineno, line = lines[i]
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: image record {line!r} must be 'image_id path gt_count'")
        image_id, img_path, count_tok = parts
        if image_id in seen:
            raise ValueError(f"{path}:{lineno}: image_id {image_id} repeats; image_ids must be unique")
        seen.add(image_id)
        if not modelio.is_count(count_tok):
            raise ValueError(f"{path}:{lineno}: bad gt count {count_tok!r} for image {image_id}")
        count = int(count_tok)
        if i + count >= len(lines):
            raise ValueError(f"{path}:{lineno}: image {image_id} declares {count} ground truths, file ends early")
        gts = []
        for lineno, line in lines[i + 1 : i + 1 + count]:
            toks = line.split()
            if len(toks) not in (5, 6):
                raise ValueError(
                    f"{path}:{lineno}: ground truth {line!r} must be 'category_id x_min y_min x_max y_max'"
                )
            if not modelio.is_count(toks[0]):
                raise ValueError(f"{path}:{lineno}: malformed ground truth {line!r}: bad category_id")
            cid = int(toks[0])
            if cid >= n:
                raise ValueError(f"{path}:{lineno}: image {image_id}: category {cid} outside [0, {n})")
            try:
                box = Box(*map(modelio.parse_real, toks[1:5]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed ground truth {line!r}: {exc}") from None
            gts.append(GroundTruth(image_id=image_id, category_id=cid, box=box))
        images.append(ManifestImage(image_id=image_id, path=img_path, ground_truths=gts))
        i += 1 + count
    return DatasetManifest(categories=categories, images=images, base_dir=path.parent)
