"""Line-based `key = value` pipeline configuration.

Every tunable has a documented default and range; unknown keys and
out-of-range values are rejected with the offending line number. An empty
file (or no file) yields the defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from typing import Optional

from . import modelio


@dataclass
class PipelineConfig:
    seed: int = 0
    seg_k: float = 300.0
    seg_sigma: float = 0.8
    seg_min_size: int = 50
    proposals_max_per_image: int = 2000
    hog_cells_x: int = 4
    hog_cells_y: int = 4
    ifv_patch: int = 16
    ifv_stride: int = 8
    ifv_window: int = 64
    ifv_pca_dim: int = 64
    ifv_gmm_k: int = 16
    ifv_gmm_iters: int = 100
    ifv_gmm_tol: float = 1e-6
    ifv_variance_floor: float = 1e-4
    ifv_codebook_samples: int = 20000
    svm_lambda: float = 1e-3
    svm_epochs: int = 20
    svm_negative_cap: int = 5000
    svm_hard_negatives: bool = False
    svm_hard_negative_count: int = 500
    fusion_lambda: float = 1e-3
    fusion_epochs: int = 20
    train_pos_iou: float = 0.5
    train_neg_iou: float = 0.3
    regress_lambda: float = 1.0
    regress_match_iou: float = 0.6
    regress_channel: str = "cnn"
    nms_iou: float = 0.3
    eval_iou: float = 0.5
    prior_feature: str = "ifv"
    prior_recall: float = 0.95
    prior_tau: Optional[float] = None  # None means calibrate automatically


def _parse_bool(tok: str) -> bool:
    if tok in ("true", "false"):
        return tok == "true"
    raise ValueError(f"expected true or false, got {tok!r}")


def _parse_tau(tok: str) -> Optional[float]:
    if tok == "auto":
        return None
    return -math.inf if tok == "-inf" else modelio.parse_real(tok)


def _choice(*allowed):
    def parse(tok: str) -> str:
        if tok not in allowed:
            raise ValueError(f"expected one of {allowed}, got {tok!r}")
        return tok

    return parse


# key -> (attribute, parser, range check, range description)
_KEYS = {
    "seed": ("seed", int, lambda v: v >= 0, ">= 0"),
    "seg.k": ("seg_k", modelio.parse_real, lambda v: v > 0, "> 0"),
    "seg.sigma": ("seg_sigma", modelio.parse_real, lambda v: v > 0, "> 0"),
    "seg.min_size": ("seg_min_size", int, lambda v: v >= 1, ">= 1"),
    "proposals.max_per_image": ("proposals_max_per_image", int, lambda v: v >= 1, ">= 1"),
    "hog.cells_x": ("hog_cells_x", int, lambda v: v >= 1, ">= 1"),
    "hog.cells_y": ("hog_cells_y", int, lambda v: v >= 1, ">= 1"),
    "ifv.patch": ("ifv_patch", int, lambda v: v >= 2, ">= 2"),
    "ifv.stride": ("ifv_stride", int, lambda v: v >= 1, ">= 1"),
    "ifv.window": ("ifv_window", int, lambda v: v >= 2, ">= 2"),
    "ifv.pca_dim": ("ifv_pca_dim", int, lambda v: v >= 1, ">= 1"),
    "ifv.gmm_k": ("ifv_gmm_k", int, lambda v: v >= 1, ">= 1"),
    "ifv.gmm_iters": ("ifv_gmm_iters", int, lambda v: v >= 1, ">= 1"),
    "ifv.gmm_tol": ("ifv_gmm_tol", modelio.parse_real, lambda v: v > 0, "> 0"),
    "ifv.variance_floor": ("ifv_variance_floor", modelio.parse_real, lambda v: v > 0, "> 0"),
    "ifv.codebook_samples": ("ifv_codebook_samples", int, lambda v: v >= 1, ">= 1"),
    "svm.lambda": ("svm_lambda", modelio.parse_real, lambda v: v > 0, "> 0"),
    "svm.epochs": ("svm_epochs", int, lambda v: v >= 1, ">= 1"),
    "svm.negative_cap": ("svm_negative_cap", int, lambda v: v >= 1, ">= 1"),
    "svm.hard_negatives": ("svm_hard_negatives", _parse_bool, lambda v: True, "true|false"),
    "svm.hard_negative_count": ("svm_hard_negative_count", int, lambda v: v >= 0, ">= 0"),
    "fusion.lambda": ("fusion_lambda", modelio.parse_real, lambda v: v > 0, "> 0"),
    "fusion.epochs": ("fusion_epochs", int, lambda v: v >= 1, ">= 1"),
    "train.pos_iou": ("train_pos_iou", modelio.parse_real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "train.neg_iou": ("train_neg_iou", modelio.parse_real, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "regress.lambda": ("regress_lambda", modelio.parse_real, lambda v: v > 0, "> 0"),
    "regress.match_iou": ("regress_match_iou", modelio.parse_real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "regress.channel": ("regress_channel", _choice("cnn", "hog", "ifv"), lambda v: True, "cnn|hog|ifv"),
    "nms.iou": ("nms_iou", modelio.parse_real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "eval.iou": ("eval_iou", modelio.parse_real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "prior.feature": ("prior_feature", _choice("ifv", "cnn"), lambda v: True, "ifv|cnn"),
    "prior.recall": ("prior_recall", modelio.parse_real, lambda v: 0 < v <= 1, "in (0, 1]"),
    "prior.tau": ("prior_tau", _parse_tau, lambda v: True, "auto, -inf or a finite real"),
}


def load_config(path) -> PipelineConfig:
    cfg = PipelineConfig()
    with open(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            attr, parse, check, desc = _KEYS[key]
            try:
                parsed = parse(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
            if not check(parsed):
                raise ValueError(f"{path}:{lineno}: {key} = {value} out of range (must be {desc})")
            setattr(cfg, attr, parsed)
    _cross_validate(cfg, path)
    return cfg


def _cross_validate(cfg: PipelineConfig, path) -> None:
    if cfg.ifv_window < cfg.ifv_patch:
        raise ValueError(f"{path}: ifv.window must be >= ifv.patch")
    if cfg.ifv_codebook_samples < cfg.ifv_gmm_k:
        raise ValueError(f"{path}: ifv.codebook_samples must be >= ifv.gmm_k")


def config_lines(cfg: PipelineConfig):
    """Canonical `key = value` rendering, one line per key, sorted."""
    by_attr = {attr: key for key, (attr, _, _, _) in _KEYS.items()}
    out = []
    for f in fields(cfg):
        key = by_attr[f.name]
        v = getattr(cfg, f.name)
        if v is None:
            text = "auto"
        elif isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, float):
            text = modelio.fmt_float(v)
        else:
            text = str(v)
        out.append(f"{key} = {text}")
    return sorted(out)


def config_digest(cfg: PipelineConfig) -> str:
    """Stable hash of the effective configuration, for run logs."""
    blob = "\n".join(config_lines(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()
