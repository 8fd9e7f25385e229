"""Line-based `key = value` pipeline configuration.

Every tunable is one `PipelineConfig` field that declares its default, its
parser and its range; its key is the field name with the first `_` read as
`.` (`ifv_gmm_k` is `ifv.gmm_k`). Unknown keys and malformed or
out-of-range values are rejected with the offending line number. An empty
file (or no file) yields the defaults.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Optional

from .classify import CHANNELS
from .modelio import fmt_float, parse_count, parse_real


def _parse_bool(tok: str) -> bool:
    if tok in ("true", "false"):
        return tok == "true"
    raise ValueError(f"expected true or false, got {tok!r}")


def _parse_tau(tok: str) -> Optional[float]:
    if tok == "auto":
        return None
    return -math.inf if tok == "-inf" else parse_real(tok)


def _choice(*allowed):
    def parse(tok: str) -> str:
        if tok not in allowed:
            raise ValueError(f"expected one of {allowed}, got {tok!r}")
        return tok

    return parse


# range description -> check; the description is what an error prints
_RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    ">= 2": lambda v: v >= 2,
    "> 0": lambda v: v > 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def _key(default, parse, valid: Optional[str] = None):
    """A config key: its default, the parser of its text and its range in _RANGES."""
    return field(default=default, metadata={"parse": parse, "range": valid})


@dataclass
class PipelineConfig:
    seed: int = _key(0, parse_count, ">= 0")
    seg_k: float = _key(300.0, parse_real, "> 0")
    seg_sigma: float = _key(0.8, parse_real, "> 0")
    seg_min_size: int = _key(50, parse_count, ">= 1")
    proposals_max_per_image: int = _key(2000, parse_count, ">= 1")
    hog_cells_x: int = _key(4, parse_count, ">= 1")
    hog_cells_y: int = _key(4, parse_count, ">= 1")
    ifv_patch: int = _key(16, parse_count, ">= 2")
    ifv_stride: int = _key(8, parse_count, ">= 1")
    ifv_window: int = _key(64, parse_count, ">= 2")
    ifv_pca_dim: int = _key(64, parse_count, ">= 1")
    ifv_gmm_k: int = _key(16, parse_count, ">= 1")
    ifv_gmm_iters: int = _key(100, parse_count, ">= 1")
    ifv_gmm_tol: float = _key(1e-6, parse_real, "> 0")
    ifv_variance_floor: float = _key(1e-4, parse_real, "> 0")
    ifv_codebook_samples: int = _key(20000, parse_count, ">= 1")
    svm_lambda: float = _key(1e-3, parse_real, "> 0")
    svm_epochs: int = _key(20, parse_count, ">= 1")
    svm_negative_cap: int = _key(5000, parse_count, ">= 1")
    svm_hard_negatives: bool = _key(False, _parse_bool)
    svm_hard_negative_count: int = _key(500, parse_count, ">= 0")
    fusion_lambda: float = _key(1e-3, parse_real, "> 0")
    fusion_epochs: int = _key(20, parse_count, ">= 1")
    train_pos_iou: float = _key(0.5, parse_real, "in (0, 1]")
    train_neg_iou: float = _key(0.3, parse_real, "in [0, 1]")
    regress_lambda: float = _key(1.0, parse_real, "> 0")
    regress_match_iou: float = _key(0.6, parse_real, "in (0, 1]")
    regress_channel: str = _key("cnn", _choice(*CHANNELS))
    nms_iou: float = _key(0.3, parse_real, "in (0, 1]")
    eval_iou: float = _key(0.5, parse_real, "in (0, 1]")
    prior_feature: str = _key("ifv", _choice("ifv", "cnn"))
    prior_recall: float = _key(0.95, parse_real, "in (0, 1]")
    prior_tau: Optional[float] = _key(None, _parse_tau)  # None means calibrate automatically


# key -> its field
KEYS = {f.name.replace("_", ".", 1): f for f in fields(PipelineConfig)}


def parse_setting(key: str, text: str, name: Optional[str] = None):
    """The value of key written as text, by the key's parser and range.
    ValueError otherwise, naming the setting as name (default: key)."""
    name = name or key
    meta = KEYS[key].metadata
    try:
        value = meta["parse"](text)
    except ValueError as exc:
        raise ValueError(f"bad value for {name}: {exc}") from None
    if meta["range"] and not _RANGES[meta["range"]](value):
        raise ValueError(f"{name} = {text} out of range (must be {meta['range']})")
    return value


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
            if key not in KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                setattr(cfg, KEYS[key].name, parse_setting(key, value))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    _cross_validate(cfg, path)
    return cfg


def _cross_validate(cfg: PipelineConfig, path) -> None:
    if cfg.ifv_window < cfg.ifv_patch:
        raise ValueError(f"{path}: ifv.window must be >= ifv.patch")
    if cfg.ifv_codebook_samples < cfg.ifv_gmm_k:
        raise ValueError(f"{path}: ifv.codebook_samples must be >= ifv.gmm_k")


def config_lines(cfg: PipelineConfig):
    """Canonical `key = value` rendering, one line per key, sorted."""
    out = []
    for key, f in KEYS.items():
        v = getattr(cfg, f.name)
        if v is None:
            text = "auto"
        elif isinstance(v, bool):
            text = "true" if v else "false"
        elif isinstance(v, float):
            text = fmt_float(v)
        else:
            text = str(v)
        out.append(f"{key} = {text}")
    return sorted(out)


def config_digest(cfg: PipelineConfig) -> str:
    """Stable hash of the effective configuration, for run logs."""
    blob = "\n".join(config_lines(cfg)).encode()
    return hashlib.sha256(blob).hexdigest()
