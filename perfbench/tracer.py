"""Outside-in span recorder for fusedet.

Spans are recorded by replacing public functions at the name their caller
looks up (``pipeline`` imports most layer functions by name, so those are
patched in ``fusedet.pipeline``; functions a module calls on itself are
patched in that module). Nothing under ``src/`` changes. While installed,
every wrapped call appends one span ``[name, start, end, parent]`` to an
in-memory list and bumps exact counters at the same boundary; spans are
written out only when the run ends.
"""

from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional


def _split_of(args, kwargs) -> str:
    """Dataset split of a stage call: the name of its manifest's directory."""
    manifest = kwargs.get("manifest_path", args[1] if len(args) > 1 else "")
    return Path(manifest).parent.name


def _count_rows(counts, args, kwargs, result):
    features = kwargs.get("features", args[0] if args else None)
    counts["classify.train_svm.rows"] += len(features)


def _count_regions(counts, args, kwargs, result):
    counts["proposals.regions"] += result.num_regions


def _count_boxes(counts, args, kwargs, result):
    counts["proposals.boxes"] += len(result)


def _count_em(counts, args, kwargs, result):
    counts["features.ifv.gmm_fit.iterations"] += len(result.log_likelihoods)


def _count_cnn_bytes(counts, args, kwargs, result):
    counts["features.cnn.load_cnn_features.bytes"] += os.path.getsize(args[0])


def _in_out(prefix):
    def count(counts, args, kwargs, result):
        counts[prefix + ".in"] += len(args[0])
        counts[prefix + ".out"] += len(result)

    return count


# (module, attribute, span name, optional counter). Stage spans get the
# split appended, so train and test durations stay apart.
PATCHES = [
    ("fusedet.cli", "main", "cli.main", None),
    ("fusedet.cli", "load_config", "config.load_config", None),
    ("fusedet.cli", "generate_dataset", "synth.generate_dataset", None),
    ("fusedet.cli", "read_report", "evaluation.read_report", None),
    ("fusedet.cli", "mean_ap", "evaluation.mean_ap", None),
    ("fusedet.synth", "write_pnm", "images.write_pnm", None),
    ("fusedet.synth", "write_manifest", "manifest.write_manifest", None),
    ("fusedet.pipeline", "stage_propose", "pipeline.stage_propose", None),
    ("fusedet.pipeline", "stage_extract", "pipeline.stage_extract", None),
    ("fusedet.pipeline", "stage_train_svm", "pipeline.stage_train_svm", None),
    ("fusedet.pipeline", "stage_train_fusion", "pipeline.stage_train_fusion", None),
    ("fusedet.pipeline", "stage_train_regressor", "pipeline.stage_train_regressor", None),
    ("fusedet.pipeline", "stage_train_prior", "pipeline.stage_train_prior", None),
    ("fusedet.pipeline", "stage_detect", "pipeline.stage_detect", None),
    ("fusedet.pipeline", "stage_eval", "pipeline.stage_eval", None),
    ("fusedet.pipeline", "read_proposals", "pipeline.read_proposals", None),
    ("fusedet.pipeline", "write_proposals", "pipeline.write_proposals", None),
    ("fusedet.pipeline", "config_digest", "config.config_digest", None),
    ("fusedet.pipeline", "read_manifest", "manifest.read_manifest", None),
    ("fusedet.pipeline", "read_pnm", "images.read_pnm", None),
    ("fusedet.pipeline", "sample_window_rgb", "images.sample_window_rgb", None),
    ("fusedet.pipeline", "selective_search", "proposals.selective_search", _count_boxes),
    ("fusedet.proposals", "segment_graph", "proposals.segment_graph", _count_regions),
    ("fusedet.proposals", "region_descriptors", "proposals.region_descriptors", None),
    ("fusedet.proposals", "region_adjacency", "proposals.region_adjacency", None),
    ("fusedet.proposals", "hierarchical_grouping", "proposals.hierarchical_grouping", None),
    ("fusedet.pipeline", "hog", "features.hog.hog", None),
    ("fusedet.pipeline", "dense_descriptors", "features.ifv.dense_descriptors", None),
    ("fusedet.pipeline", "pca_fit", "features.ifv.pca_fit", None),
    ("fusedet.pipeline", "pca_apply", "features.ifv.pca_apply", None),
    ("fusedet.pipeline", "gmm_fit", "features.ifv.gmm_fit", _count_em),
    ("fusedet.pipeline", "fisher_encode", "features.ifv.fisher_encode", None),
    ("fusedet.pipeline", "load_cnn_features", "features.cnn.load_cnn_features", _count_cnn_bytes),
    ("fusedet.pipeline", "write_cnn_features", "features.cnn.write_cnn_features", None),
    ("fusedet.cache", "save_arrays", "cache.save_arrays", None),
    ("fusedet.cache", "load_arrays", "cache.load_arrays", None),
    ("fusedet.modelio", "write_model", "modelio.write_model", None),
    ("fusedet.modelio", "read_model", "modelio.read_model", None),
    ("fusedet.pipeline", "train_svm", "classify.train_svm", _count_rows),
    ("fusedet.classify", "train_svm", "classify.train_svm", _count_rows),
    ("fusedet.context", "train_svm", "classify.train_svm", _count_rows),
    ("fusedet.pipeline", "train_fusion", "classify.train_fusion", None),
    ("fusedet.pipeline", "train_bbox_regressor", "regress.train_bbox_regressor", None),
    ("fusedet.pipeline", "refine", "regress.refine", None),
    ("fusedet.pipeline", "train_presence_prior", "context.train_presence_prior", None),
    ("fusedet.pipeline", "presence_scores", "context.presence_scores", None),
    ("fusedet.pipeline", "select_thresholds", "context.select_thresholds", None),
    ("fusedet.pipeline", "filter_detections", "context.filter_detections", _in_out("context.filter_detections")),
    ("fusedet.pipeline", "nms", "core.nms", _in_out("core.nms")),
    ("fusedet.pipeline", "read_detections", "core.read_detections", None),
    ("fusedet.pipeline", "write_detections", "core.write_detections", None),
    ("fusedet.pipeline", "per_class_report", "evaluation.per_class_report", None),
    ("fusedet.pipeline", "write_report", "evaluation.write_report", None),
    ("fusedet.pipeline", "mean_ap", "evaluation.mean_ap", None),
]


class Tracer:
    """In-memory spans and exact counters; `install()` patches, `remove()` restores."""

    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._originals: List[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        staged = name.startswith("pipeline.stage_")

        def traced(*args, **kwargs):
            span = self._open(f"{name}.{_split_of(args, kwargs)}" if staged else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            self.counts[span[0] + ".calls"] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def remove(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """Records a span around benchmark-side work."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)


def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-name self time: span duration minus the time its children cover.

    Spans nest strictly (one thread, call-stack order), so the children's
    durations never overlap and can simply be subtracted.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child_time[index]
    return dict(out)


def inclusive_times(spans: List[list]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)
