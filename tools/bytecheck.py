"""Byte check of two fusedet checkouts: do they write the same files and print the same lines?

    python3 tools/bytecheck.py PARENT CHANGE [--seed 11] [--work DIR]

For each checkout, in a process of its own with one BLAS thread, it runs
the set-up plus one pass of every workload in `perfbench/workloads.py`
(the workload table of the checkout this tool lives in, seeded by
`--seed`), then a full-size `fusedet all`. Every verb's stdout is kept as a
file next to the artifacts, with the run's own directory written as
`<run>`. It then prints each file that differs between the two runs, or
that only one of them wrote; no output means the two are byte-identical.
Nothing under `perfbench/` is written to: the runs go under `--work`.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_checkout(checkout: str, root: str, seed: int) -> None:
    """Runs every workload's set-up and one pass, then `fusedet all`, with
    the fusedet of checkout, writing everything under root."""
    root = Path(root)
    sys.path[:0] = [str(Path(checkout) / "src"), str(PERFBENCH)]
    import fusedet.cli
    from checks import read_proposals
    from workloads import FRONT_CHAIN, WORKLOADS, VerbRunner, common_args, stage_chain, synth, write_embeddings

    outputs = []  # (file, stdout of the verb that printed it)

    def drive(argv):
        printed = runner(argv)
        outputs.append((root / "stdout" / f"{len(outputs):03d}_{argv[0]}.txt", printed))
        return printed

    runner = VerbRunner(fusedet.cli.main)
    for wl in WORKLOADS.values():
        base = root / wl.name
        base.mkdir(parents=True)
        config = None
        if wl.config:
            config = base / "config.txt"
            config.write_text("\n".join(wl.config) + "\n")
        manifests = dict(zip(("train", "test"), synth(drive, wl, seed, base / "data")))
        out = base / "pass"
        if wl.embed_dim:
            prep = base / "prep"
            for verb, split in FRONT_CHAIN:
                drive([verb] + common_args(manifests[split], prep, config))
            for split in ("train", "test"):
                proposals = read_proposals(prep / f"proposals_{split}.txt")
                write_embeddings(wl, manifests[split], proposals, prep, split, fusedet.pipeline.write_cnn_features)
            shutil.copytree(prep, out)
        for verb, split in stage_chain(wl):
            drive([verb] + common_args(manifests[split], out, config))
    drive(["all", "--out-dir", str(root / "full")])
    (root / "stdout").mkdir()
    for path, printed in outputs:
        path.write_text(printed.replace(str(root), "<run>"))
    if runner.failed:
        print("\n".join(runner.errors), file=sys.stderr)
        sys.exit(1)


def files(root: Path) -> dict:
    return {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs=2, type=Path, metavar="CHECKOUT")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--work", type=Path, help="where the runs go (default: a temporary directory, removed once both runs finish)")
    args = parser.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="bytecheck-")) if args.work is None else args.work
    work.mkdir(parents=True, exist_ok=True)
    # one BLAS thread; and no bytecode caches written next to perfbench/
    env = dict(
        os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1"
    )
    roots = []
    for side, checkout in zip(("a", "b"), args.checkouts):
        root = work / side
        if root.exists():
            shutil.rmtree(root)
        child = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import bytecheck; "
            f"bytecheck.run_checkout({str(checkout.resolve())!r}, {str(root.resolve())!r}, {args.seed})"
        )
        done = subprocess.run([sys.executable, "-c", child], env=env, cwd=work)
        if done.returncode != 0:
            print(f"the run of {checkout} failed", file=sys.stderr)
            return 2
        roots.append(root)
    a, b = (files(root) for root in roots)
    for name in sorted(set(a) | set(b)):
        if name not in b:
            print(f"only in {args.checkouts[0]}: {name}")
        elif name not in a:
            print(f"only in {args.checkouts[1]}: {name}")
        elif a[name].read_bytes() != b[name].read_bytes():
            print(f"differs: {name}")
    if args.work is None:
        shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
