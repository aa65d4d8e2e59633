"""The paper-scale recipe: the README architecture on 40 textures of 128 px.

    python3 tests/paper_scale.py

Layer 1 codes 5 x 5 patches at stride 1 with 128 atoms at sparsity 4 and
pools them over 16 px units in 4 x 4 cells; layer 2 codes those 4096-long
features with 1000 atoms at sparsity 10. Ten groups of four images are
shifted, brightness-changed crops of one texture each, every image's group
mates being its relevant set. The stages run in this process through
`hmpsearch.cli.main` in a temporary directory, then one CLI `query` of
the first image, which codes it and computes the layer-2 Gram again. The
script prints the wall and CPU time of each stage and of the query,
codebook training's time per signal per K-SVD iteration, the seconds each
stage spends in `omp_encode_batch` per codebook (128 atoms for layer 1,
1000 for layer 2), encode's time per image, the mAP, and a sha256 over the
codebook and descriptor files: each file in sorted order within `dicts/`
then `descriptors/`, as `<dir>/<name>` NUL bytes NUL. A change that keeps
every codebook and descriptor byte keeps the hash on the same host.

It takes over a minute on two cores, so it is not named for pytest to collect.
"""

import hashlib
import os
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import hmpsearch.cli  # noqa: E402
import hmpsearch.coding  # noqa: E402
import hmpsearch.dictionary  # noqa: E402
import hmpsearch.encoder  # noqa: E402
from conftest import texture_image  # noqa: E402
from workloads import TEXTURE_GAINS, TEXTURE_SHIFTS, write_images  # noqa: E402

GROUPS, SIDE, SEED, ITERATIONS, SAMPLE_CAP = 10, 128, 0, 2, 2000

ARCH = """\
[layer1]
patch_size = 5
stride = 1
unit_size = 16
cell_grid = 4
codebook_size = 128
sparsity = 4

[layer2]
codebook_size = 1000
sparsity = 10

[pyramid]
grids = 1
"""

RUN = f"""\
[run]
manifest = manifest.tsv
architecture = arch.cfg
ground_truth = gt.tsv
seed = {SEED}
train_iterations = {ITERATIONS}
sample_cap = {SAMPLE_CAP}
"""


def write_corpus(work) -> int:
    """Write the images, manifest, ground truth and configs; return the image count."""
    images, groups = {}, []
    for g in range(GROUPS):
        base = texture_image(1000 + g, side=SIDE + 8)  # the recorded recipe's 136 px
        ids = [f"t{g:03d}m{m}" for m in range(len(TEXTURE_SHIFTS))]
        for image_id, (dr, dc), (gain, lift) in zip(ids, TEXTURE_SHIFTS, TEXTURE_GAINS):
            images[image_id] = np.clip(base[dr : dr + SIDE, dc : dc + SIDE] * gain + lift, 0, 1)
        groups.append(ids)
    write_images(work, images)
    with open(os.path.join(work, "gt.tsv"), "w", encoding="utf-8") as fh:
        for ids in groups:
            fh.writelines(f"{q}\t{','.join(i for i in ids if i != q)}\n" for q in ids)
    for name, text in (("arch.cfg", ARCH), ("run.cfg", RUN)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return len(images)


def artifact_hash(work) -> str:
    digest = hashlib.sha256()
    for folder, suffix in (("dicts", ".hmpd"), ("descriptors", ".hmpv")):
        for name in sorted(os.listdir(os.path.join(work, folder))):
            if name.endswith(suffix):
                with open(os.path.join(work, folder, name), "rb") as fh:
                    digest.update(f"{folder}/{name}".encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def main() -> int:
    trained = []  # (signals, K-SVD seconds) of each codebook trained
    omp = {}  # (stage, atoms) -> seconds in omp_encode_batch
    stage = None  # the stage the loop below is running
    train, omp_encode_batch = hmpsearch.cli.train, hmpsearch.coding.omp_encode_batch

    def timed_train(signals, *args):
        start = time.perf_counter()
        result = train(signals, *args)
        trained.append((signals.shape[1], time.perf_counter() - start))
        return result

    def timed_omp(dictionary, *args):
        start = time.perf_counter()
        result = omp_encode_batch(dictionary, *args)
        key = (stage, dictionary.size)
        omp[key] = omp.get(key, 0.0) + time.perf_counter() - start
        return result

    hmpsearch.cli.train = timed_train
    # where the encoder (layer inputs, descriptors) and K-SVD's code pass bind it
    hmpsearch.encoder.omp_encode_batch = hmpsearch.dictionary.omp_encode_batch = timed_omp
    with tempfile.TemporaryDirectory() as work:
        images = write_corpus(work)
        config = os.path.join(work, "run.cfg")
        wall = {}
        query = ["--top-k", "1", os.path.join(work, "images", "t000m0.pgm")]
        # evaluate prints the mAP, query its best match
        for stage, *args in (["train-dict"], ["encode"], ["build-index"], ["evaluate"], ["query", *query]):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            status = hmpsearch.cli.main(["--config", config, stage, *args])
            wall[stage] = time.perf_counter() - wall0
            print(f"{stage}: wall {wall[stage]:.2f} s, cpu {time.process_time() - cpu0:.2f} s")
            if status != 0:
                return status
        for layer, (signals, seconds) in enumerate(trained, start=1):
            per = seconds / (signals * ITERATIONS) * 1e3
            print(f"layer{layer} K-SVD: {seconds:.2f} s, {per:.3f} ms per signal per iteration")
        for (name, atoms), seconds in omp.items():
            print(f"{name} OMP at {atoms} atoms: {seconds:.2f} s")
        print(f"encode: {wall['encode'] / images:.3f} s per {SIDE} px image")
        print(f"hash {artifact_hash(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
