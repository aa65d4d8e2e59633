"""Seeded inputs for the three benchmark workloads.

Every workload writes a run config, its inputs and a ground truth into a
work directory and names the ``hmpsearch`` CLI stages it runs. The program
sees only these files; the seed never reaches it except as the run config's
own training seed.

- hmp-pipeline: two-layer coding of block-arrangement images. Coding,
  encoder and dictionary do nearly all the work; the index does almost none.
  Each image codes ~1,900 layer-1 patches but only 4 layer-2 unit features,
  so a change that wins on large coding batches and loses on tiny ones shows.
- bof-idf: the bag-of-features baseline with an IDF-weighted index on many
  small texture images: nearest-atom coding, training at sparsity 1, and the
  IDF build and query path, with per-image fixed costs carrying the weight.
- search-10k: no images. ~10k synthetic sparse descriptors written directly,
  so index build, evaluation and queries do all the work and coding none.
  Its timings follow the machine's memory contention too closely to bound,
  so BENCHMARK.json leaves it out; it runs on request and in the all-workload
  mode of run.py.
"""

from __future__ import annotations

import os

import numpy as np

# Sizes are module constants so the benchmark's own tests can shrink them.
HMP = dict(groups=10, train_iterations=4, sample_cap=1200)
BOF = dict(groups=150, side=48, codebook=256, stride=2, train_iterations=4, sample_cap=4000)
SEARCH = dict(docs=10000, dims=2000, nnz=120, group=5, shared=0.45, queries=100, skew=0.5)

TEXTURE_SHIFTS = ((0, 0), (2, 1), (3, 3), (1, 4))
TEXTURE_GAINS = ((1.0, 0.0), (0.9, 0.03), (0.8, 0.06), (0.95, 0.0))


def write_pgm(path, pixels) -> None:
    data = np.clip(np.round(np.asarray(pixels) * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode() + data.tobytes())


def write_ground_truth(path, gt) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for qid in sorted(gt):
            fh.write(f"{qid}\t{','.join(sorted(gt[qid]))}\n")


def write_run_config(work, seed, **extra) -> str:
    lines = [
        "[run]",
        "manifest = manifest.tsv",
        "architecture = arch.cfg",
        "dictionary_dir = dicts",
        "descriptor_dir = descriptors",
        "index_path = corpus.hmpi",
        "ground_truth = gt.tsv",
        "report = report.txt",
        f"seed = {seed}",
    ]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    path = os.path.join(work, "run.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_images(work, images) -> list[str]:
    """Write id -> pixel array as P5 files plus a manifest; return the ids."""
    os.makedirs(os.path.join(work, "images"))
    ids = sorted(images)
    with open(os.path.join(work, "manifest.tsv"), "w", encoding="utf-8") as fh:
        for image_id in ids:
            write_pgm(os.path.join(work, "images", f"{image_id}.pgm"), images[image_id])
            fh.write(f"{image_id}\timages/{image_id}.pgm\n")
    return ids


def _write(path, text) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def texture_groups(corpus, seed, groups, side):
    """Groups of shifted, brightness-changed crops of one seeded texture."""
    margin = max(max(shift) for shift in TEXTURE_SHIFTS)
    images, gt = {}, {}
    for g in range(groups):
        base = corpus.texture_image(seed * 100003 + g, side=side + margin)
        ids = [f"t{g:03d}m{m}" for m in range(len(TEXTURE_SHIFTS))]
        for image_id, (dr, dc), (gain, lift) in zip(ids, TEXTURE_SHIFTS, TEXTURE_GAINS):
            crop = base[dr : dr + side, dc : dc + side]
            images[image_id] = np.clip(crop * gain + lift, 0.0, 1.0)
        for image_id in ids:
            gt[image_id] = set(ids) - {image_id}
    return images, gt


def synthetic_descriptors(rng, docs, dims, nnz, group, shared, skew):
    """Yield (id, indices, values) for `docs` sparse unit vectors.

    Dimension popularity follows rank**-skew over a seeded permutation. Docs
    come in groups whose members keep `shared` of a centre support and draw
    the rest by popularity. Weighted draws without replacement use the
    Gumbel top-k trick, one vectorised draw per group.
    """
    log_p = -skew * np.log(rng.permutation(np.arange(1, dims + 1)).astype(float))
    keep = int(round(shared * nnz))
    for g in range(docs // group):
        centre = np.argpartition(log_p + rng.gumbel(size=dims), -nnz)[-nnz:]
        for m in range(group):
            kept = rng.choice(centre, keep, replace=False)
            keys = log_p + rng.gumbel(size=dims)
            keys[kept] = -np.inf
            rest = np.argpartition(keys, -(nnz - keep))[-(nnz - keep) :]
            indices = np.sort(np.concatenate([kept, rest]))
            values = rng.random(nnz) + 0.1
            yield f"d{g * group + m:05d}", indices, values / np.linalg.norm(values)


class Workload:
    """Inputs and CLI stages of one workload."""

    name = ""
    images = True  # whether the stages code images
    idf = False
    exhaustive_check = False  # compare query top-10 with exhaustive_scan

    def write_inputs(self, work, seed, hp, corpus) -> list[str]:
        """Write every input file into `work`; return the corpus ids."""
        raise NotImplementedError

    def stages(self, config) -> list[tuple[str, list[str]]]:
        raise NotImplementedError


class HmpPipeline(Workload):
    name = "hmp-pipeline"

    def write_inputs(self, work, seed, hp, corpus):
        images, gt = corpus.arrangement_corpus(seed, side=48, groups=HMP["groups"])
        ids = write_images(work, {i: img.pixels for i, img in images.items()})
        write_ground_truth(os.path.join(work, "gt.tsv"), gt)
        _write(
            os.path.join(work, "arch.cfg"),
            "[layer1]\npatch_size = 5\nstride = 1\nunit_size = 24\ncell_grid = 2\n"
            "codebook_size = 32\nsparsity = 4\n"
            "[layer2]\ncodebook_size = 64\nsparsity = 4\n[pyramid]\ngrids = 1\n",
        )
        write_run_config(
            work, seed, train_iterations=HMP["train_iterations"], sample_cap=HMP["sample_cap"]
        )
        return ids

    def stages(self, config):
        return [
            (stage, ["--config", config, stage])
            for stage in ("train-dict", "encode", "build-index", "evaluate")
        ]


class BofIdf(Workload):
    name = "bof-idf"
    idf = True

    def write_inputs(self, work, seed, hp, corpus):
        images, gt = texture_groups(corpus, seed, BOF["groups"], BOF["side"])
        ids = write_images(work, images)
        write_ground_truth(os.path.join(work, "gt.tsv"), gt)
        _write(
            os.path.join(work, "arch.cfg"),
            f"[layer1]\npatch_size = 5\nstride = {BOF['stride']}\n"
            f"codebook_size = {BOF['codebook']}\nsparsity = 1\n",
        )
        write_run_config(
            work, seed, train_iterations=BOF["train_iterations"], sample_cap=BOF["sample_cap"]
        )
        return ids

    def stages(self, config):
        base = ["--config", config, "--baseline"]
        return [
            ("train-dict", base + ["train-dict"]),
            ("encode", base + ["encode"]),
            ("build-index", base + ["build-index", "--idf"]),
            ("evaluate", base + ["evaluate"]),
        ]


class Search10k(Workload):
    name = "search-10k"
    images = False
    exhaustive_check = True

    def write_inputs(self, work, seed, hp, corpus):
        rng = np.random.default_rng(seed)
        out = os.path.join(work, "descriptors")
        os.makedirs(out)
        size = SEARCH["group"]
        params = {k: SEARCH[k] for k in ("docs", "dims", "nnz", "group", "shared", "skew")}
        ids = []
        for doc_id, indices, values in synthetic_descriptors(rng, **params):
            desc = hp.ImageDescriptor(doc_id, SEARCH["dims"], indices, values)
            hp.save_descriptor(desc, os.path.join(out, f"{doc_id}.hmpv"))
            ids.append(doc_id)
        picks = rng.choice(len(ids), size=min(SEARCH["queries"], len(ids)), replace=False)
        gt = {}
        for n in sorted(picks.tolist()):
            first = n - n % size
            gt[ids[n]] = {ids[j] for j in range(first, first + size)} - {ids[n]}
        write_ground_truth(os.path.join(work, "gt.tsv"), gt)
        # build-index and evaluate read neither file, but a run config names both
        _write(os.path.join(work, "manifest.tsv"), "")
        _write(os.path.join(work, "arch.cfg"), f"[layer1]\ncodebook_size = {SEARCH['dims']}\n")
        write_run_config(work, seed)
        return ids

    def stages(self, config):
        return [
            (stage, ["--config", config, stage]) for stage in ("build-index", "evaluate")
        ]


WORKLOADS = {w.name: w for w in (HmpPipeline(), BofIdf(), Search10k())}
