"""Command-line pipeline: train-dict, encode, build-index, query, evaluate.

Every stage reads one run config file and validates its inputs before doing
any long-running work, so stages can be re-run independently. Artifacts are
plain files: one codebook per layer, one descriptor file per image, one
index file, one evaluation report. Every stage that reads the manifest
admits the same images: it skips, with a warning, each image that cannot be
decoded or whose shorter side (after the optional resize) is too small for
the pipeline. A malformed input file ends the stage with an error naming
it. Set HMPSEARCH_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import re
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .coding import load_dictionary, save_dictionary
from .dictionary import TrainConfig, TrainingSet, train
from .encoder import (
    ArchitectureConfig,
    LayerConfig,
    attach_dictionaries,
    encode_image,
    encode_image_bof,
    layer_inputs,
    load_architecture,
    load_descriptor,
    minimum_image_side,
    save_descriptor,
)
from .errors import ConfigError, DecodeError, HmpError, ImageTooSmallError, InvalidInputError
from .evaluation import evaluate, load_ground_truth, write_report
from .files import read_bytes, read_config, write_file
from .images import IntensityImage, load_image, read_manifest, resize_max_side
from .index import apply_idf, build_index, load_index, query, save_index

log = logging.getLogger("hmpsearch")


@dataclass
class RunConfig:
    manifest: str
    architecture: str
    dictionary_dir: str
    descriptor_dir: str
    index_path: str
    ground_truth: str = ""
    report: str = ""
    seed: int = 0
    resize_max_side: int = 0
    baseline: bool = False
    use_idf: bool = False
    train_iterations: int = 15
    sample_cap: int = 20000


def load_run_config(path) -> RunConfig:
    """Read the [run] section; `%` in a value is literal."""
    parser = read_config(path, "run config", {"run": {field.name for field in fields(RunConfig)}})
    if not parser.has_section("run"):
        raise ConfigError(f"{path}: missing [run] section")
    section = parser["run"]
    base = os.path.dirname(os.path.abspath(path))

    def resolve(key, default=""):
        value = section.get(key, default)
        return os.path.join(base, value) if value else value

    try:
        cfg = RunConfig(
            manifest=resolve("manifest"),
            architecture=resolve("architecture"),
            dictionary_dir=resolve("dictionary_dir", "dicts"),
            descriptor_dir=resolve("descriptor_dir", "descriptors"),
            index_path=resolve("index_path", "index.hmpi"),
            ground_truth=resolve("ground_truth"),
            report=resolve("report"),
            seed=section.getint("seed", 0),
            resize_max_side=section.getint("resize_max_side", 0),
            baseline=section.getboolean("baseline", False),
            use_idf=section.getboolean("use_idf", False),
            train_iterations=section.getint("train_iterations", 15),
            sample_cap=section.getint("sample_cap", 20000),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad value in [run]: {exc}") from exc
    if not cfg.manifest:
        raise ConfigError(f"{path}: [run] manifest is required")
    if not cfg.architecture:
        raise ConfigError(f"{path}: [run] architecture is required")
    return cfg


# Smallest value each [run] number (and the --seed override) may take.
_RUN_MINIMUMS = dict(seed=0, train_iterations=1, sample_cap=1, resize_max_side=0)


def _check_run_numbers(cfg: RunConfig, path) -> None:
    for key, low in _RUN_MINIMUMS.items():
        value = getattr(cfg, key)
        if value < low:
            raise ConfigError(f"{path}: {key} must be >= {low}, got {value}")


def safe_filename(image_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", image_id)


def _read_image(cfg: RunConfig, path) -> IntensityImage:
    img = load_image(path)
    if cfg.resize_max_side > 0:
        img = resize_max_side(img, cfg.resize_max_side)
    return img


def _load_corpus(cfg: RunConfig, arch: ArchitectureConfig):
    """Decode every manifest image, skipping (and logging) the unreadable
    ones and those too small for the pipeline."""
    need = arch.layers[0].input_patch_size if cfg.baseline else minimum_image_side(arch)
    records = read_manifest(cfg.manifest)
    if not records:
        raise InvalidInputError(f"manifest {cfg.manifest} lists no images")
    images: list[tuple[str, IntensityImage]] = []
    for image_id, path in records:
        try:
            img = _read_image(cfg, path)
            if min(img.height, img.width) < need:
                raise ImageTooSmallError(
                    f"{path} is {img.height}x{img.width}; the pipeline needs at least"
                    f" {need}x{need} pixels"
                )
        except (DecodeError, ImageTooSmallError) as exc:
            log.warning("skipping %s: %s", image_id, exc)
            continue
        images.append((image_id, img))
    skipped = len(records) - len(images)
    if skipped * 2 > len(records):
        raise HmpError(
            f"{skipped} of {len(records)} manifest images are unreadable or too small; aborting"
        )
    return images


def _dict_path(cfg: RunConfig, label: str) -> str:
    return os.path.join(cfg.dictionary_dir, f"{label}.hmpd")


def _subsample_columns(mat: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if mat.shape[1] <= cap:
        return mat
    picks = rng.choice(mat.shape[1], size=cap, replace=False)
    return mat[:, np.sort(picks)]


def _layer_training_signals(cfg, arch, images, depth: int, rng) -> np.ndarray:
    """Signals feeding layer `depth`, sampled per image then capped."""
    per_image = max(1, math.ceil(2 * cfg.sample_cap / len(images)))
    chunks = []
    for _, img in images:
        vectors = layer_inputs(img, arch, depth).vectors
        if vectors.shape[0] > per_image:
            picks = rng.choice(vectors.shape[0], size=per_image, replace=False)
            vectors = vectors[np.sort(picks)]
        chunks.append(vectors.T)
    signals = np.concatenate(chunks, axis=1)
    return _subsample_columns(signals, cfg.sample_cap, rng)


def _codebooks(cfg: RunConfig, arch: ArchitectureConfig):
    """(label, input depth, seed, layer) of each codebook the run trains, in
    layer order; the label names the codebook file `<label>.hmpd`."""
    if cfg.baseline:
        # one nearest-atom codebook over layer-1 patches
        return [("baseline", 1, cfg.seed, LayerConfig(arch.final_layer.codebook_size, sparsity=1))]
    return [(f"layer{d}", d, cfg.seed + d, layer) for d, layer in enumerate(arch.layers, start=1)]


def cmd_train_dict(cfg: RunConfig) -> int:
    arch = load_architecture(cfg.architecture)
    images = _load_corpus(cfg, arch)
    lines = []
    for label, depth, seed, layer in _codebooks(cfg, arch):
        signals = _layer_training_signals(cfg, arch, images, depth, np.random.default_rng(seed))
        tcfg = TrainConfig(
            codebook_size=layer.codebook_size,
            sparsity=layer.sparsity,
            iterations=cfg.train_iterations,
            seed=seed,
        )
        dictionary, trace = train(TrainingSet(signals), tcfg)
        save_dictionary(dictionary, _dict_path(cfg, label))
        lines.extend(f"{label}\t{i}\t{obj:.6f}\n" for i, obj in enumerate(trace))
        print(f"trained {label} codebook: {dictionary.size} atoms from {signals.shape[1]} signals")
        layer.dictionary = dictionary  # the layers above code their inputs with it
    write_file(os.path.join(cfg.dictionary_dir, "training.log"), "training log", "".join(lines).encode())
    return 0


def _encoder(cfg: RunConfig, arch: ArchitectureConfig):
    """`(image_id, img) -> ImageDescriptor` for the pipeline `cfg` selects,
    with its trained codebooks loaded."""
    def codebook(label):
        path = _dict_path(cfg, label)
        if not os.path.exists(path):
            raise ConfigError(f"codebook {path} not found; run train-dict first")
        return load_dictionary(path)

    codebooks = [codebook(label) for label, *_ in _codebooks(cfg, arch)]
    if cfg.baseline:
        first = arch.layers[0]
        return lambda image_id, img: encode_image_bof(
            img, codebooks[0], first.input_patch_size, first.stride, image_id
        )
    arch = attach_dictionaries(arch, codebooks)
    return lambda image_id, img: encode_image(img, arch, image_id)


def cmd_encode(cfg: RunConfig) -> int:
    arch = load_architecture(cfg.architecture)
    encode = _encoder(cfg, arch)
    images = _load_corpus(cfg, arch)
    owners: dict[str, str] = {}
    for image_id, _ in images:
        name = safe_filename(image_id) + ".hmpv"
        if owners.setdefault(name, image_id) != image_id:
            raise InvalidInputError(f"image ids {owners[name]!r} and {image_id!r} share {name}")
    total_nnz = 0
    for image_id, img in images:
        desc = encode(image_id, img)
        save_descriptor(desc, os.path.join(cfg.descriptor_dir, safe_filename(image_id) + ".hmpv"))
        total_nnz += desc.nnz
    print(f"encoded {len(images)} descriptors, mean nnz {total_nnz / len(images):.1f}")
    return 0


def _load_descriptors(cfg: RunConfig):
    if not os.path.isdir(cfg.descriptor_dir):
        raise ConfigError(f"descriptor directory {cfg.descriptor_dir} not found; run encode first")
    files = sorted(
        name for name in os.listdir(cfg.descriptor_dir) if name.endswith(".hmpv")
    )
    if not files:
        raise ConfigError(f"no descriptor files in {cfg.descriptor_dir}; run encode first")
    return [load_descriptor(os.path.join(cfg.descriptor_dir, name)) for name in files]


def cmd_build_index(cfg: RunConfig) -> int:
    descriptors = _load_descriptors(cfg)
    idx = build_index(descriptors[0].length, descriptors)
    if cfg.use_idf:
        idx = apply_idf(idx)
    save_index(idx, cfg.index_path)
    print(f"indexed {idx.doc_count} descriptors of dimension {idx.dimension}")
    return 0


def cmd_query(cfg: RunConfig, image_path: str, top_k: int, self_exclude: bool) -> int:
    if not os.path.exists(cfg.index_path):
        raise ConfigError(f"index {cfg.index_path} not found; run build-index first")
    idx = load_index(cfg.index_path)
    encode = _encoder(cfg, load_architecture(cfg.architecture))
    desc = encode(os.path.splitext(os.path.basename(image_path))[0], _read_image(cfg, image_path))
    for rank, (image_id, score) in enumerate(
        query(idx, desc, top_k, self_exclude=self_exclude), start=1
    ):
        print(f"{rank}\t{image_id}\t{score:.6f}")
    return 0


def _fingerprint(cfg: RunConfig, idf: bool) -> str:
    """Hash of the architecture file, the codebooks the run's encoder reads,
    the resize, seed and pipeline, and whether the index is IDF-weighted;
    missing files are skipped."""
    paths = [cfg.architecture]
    try:
        arch = load_architecture(cfg.architecture)
        paths += [_dict_path(cfg, label) for label, *_ in _codebooks(cfg, arch)]
    except ConfigError:
        pass
    digest = hashlib.sha256()
    for path in paths:
        try:
            digest.update(hashlib.sha256(read_bytes(path, "file")).digest())
        except DecodeError:
            pass
    digest.update(
        f"seed={cfg.seed};baseline={cfg.baseline};idf={idf};"
        f"resize_max_side={cfg.resize_max_side}".encode()
    )
    return digest.hexdigest()[:16]


def cmd_evaluate(cfg: RunConfig, self_exclude: bool = True) -> int:
    if not cfg.ground_truth:
        raise ConfigError("[run] ground_truth is required for evaluate")
    if not os.path.exists(cfg.index_path):
        raise ConfigError(f"index {cfg.index_path} not found; run build-index first")
    gt = load_ground_truth(cfg.ground_truth)
    idx = load_index(cfg.index_path)
    descriptors = {desc.image_id: desc for desc in _load_descriptors(cfg)}
    fingerprint = _fingerprint(cfg, idf=idx.idf is not None)
    report = evaluate(
        idx, descriptors, gt, self_exclude=self_exclude, config_fingerprint=fingerprint
    )
    report_path = cfg.report or cfg.index_path + ".report.txt"
    write_report(report, report_path)
    print(f"mAP {report.mean_ap:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmpsearch",
        description="Layered sparse-coding image retrieval: train codebooks,"
        " encode descriptors, index, query, evaluate.",
    )
    parser.add_argument("--config", required=True, help="run config file")
    parser.add_argument("--seed", type=int, help="override [run] seed")
    parser.add_argument(
        "--baseline", action="store_true", help="bag-of-features pipeline instead of layered coding"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train-dict", help="train one codebook per layer")
    sub.add_parser("encode", help="encode every manifest image into a descriptor file")
    p_index = sub.add_parser("build-index", help="build the inverted file from descriptors")
    p_index.add_argument("--idf", action="store_true", help="apply inverse-document-frequency weights")
    p_query = sub.add_parser("query", help="rank indexed images against a query image")
    p_query.add_argument("image", help="query image path")
    p_query.add_argument("--top-k", type=int, default=10)
    p_query.add_argument(
        "--no-self-exclude", action="store_true", help="let the query match its own id"
    )
    p_eval = sub.add_parser("evaluate", help="mean average precision over the ground truth")
    p_eval.add_argument(
        "--no-self-exclude", action="store_true", help="count the query itself as a hit"
    )
    return parser


def main(argv=None) -> int:
    level = os.environ.get("HMPSEARCH_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
        cfg = replace(
            cfg,
            seed=cfg.seed if args.seed is None else args.seed,
            baseline=cfg.baseline or args.baseline,
            use_idf=cfg.use_idf or getattr(args, "idf", False),
        )
        _check_run_numbers(cfg, args.config)
        if args.command == "train-dict":
            return cmd_train_dict(cfg)
        if args.command == "encode":
            return cmd_encode(cfg)
        if args.command == "build-index":
            return cmd_build_index(cfg)
        if args.command == "query":
            return cmd_query(cfg, args.image, args.top_k, not args.no_self_exclude)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, self_exclude=not args.no_self_exclude)
        raise ConfigError(f"unknown command {args.command!r}")
    except HmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
