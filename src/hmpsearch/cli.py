"""Command-line pipeline: train-dict, encode, build-index, query, evaluate.

Every stage reads one run config file and validates its inputs before doing
any long-running work, so stages can be re-run independently. Artifacts are
plain files: one codebook per layer, one descriptor file per image, one index
file, one evaluation report. Every stage that reads the manifest admits the
same images: it skips, with a warning, each image that cannot be decoded or
whose shorter side (after the optional resize) is too small for the pipeline,
and decodes an admitted image again when it uses it, so one decoded image is
held at a time. A malformed input file ends the stage with an error naming it.
`encode` and `query` check every codebook against the architecture before
decoding any image or the index, so a stale one ends the stage naming its
file. The run file is the one source of every run setting, the seed included.
`--baseline`, given to every stage, codes with the one-layer
`encoder.baseline_architecture`; `build-index --idf` weights the index.
HMPSEARCH_LOG sets the root logger's level (default warning, also for a
value that names no level); every record hmpsearch logs is a warning, so
`error` hides them all. A descriptor file is named by `safe_filename` of
its id, so no two ids share one, even on a case-insensitive file system.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .coding import load_dictionary, save_dictionary
from .dictionary import train
from .encoder import (
    ArchitectureConfig,
    baseline_architecture,
    check_codebook,
    check_image_size,
    encode_image,
    encode_image_bof,
    layer_inputs,
    load_architecture,
    load_descriptor,
    save_descriptor,
)
from .errors import ConfigError, DecodeError, HmpError, ImageTooSmallError, InvalidInputError
from .evaluation import evaluate, load_ground_truth, write_report
from .files import config_int, read_bytes, read_config, write_file
from .images import IntensityImage, load_image, read_manifest, resize_max_side
from .index import apply_idf, build_index, load_index, query, save_index

log = logging.getLogger("hmpsearch")


@dataclass
class RunConfig:
    """The [run] settings; relative paths, the defaults included, resolve
    against the run file's directory, and an empty path stays empty."""

    manifest: str = ""  # required
    architecture: str = ""  # required
    dictionary_dir: str = "dicts"
    descriptor_dir: str = "descriptors"
    index_path: str = "index.hmpi"
    ground_truth: str = ""
    report: str = ""
    seed: int = 0
    resize_max_side: int = 0
    baseline: bool = False  # the --baseline flag; the file has no such key
    train_iterations: int = 15
    sample_cap: int = 20000


# Smallest value each [run] number may take; every other key is a path.
_RUN_MINIMUMS = dict(seed=0, train_iterations=1, sample_cap=1, resize_max_side=0)


def load_run_config(path) -> RunConfig:
    """Read the [run] section; `%` in a value is literal, and a non-integer
    or a number below its minimum is a ConfigError naming the file, section
    and key."""
    keys = {field.name for field in fields(RunConfig)} - {"baseline"}
    with read_config(path, "run config", {"run": keys}) as parser:
        if not parser.has_section("run"):
            raise ConfigError("missing [run] section")
        section = parser["run"]
        cfg = RunConfig(**{
            key: config_int("run", key, section[key]) if key in _RUN_MINIMUMS else section[key]
            for key in keys if key in section
        })
        base = os.path.dirname(os.path.abspath(path))
        paths = {key: getattr(cfg, key) for key in keys - _RUN_MINIMUMS.keys()}
        cfg = replace(cfg, **{key: os.path.join(base, value) for key, value in paths.items() if value})
        if not cfg.manifest:
            raise ConfigError("[run] manifest is required")
        if not cfg.architecture:
            raise ConfigError("[run] architecture is required")
        for key, low in _RUN_MINIMUMS.items():
            value = getattr(cfg, key)
            if value < low:
                raise ConfigError(f"[run] {key} must be >= {low}, got {value}")
    return cfg


def safe_filename(image_id: str) -> str:
    """The id's UTF-8 bytes, each outside `[a-z0-9._-]` written `%XX` in
    upper-case hex: distinct ids get names that differ even case-folded."""
    kept = b"abcdefghijklmnopqrstuvwxyz0123456789._-"
    return "".join(chr(b) if b in kept else f"%{b:02X}" for b in image_id.encode("utf-8"))


def _read_image(cfg: RunConfig, path) -> IntensityImage:
    img = load_image(path)
    if cfg.resize_max_side > 0:
        img = resize_max_side(img, cfg.resize_max_side)
    return img


def _architecture(cfg: RunConfig) -> ArchitectureConfig:
    """The architecture the run codes with: the file's, or with --baseline
    the one-layer bag-of-features architecture derived from it."""
    arch = load_architecture(cfg.architecture)
    return baseline_architecture(arch) if cfg.baseline else arch


def _load_corpus(cfg: RunConfig, arch: ArchitectureConfig) -> list[tuple[str, str]]:
    """(image id, path) of each manifest image, decoded once and dropped,
    skipping (and logging) the unreadable ones and those too small."""
    records = read_manifest(cfg.manifest)
    if not records:
        raise InvalidInputError(f"manifest {cfg.manifest} lists no images")
    admitted = []
    for image_id, path in records:
        try:
            check_image_size(_read_image(cfg, path), arch, path)
        except (DecodeError, ImageTooSmallError) as exc:
            log.warning("skipping %s: %s", image_id, exc)
            continue
        admitted.append((image_id, path))
    skipped = len(records) - len(admitted)
    if skipped * 2 > len(records):
        raise HmpError(
            f"{skipped} of {len(records)} manifest images are unreadable or too small; aborting"
        )
    return admitted


def _dict_path(cfg: RunConfig, label: str) -> str:
    return os.path.join(cfg.dictionary_dir, f"{label}.hmpd")


def _subsample_columns(mat: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if mat.shape[1] <= cap:
        return mat
    picks = rng.choice(mat.shape[1], size=cap, replace=False)
    return mat[:, np.sort(picks)]


def _layer_training_signals(cfg, arch, images, codebooks, rng) -> np.ndarray:
    """Signals feeding the layer above `codebooks`, sampled per image then
    capped."""
    per_image = max(1, math.ceil(2 * cfg.sample_cap / len(images)))
    chunks = []
    for _, path in images:
        vectors = layer_inputs(_read_image(cfg, path), arch, codebooks).vectors
        chunks.append(_subsample_columns(vectors.T, per_image, rng))
    signals = np.concatenate(chunks, axis=1)
    return _subsample_columns(signals, cfg.sample_cap, rng)


def _codebooks(cfg: RunConfig, arch: ArchitectureConfig):
    """(label, input depth, seed, layer) of each codebook the run trains, in
    layer order; the label names the codebook file `<label>.hmpd`."""
    if cfg.baseline:
        return [("baseline", 1, cfg.seed, arch.layers[0])]
    return [(f"layer{d}", d, cfg.seed + d, layer) for d, layer in enumerate(arch.layers, start=1)]


def cmd_train_dict(cfg: RunConfig) -> int:
    arch = _architecture(cfg)
    images = _load_corpus(cfg, arch)
    lines = []
    codebooks = []  # the layers above code their inputs with these
    for label, _, seed, layer in _codebooks(cfg, arch):
        signals = _layer_training_signals(cfg, arch, images, codebooks, np.random.default_rng(seed))
        dictionary, trace = train(signals, layer, cfg.train_iterations, seed)
        save_dictionary(dictionary, _dict_path(cfg, label))
        lines.extend(f"{label}\t{i}\t{obj:.6f}\n" for i, obj in enumerate(trace))
        print(f"trained {label} codebook: {dictionary.size} atoms from {signals.shape[1]} signals")
        codebooks.append(dictionary)
    write_file(os.path.join(cfg.dictionary_dir, "training.log"), "training log", "".join(lines).encode())
    return 0


def _encoder(cfg: RunConfig, arch: ArchitectureConfig):
    """`(image_id, img) -> ImageDescriptor` for the pipeline `cfg` selects,
    with its trained codebooks loaded, each checked against the architecture
    so that a stale one fails naming its file before any image is decoded."""
    def codebook(label, depth, layer):
        path = _dict_path(cfg, label)
        if not os.path.exists(path):
            raise ConfigError(f"codebook {path} not found; run train-dict first")
        dictionary = load_dictionary(path)
        check_codebook(dictionary, layer, arch.layer_input_dim(depth), f"codebook {path}")
        return dictionary

    codebooks = [codebook(label, depth, layer) for label, depth, _, layer in _codebooks(cfg, arch)]
    encode = encode_image_bof if cfg.baseline else encode_image
    return lambda image_id, img: encode(img, arch, codebooks, image_id)


def cmd_encode(cfg: RunConfig) -> int:
    arch = _architecture(cfg)
    encode = _encoder(cfg, arch)
    images = _load_corpus(cfg, arch)
    total_nnz = 0
    for image_id, path in images:
        desc = encode(image_id, _read_image(cfg, path))
        save_descriptor(desc, os.path.join(cfg.descriptor_dir, safe_filename(image_id) + ".hmpv"))
        total_nnz += desc.nnz
    print(f"encoded {len(images)} descriptors, mean nnz {total_nnz / len(images):.1f}")
    return 0


def _load_descriptors(cfg: RunConfig):
    """The descriptor files in name order: one length, one file per image id."""
    if not os.path.isdir(cfg.descriptor_dir):
        raise ConfigError(f"descriptor directory {cfg.descriptor_dir} not found; run encode first")
    names = sorted(os.listdir(cfg.descriptor_dir))
    paths = [os.path.join(cfg.descriptor_dir, name) for name in names if name.endswith(".hmpv")]
    if not paths:
        raise ConfigError(f"no descriptor files in {cfg.descriptor_dir}; run encode first")
    descriptors = [load_descriptor(path) for path in paths]
    owners = {}  # image id -> the first file that holds it
    for path, desc in zip(paths, descriptors):
        if desc.length != descriptors[0].length:
            raise InvalidInputError(f"{path} has length {desc.length}, {paths[0]} {descriptors[0].length}")
        if owners.setdefault(desc.image_id, path) != path:
            raise InvalidInputError(f"{path} repeats image id {desc.image_id!r} of {owners[desc.image_id]}")
    return descriptors


def cmd_build_index(cfg: RunConfig, idf: bool) -> int:
    descriptors = _load_descriptors(cfg)
    idx = build_index(descriptors[0].length, descriptors)
    if idf:
        idx = apply_idf(idx)
    save_index(idx, cfg.index_path)
    print(f"indexed {idx.doc_count} descriptors of dimension {idx.dimension}")
    return 0


def cmd_query(cfg: RunConfig, image_path: str, top_k: int, self_exclude: bool) -> int:
    if top_k < 1:
        raise InvalidInputError(f"--top-k must be >= 1, got {top_k}")
    encode = _encoder(cfg, _architecture(cfg))
    if not os.path.exists(cfg.index_path):
        raise ConfigError(f"index {cfg.index_path} not found; run build-index first")
    idx = load_index(cfg.index_path)
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
        paths += [_dict_path(cfg, label) for label, *_ in _codebooks(cfg, _architecture(cfg))]
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


def cmd_evaluate(cfg: RunConfig) -> int:
    if not cfg.ground_truth:
        raise ConfigError("[run] ground_truth is required for evaluate")
    if not os.path.exists(cfg.index_path):
        raise ConfigError(f"index {cfg.index_path} not found; run build-index first")
    gt = load_ground_truth(cfg.ground_truth)
    idx = load_index(cfg.index_path)
    descriptors = {desc.image_id: desc for desc in _load_descriptors(cfg)}
    fingerprint = _fingerprint(cfg, idf=idx.idf is not None)
    report = evaluate(idx, descriptors, gt, config_fingerprint=fingerprint)
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
    sub.add_parser("evaluate", help="mean average precision over the ground truth")
    return parser


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("HMPSEARCH_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    args = build_parser().parse_args(argv)
    try:
        cfg = replace(load_run_config(args.config), baseline=args.baseline)
        return {
            "train-dict": lambda: cmd_train_dict(cfg),
            "encode": lambda: cmd_encode(cfg),
            "build-index": lambda: cmd_build_index(cfg, args.idf),
            "query": lambda: cmd_query(cfg, args.image, args.top_k, not args.no_self_exclude),
            "evaluate": lambda: cmd_evaluate(cfg),
        }[args.command]()
    except HmpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not allocate
        print(f"error: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
