"""Command-line front end binding the pipeline end to end.

    xmtc gen-synthetic --workdir WORK [generator flags]
    xmtc preprocess    --workdir WORK --config C --train T [--val V] [--test E] --catalog CAT
    xmtc build-graph   --workdir WORK --config C
    xmtc build-mask    --workdir WORK --config C
    xmtc train         --workdir WORK --config C
    xmtc evaluate      --workdir WORK --config C [--split test]
    xmtc predict       --workdir WORK --config C --input DOCS.jsonl [--attention-out H.jsonl]
    xmtc ablate        --workdir WORK --config C [--variants full,no_mask,...]

Every subcommand writes its artifacts plus a manifest recording the
configuration hash and input hashes.  Artifacts stamped with a different
configuration hash are refused.  Exit codes: 0 success, 2 configuration
error, 3 data error, 4 numerical divergence, 1 any other error (an output
path that cannot be written, say).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import sys
from pathlib import Path

from . import attention, corpus, embeddings, graph, mask, model, synth, training
from .config import RunConfig, config_hash, load_run_config
from .errors import (ConfigError, DataError, DivergenceError, StalenessError, XmtcError,
                     read_text)
from .metrics import top_k_labels

logger = logging.getLogger(__name__)

ARTIFACTS = {
    "catalog": "catalog.tsv",
    "vocab": "vocab.txt",
    "embeddings": "embeddings.txt",
    "train": "train.enc.jsonl",
    "val": "val.enc.jsonl",
    "test": "test.enc.jsonl",
    "graph": "graph.txt",
    "mask_index": "mask_index.tsv",
    "checkpoint": "checkpoint.bin",
    "history": "history.csv",
    "metrics": "metrics.json",
    "per_label": "per_label.tsv",
    "predictions": "predictions.jsonl",
    "ablation": "ablation.json",
}
# the artifacts every model stage loads through _load_stage
STAGE_INPUTS = ("catalog", "vocab", "graph", "mask_index")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(workdir: Path, command: str, cfg_hash: str,
                    inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "config_hash": cfg_hash,
        "inputs": {p.name: _sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    path = workdir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _setup(args) -> tuple[RunConfig, str, Path]:
    """The resolved configuration (``--seed`` overrides it), its hash and
    the work directory of one subcommand."""
    overrides = {} if args.seed_override is None else {"seed": str(args.seed_override)}
    cfg = load_run_config(args.config, overrides=overrides)
    return cfg, config_hash(cfg), Path(args.workdir)


def _paths(workdir: Path, *names: str) -> list[Path]:
    return [workdir / ARTIFACTS[name] for name in names]


def _artifact(workdir: Path, name: str, producer: str) -> Path:
    path = workdir / ARTIFACTS[name]
    if not path.exists():
        raise DataError(
            f"missing artifact {path.name}; run 'xmtc {producer}' first"
        )
    return path


def _check_hash(found: str, expected: str, path) -> None:
    if found and found != expected:
        raise StalenessError(
            f"{path} was built under config {found}, current config is {expected}; "
            "re-run the producing subcommand"
        )


def _first_comment_hash(path: Path) -> str:
    first = read_text(path, first_line=True)
    if first.startswith("#") and "config=" in first:
        return first.split("config=", 1)[1].split()[0].strip()
    return ""


def _load_vocab(workdir: Path, cfg_hash: str):
    vocab_path = _artifact(workdir, "vocab", "preprocess")
    _check_hash(_first_comment_hash(vocab_path), cfg_hash, vocab_path)
    return corpus.Vocabulary.load(vocab_path)


def _load_stage(workdir: Path, cfg_hash: str):
    """Load the shared artifacts, ``STAGE_INPUTS``."""
    catalog = corpus.LabelCatalog.load_tsv(_artifact(workdir, "catalog", "preprocess"))
    vocab = _load_vocab(workdir, cfg_hash)
    graph_path = _artifact(workdir, "graph", "build-graph")
    g, found = graph.load_graph(graph_path, len(catalog))
    _check_hash(found, cfg_hash, graph_path)
    mask_path = _artifact(workdir, "mask_index", "build-mask")
    index, found = mask.load_mask_index(mask_path, catalog)
    _check_hash(found, cfg_hash, mask_path)
    return catalog, vocab, g, index


def _load_encoded(workdir: Path, split: str, cfg_hash: str, vocab, catalog):
    path = _artifact(workdir, split, "preprocess")
    records, found = corpus.load_encoded(path, len(vocab), len(catalog))
    _check_hash(found, cfg_hash, path)
    return records


def _load_embeddings(workdir: Path, cfg: RunConfig, cfg_hash: str, vocab):
    path = _artifact(workdir, "embeddings", "preprocess")
    _check_hash(_first_comment_hash(path), cfg_hash, path)
    return embeddings.load_embeddings(path, vocab, cfg.embedding_size, seed=cfg.seed)


def _restore_model(workdir: Path, cfg: RunConfig, cfg_hash: str):
    catalog, vocab, g, index = _load_stage(workdir, cfg_hash)
    params, manifest = training.load_checkpoint(_artifact(workdir, "checkpoint", "train"))
    _check_hash(manifest["config_hash"], cfg_hash, ARTIFACTS["checkpoint"])
    if manifest["vocab_hash"] != _sha256(workdir / ARTIFACTS["vocab"]):
        raise StalenessError(
            f"{ARTIFACTS['checkpoint']} was trained on a different {ARTIFACTS['vocab']}; "
            "re-run 'xmtc train'"
        )
    m = model.model_from_config(cfg, vocab, catalog, g, variant=manifest["variant"])
    m.params.load_arrays(params)
    return m, catalog, vocab, index


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synthetic(args) -> None:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    spec = synth.standard_spec(
        num_labels=args.labels,
        num_docs=args.docs,
        seed=args.seed,
        clique_size=args.clique_size,
        keywords_per_label=args.keywords_per_label,
        noise_rate=args.noise_rate,
        doc_length=(args.min_len, args.max_len),
        emit_prob=args.emit_prob,
    )
    docs, catalog, truth = synth.generate(spec)
    corpus_path = workdir / "corpus.jsonl"
    synth.write_corpus(docs, corpus_path)
    catalog_path = workdir / "raw_catalog.tsv"
    catalog.save_tsv(catalog_path)
    truth_path = workdir / "groundtruth.json"
    truth_path.write_text(truth.to_json() + "\n")
    splits = synth.split_docs(docs, (0.8, 0.1, 0.1), seed=spec.seed)
    split_paths = []
    for name, part in zip(("train", "val", "test"), splits):
        path = workdir / f"{name}.jsonl"
        synth.write_corpus(part, path)
        split_paths.append(path)
    _write_manifest(workdir, "gen-synthetic", "", [],
                    [corpus_path, catalog_path, truth_path, *split_paths])
    print(f"generated {len(docs)} documents, {args.labels} labels -> {workdir}")


def cmd_preprocess(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    catalog = corpus.LabelCatalog.load_tsv(args.catalog)
    sources = {name: src for name, src in
               (("train", args.train), ("val", args.val), ("test", args.test)) if src}
    inputs = [Path(args.catalog), *(Path(src) for src in sources.values())]
    raw_splits = {name: corpus.load_corpus_jsonl(src) for name, src in sources.items()}

    token_docs = [corpus.preprocess(d["text"], cfg.max_len) for d in raw_splits["train"]]
    vocab = corpus.build_vocab(token_docs, min_count=cfg.min_count)
    # every split is encoded, and so checked, before the first artifact is written
    encoded = {name: corpus.encode_documents(raw, vocab, catalog, max_len=cfg.max_len,
                                             source=sources[name])
               for name, raw in raw_splits.items()}

    workdir.mkdir(parents=True, exist_ok=True)
    catalog_path = workdir / ARTIFACTS["catalog"]
    catalog.save_tsv(catalog_path)
    vocab_path = workdir / ARTIFACTS["vocab"]
    vocab.save(vocab_path, config_hash=cfg_hash)

    if cfg.embedding_path:
        table = embeddings.load_embeddings(cfg.embedding_path, vocab, cfg.embedding_size,
                                           seed=cfg.seed)
        inputs.append(Path(cfg.embedding_path))
    else:
        table = embeddings.train_skipgram(
            [r.tokens for r in encoded["train"]],
            vocab_size=len(vocab),
            dim=cfg.embedding_size,
            window=cfg.skipgram_window,
            negatives=cfg.skipgram_negatives,
            epochs=cfg.skipgram_epochs,
            seed=cfg.seed,
        )
    emb_path = workdir / ARTIFACTS["embeddings"]
    embeddings.save_embeddings(table, vocab, emb_path, config_hash=cfg_hash)

    outputs = [catalog_path, vocab_path, emb_path]
    for name, records in encoded.items():
        path = workdir / ARTIFACTS[name]
        corpus.save_encoded(records, path, config_hash=cfg_hash)
        outputs.append(path)
    _write_manifest(workdir, "preprocess", cfg_hash, inputs, outputs)
    print(f"preprocess: vocab {len(vocab)}, labels {len(catalog)} -> {workdir}")


def cmd_build_graph(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    catalog = corpus.LabelCatalog.load_tsv(_artifact(workdir, "catalog", "preprocess"))
    vocab = _load_vocab(workdir, cfg_hash)
    train_docs = _load_encoded(workdir, "train", cfg_hash, vocab, catalog)
    g = graph.build_cooccurrence(train_docs, len(catalog), lam=cfg.lambda_)
    graph_path = workdir / ARTIFACTS["graph"]
    graph.save_graph(g, graph_path, config_hash=cfg_hash)
    _write_manifest(workdir, "build-graph", cfg_hash,
                    _paths(workdir, "catalog", "vocab", "train"), [graph_path])
    print(f"build-graph: {g.num_labels} labels, lambda={g.lam}, "
          f"{g.pair_count} co-occurrence pairs")


def cmd_build_mask(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    catalog = corpus.LabelCatalog.load_tsv(_artifact(workdir, "catalog", "preprocess"))
    vocab = _load_vocab(workdir, cfg_hash)
    train_docs = _load_encoded(workdir, "train", cfg_hash, vocab, catalog)
    index = mask.build_mask_index(train_docs, len(catalog), tau=cfg.tau)
    mask_path = workdir / ARTIFACTS["mask_index"]
    mask.save_mask_index(index, catalog, mask_path, config_hash=cfg_hash)
    stats = mask.mask_stats(index, train_docs)
    _write_manifest(workdir, "build-mask", cfg_hash,
                    _paths(workdir, "catalog", "vocab", "train"), [mask_path])
    print(f"build-mask: tau={cfg.tau}, train recall {stats.recall_of_gold:.4f}, "
          f"mean mask size {stats.mean_mask_size:.1f}")


def cmd_train(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    catalog, vocab, g, index = _load_stage(workdir, cfg_hash)
    train_docs = _load_encoded(workdir, "train", cfg_hash, vocab, catalog)
    val_docs = _load_encoded(workdir, "val", cfg_hash, vocab, catalog)
    emb = _load_embeddings(workdir, cfg, cfg_hash, vocab)

    m = model.model_from_config(cfg, vocab, catalog, g, emb)
    tc = training.TrainConfig.from_run_config(cfg)
    result = training.train(train_docs, val_docs, m, index, tc, ks=cfg.p_at_k)

    ckpt_path = workdir / ARTIFACTS["checkpoint"]
    vocab_hash = _sha256(workdir / ARTIFACTS["vocab"])
    training.save_checkpoint(ckpt_path, result.params_arrays, epoch=result.best_epoch,
                             config_hash=cfg_hash, vocab_hash=vocab_hash, variant=cfg.variant)
    history_path = workdir / ARTIFACTS["history"]
    with open(history_path, "w") as fh:
        fh.write(f"# config={cfg_hash}\n")
        fh.write("epoch,train_loss,val_micro_f1,lr\n")
        for row in result.history:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_micro_f1!r},{row.lr!r}\n")
    _write_manifest(workdir, "train", cfg_hash,
                    _paths(workdir, *STAGE_INPUTS, "train", "val", "embeddings"),
                    [ckpt_path, history_path])
    print(f"train: best epoch {result.best_epoch}, "
          f"val micro-F1 {result.best_val_micro_f1:.4f}")


def cmd_evaluate(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    m, catalog, vocab, index = _restore_model(workdir, cfg, cfg_hash)
    docs = _load_encoded(workdir, args.split, cfg_hash, vocab, catalog)
    report = training.evaluate(docs, m, index, cfg.prediction_threshold,
                               ks=cfg.p_at_k, label_codes=catalog.codes)
    metrics_path = workdir / ARTIFACTS["metrics"]
    metrics_path.write_text(report.to_json(config_hash=cfg_hash) + "\n")
    per_label_path = workdir / ARTIFACTS["per_label"]
    report.write_per_label_tsv(per_label_path)
    _write_manifest(workdir, "evaluate", cfg_hash,
                    _paths(workdir, *STAGE_INPUTS, "checkpoint", args.split),
                    [metrics_path, per_label_path])
    print(report.to_json(config_hash=cfg_hash))


def cmd_predict(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    m, catalog, vocab, index = _restore_model(workdir, cfg, cfg_hash)
    raw_docs = corpus.load_corpus_jsonl(args.input)
    records = corpus.encode_documents(raw_docs, vocab, catalog, max_len=cfg.max_len,
                                      source=args.input)

    h_label = m.label_representations()
    out_path = workdir / ARTIFACTS["predictions"]
    # the heat file is opened first, so an unwritable path fails before any scoring
    heat_file = open(args.attention_out, "w") if args.attention_out else contextlib.nullcontext()
    with heat_file as heat, open(out_path, "w") as fh:
        fh.write(json.dumps({"format": "xmtc-predictions", "config": cfg_hash}) + "\n")
        for doc, doc_mask in zip(records, training.doc_masks(records, m, index)):
            out = m.predict_scores(doc.tokens, doc_mask, h_label, doc_id=doc.doc_id,
                                   with_attention=heat is not None)
            scores, alpha = out if heat is not None else (out, None)
            top = top_k_labels(scores, cfg.predict_top_k)
            row = {
                "doc_id": doc.doc_id,
                "topk": [[catalog.codes[i], float(scores[i])] for i in top],
                "masked": training.uses_masks(m, index) and not doc_mask.empty,
            }
            fh.write(json.dumps(row) + "\n")
            if heat is not None:
                attention.write_attention_heat(attention.attention_heat_records(
                    doc.doc_id, alpha[top], [catalog.codes[i] for i in top]), heat)
    outputs = [out_path]
    if args.attention_out:
        outputs.append(Path(args.attention_out))
    _write_manifest(workdir, "predict", cfg_hash,
                    [*_paths(workdir, *STAGE_INPUTS, "checkpoint"), Path(args.input)], outputs)
    print(f"predict: wrote top-{cfg.predict_top_k} lists for {len(records)} docs")


def cmd_ablate(args) -> None:
    cfg, cfg_hash, workdir = _setup(args)
    catalog, vocab, g, index = _load_stage(workdir, cfg_hash)
    train_docs = _load_encoded(workdir, "train", cfg_hash, vocab, catalog)
    val_docs = _load_encoded(workdir, "val", cfg_hash, vocab, catalog)
    test_docs = _load_encoded(workdir, "test", cfg_hash, vocab, catalog)
    emb = _load_embeddings(workdir, cfg, cfg_hash, vocab)

    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    report = training.ablate(
        variants, train_docs, val_docs, test_docs, vocab, catalog, g, index, emb, cfg,
    )
    out = workdir / ARTIFACTS["ablation"]
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _write_manifest(workdir, "ablate", cfg_hash,
                    _paths(workdir, *STAGE_INPUTS, "train", "val", "test", "embeddings"), [out])
    print(json.dumps(report, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmtc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workdir", required=True, help="artifact directory")
        p.add_argument("--config", default=None, help="key=value configuration file")
        p.add_argument("--seed", dest="seed_override", type=int, default=None,
                       help="override the configured seed")

    p = sub.add_parser("gen-synthetic", help="generate a planted synthetic corpus")
    p.add_argument("--workdir", required=True)
    p.add_argument("--labels", type=int, default=50)
    p.add_argument("--docs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clique-size", type=int, default=3)
    p.add_argument("--keywords-per-label", type=int, default=6)
    p.add_argument("--noise-rate", type=float, default=0.25)
    p.add_argument("--min-len", type=int, default=30)
    p.add_argument("--max-len", type=int, default=60)
    p.add_argument("--emit-prob", type=float, default=0.9)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("preprocess", help="build vocab, embeddings, encoded corpora")
    common(p)
    p.add_argument("--train", required=True, help="raw training corpus (JSONL)")
    p.add_argument("--val", default=None)
    p.add_argument("--test", default=None)
    p.add_argument("--catalog", required=True, help="label catalog TSV")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-graph", help="label co-occurrence graph from the train split")
    common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("build-mask", help="auxiliary-knowledge mask index from the train split")
    common(p)
    p.set_defaults(func=cmd_build_mask)

    p = sub.add_parser("train", help="train the model")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics on an encoded split")
    common(p)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="top-K predictions for raw documents")
    common(p)
    p.add_argument("--input", required=True, help="raw JSONL documents")
    p.add_argument("--attention-out", default=None,
                   help="write attention heat JSONL here")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train and compare architecture variants")
    common(p)
    p.add_argument("--variants", default="full,no_mask,no_label_feature")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4
    except (XmtcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
