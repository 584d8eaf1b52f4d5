"""Command-line front end binding the pipeline end to end.

    xmtc gen-synthetic --workdir WORK [generator flags]
    xmtc preprocess    --workdir WORK --config C --train T [--val V] [--test E] --catalog CAT
    xmtc build-graph   --workdir WORK --config C
    xmtc build-mask    --workdir WORK --config C
    xmtc train         --workdir WORK --config C
    xmtc evaluate      --workdir WORK --config C [--split test]
    xmtc predict       --workdir WORK --config C --input DOCS.jsonl [--attention-out H.jsonl]
    xmtc ablate        --workdir WORK --config C [--variants full,no_mask,...]

The ``--config`` file is the only source of a run's settings.  Every
subcommand writes its artifacts plus ``manifest_<subcommand>.json``, which
records the configuration hash and the sha256 of every file it read and
wrote; the manifests are the only record of where an artifact came from.
A work-directory artifact is read only when the manifest of the subcommand
that wrote it records that file, under the current configuration, from the
same versions of the files the reader also reads.
Exit codes: 0 success, 2 configuration error (a stale artifact included),
3 data error (a missing or malformed manifest, or a file its manifest does
not record, included), 4 numerical divergence, 1 any other error (an
output path that cannot be written, say).
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
from .config import check_variants, config_hash, load_run_config
from .errors import (ConfigError, DataError, DivergenceError, StalenessError, XmtcError,
                     read_text)
from .metrics import top_k_labels

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
# the subcommand that writes an artifact a later one reads, if not preprocess
PRODUCERS = {"graph": "build-graph", "mask_index": "build-mask", "checkpoint": "train"}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(workdir: Path, command: str, cfg_hash: str,
                    inputs: dict[Path, str | None], outputs: list[Path]) -> None:
    """``inputs`` maps each file read to its sha256, or to None to hash it here."""
    manifest = {"command": command, "config_hash": cfg_hash,
                "inputs": {str(p): digest or _sha256(p) for p, digest in inputs.items()},
                "outputs": {p.name: _sha256(p) for p in outputs}}
    path = workdir / f"manifest_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_manifest(workdir: Path, producer: str) -> dict:
    """``workdir``'s ``manifest_<producer>.json``; a missing or malformed one
    is a ``DataError`` naming it."""
    path = workdir / f"manifest_{producer}.json"
    try:
        made = json.loads(read_text(path))
        if not (isinstance(made["config_hash"], str) and isinstance(made["inputs"], dict)
                and isinstance(made["outputs"], dict)):
            raise TypeError
    except (ValueError, TypeError, KeyError):
        raise DataError(f"{path}: malformed manifest; re-run 'xmtc {producer}'") from None
    return made


class _Stage:
    """One subcommand: its configuration, the config hash, the work
    directory and every file it reads."""

    def __init__(self, args):
        self.cfg = load_run_config(args.config)
        self.hash = config_hash(self.cfg)
        self.workdir = Path(args.workdir)
        self.command = args.command
        self.inputs: dict[Path, str | None] = {}  # each file read -> its sha256, once taken
        # (file name, sha256, artifact, producer) for each input that the
        # manifest of an artifact's producer records
        self.sources: list[tuple[str, str, Path, str]] = []

    def read(self, path):
        """Record the input ``path`` and return it."""
        self.inputs.setdefault(Path(path), None)
        return path

    def load(self, name: str, loader, *args):
        """The work-directory artifact ``name`` through ``loader(path, *args)``,
        refused unless its producer's manifest records this file, under this
        config, from the same versions of the files this stage reads.  Only
        the sha256 check follows the loader, whose per-line errors come first."""
        path = self.workdir / ARTIFACTS[name]
        producer = PRODUCERS.get(name, "preprocess")
        if not path.exists():
            raise DataError(f"missing artifact {path.name}; run 'xmtc {producer}' first")
        digest = _sha256(path)
        made = _read_manifest(self.workdir, producer)
        if made["config_hash"] != self.hash:
            raise StalenessError(f"{path} was built under config {made['config_hash']}, current "
                                 f"config is {self.hash}; re-run 'xmtc {producer}'")
        # preprocess reads raw files, the other producers work-directory
        # artifacts only, which the file name then identifies
        if producer != "preprocess":
            self.sources += [(Path(source).name, recorded, path, producer)
                             for source, recorded in made["inputs"].items()]
        self._check_sources()
        loaded = loader(path, *args)
        if made["outputs"].get(path.name) != digest:
            raise DataError(f"{path} is not the file manifest_{producer}.json records; "
                            f"re-run 'xmtc {producer}'")
        self.inputs[path] = digest
        self._check_sources()
        return loaded

    def _check_sources(self) -> None:
        """Refuse an artifact built from another version of a file read here."""
        taken = {p.name: h for p, h in self.inputs.items() if h}
        for file, recorded, artifact, maker in self.sources:
            if taken.get(file, recorded) != recorded:
                raise StalenessError(f"{artifact} was built from another {file} than this "
                                     f"stage reads; re-run 'xmtc {maker}'")

    def splits(self, vocab, catalog, *names: str) -> list:
        return [self.load(name, corpus.load_encoded, len(vocab), len(catalog)) for name in names]

    def write_manifest(self, outputs: list[Path]) -> None:
        _write_manifest(self.workdir, self.command, self.hash, self.inputs, outputs)


def _load_stage(stage: _Stage):
    """The catalog, vocabulary, graph and mask index every model stage reads."""
    catalog = stage.load("catalog", corpus.LabelCatalog.load_tsv)
    vocab = stage.load("vocab", corpus.Vocabulary.load)
    g = stage.load("graph", graph.load_graph, len(catalog))
    index, _ = stage.load("mask_index", mask.load_mask_index, catalog)
    return catalog, vocab, g, index


def _restore_model(stage: _Stage):
    catalog, vocab, g, index = _load_stage(stage)
    params, _ = stage.load("checkpoint", training.load_checkpoint)
    m = model.model_from_config(stage.cfg, vocab, catalog, g)
    m.params.load_arrays(params)
    return m, catalog, vocab, index


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synthetic(args) -> None:
    spec = synth.standard_spec(num_labels=args.labels, num_docs=args.docs, seed=args.seed,
                               doc_length=(args.min_len, args.max_len))
    docs, catalog, truth = synth.generate(spec)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
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
    _write_manifest(workdir, "gen-synthetic", "", {},
                    [corpus_path, catalog_path, truth_path, *split_paths])
    print(f"generated {len(docs)} documents, {args.labels} labels -> {workdir}")


def cmd_preprocess(args) -> None:
    stage = _Stage(args)
    cfg, workdir = stage.cfg, stage.workdir
    catalog = corpus.LabelCatalog.load_tsv(stage.read(args.catalog))
    sources = {name: src for name, src in
               (("train", args.train), ("val", args.val), ("test", args.test)) if src}
    raw_splits = {name: corpus.load_corpus_jsonl(stage.read(src)) for name, src in sources.items()}

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
    vocab.save(vocab_path)

    if cfg.embedding_path:
        table = embeddings.load_embeddings(stage.read(cfg.embedding_path), vocab,
                                           cfg.embedding_size, seed=cfg.seed)
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
    embeddings.save_embeddings(table, vocab, emb_path)

    outputs = [catalog_path, vocab_path, emb_path]
    for name, records in encoded.items():
        path = workdir / ARTIFACTS[name]
        corpus.save_encoded(records, path)
        outputs.append(path)
    stage.write_manifest(outputs)
    print(f"preprocess: vocab {len(vocab)}, labels {len(catalog)} -> {workdir}")


def cmd_build_graph(args) -> None:
    stage = _Stage(args)
    catalog = stage.load("catalog", corpus.LabelCatalog.load_tsv)
    vocab = stage.load("vocab", corpus.Vocabulary.load)
    [train_docs] = stage.splits(vocab, catalog, "train")
    g = graph.build_cooccurrence(train_docs, len(catalog), lam=stage.cfg.lambda_)
    graph_path = stage.workdir / ARTIFACTS["graph"]
    graph.save_graph(g, graph_path)
    stage.write_manifest([graph_path])
    print(f"build-graph: {g.num_labels} labels, lambda={g.lam}, "
          f"{g.pair_count} co-occurrence pairs")


def cmd_build_mask(args) -> None:
    stage = _Stage(args)
    catalog = stage.load("catalog", corpus.LabelCatalog.load_tsv)
    vocab = stage.load("vocab", corpus.Vocabulary.load)
    [train_docs] = stage.splits(vocab, catalog, "train")
    index = mask.build_mask_index(train_docs, len(catalog), tau=stage.cfg.tau)
    mask_path = stage.workdir / ARTIFACTS["mask_index"]
    mask.save_mask_index(index, catalog, mask_path, config_hash=stage.hash)
    stats = mask.mask_stats(train_docs, [mask.make_doc_mask(doc, index) for doc in train_docs])
    stage.write_manifest([mask_path])
    print(f"build-mask: tau={stage.cfg.tau}, train recall {stats.recall_of_gold:.4f}, "
          f"mean mask size {stats.mean_mask_size:.1f}")


def cmd_train(args) -> None:
    stage = _Stage(args)
    cfg, workdir = stage.cfg, stage.workdir
    catalog, vocab, g, index = _load_stage(stage)
    train_docs, val_docs = stage.splits(vocab, catalog, "train", "val")
    emb = stage.load("embeddings", embeddings.load_embeddings, vocab, cfg.embedding_size, cfg.seed)

    m = model.model_from_config(cfg, vocab, catalog, g, emb)
    result = training.train(train_docs, val_docs, m, index, cfg.train_config(), ks=cfg.p_at_k)

    ckpt_path = workdir / ARTIFACTS["checkpoint"]
    training.save_checkpoint(ckpt_path, result.params_arrays, epoch=result.best_epoch)
    history_path = workdir / ARTIFACTS["history"]
    with open(history_path, "w") as fh:
        fh.write("epoch,train_loss,val_micro_f1,lr\n")
        for row in result.history:
            fh.write(f"{row.epoch},{row.train_loss!r},{row.val_micro_f1!r},{row.lr!r}\n")
    stage.write_manifest([ckpt_path, history_path])
    print(f"train: best epoch {result.best_epoch}, "
          f"val micro-F1 {result.best_val_micro_f1:.4f}")


def cmd_evaluate(args) -> None:
    stage = _Stage(args)
    m, catalog, vocab, index = _restore_model(stage)
    [docs] = stage.splits(vocab, catalog, args.split)
    report = training.evaluate(docs, m, index, stage.cfg.prediction_threshold,
                               ks=stage.cfg.p_at_k, label_codes=catalog.codes)
    metrics_path = stage.workdir / ARTIFACTS["metrics"]
    metrics_path.write_text(report.to_json() + "\n")
    per_label_path = stage.workdir / ARTIFACTS["per_label"]
    report.write_per_label_tsv(per_label_path)
    stage.write_manifest([metrics_path, per_label_path])
    print(report.to_json())


def cmd_predict(args) -> None:
    stage = _Stage(args)
    cfg = stage.cfg
    m, catalog, vocab, index = _restore_model(stage)
    raw_docs = corpus.load_corpus_jsonl(stage.read(args.input))
    records = corpus.encode_documents(raw_docs, vocab, catalog, max_len=cfg.max_len,
                                      source=args.input)

    out_path = stage.workdir / ARTIFACTS["predictions"]
    # the heat file is opened first, so an unwritable path fails before any scoring
    heat_file = open(args.attention_out, "w") if args.attention_out else contextlib.nullcontext()
    with heat_file as heat, open(out_path, "w") as fh:
        fh.write(json.dumps({"format": "xmtc-predictions"}) + "\n")
        for doc, doc_mask, scores, alpha in training.score_docs(
                records, m, index, with_attention=heat is not None):
            top = top_k_labels(scores, cfg.predict_top_k)
            row = {
                "doc_id": doc.doc_id,
                "topk": [[catalog.codes[i], float(scores[i])] for i in top],
                "masked": training.uses_masks(m) and not doc_mask.empty,
            }
            fh.write(json.dumps(row) + "\n")
            if heat is not None:
                for rec in attention.attention_heat_records(
                        doc.doc_id, alpha[top], [catalog.codes[i] for i in top]):
                    heat.write(json.dumps(rec) + "\n")
    heat_path = [Path(args.attention_out)] if args.attention_out else []
    stage.write_manifest([out_path, *heat_path])
    print(f"predict: wrote top-{cfg.predict_top_k} lists for {len(records)} docs")


def cmd_ablate(args) -> None:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    check_variants(*variants)
    stage = _Stage(args)
    cfg = stage.cfg
    catalog, vocab, g, index = _load_stage(stage)
    train_docs, val_docs, test_docs = stage.splits(vocab, catalog, "train", "val", "test")
    emb = stage.load("embeddings", embeddings.load_embeddings, vocab, cfg.embedding_size, cfg.seed)

    report = training.ablate(
        variants, train_docs, val_docs, test_docs, vocab, catalog, g, index, emb, cfg,
    )
    out = stage.workdir / ARTIFACTS["ablation"]
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    stage.write_manifest([out])
    print(json.dumps(report, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xmtc", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workdir", required=True, help="artifact directory")
        p.add_argument("--config", default=None, help="key=value configuration file")

    p = sub.add_parser("gen-synthetic", help="generate a planted synthetic corpus")
    p.add_argument("--workdir", required=True)
    p.add_argument("--labels", type=int, default=50)
    p.add_argument("--docs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-len", type=int, default=30)
    p.add_argument("--max-len", type=int, default=60)
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
