"""End-to-end tests of the command-line pipeline."""

import contextlib
import io
import json
import logging
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xmtc
from xmtc import cli, corpus, embeddings, graph, mask, training
from xmtc.cli import main
from xmtc.config import RunConfig, load_run_config
from xmtc.errors import ConfigError, DataError
from xmtc.metrics import top_k_labels

from oracles import f1_from_confusion

CONFIG = """\
embedding_size = 32
filter_size = 3
dilation_rates = 1,2
dropout = 0.1
learning_rate = 0.003
lr_decay = 0.95
batch_size = 8
max_epochs = 2
patience = 5
prediction_threshold = 0.4
tau = 0.3
lambda = 1.0
seed = 5
min_count = 1
skipgram_epochs = 1
p_at_k = 5,8,15
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pipeline run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    work = root / "work"
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG)
    assert main(["gen-synthetic", "--workdir", str(data), "--labels", "20",
                 "--docs", "150", "--seed", "5"]) == 0
    base = ["--workdir", str(work), "--config", str(cfg)]
    assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                 "--val", str(data / "val.jsonl"), "--test", str(data / "test.jsonl"),
                 "--catalog", str(data / "raw_catalog.tsv")]) == 0
    assert main(["build-graph", *base]) == 0
    assert main(["build-mask", *base]) == 0
    assert main(["train", *base]) == 0
    assert main(["evaluate", *base, "--split", "test"]) == 0
    assert main(["predict", *base, "--input", str(data / "test.jsonl"),
                 "--attention-out", str(work / "heat.jsonl")]) == 0
    return root, data, work, cfg


@pytest.fixture(scope="module")
def other_data(tmp_path_factory):
    """Another generated corpus over as many labels as the pipeline's."""
    data = tmp_path_factory.mktemp("other") / "data"
    assert main(["gen-synthetic", "--workdir", str(data), "--labels", "20",
                 "--docs", "150", "--seed", "6"]) == 0
    return data


def _preprocess(data, work, cfg) -> int:
    """Exit code of ``preprocess`` on the generated splits in ``data``."""
    return main(["preprocess", "--workdir", str(work), "--config", str(cfg),
                 "--train", str(data / "train.jsonl"), "--val", str(data / "val.jsonl"),
                 "--test", str(data / "test.jsonl"),
                 "--catalog", str(data / "raw_catalog.tsv")])


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        _, _, work, _ = pipeline
        for name in ("vocab.txt", "embeddings.txt", "graph.txt", "mask_index.tsv",
                     "checkpoint.bin", "history.csv", "metrics.json", "per_label.tsv",
                     "predictions.jsonl", "heat.jsonl"):
            assert (work / name).exists(), name

    def test_metrics_have_requested_ks(self, pipeline):
        _, _, work, _ = pipeline
        metrics = json.loads((work / "metrics.json").read_text())
        assert sorted(metrics["p_at_k"]) == ["15", "5", "8"]

    def test_manifests_embed_config_hash(self, pipeline):
        _, _, work, _ = pipeline
        hashes = set()
        for name in ("preprocess", "build-graph", "build-mask", "train", "evaluate"):
            manifest = json.loads((work / f"manifest_{name}.json").read_text())
            hashes.add(manifest["config_hash"])
        assert len(hashes) == 1

    def test_manifests_list_every_input(self, pipeline):
        """Each manifest names every file its stage read, by the path it was
        opened by, and nothing else."""
        _, data, work, _ = pipeline

        def paths(root, *names):
            return {str(root / name) for name in names}

        stage = paths(work, "catalog.tsv", "vocab.txt", "graph.txt", "mask_index.tsv")
        expected = {
            "preprocess": paths(data, "raw_catalog.tsv", "train.jsonl", "val.jsonl",
                                "test.jsonl"),
            "build-graph": paths(work, "catalog.tsv", "vocab.txt", "train.enc.jsonl"),
            "build-mask": paths(work, "catalog.tsv", "vocab.txt", "train.enc.jsonl"),
            "train": stage | paths(work, "train.enc.jsonl", "val.enc.jsonl", "embeddings.txt"),
            "evaluate": stage | paths(work, "checkpoint.bin", "test.enc.jsonl"),
            "predict": stage | paths(work, "checkpoint.bin") | paths(data, "test.jsonl"),
        }
        for name, inputs in expected.items():
            manifest = json.loads((work / f"manifest_{name}.json").read_text())
            assert set(manifest["inputs"]) == inputs, name
        manifest = json.loads((data / "manifest_gen-synthetic.json").read_text())
        assert manifest["inputs"] == {}

    def test_work_directory_inputs_carry_their_producers_hashes(self, pipeline):
        """Each work-directory input of every manifest has the sha256 that
        its producer's manifest records for it as an output."""
        _, _, work, _ = pipeline
        producer_of = {file: cli.PRODUCERS.get(name, "preprocess")
                       for name, file in cli.ARTIFACTS.items()}
        checked = 0
        for manifest in sorted(work.glob("manifest_*.json")):
            for source, digest in json.loads(manifest.read_text())["inputs"].items():
                if Path(source).parent == work:
                    name = Path(source).name
                    made = json.loads((work / f"manifest_{producer_of[name]}.json").read_text())
                    assert made["outputs"][name] == digest, (manifest.name, name)
                    checked += 1
        assert checked >= 3 + 3 + 7 + 6 + 5  # build-graph, build-mask, train, evaluate, predict

    def test_inputs_of_one_name_keep_their_own_hashes(self, pipeline, tmp_path):
        _, data, _, cfg = pipeline
        train, val = tmp_path / "a" / "x.jsonl", tmp_path / "b" / "x.jsonl"
        for path, split in ((train, "train"), (val, "val")):
            path.parent.mkdir()
            shutil.copy(data / f"{split}.jsonl", path)
        out = tmp_path / "work"
        assert main(["preprocess", "--workdir", str(out), "--config", str(cfg),
                     "--train", str(train), "--val", str(val),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 0
        inputs = json.loads((out / "manifest_preprocess.json").read_text())["inputs"]
        assert set(inputs) == {str(train), str(val), str(data / "raw_catalog.tsv")}
        assert inputs[str(train)] == cli._sha256(train) != inputs[str(val)]
        assert inputs[str(val)] == cli._sha256(val)

    def test_predictions_are_masked_topk(self, pipeline):
        _, _, work, _ = pipeline
        lines = (work / "predictions.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "xmtc-predictions"
        for line in lines[1:]:
            row = json.loads(line)
            assert len(row["topk"]) <= 8
            scores = [s for _, s in row["topk"]]
            assert scores == sorted(scores, reverse=True)
            assert all(s > 0 for s in scores)

    def test_history_fields_parse_as_numbers(self, pipeline):
        _, _, work, _ = pipeline
        lines = (work / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_micro_f1,lr"
        assert len(lines) > 1
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            assert all(math.isfinite(float(field)) for field in fields), line

    def test_each_scored_split_logs_one_summary_line(self, pipeline, tmp_path, caplog):
        """evaluate and predict log one line per split with its empty-mask
        count, and no line per document; evaluate adds one line that scores
        its gated and suspended documents apart."""
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        stage = cli._Stage(cli.build_parser().parse_args(
            ["evaluate", "--workdir", str(copy), "--config", str(cfg)]))
        _, catalog, vocab, index = cli._restore_model(stage)
        [test_docs] = stage.splits(vocab, catalog, "test")
        test_empty = sum(mask.make_doc_mask(d, index).empty for d in test_docs)
        rows = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
        for row in rows[::2]:  # half the documents lose their codes, so their masks are empty
            row.update(drg=[], cpt=[], drugs=[])
        docs = tmp_path / "docs.jsonl"
        docs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        base = ["--workdir", str(copy), "--config", str(cfg)]
        records = corpus.encode_documents(rows, vocab, catalog)
        docs_empty = sum(mask.make_doc_mask(d, index).empty for d in records)
        assert docs_empty >= len(rows) // 2 > 0
        for argv, count, empty in ((["evaluate", *base], len(test_docs), test_empty),
                                   (["predict", *base, "--input", str(docs)], len(rows),
                                    docs_empty)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="xmtc"):
                assert main(argv) == 0
            lines = [rec.getMessage() for rec in caplog.records]
            assert len(lines) == (2 if argv[0] == "evaluate" else 1), lines
            assert lines[0].startswith(f"scored {count} docs: {empty} empty masks"), lines
            assert lines[1:] == [line for line in lines if line.startswith("evaluate: gated ")]

    def test_evaluate_scores_gated_and_suspended_documents_apart(self, pipeline, tmp_path,
                                                                  caplog):
        """On a test split that mixes gated documents and empty-mask ones,
        evaluate logs each group's count and micro-F1, as a confusion
        recount over that group's rows gives, and metrics.json stays the
        whole split's report."""
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        rows = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
        for row in rows[::2]:  # half the documents lose their codes, so their masks are empty
            row.update(drg=[], cpt=[], drugs=[])
        mixed = tmp_path / "test.jsonl"
        mixed.write_text("".join(json.dumps(row) + "\n" for row in rows))
        base = ["--workdir", str(copy), "--config", str(cfg)]
        assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                     "--val", str(data / "val.jsonl"), "--test", str(mixed),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 0
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="xmtc"):
            assert main(["evaluate", *base]) == 0
        [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evaluate:")]

        stage = cli._Stage(cli.build_parser().parse_args(["evaluate", *base]))
        m, catalog, vocab, index = cli._restore_model(stage)
        [docs] = stage.splits(vocab, catalog, "test")
        masks = training.doc_masks(docs, m, index)
        gold, scores = training.collect_scores(docs, m, masks)
        threshold = stage.cfg.prediction_threshold
        suspended = np.array([doc_mask.empty for doc_mask in masks])
        assert 0 < suspended.sum() < len(docs)
        want = []
        for name, group in (("gated", ~suspended), ("suspended", suspended)):
            micro, _ = f1_from_confusion(gold[group], scores[group] >= threshold)
            want.append(f"{name} {group.sum()} docs, micro-F1 {micro:.4f}")
        assert line == "evaluate: " + "; ".join(want)
        report = training.evaluate(docs, m, masks, threshold, ks=stage.cfg.p_at_k,
                                   label_codes=catalog.codes)
        assert (copy / "metrics.json").read_text() == report.to_json() + "\n"

    def test_predict_without_aux_codes_falls_back_to_unmasked(self, pipeline):
        root, data, work, cfg = pipeline
        bare = root / "bare.jsonl"
        doc = json.loads((data / "test.jsonl").read_text().splitlines()[0])
        bare.write_text(json.dumps({"doc_id": "bare1", "text": doc["text"]}) + "\n")
        assert main(["predict", "--workdir", str(work), "--config", str(cfg),
                     "--input", str(bare)]) == 0
        lines = (work / "predictions.jsonl").read_text().splitlines()
        row = json.loads(lines[1])
        assert row["doc_id"] == "bare1"
        assert row["masked"] is False
        assert len(row["topk"]) == 8  # unmasked ranking over all labels


@pytest.fixture(scope="module", params=["variant = no_mask"])
def ungated_pipeline(pipeline, request):
    """A pipeline whose model never gates: trained without masks."""
    root, data, _, _ = pipeline
    name = request.param.split()[0]
    work = root / f"work_{name}"
    cfg = root / f"{name}.cfg"
    cfg.write_text(CONFIG + request.param + "\n")
    base = ["--workdir", str(work), "--config", str(cfg)]
    assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                 "--val", str(data / "val.jsonl"), "--test", str(data / "test.jsonl"),
                 "--catalog", str(data / "raw_catalog.tsv")]) == 0
    assert main(["build-graph", *base]) == 0
    assert main(["build-mask", *base]) == 0
    assert main(["train", *base]) == 0
    assert main(["predict", *base, "--input", str(data / "test.jsonl")]) == 0
    return work, cfg


class TestUngatedPredict:
    def test_predict_matches_evaluate_scores_and_is_unmasked(self, ungated_pipeline):
        work, cfg_path = ungated_pipeline
        stage = cli._Stage(cli.build_parser().parse_args(
            ["evaluate", "--workdir", str(work), "--config", str(cfg_path)]))
        cfg = stage.cfg
        m, catalog, vocab, index = cli._restore_model(stage)
        [docs] = stage.splits(vocab, catalog, "test")
        _, scores = training.collect_scores(docs, m, training.doc_masks(docs, m, index))
        rows = [json.loads(line)
                for line in (work / "predictions.jsonl").read_text().splitlines()[1:]]
        assert len(rows) == len(docs) > 0
        for row, doc, doc_scores in zip(rows, docs, scores):
            assert row["doc_id"] == doc.doc_id
            assert row["masked"] is False
            top = top_k_labels(doc_scores, cfg.predict_top_k)
            assert row["topk"] == [[catalog.codes[i], float(doc_scores[i])] for i in top]


class TestAblate:
    def test_ablate_writes_comparative_report(self, pipeline):
        _, _, work, cfg = pipeline
        assert main(["ablate", "--workdir", str(work), "--config", str(cfg),
                     "--variants", "full,no_mask"]) == 0
        report = json.loads((work / "ablation.json").read_text())
        assert set(report["variants"]) == {"full", "no_mask"}
        assert "no_mask" in report["micro_f1_delta_vs_full"]
        for summary in report["variants"].values():
            assert 0.0 <= summary["micro_f1"] <= 1.0

    def test_manifest_lists_every_input(self, pipeline, tmp_path, monkeypatch):
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        monkeypatch.setattr(training, "ablate", lambda *args: {"variants": {}})
        assert main(["ablate", "--workdir", str(copy), "--config", str(cfg),
                     "--variants", "full"]) == 0
        manifest = json.loads((copy / "manifest_ablate.json").read_text())
        assert set(manifest["inputs"]) == {str(copy / name) for name in (
            "catalog.tsv", "vocab.txt", "graph.txt", "mask_index.tsv", "train.enc.jsonl",
            "val.enc.jsonl", "test.enc.jsonl", "embeddings.txt")}

    def test_unknown_variant_rejected(self, pipeline):
        _, _, work, cfg = pipeline
        assert main(["ablate", "--workdir", str(work), "--config", str(cfg),
                     "--variants", "bogus"]) == 2

    @pytest.mark.parametrize("variants", ["swap_embeddings", "full,bogus"])
    def test_unknown_variant_rejected_before_training(self, pipeline, monkeypatch, variants):
        _, _, work, cfg = pipeline

        def no_training(*args, **kwargs):
            raise AssertionError("a variant was trained")

        monkeypatch.setattr(training, "train", no_training)
        assert main(["ablate", "--workdir", str(work), "--config", str(cfg),
                     "--variants", variants]) == 2

    def test_repeated_variant_is_exit_2_before_anything_loads(self, pipeline, tmp_path,
                                                              capsys):
        _, _, _, cfg = pipeline
        # the empty work directory would be exit 3 if any artifact were opened
        assert main(["ablate", "--workdir", str(tmp_path / "empty"), "--config", str(cfg),
                     "--variants", "full,no_mask,full"]) == 2
        assert "['full'] more than once" in capsys.readouterr().err

    def test_stale_embeddings_refused(self, pipeline, tmp_path, capsys):
        """Embeddings re-made under another config (one more skip-gram
        epoch) are refused, with the rest of preprocess's artifacts."""
        _, data, work, cfg = pipeline
        stale = tmp_path / "work"
        shutil.copytree(work, stale)
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG.replace("skipgram_epochs = 1", "skipgram_epochs = 2"))
        assert _preprocess(data, stale, other) == 0
        assert (stale / "embeddings.txt").read_bytes() != (work / "embeddings.txt").read_bytes()
        assert main(["ablate", "--workdir", str(stale), "--config", str(cfg),
                     "--variants", "full"]) == 2
        assert "re-run 'xmtc preprocess'" in capsys.readouterr().err

    def test_empty_variant_list_is_exit_2_before_anything_loads(self, pipeline, tmp_path):
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy, ignore=shutil.ignore_patterns("ablation.json"))
        # the empty work directory would be exit 3 if any artifact were opened
        for workdir in (copy, tmp_path / "empty"):
            assert main(["ablate", "--workdir", str(workdir), "--config", str(cfg),
                         "--variants", ","]) == 2
        assert not (copy / "ablation.json").exists()


class TestPretrainedEmbeddings:
    """``embedding_path`` seeds the table from a word-vector file instead of
    training skip-gram."""

    def _preprocess(self, pipeline, tmp_path, dim):
        _, data, work, _ = pipeline
        vocab = corpus.Vocabulary.load(work / "vocab.txt")
        tokens = vocab.id_to_token[2:5]
        rng = np.random.default_rng(3)
        rows = {token: rng.standard_normal(dim) for token in [*tokens, "notinvocab"]}
        emb_file = tmp_path / "vectors.txt"
        emb_file.write_text(f"{len(rows)} {dim}\n" + "".join(
            token + " " + " ".join(repr(float(v)) for v in row) + "\n"
            for token, row in rows.items()))
        cfg = tmp_path / "pretrained.cfg"
        cfg.write_text(CONFIG + f"embedding_path = {emb_file}\n")
        out = tmp_path / "work"
        code = main(["preprocess", "--workdir", str(out), "--config", str(cfg),
                     "--train", str(data / "train.jsonl"),
                     "--catalog", str(data / "raw_catalog.tsv")])
        return code, out, rows

    def test_file_rows_seed_the_table_and_are_recorded(self, pipeline, tmp_path):
        code, out, rows = self._preprocess(pipeline, tmp_path, dim=32)
        assert code == 0
        vocab = corpus.Vocabulary.load(out / "vocab.txt")
        table = embeddings.load_embeddings(out / "embeddings.txt", vocab, 32)
        *known, unknown = rows
        assert all(token in vocab for token in known) and unknown not in vocab
        for token in known:
            np.testing.assert_array_equal(table[vocab.token_to_id[token]], rows[token])
        manifest = json.loads((out / "manifest_preprocess.json").read_text())
        assert str(tmp_path / "vectors.txt") in manifest["inputs"]

    def test_file_of_another_dimension_is_exit_3(self, pipeline, tmp_path, capsys):
        code, _, _ = self._preprocess(pipeline, tmp_path, dim=16)
        assert code == 3
        assert "embedding dimension 16" in capsys.readouterr().err


def _evaluate_copy(work, cfg, tmp_path, name, edit, producer=None):
    """Exit code of ``evaluate`` on a copy of ``work`` whose artifact
    ``name`` was rewritten by ``edit`` (bytes -> bytes).  With a
    ``producer``, its manifest records the rewritten file's hash."""
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    path = copy / name
    path.write_bytes(edit(path.read_bytes()))
    if producer:
        manifest = copy / f"manifest_{producer}.json"
        made = json.loads(manifest.read_text())
        made["outputs"][name] = cli._sha256(path)
        manifest.write_text(json.dumps(made))
    return main(["evaluate", "--workdir", str(copy), "--config", str(cfg)])


def _replace_line(raw, index, text):
    lines = raw.decode().splitlines(keepends=True)
    lines[index] = text + "\n"
    return "".join(lines).encode()


class TestErrors:
    def test_unknown_config_key_is_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = main(["build-graph", "--workdir", str(tmp_path), "--config", str(cfg)])
        assert code == 2

    def test_key_given_twice_is_exit_2_naming_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("tau = 0.3\nseed = 1\ntau = 0.7\n")
        with pytest.raises(ConfigError, match=r"twice\.cfg:3: 'tau' .*line 1\b"):
            load_run_config(cfg)
        code = main(["build-graph", "--workdir", str(tmp_path), "--config", str(cfg)])
        assert code == 2
        assert "twice.cfg:3" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["causal_conv", "norm_mode", "tau_drg", "tau_cpt",
                                     "tau_drugs", "hard_gating", "activation"])
    def test_removed_config_key_is_exit_2(self, tmp_path, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = main(["build-graph", "--workdir", str(tmp_path), "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("line", ["tau = nan", "tau = inf", "tau = 1.0", "tau = 1.5",
                                      "tau = -0.1", "lambda = nan", "lambda = -inf",
                                      "lambda = 0", "lambda = 1.5"])
    def test_threshold_outside_its_range_is_exit_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code = main(["build-mask", "--workdir", str(tmp_path), "--config", str(cfg)])
        assert code == 2
        assert line.split()[0] in capsys.readouterr().err

    @pytest.mark.parametrize("read, error", [
        (corpus.Vocabulary.load, DataError),
        (corpus.LabelCatalog.load_tsv, DataError),
        (lambda p: embeddings.load_embeddings(p, corpus.Vocabulary([]), 2), DataError),
        (lambda p: graph.load_graph(p, 2), DataError),
        (lambda p: mask.load_mask_index(p, corpus.LabelCatalog(["c0"], ["x"])), DataError),
        (corpus.load_corpus_jsonl, DataError),
        (lambda p: corpus.load_encoded(p, 4, 2), DataError),
        (load_run_config, ConfigError),
    ], ids=["vocab", "catalog", "embeddings", "graph", "mask_index", "raw_corpus",
            "encoded", "run_config"])
    def test_non_utf8_file_is_package_error(self, tmp_path, read, error):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"# config=ab \xff\n<pad>\n<unk>\n")
        with pytest.raises(error, match="bad.txt: not UTF-8"):
            read(path)

    @pytest.mark.parametrize("edit", [
        lambda raw: raw[:18],
        lambda raw: raw[:30],
        lambda raw: raw[:2000],
        lambda raw: raw + b"\0" * 8,
        lambda raw: raw.replace(b"XMTC-CKPT-v2", b"XMTC-CKPT-v1", 1),
    ], ids=["cut18", "cut30", "cut2000", "trailing", "v1_magic"])
    def test_malformed_checkpoint_is_exit_3(self, pipeline, tmp_path, edit):
        _, _, work, cfg = pipeline
        assert _evaluate_copy(work, cfg, tmp_path, "checkpoint.bin", edit) == 3

    @pytest.mark.parametrize("row", [
        "{bad json",
        '{"doc_id": "x", "labels": [0]}',
        '{"doc_id": "x", "tokens": [99999], "labels": [0]}',
        '{"doc_id": "x", "tokens": [-5], "labels": [0]}',
        '{"doc_id": "x", "tokens": [2], "labels": [999]}',
    ], ids=["bad_json", "no_tokens", "token_99999", "token_-5", "label_999"])
    def test_malformed_encoded_split_is_exit_3(self, pipeline, tmp_path, capsys, row):
        _, _, work, cfg = pipeline
        code = _evaluate_copy(work, cfg, tmp_path, "test.enc.jsonl",
                              lambda raw: _replace_line(raw, 3, row))
        assert code == 3
        assert "test.enc.jsonl:4:" in capsys.readouterr().err

    def test_graph_for_another_label_count_is_exit_3(self, pipeline, tmp_path, capsys):
        _, _, work, cfg = pipeline

        def nineteen_labels(raw):
            head = raw.decode().splitlines(keepends=True)[0]
            return (head + "19 1.0 0\n" + "".join(f"{i} {i}\n" for i in range(19))).encode()

        assert _evaluate_copy(work, cfg, tmp_path, "graph.txt", nineteen_labels) == 3
        assert "19 labels" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["preprocess", "predict"])
    @pytest.mark.parametrize("row", [
        '["x", "a b"]',
        '{"doc_id": "x", "text": 5}',
        '{"doc_id": "x", "text": "a b", "labels": "L0001"}',
        '{"doc_id": "x", "text": "a b", "drg": "DRG0001"}',
        '{"doc_id": "x", "text": "a b", "cpt": [1]}',
        '{"doc_id": "x", "text": "a b", "drugs": null}',
    ], ids=["not_object", "text_int", "labels_str", "drg_str", "cpt_ints", "drugs_null"])
    def test_malformed_raw_corpus_is_exit_3(self, pipeline, tmp_path, capsys, stage, row):
        _, data, work, cfg = pipeline
        good = (data / "train.jsonl").read_text().splitlines()[0]
        raw = tmp_path / "raw.jsonl"
        raw.write_text(good + "\n" + row + "\n")
        if stage == "preprocess":
            argv = ["preprocess", "--workdir", str(tmp_path / "work"), "--config", str(cfg),
                    "--train", str(raw), "--catalog", str(data / "raw_catalog.tsv")]
        else:
            copy = tmp_path / "work"
            shutil.copytree(work, copy)
            argv = ["predict", "--workdir", str(copy), "--config", str(cfg),
                    "--input", str(raw)]
        assert main(argv) == 3
        assert "raw.jsonl:2:" in capsys.readouterr().err

    def test_id_in_two_splits_is_exit_3_naming_both_files(self, pipeline, tmp_path, capsys):
        _, data, _, cfg = pipeline
        train_row = (data / "train.jsonl").read_text().splitlines()[3]
        leaked = tmp_path / "test.jsonl"
        leaked.write_text((data / "test.jsonl").read_text() + train_row + "\n")
        work = tmp_path / "work"
        assert main(["preprocess", "--workdir", str(work), "--config", str(cfg),
                     "--train", str(data / "train.jsonl"), "--test", str(leaked),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 3
        doc_id = json.loads(train_row)["doc_id"]
        assert (f"doc_id {doc_id!r} is in both {data / 'train.jsonl'} and {leaked}"
                in capsys.readouterr().err)
        assert not work.exists()

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_document_without_tokens_stops_preprocess_before_any_artifact(
            self, pipeline, tmp_path, capsys, split):
        _, data, _, cfg = pipeline
        paths = {name: data / f"{name}.jsonl" for name in ("train", "val", "test")}
        paths[split] = tmp_path / "raw.jsonl"
        paths[split].write_text((data / f"{split}.jsonl").read_text()
                                + '{"doc_id": "empty1", "text": "!!! [**Name**] 4kg ..."}\n')
        out = tmp_path / "work"
        assert main(["preprocess", "--workdir", str(out), "--config", str(cfg),
                     "--train", str(paths["train"]), "--val", str(paths["val"]),
                     "--test", str(paths["test"]),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"{paths[split]}: document 'empty1' has no tokens" in err
        assert not out.exists()

    def test_document_without_tokens_stops_predict_before_any_artifact(
            self, pipeline, tmp_path, capsys):
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        raw = tmp_path / "raw.jsonl"
        raw.write_text((data / "test.jsonl").read_text()
                       + '{"doc_id": "empty1", "text": "!!! ..."}\n')
        heat = tmp_path / "heat.jsonl"
        assert main(["predict", "--workdir", str(copy), "--config", str(cfg),
                     "--input", str(raw), "--attention-out", str(heat)]) == 3
        assert f"{raw}: document 'empty1' has no tokens" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before
        assert not heat.exists()

    @staticmethod
    def _with_unknown_code(data, tmp_path):
        """The test split with its third document's labels extended by a
        code the catalog lacks: (path, document id)."""
        rows = [json.loads(line) for line in (data / "test.jsonl").read_text().splitlines()]
        rows[2]["labels"] = [*rows[2]["labels"], "NOPE"]
        raw = tmp_path / "test.jsonl"
        raw.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return raw, rows[2]["doc_id"]

    def test_unknown_label_code_stops_preprocess_naming_file_and_document(
            self, pipeline, tmp_path, capsys):
        _, data, _, cfg = pipeline
        raw, doc_id = self._with_unknown_code(data, tmp_path)
        out = tmp_path / "work"
        assert main(["preprocess", "--workdir", str(out), "--config", str(cfg),
                     "--train", str(data / "train.jsonl"), "--test", str(raw),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 3
        err = capsys.readouterr().err
        assert f"{raw}: document {doc_id!r}: label code 'NOPE' not present" in err
        assert not out.exists()

    def test_unknown_label_code_stops_predict_naming_file_and_document(
            self, pipeline, tmp_path, capsys):
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        raw, doc_id = self._with_unknown_code(data, tmp_path)
        assert main(["predict", "--workdir", str(copy), "--config", str(cfg),
                     "--input", str(raw)]) == 3
        err = capsys.readouterr().err
        assert f"{raw}: document {doc_id!r}: label code 'NOPE' not present" in err

    @pytest.mark.parametrize("name, what", [("vocab.txt", "token"),
                                            ("catalog.tsv", "label code")])
    def test_duplicate_entry_names_its_line(self, pipeline, tmp_path, capsys, name, what):
        _, _, work, cfg = pipeline
        lines = (work / name).read_text().splitlines()
        dup = lines[3].split("\t")[0]

        def repeat_line_4(raw):  # line 6 takes the entry of line 4
            return _replace_line(raw, 5, lines[3])

        assert _evaluate_copy(work, cfg, tmp_path, name, repeat_line_4) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'work' / name}:6: duplicate {what} {dup!r}" in err

    def test_hand_edited_vocabulary_is_exit_3(self, pipeline, tmp_path, capsys):
        """Two tokens swapped: the file still loads, and its producer's
        manifest records another hash."""
        _, _, work, cfg = pipeline

        def swap_two_tokens(raw):
            lines = raw.decode().splitlines(keepends=True)
            lines[3], lines[4] = lines[4], lines[3]
            return "".join(lines).encode()

        assert _evaluate_copy(work, cfg, tmp_path, "vocab.txt", swap_two_tokens) == 3
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'work' / 'vocab.txt'} is not the file manifest_preprocess.json "
                f"records; re-run 'xmtc preprocess'") in err

    def test_checkpoint_on_another_vocabulary_is_exit_2(self, pipeline, other_data, tmp_path,
                                                        capsys):
        """Preprocess, build-graph and build-mask re-run on another corpus:
        the checkpoint was trained on the old vocabulary."""
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        base = ["--workdir", str(copy), "--config", str(cfg)]
        assert _preprocess(other_data, copy, cfg) == 0
        assert (copy / "vocab.txt").read_bytes() != (work / "vocab.txt").read_bytes()
        assert main(["build-graph", *base]) == 0
        assert main(["build-mask", *base]) == 0
        assert main(["evaluate", *base]) == 2
        err = capsys.readouterr().err
        assert f"{copy / 'checkpoint.bin'} was built from another" in err
        assert "re-run 'xmtc train'" in err

    def test_same_config_rerun_on_another_corpus_is_exit_2(self, pipeline, other_data,
                                                           tmp_path, capsys):
        """Only preprocess re-run on another corpus: the graph and the mask
        index were counted from the old one."""
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        assert _preprocess(other_data, copy, cfg) == 0
        assert main(["train", "--workdir", str(copy), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{copy / 'graph.txt'} was built from another" in err
        assert "re-run 'xmtc build-graph'" in err

    def test_graph_for_another_label_count_is_stale(self, pipeline, tmp_path, capsys):
        """Only preprocess re-run on a 19-label corpus: the graph, counted
        from the 20-label one, is stale before its loader sees the count."""
        _, _, work, cfg = pipeline
        data = tmp_path / "data"
        assert main(["gen-synthetic", "--workdir", str(data), "--labels", "19",
                     "--docs", "150", "--seed", "5"]) == 0
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        assert _preprocess(data, copy, cfg) == 0
        assert main(["train", "--workdir", str(copy), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"{copy / 'graph.txt'} was built from another" in err
        assert "re-run 'xmtc build-graph'" in err

    @pytest.mark.parametrize("producer, text", [
        ("preprocess", None), ("build-graph", "{not json"), ("build-mask", "[]"),
        ("train", '{"config_hash": "x", "inputs": {}}'),
    ], ids=["missing", "bad_json", "not_object", "no_outputs"])
    def test_missing_or_malformed_manifest_is_exit_3(self, pipeline, tmp_path, capsys,
                                                     producer, text):
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        manifest = copy / f"manifest_{producer}.json"
        if text is None:
            manifest.unlink()
        else:
            manifest.write_text(text)
        assert main(["evaluate", "--workdir", str(copy), "--config", str(cfg)]) == 3
        assert f"{manifest}: " in capsys.readouterr().err

    @pytest.mark.parametrize("cut", [1, 2])
    @pytest.mark.parametrize("stage, name", [
        (stage, name) for stage, names in [
            ("train", ["catalog.tsv", "vocab.txt", "graph.txt", "mask_index.tsv",
                       "train.enc.jsonl", "val.enc.jsonl", "embeddings.txt"]),
            ("evaluate", ["catalog.tsv", "vocab.txt", "graph.txt", "mask_index.tsv",
                          "checkpoint.bin", "test.enc.jsonl"]),
        ] for name in names])
    def test_artifact_cut_short_is_exit_3(self, pipeline, tmp_path, stage, name, cut):
        """Each artifact a stage reads, short by ``cut`` lines (by 8 bytes a
        cut for the checkpoint)."""
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        path = copy / name
        raw = path.read_bytes()
        path.write_bytes(raw[:-8 * cut] if name == "checkpoint.bin"
                         else b"".join(raw.splitlines(keepends=True)[:-cut]))
        assert main([stage, "--workdir", str(copy), "--config", str(cfg)]) == 3

    def test_empty_mask_index_is_exit_3(self, pipeline, tmp_path, capsys):
        _, _, work, cfg = pipeline
        assert _evaluate_copy(work, cfg, tmp_path, "mask_index.tsv", lambda raw: b"") == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'work' / 'mask_index.tsv'}: empty mask index file" in err

    def test_header_only_mask_index_is_exit_3(self, pipeline, tmp_path, capsys):
        """A file cut after its header line has no section lines, so it is
        not read as an index with no codes."""
        _, _, work, cfg = pipeline
        assert _evaluate_copy(work, cfg, tmp_path, "mask_index.tsv",
                              lambda raw: raw.splitlines(keepends=True)[0]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'work' / 'mask_index.tsv'}: no [drg] section" in err

    def test_checkpoint_with_level0_and_residual_apart_is_exit_2(self, pipeline, tmp_path,
                                                                 capsys):
        """A checkpoint that stores a block's level-0 and residual filters as
        two parameters, not as one ``level0_residual``, names both."""
        _, _, work, cfg = pipeline

        def two_filters(raw):
            path = tmp_path / "old.bin"
            path.write_bytes(raw)
            arrays, meta = training.load_checkpoint(path)
            fused = arrays.pop("block0.level0_residual")
            d = fused.shape[2] // 2
            arrays["block0.level0"], arrays["block0.residual"] = fused[..., :d], fused[..., d:]
            training.save_checkpoint(path, arrays, meta["epoch"])
            return path.read_bytes()

        assert _evaluate_copy(work, cfg, tmp_path, "checkpoint.bin", two_filters,
                              producer="train") == 2
        err = capsys.readouterr().err
        assert "'block0.level0'" in err and "'block0.residual'" in err

    def test_missing_artifact_is_exit_3_and_actionable(self, tmp_path, capsys):
        code = main(["train", "--workdir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "preprocess" in err

    def test_split_preprocess_did_not_make_names_its_flag(self, pipeline, tmp_path, capsys):
        """``--val`` is optional, so a work directory without the split
        was preprocessed, just not with that flag."""
        _, data, _, cfg = pipeline
        base = ["--workdir", str(tmp_path / "work"), "--config", str(cfg)]
        assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                     "--catalog", str(data / "raw_catalog.tsv")]) == 0
        assert main(["build-graph", *base]) == 0
        assert main(["build-mask", *base]) == 0
        capsys.readouterr()
        assert main(["train", *base]) == 3
        err = capsys.readouterr().err
        assert "missing artifact val.enc.jsonl; run 'xmtc preprocess' with --val first" in err

    def test_stale_artifact_is_exit_2(self, pipeline, tmp_path):
        _, data, work, cfg = pipeline
        other = tmp_path / "other.cfg"
        other.write_text(CONFIG.replace("tau = 0.3", "tau = 0.7")
                         .replace("seed = 5", "seed = 6"))
        code = main(["train", "--workdir", str(work), "--config", str(other)])
        assert code == 2

    def test_mixed_artifacts_refused(self, pipeline, tmp_path, capsys):
        _, data, work, _ = pipeline
        # rebuilding the graph under a different seed leaves a stale graph
        cfg = tmp_path / "seed99.cfg"
        cfg.write_text(CONFIG.replace("seed = 5", "seed = 99"))
        code = main(["build-graph", "--workdir", str(work), "--config", str(cfg)])
        assert code == 2  # encoded corpus was produced under seed 5
        err = capsys.readouterr().err
        assert "re-run" in err

    def test_cut_embedding_file_is_exit_3(self, pipeline, tmp_path, capsys):
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        emb = copy / "embeddings.txt"
        header, *rows = emb.read_text().splitlines(keepends=True)
        emb.write_text(header + "".join(rows[:10]))
        assert main(["train", "--workdir", str(copy), "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert f"{emb}: header promises {len(rows)} rows, file has 10" in err

    def test_missing_predict_input_is_exit_3(self, pipeline, tmp_path, capsys):
        _, _, work, cfg = pipeline
        missing = tmp_path / "absent.jsonl"
        assert main(["predict", "--workdir", str(work), "--config", str(cfg),
                     "--input", str(missing)]) == 3
        assert f"{missing}: cannot read" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert main(["build-graph", "--workdir", str(tmp_path), "--config", str(missing)]) == 2
        assert f"{missing}: cannot read" in capsys.readouterr().err

    def test_unwritable_attention_out_is_exit_1(self, pipeline, tmp_path, capsys):
        # the heat file is opened before any document is scored
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        (copy / "predictions.jsonl").write_text("from an earlier predict\n")
        before = {p.name: p.read_bytes() for p in copy.iterdir()}
        heat = tmp_path / "no_such_dir" / "heat.jsonl"
        assert main(["predict", "--workdir", str(copy), "--config", str(cfg),
                     "--input", str(data / "test.jsonl"), "--attention-out", str(heat)]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith("error: ") and str(heat) in last
        assert {p.name: p.read_bytes() for p in copy.iterdir()} == before

    def test_predictions_do_not_depend_on_attention_out(self, pipeline, tmp_path):
        _, data, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        base = ["predict", "--workdir", str(copy), "--config", str(cfg),
                "--input", str(data / "test.jsonl")]
        assert main([*base, "--attention-out", str(tmp_path / "heat.jsonl")]) == 0
        with_heat = (copy / "predictions.jsonl").read_bytes()
        (copy / "predictions.jsonl").unlink()
        assert main(base) == 0
        assert (copy / "predictions.jsonl").read_bytes() == with_heat


def _ints_below(low: int):
    return st.integers(max_value=low - 1).map(str)


def _floats_outside(inside):
    """Float strings, ``nan`` and the infinities included, that ``inside`` rejects."""
    return st.floats().filter(lambda x: not inside(x)).map(repr)


_POSITIVE_INTS = st.lists(st.integers(1, 20), max_size=3)
# empty, or a comma list holding at least one integer below 1
_BAD_INT_LISTS = st.just("") | st.builds(
    lambda head, bad, tail: ",".join(map(str, [*head, bad, *tail])),
    _POSITIVE_INTS, st.integers(max_value=0), _POSITIVE_INTS)
_NAMES = st.text("abcdefghijklmnopqrstuvwxyz_", max_size=12)

# every range-checked key -> raw values outside its range
OUT_OF_RANGE = {
    "embedding_size": _ints_below(1),
    "filter_size": _ints_below(1) | st.integers(1, 20).map(lambda k: str(2 * k)),
    "dilation_rates": _BAD_INT_LISTS,
    "num_blocks": _ints_below(0),
    "dropout": _floats_outside(lambda x: 0 <= x < 1),
    "learning_rate": _floats_outside(lambda x: 0 < x < math.inf),
    "lr_decay": _floats_outside(lambda x: 0 < x <= 1),
    "clip_norm": _floats_outside(lambda x: 0 < x < math.inf),
    "batch_size": _ints_below(1),
    "max_epochs": _ints_below(1),
    "patience": _ints_below(1),
    "prediction_threshold": _floats_outside(lambda x: 0 < x <= 1),
    "tau": _floats_outside(lambda x: 0 <= x < 1),
    "lambda": _floats_outside(lambda x: 0 < x <= 1),
    "p_at_k": _BAD_INT_LISTS,
    "predict_top_k": _ints_below(1),
    "seed": _ints_below(0),
    "variant": _NAMES.filter(lambda v: v not in ("full", "no_label_feature", "no_mask")),
    "max_len": _ints_below(1),
    "min_count": _ints_below(1),
    "skipgram_window": _ints_below(1),
    "skipgram_negatives": _ints_below(0),
    "skipgram_epochs": _ints_below(0),
}


class TestConfigRanges:
    def test_every_key_but_the_embedding_path_has_a_range(self):
        keys = {f.name.rstrip("_") for f in fields(RunConfig)}
        assert keys - {"embedding_path"} == set(OUT_OF_RANGE)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(OUT_OF_RANGE)).flatmap(
        lambda key: st.tuples(st.just(key), OUT_OF_RANGE[key])))
    @example(("p_at_k", "0"))
    @example(("seed", "-1"))
    @example(("filter_size", "-1"))
    @example(("filter_size", "4"))
    @example(("embedding_size", "0"))
    @example(("learning_rate", "nan"))
    @example(("learning_rate", "inf"))
    @example(("variant", "bogus"))
    def test_out_of_range_key_stops_preprocess_before_any_artifact(self, case):
        key, value = case
        root = Path(tempfile.mkdtemp())
        try:
            cfg, work = root / "run.cfg", root / "work"
            cfg.write_text(f"{key} = {value}\n")
            work.mkdir()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["preprocess", "--workdir", str(work), "--config", str(cfg),
                             "--train", str(root / "train.jsonl"),
                             "--catalog", str(root / "catalog.tsv")])
            assert code == 2
            assert f"{key} must" in err.getvalue()
            assert list(work.iterdir()) == []
        finally:
            shutil.rmtree(root)

    @pytest.mark.parametrize("key, value", [
        ("filter_size", "1"), ("num_blocks", "0"), ("dropout", "0"), ("lr_decay", "1"),
        ("prediction_threshold", "1"), ("tau", "0"), ("lambda", "1"), ("p_at_k", "1"),
        ("seed", "0"), ("skipgram_negatives", "0"), ("skipgram_epochs", "0"),
    ])
    def test_range_edges_load(self, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        load_run_config(cfg)

    @pytest.mark.parametrize("flag, value", [("--labels", "0"), ("--labels", "-3"),
                                             ("--docs", "0"), ("--docs", "-1")])
    def test_generator_without_labels_or_documents_is_exit_2(self, tmp_path, flag, value):
        work = tmp_path / "data"
        assert main(["gen-synthetic", "--workdir", str(work), flag, value]) == 2
        assert not work.exists()


def _scipy_modules_after(code: str) -> list[str]:
    """The ``scipy`` modules loaded by a fresh interpreter that runs
    ``code``, which binds ``exit_code``; asserts that it binds 0."""
    src = str(Path(xmtc.__file__).resolve().parents[1])
    script = (code + "\nimport json\nprint(json.dumps([exit_code, sorted("
              "m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    out = subprocess.run([sys.executable, "-c", "import sys\n" + script],
                         env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                         text=True, check=True)
    exit_code, modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert exit_code == 0, out.stderr
    return modules


class TestNumericEnvironment:
    def test_manifests_record_the_live_blas_thread_count(self, tmp_path):
        """The pipeline through train, run at OPENBLAS_NUM_THREADS 1 and 2.
        The manifests record 1 and 2 (at most the usable cores), the numpy
        version, scipy's where the stage loaded it, and the BLAS build; the
        config hash is the same.  Every set-up artifact is byte-identical
        across the two runs.  The checkpoint and the training history may
        differ only where the two train manifests record different thread
        counts: a one-core runner records 1 twice, and they must match."""
        import scipy

        src = str(Path(xmtc.__file__).resolve().parents[1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG)
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        hashes, runs = set(), []
        for threads in (1, 2):
            data, work = tmp_path / f"data{threads}", tmp_path / f"work{threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": str(threads)}
            base = ["--workdir", str(work), "--config", str(cfg)]
            for argv in (["gen-synthetic", "--workdir", str(data), "--labels", "8",
                          "--docs", "40", "--seed", "3"],
                         ["preprocess", *base, "--train", str(data / "train.jsonl"),
                          "--val", str(data / "val.jsonl"),
                          "--catalog", str(data / "raw_catalog.tsv")],
                         ["build-graph", *base], ["build-mask", *base], ["train", *base]):
                subprocess.run([sys.executable, "-m", "xmtc", *argv], env=env, check=True,
                               capture_output=True)
            live = min(threads, len(os.sched_getaffinity(0)))
            for manifest, scipy_version in ((data / "manifest_gen-synthetic.json", None),
                                            (work / "manifest_preprocess.json",
                                             scipy.__version__)):
                made = json.loads(manifest.read_text())
                assert made["numeric_environment"] == {
                    "numpy": np.__version__, "scipy": scipy_version,
                    "blas": {"name": blas["name"], "version": blas["version"],
                             "threads": live}}, manifest
            hashes.add(json.loads((work / "manifest_preprocess.json").read_text())["config_hash"])
            trained = json.loads((work / "manifest_train.json").read_text())
            assert trained["numeric_environment"]["blas"]["threads"] == live
            runs.append((data, work, live))
        assert len(hashes) == 1

        (data1, work1, live1), (data2, work2, live2) = runs
        trained = {"checkpoint.bin", "history.csv"}
        for one, two in ((data1, data2), (work1, work2)):
            names = sorted(p.name for p in one.iterdir()
                           if not p.name.startswith("manifest_") and p.name not in trained)
            assert names == sorted(p.name for p in two.iterdir()
                                   if not p.name.startswith("manifest_")
                                   and p.name not in trained)
            for name in names:
                assert (one / name).read_bytes() == (two / name).read_bytes(), name
        assert {"graph.txt", "mask_index.tsv", "embeddings.txt"} <= set(
            p.name for p in work1.iterdir())
        if live1 == live2:
            for name in sorted(trained):
                assert (work1 / name).read_bytes() == (work2 / name).read_bytes(), name


class TestStartup:
    """Importing scipy.sparse costs about 0.3 s, paid by every CLI process
    that loads it; only the stages that multiply a sparse matrix may."""

    def test_cli_and_model_import_load_no_scipy(self):
        assert _scipy_modules_after("from xmtc import cli, model\nexit_code = 0") == []

    def test_generator_loads_no_scipy(self, tmp_path):
        argv = ["gen-synthetic", "--workdir", str(tmp_path / "data"), "--labels", "8",
                "--docs", "30", "--seed", "3"]
        assert _scipy_modules_after(f"from xmtc import cli\nexit_code = cli.main({argv!r})") == []

    @pytest.mark.parametrize("stage", ["build-graph", "build-mask"])
    def test_setup_stage_loads_no_scipy(self, pipeline, tmp_path, stage):
        _, _, work, cfg = pipeline
        copy = tmp_path / "work"
        shutil.copytree(work, copy)
        argv = [stage, "--workdir", str(copy), "--config", str(cfg)]
        assert _scipy_modules_after(f"from xmtc import cli\nexit_code = cli.main({argv!r})") == []


class TestDefaults:
    def test_defaults_are_the_tuned_operating_point(self):
        from xmtc.config import RunConfig, load_run_config

        cfg = load_run_config(None)
        assert cfg.embedding_size == 100
        assert cfg.filter_size == 9
        assert cfg.dilation_rates == (1, 2, 4)
        assert cfg.dropout == 0.2
        assert cfg.learning_rate == 0.0001
        assert cfg.batch_size == 32
        assert cfg.prediction_threshold == 0.0005
        assert cfg.tau == 0.005
        assert cfg.lambda_ == 1.0
        assert cfg.lr_decay == 0.9
        assert cfg.clip_norm == 5.0
        assert cfg.p_at_k == (5, 8, 15)
        assert cfg.max_len == 4000

    def test_roundtrip_through_canonical_text(self, tmp_path):
        from xmtc.config import canonical_text, config_hash, load_run_config

        given = tmp_path / "given.cfg"
        given.write_text("tau = 0.25\ndilation_rates = 2,5,9\n")
        cfg = load_run_config(given)
        path = tmp_path / "cfg.txt"
        path.write_text(canonical_text(cfg))
        again = load_run_config(path)
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)


class TestEnvOverride:
    """The configuration file is the only source of a run's settings."""

    def test_environment_sets_no_key(self, pipeline, monkeypatch):
        _, _, work, cfg = pipeline
        monkeypatch.setenv("XMTC_TAU", "0.125")
        monkeypatch.setenv("XMTC_SEED", "7")
        assert load_run_config(None).tau == 0.005
        stage = cli._Stage(cli.build_parser().parse_args(
            ["evaluate", "--workdir", str(work), "--config", str(cfg)]))
        made = json.loads((work / "manifest_evaluate.json").read_text())
        assert stage.hash == made["config_hash"]

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--train", "t.jsonl", "--catalog", "c.tsv"], ["build-graph"],
        ["build-mask"], ["train"], ["evaluate"], ["predict", "--input", "d.jsonl"], ["ablate"],
    ], ids=lambda argv: argv[0])
    def test_model_subcommand_takes_no_seed(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workdir", str(tmp_path), "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err

    def test_seed_flag_propagates(self, tmp_path):
        from xmtc.config import config_hash, load_run_config

        for seed in (1, 2):
            (tmp_path / f"seed{seed}.cfg").write_text(f"seed = {seed}\n")
        a = load_run_config(tmp_path / "seed1.cfg")
        b = load_run_config(tmp_path / "seed2.cfg")
        assert a.seed == 1 and b.seed == 2
        assert config_hash(a) != config_hash(b)
