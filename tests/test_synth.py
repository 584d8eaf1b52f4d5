"""Tests for the planted-structure corpus generator and its verifier."""

import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from xmtc.corpus import encode_documents, preprocess, build_vocab
from xmtc.errors import ConfigError
from xmtc.graph import build_cooccurrence
from xmtc.synth import (
    GeneratorSpec,
    GroundTruth,
    generate,
    split_docs,
    standard_aux_spec,
    standard_spec,
    write_corpus,
)

from oracles import recount_raw_aux_tables, verify


def small_spec(**kw):
    defaults = dict(num_labels=12, num_docs=400, seed=3, clique_size=3,
                    num_cliques=2, doc_length=(15, 30))
    defaults.update(kw)
    return standard_spec(**defaults)


class TestDeterminism:
    def test_byte_identical_corpora(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            docs, _, _ = generate(small_spec())
            path = tmp_path / name
            write_corpus(docs, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_distinct_seeds_distinct_corpora(self, tmp_path):
        texts = set()
        for seed in (1, 2, 3):
            docs, _, truth = generate(small_spec(seed=seed))
            report = verify(docs, truth)
            assert report.passed, report.problems[:3]
            texts.add(json.dumps([d["text"] for d in docs[:20]]))
        assert len(texts) == 3


class TestPlantedStructure:
    def test_cliques_are_exactly_the_lambda_one_edges(self):
        spec = small_spec()
        docs, catalog, truth = generate(spec)
        token_docs = [preprocess(d["text"]) for d in docs]
        vocab = build_vocab(token_docs, min_count=1)
        records = encode_documents(docs, vocab, catalog)
        g = build_cooccurrence(records, spec.num_labels, lam=1.0)

        planted = set()
        for clique in spec.cliques:
            for i in clique:
                for j in clique:
                    if i != j:
                        planted.add((i, j))
        # labels that never occur keep a bare diagonal row
        seen = set()
        for r in records:
            seen |= r.labels
        adjacency = g.adjacency
        found = {
            (i, j)
            for i in range(spec.num_labels)
            for j in range(spec.num_labels)
            if i != j and adjacency[i, j] == 1.0
        }
        assert found == {(i, j) for (i, j) in planted if i in seen}

    def test_noise_free_single_label_docs_use_its_keywords(self):
        spec = GeneratorSpec(
            num_labels=1, vocab_size=2, num_docs=20, keywords_per_label=1,
            noise_rate=0.0, cliques=(), aux_spec={}, doc_length=(5, 8),
            labels_per_doc=(1, 1), seed=0,
        )
        docs, catalog, _ = generate(spec)
        keyword = catalog.descriptors[0]
        for doc in docs:
            assert set(doc["text"].split()) == {keyword}

    def test_planted_aux_probability_is_one(self):
        docs, _, truth = generate(small_spec(num_docs=1000))
        # every planted (code -> label) pair must be empirically certain
        for term, codes in truth.planted_aux.items():
            for code, labels in codes.items():
                table = truth.aux_tables.get(term, {}).get(code)
                if table is None:
                    continue  # code never fired
                for lab in labels:
                    assert abs(table[lab] - 1.0) <= 0.02

    def test_zipfian_rank_order(self):
        spec = small_spec(num_docs=1500)
        docs, _, truth = generate(spec)
        counts = {code: 0 for code in truth.label_weights}
        for doc in docs:
            for code in doc["labels"]:
                counts[code] += 1
        codes = sorted(truth.label_weights)
        weights = [truth.label_weights[c] for c in codes]
        freqs = [counts[c] for c in codes]
        rho = spearmanr(weights, freqs).statistic
        assert rho > 0.95

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ConfigError, match="infeasible"):
            GeneratorSpec(num_labels=10, vocab_size=20, num_docs=5,
                          keywords_per_label=6)

    def test_overlapping_cliques_rejected(self):
        with pytest.raises(ConfigError, match="disjoint"):
            GeneratorSpec(num_labels=10, vocab_size=200, num_docs=5,
                          cliques=((0, 1), (1, 2)))


class TestVerify:
    def test_fresh_generation_verifies(self):
        docs, _, truth = generate(small_spec())
        report = verify(docs, truth)
        assert report.passed
        assert report.flagged_docs == []

    def test_single_flipped_label_flags_exactly_one_doc(self):
        docs, _, truth = generate(small_spec())
        tampered = [dict(d) for d in docs]
        victim = tampered[17]
        labels = list(victim["labels"])
        # swap the document's label set for a different singleton
        new = "L0011" if "L0011" not in labels else "L0010"
        victim["labels"] = [new]
        report = verify(tampered, truth)
        assert not report.passed
        assert report.flagged_docs == [victim["doc_id"]]

    @pytest.mark.parametrize("spec", [
        small_spec(),
        small_spec(seed=5, emit_prob=0.5, silent_per_clique=1),
        standard_spec(num_labels=20, num_docs=120, seed=9),
    ], ids=["small", "half-emitted", "cli-corpus"])
    def test_aux_tables_equal_counter_recount(self, spec):
        """The ground truth's P(label | code), which the generator takes from
        the mask index, equals an independent recount exactly."""
        docs, _, truth = generate(spec)
        assert truth.aux_tables == recount_raw_aux_tables(docs)
        assert any(0.0 < p < 1.0 for per_term in truth.aux_tables.values()
                   for row in per_term.values() for p in row.values())

    def test_aux_spec_vocabulary(self):
        spec = standard_aux_spec(4, emit_prob=0.5)
        assert set(spec) == {"drg", "cpt", "drugs"}
        assert all(len(codes) == 4 for codes in spec.values())


class TestSplit:
    def test_fractions_and_determinism(self):
        docs, _, _ = generate(small_spec())
        a = split_docs(docs, (0.8, 0.1, 0.1), seed=5)
        b = split_docs(docs, (0.8, 0.1, 0.1), seed=5)
        assert [d["doc_id"] for d in a[0]] == [d["doc_id"] for d in b[0]]
        assert sum(len(part) for part in a) == len(docs)
        assert abs(len(a[0]) - 0.8 * len(docs)) <= 1

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            split_docs([], (0.5, 0.2, 0.2), seed=0)
