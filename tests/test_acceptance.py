"""Acceptance suite: one test per acceptance criterion.

Each test prints a single ``[criterion N] ... PASS/FAIL`` line (run with
``pytest -s`` to see them live).  Expensive shared artifacts (the 200-label
planted corpus and the model trained on it) are session fixtures.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.sparse as sp

from xmtc import corpus, embeddings, graph, mask, metrics, model, synth, training
from xmtc.encoder import BlockParams, EncoderConfig, init_block_params, residual_block
from xmtc.tensor import (
    GradTape,
    Tensor,
    add,
    attend,
    bce_loss,
    concat,
    dropout,
    gather_rows,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    sigmoid,
    spmm,
)

import oracles
from oracles import (conv1d_dilated, csr_from_scipy, grad_check, relu_dropout, split_columns,
                     tensor_sum)


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL ({time.time() - start:.1f}s)", flush=True)
        raise
    print(f"\n[criterion {num}] {name}: PASS ({time.time() - start:.1f}s)", flush=True)


def away_from_kinks(rng, shape, margin=0.2):
    x = rng.standard_normal(shape)
    return np.where(x >= 0, x + margin, x - margin)


def encode_corpus(docs, catalog, min_count=1):
    token_docs = [corpus.preprocess(d["text"]) for d in docs]
    vocab = corpus.build_vocab(token_docs, min_count=min_count)
    return vocab, corpus.encode_documents(docs, vocab, catalog)


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="session")
def planted():
    """The 200-label, 5000-document planted corpus with encoded splits."""
    spec = synth.standard_spec(num_labels=200, num_docs=5000, seed=7)
    docs, catalog, truth = synth.generate(spec)
    vocab, records = encode_corpus(docs, catalog, min_count=3)
    by_id = {r.doc_id: r for r in records}
    raw_train, raw_val, raw_test = synth.split_docs(docs, (0.8, 0.1, 0.1), seed=7)
    splits = tuple([by_id[d["doc_id"]] for d in part] for part in (raw_train, raw_val, raw_test))
    return {
        "spec": spec, "docs": docs, "catalog": catalog, "truth": truth,
        "vocab": vocab, "records": records, "splits": splits,
    }


@pytest.fixture(scope="session")
def trained_big(planted):
    """Full model trained on the planted corpus; shared by criteria 6 and 9."""
    train_docs, val_docs, test_docs = planted["splits"]
    vocab, catalog = planted["vocab"], planted["catalog"]
    table = embeddings.train_skipgram(
        [r.tokens for r in train_docs], len(vocab), dim=100, epochs=1, seed=7
    )
    g = graph.build_cooccurrence(train_docs, len(catalog), lam=1.0)
    index = mask.build_mask_index(train_docs, len(catalog), tau=0.5)
    m = model.model_from_artifacts(
        vocab, catalog, g, dim=100, encoder_config=EncoderConfig(),
        seed=7, embedding_matrix=table,
    )
    cfg = training.TrainConfig(lr=5e-4, lr_decay=0.9, max_epochs=3, batch_size=32,
                               seed=7, prediction_threshold=0.4, patience=3)
    result = training.train(train_docs[:3000], val_docs, m, index, cfg)
    return {"model": m, "index": index, "graph": g, "result": result,
            "test_docs": test_docs, "threshold": 0.4}


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def model_toy(seed):
    rng = np.random.default_rng(seed)
    v, dim, l, n = 25, 8, 10, 20
    cfg = EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.0)
    adj = (rng.random((l, l)) < 0.2).astype(float)
    np.fill_diagonal(adj, 1.0)
    g = oracles.graph_from_dense(adj)
    s = np.abs(rng.standard_normal((l, v))) / v
    tokens = list(rng.integers(1, v, size=n))
    gold = (rng.random(l) < 0.3).astype(float)
    mask_vec = (rng.random(l) < 0.7).astype(float)
    doc_mask = mask.DocMask(labels=set(np.nonzero(mask_vec)[0]), vec=mask_vec)

    table = Tensor(rng.standard_normal((v, dim)) / np.sqrt(dim), requires_grad=True)
    from xmtc.encoder import init_block_params

    block = init_block_params(cfg, dim, rng)
    gcn = graph.init_gcn_params(dim, rng)
    from xmtc.attention import ClassifierParams, classify, label_attention
    from xmtc.encoder import BlockParams, encode

    clf_w = Tensor(rng.standard_normal((dim, 1)) / np.sqrt(dim), requires_grad=True)
    clf_b = Tensor(np.zeros(l), requires_grad=True)

    def full_forward(tbl, f0res, f1, w1, w2, w, b):
        blk = BlockParams(level0_residual=f0res, levels=[f1])
        encoded = encode(tokens, tbl, [blk], cfg)
        features = matmul(Tensor(s), tbl)
        h_label = graph.gcn_forward(g, features, graph.GcnParams(w1=w1, w2=w2))
        h_masked = mask.apply_mask(h_label, doc_mask)
        att = label_attention(encoded, h_masked)
        y = classify(att.context, ClassifierParams(w=w, b=b))
        return bce_loss(y, gold)

    inputs = [table, block.level0_residual, *block.levels, gcn.w1, gcn.w2, clf_w, clf_b]
    return full_forward, inputs


def test_criterion_1_gradient_suite():
    with criterion(1, "gradient suite (per-op 100 seeds + full model)"):
        start = time.time()
        def conv_case(rng):
            n = int(rng.integers(2, 8))
            r = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            return (
                lambda x, f: conv1d_dilated(x, f, dilation=r),
                [Tensor(rng.standard_normal((n, 3)), True),
                 Tensor(rng.standard_normal((k, 3, 2)), True)],
            )

        def gather_case(rng):
            ids = rng.integers(0, 5, size=7).tolist()  # drawn once, fixed per check
            return (lambda t: gather_rows(t, ids), [Tensor(rng.standard_normal((5, 3)), True)])

        def mean_case(rng):
            axis = int(rng.integers(0, 2))
            return (lambda t: mean(t, axis=axis), [Tensor(rng.standard_normal((3, 4)), True)])

        def spmm_case(rng):
            dense = rng.standard_normal((4, 5))
            sparse = sp.csr_matrix(np.where(rng.random((4, 5)) < 0.5, dense, 0.0))
            s = csr_from_scipy(sparse)  # fixed per check
            return (lambda t: spmm(s, t), [Tensor(rng.standard_normal((5, 3)), True)])

        def dropout_case(rng):
            keep = rng.random((4, 3)) >= 0.3  # drawn once, fixed per check
            return (lambda t: dropout(t, keep, 1.0 / 0.7),
                    [Tensor(rng.standard_normal((4, 3)), True)])

        def split_case(half):
            def make(rng):
                at = int(rng.integers(1, 5))
                return (lambda t: split_columns(t, at)[half],
                        [Tensor(rng.standard_normal((3, 5)), True)])

            return make

        linear_cases = {
            "matmul": lambda rng: (matmul, [Tensor(rng.standard_normal((3, 4)), True),
                                            Tensor(rng.standard_normal((4, 2)), True)]),
            "conv1d_dilated": conv_case,
            "add": lambda rng: (add, [Tensor(rng.standard_normal((4, 3)), True),
                                      Tensor(rng.standard_normal((4, 1)), True)]),
            "mul": lambda rng: (mul, [Tensor(rng.standard_normal((4, 3)), True),
                                      Tensor(rng.standard_normal((4, 3)), True)]),
            "gather_rows": gather_case,
            "mean": mean_case,
            "sum": lambda rng: (tensor_sum, [Tensor(rng.standard_normal((3, 4)), True)]),
            "concat": lambda rng: (lambda a, b: concat([a, b], axis=0),
                                   [Tensor(rng.standard_normal((2, 3)), True),
                                    Tensor(rng.standard_normal((3, 3)), True)]),
            "spmm": spmm_case,
            "dropout": dropout_case,
            "split_columns[0]": split_case(0),
            "split_columns[1]": split_case(1),
            "reshape": lambda rng: (lambda t: reshape(t, (2, 6)),
                                    [Tensor(rng.standard_normal((3, 4)), True)]),
        }
        def bce_case(rng):
            gold = (rng.random(8) < 0.5).astype(float)  # drawn once, fixed per check
            return (lambda p: bce_loss(p, gold), [Tensor(rng.uniform(0.05, 0.95, 8), True)])

        def relu_dropout_case(rng):
            keep = rng.random((4, 3)) >= 0.3  # drawn once, fixed per check
            return (lambda t: relu_dropout(t, keep, 1.0 / 0.7),
                    [Tensor(away_from_kinks(rng, (4, 3)), True)])

        def block_case(rng):
            n, k = int(rng.integers(1, 8)), int(rng.choice([1, 3]))
            rates = tuple(int(r) for r in rng.integers(1, 4, size=int(rng.integers(1, 4))))
            cfg = EncoderConfig(kernel_size=k, rates=rates, dropout=0.3)
            params = init_block_params(cfg, 3, rng)
            seed = int(rng.integers(1 << 30))  # one dropout mask, drawn again per call
            return (lambda x, *f: residual_block(x, BlockParams(f[0], list(f[1:])), cfg,
                                                 train=True, rng=np.random.default_rng(seed)),
                    [Tensor(rng.standard_normal((n, 3)), True), params.level0_residual,
                     *params.levels])

        nonlinear_cases = {
            "relu": lambda rng: (relu, [Tensor(away_from_kinks(rng, (4, 3)), True)]),
            "sigmoid": lambda rng: (sigmoid, [Tensor(rng.standard_normal((4, 3)), True)]),
            "relu_dropout": relu_dropout_case,
            "dilated_block": block_case,
            "attend": lambda rng: (lambda q, x: attend(q, x)[1],
                                   [Tensor(rng.standard_normal((3, 4)), True),
                                    Tensor(rng.standard_normal((5, 4)), True)]),
            "bce_loss": bce_case,
        }
        for name, make in linear_cases.items():
            for seed in range(100):
                rng = np.random.default_rng(1000 + seed)
                op, inputs = make(rng)
                report = grad_check(op, inputs, tol=1e-6, seed=seed)
                assert report.passed, f"{name} seed {seed}: {report}"
        for name, make in nonlinear_cases.items():
            for seed in range(100):
                rng = np.random.default_rng(2000 + seed)
                op, inputs = make(rng)
                report = grad_check(op, inputs, tol=1e-4, seed=seed)
                assert report.passed, f"{name} seed {seed}: {report}"

        for seed in range(3):
            forward, inputs = model_toy(seed)
            report = grad_check(forward, inputs, tol=1e-4, seed=seed)
            assert report.passed, f"full model seed {seed}: {report}"

        elapsed = time.time() - start
        assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s (budget 120s)"


# ---------------------------------------------------------------------------
# criterion 2: shape/length suite


def test_criterion_2_shapes_and_padding_invariance():
    with criterion(2, "encoder shape preservation and padding invariance"):
        rng = np.random.default_rng(0)

        dim = 8
        for k in (3, 5, 9):
            for rates in ((1, 2, 4), (2, 5, 9)):
                cfg = EncoderConfig(kernel_size=k, rates=rates, dropout=0.0)
                block = init_block_params(cfg, dim, rng)
                for n in (1, 7, 100, 4000):
                    out = residual_block(Tensor(rng.standard_normal((n, dim))), block, cfg)
                    assert out.shape == (n, dim), (k, rates, n)

        # appending PAD tokens must not move any probability
        l, v = 12, 30
        adj = np.eye(l)
        g = oracles.graph_from_dense(adj)
        catalog = corpus.LabelCatalog([f"c{i}" for i in range(l)], ["x"] * l)
        vocab_tokens = [f"tok{chr(97 + i)}" for i in range(v - 2)]
        vocab = corpus.Vocabulary(vocab_tokens)
        m = model.model_from_artifacts(
            vocab, catalog, g, dim=dim,
            encoder_config=EncoderConfig(kernel_size=5, rates=(1, 2, 4), dropout=0.0),
            seed=3,
        )
        doc_mask = mask.DocMask.all_ones(l)
        tokens = rng.integers(2, v, size=37).tolist()
        h_label = m.label_representations()
        base = m.predict_scores(tokens, doc_mask, h_label)
        for extra in (1, 5, 40):
            padded = m.predict_scores(tokens + [corpus.PAD_ID] * extra, doc_mask, h_label)
            np.testing.assert_allclose(padded, base, atol=1e-10)
        alpha_base = m.predict_scores(tokens, doc_mask, h_label, with_attention=True)[1]
        alpha_padded = m.predict_scores(tokens + [corpus.PAD_ID] * 6, doc_mask, h_label,
                                        with_attention=True)[1]
        np.testing.assert_allclose(alpha_padded[:, : len(tokens)], alpha_base, atol=1e-10)
        np.testing.assert_array_equal(alpha_padded[:, len(tokens):], 0.0)


# ---------------------------------------------------------------------------
# criterion 3: graph oracle


def test_criterion_3_graph_oracle():
    with criterion(3, "co-occurrence graph vs brute-force recount"):
        rng = np.random.default_rng(33)
        for trial in range(200):
            num_labels = int(rng.integers(2, 9))
            n_docs = int(rng.integers(1, 30))
            label_sets = [
                set(rng.choice(num_labels,
                               size=int(rng.integers(1, num_labels + 1)),
                               replace=False).tolist())
                for _ in range(n_docs)
            ]
            docs = [corpus.DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=s)
                    for i, s in enumerate(label_sets)]
            lam = float(rng.choice([0.3, 0.5, 1.0]))
            g = graph.build_cooccurrence(docs, num_labels, lam=lam)
            cond = oracles.conditional_prob_matrix(label_sets, num_labels)
            label_lists = [sorted(s) for s in label_sets]
            np.testing.assert_array_equal(
                oracles.dense_entries(graph.conditional_pairs(label_lists, label_lists,
                                                              num_labels), num_labels), cond)
            seen = np.array([any(i in s for s in label_sets) for i in range(num_labels)])
            expect = np.where(cond >= lam, 1.0, 0.0)
            expect[~seen] = 0.0
            np.fill_diagonal(expect, 1.0)
            adjacency = g.adjacency
            np.testing.assert_array_equal(adjacency, expect)

            if lam == 1.0:
                for i in range(num_labels):
                    for j in range(num_labels):
                        if i != j and adjacency[i, j] == 1.0 and seen[i]:
                            assert not any(i in s and j not in s for s in label_sets), (
                                f"uncertified edge ({i}->{j}) in trial {trial}"
                            )

        # equivariance under 50 random label permutations
        label_sets = [
            set(rng.choice(10, size=int(rng.integers(1, 5)), replace=False).tolist())
            for _ in range(60)
        ]
        docs = [corpus.DocumentRecord(doc_id=f"d{i}", tokens=[2], labels=s)
                for i, s in enumerate(label_sets)]
        base = graph.build_cooccurrence(docs, 10, lam=1.0)
        features = rng.standard_normal((10, 6))
        params = graph.init_gcn_params(6, rng)
        h_base = graph.gcn_forward(base, Tensor(features), params).data
        base_adjacency = base.adjacency
        for _ in range(50):
            perm = rng.permutation(10)
            inverse = np.argsort(perm)
            permuted_docs = [
                corpus.DocumentRecord(doc_id=d.doc_id, tokens=d.tokens,
                                      labels={int(inverse[l]) for l in d.labels})
                for d in docs
            ]
            g_perm = graph.build_cooccurrence(permuted_docs, 10, lam=1.0)
            np.testing.assert_array_equal(g_perm.adjacency, base_adjacency[np.ix_(perm, perm)])
            h_perm = graph.gcn_forward(g_perm, Tensor(features[perm]), params).data
            np.testing.assert_allclose(h_perm, h_base[perm], atol=1e-10)


# ---------------------------------------------------------------------------
# criterion 4: mask oracle


def test_criterion_4_mask_oracle(planted):
    with criterion(4, "mask index recount, tau monotonicity, planted recall/size"):
        start = time.time()
        train_docs = planted["splits"][0]
        num_labels = len(planted["catalog"])
        index = mask.build_mask_index(train_docs, num_labels, tau=0.5)

        recount = oracles.recount_aux_tables(train_docs, num_labels)
        for term in corpus.TERMINOLOGIES:
            assert set(index.probs[term]) == set(recount.get(term, {}))
            for code, (pair, total) in recount.get(term, {}).items():
                np.testing.assert_array_equal(
                    oracles.dense_row(index.probs[term][code], num_labels), pair / total)

        eval_docs = planted["splits"][2]
        taus = np.linspace(0.0, 1.0, 10)
        recalls, sizes = [], []
        for tau in taus:
            index.tau = float(tau)
            stats = mask.mask_stats(eval_docs, [mask.make_doc_mask(d, index) for d in eval_docs])
            recalls.append(stats.recall_of_gold)
            sizes.append(stats.mean_mask_size)
        assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:])), recalls
        assert all(a >= b - 1e-12 for a, b in zip(sizes, sizes[1:])), sizes

        index.tau = 0.5
        stats = mask.mask_stats(eval_docs, [mask.make_doc_mask(d, index) for d in eval_docs])
        assert stats.recall_of_gold >= 0.99, stats
        assert stats.mask_fraction <= 1 / 3, stats

        elapsed = time.time() - start
        assert elapsed < 300.0, f"mask oracle took {elapsed:.0f}s (budget 300s)"


# ---------------------------------------------------------------------------
# criterion 5: metric oracle


def test_criterion_5_metric_oracle():
    with criterion(5, "metrics vs brute-force references on 1000 instances"):
        rng = np.random.default_rng(55)
        for trial in range(1000):
            n = int(rng.integers(2, 10))
            l = int(rng.integers(2, 8))
            gold = rng.random((n, l)) < 0.35
            if not gold.any():
                gold[0, 0] = True
            scores = rng.random((n, l))
            scores[rng.random((n, l)) < 0.1] = 0.5  # exact ties
            scores[rng.random((n, l)) < 0.05] = 0.0  # gated-out labels
            pred = scores >= 0.5

            micro, macro, _ = metrics.micro_macro_f1(gold, pred)
            ref_micro, ref_macro = oracles.f1_from_confusion(gold, pred)
            assert abs(micro - ref_micro) < 1e-9
            assert abs(macro - ref_macro) < 1e-9

            micro_auc, macro_auc, _ = metrics.micro_macro_auc(gold, scores)
            ref_macro_auc, ref_micro_auc = oracles.macro_micro_auc_bruteforce(gold, scores)
            if ref_micro_auc is not None:
                assert abs(micro_auc - ref_micro_auc) < 1e-9
            assert abs(macro_auc - ref_macro_auc) < 1e-9

            for k in (5, 8, 15):
                ours = metrics.precision_at_k(gold, scores, (k,))[k]
                ref = oracles.precision_at_k_bruteforce(gold, scores, k)
                assert abs(ours - ref) < 1e-9


# ---------------------------------------------------------------------------
# criterion 6: convergence


def test_criterion_6a_overfit_small_corpus():
    with criterion(6, "overfit 50-doc/20-label corpus to micro-F1 >= 0.95"):
        start = time.time()
        spec = synth.standard_spec(num_labels=20, num_docs=50, seed=42,
                                   clique_size=2, doc_length=(25, 50))
        docs, catalog, _ = synth.generate(spec)
        vocab, records = encode_corpus(docs, catalog)
        g = graph.build_cooccurrence(records, len(catalog), lam=1.0)
        index = mask.build_mask_index(records, len(catalog), tau=0.3)
        m = model.model_from_artifacts(
            vocab, catalog, g, dim=50,
            encoder_config=EncoderConfig(kernel_size=5, rates=(1, 2, 4), dropout=0.2),
            seed=0,
        )
        cfg = training.TrainConfig(lr=3e-3, lr_decay=0.97, max_epochs=100, batch_size=8,
                                   seed=0, prediction_threshold=0.5, patience=100)
        training.train(records, records, m, index, cfg)
        report = training.evaluate(records, m, training.doc_masks(records, m, index), 0.5)
        elapsed = time.time() - start
        assert report.micro_f1 >= 0.95, report.micro_f1
        assert elapsed < 600.0, f"overfit took {elapsed:.0f}s (budget 600s)"


def test_criterion_6b_heldout_planted_corpus(trained_big):
    with criterion(6, "held-out micro-F1 >= 0.80 on the 200-label corpus"):
        report = training.evaluate(
            trained_big["test_docs"], trained_big["model"],
            training.doc_masks(trained_big["test_docs"], trained_big["model"],
                               trained_big["index"]),
            trained_big["threshold"],
        )
        print(f"  held-out micro-F1 {report.micro_f1:.4f}, "
              f"micro-AUC {report.micro_auc:.4f}, P@8 {report.p_at_k[8]:.4f}", flush=True)
        assert report.micro_f1 >= 0.80, report.micro_f1


# ---------------------------------------------------------------------------
# criterion 7: ablation direction


def test_criterion_7_ablation_direction():
    with criterion(7, "full >= no_mask and full >= no_label_feature over 5 seeds"):
        # scarce training signal and silent clique members make the label-side
        # knowledge matter: labels with no text trace of their own must be
        # inferred through co-occurrence, and rare labels see too few
        # documents to learn free embeddings from scratch
        spec = synth.standard_spec(num_labels=80, num_docs=400, seed=11,
                                   doc_length=(20, 40), tail_exponent=1.3,
                                   keywords_per_label=8, noise_rate=0.35,
                                   silent_per_clique=1)
        docs, catalog, _ = synth.generate(spec)
        vocab, records = encode_corpus(docs, catalog)
        n = len(records)
        train_docs = records[: int(0.7 * n)]
        val_docs = records[int(0.7 * n) : int(0.8 * n)]
        test_docs = records[int(0.8 * n) :]
        g = graph.build_cooccurrence(train_docs, len(catalog), lam=1.0)
        index = mask.build_mask_index(train_docs, len(catalog), tau=0.4)
        table = embeddings.train_skipgram([r.tokens for r in train_docs], len(vocab),
                                          dim=48, epochs=8, seed=11)

        scores = {"full": [], "no_mask": [], "no_label_feature": []}
        for seed in range(5):
            for variant in scores:
                m = model.model_from_artifacts(
                    vocab, catalog, g, dim=48,
                    encoder_config=EncoderConfig(kernel_size=5, rates=(1, 2, 4), dropout=0.2),
                    seed=seed, embedding_matrix=table, variant=variant,
                )
                cfg = training.TrainConfig(lr=2e-3, lr_decay=0.95, max_epochs=2,
                                           batch_size=16, seed=seed,
                                           prediction_threshold=0.4, patience=2)
                training.train(train_docs, val_docs, m, index, cfg)
                report = training.evaluate(test_docs, m, training.doc_masks(test_docs, m, index),
                                           0.4)
                scores[variant].append(report.micro_f1)

        means = {v: float(np.mean(s)) for v, s in scores.items()}
        print("  mean micro-F1:", {v: round(x, 4) for v, x in means.items()}, flush=True)
        for variant in ("no_mask", "no_label_feature"):
            diffs = [f - v for f, v in zip(scores["full"], scores[variant])]
            print(f"  paired diffs full - {variant}: {[round(d, 4) for d in diffs]}", flush=True)
        assert means["full"] >= means["no_mask"], means
        assert means["full"] >= means["no_label_feature"], means


# ---------------------------------------------------------------------------
# criterion 8: determinism of the CLI pipeline


def test_criterion_8_cli_determinism(tmp_path):
    with criterion(8, "byte-identical artifacts from identical config+seed"):
        from xmtc.cli import main

        data = tmp_path / "data"
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            "embedding_size = 32\nfilter_size = 3\ndilation_rates = 1,2\n"
            "dropout = 0.1\nlearning_rate = 0.003\nbatch_size = 8\nmax_epochs = 2\n"
            "prediction_threshold = 0.4\ntau = 0.3\nseed = 9\nmin_count = 1\n"
            "skipgram_epochs = 1\n"
        )
        assert main(["gen-synthetic", "--workdir", str(data), "--labels", "20",
                     "--docs", "120", "--seed", "9"]) == 0
        for run in ("run_a", "run_b"):
            work = tmp_path / run
            base = ["--workdir", str(work), "--config", str(cfg_path)]
            assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                         "--val", str(data / "val.jsonl"), "--test", str(data / "test.jsonl"),
                         "--catalog", str(data / "raw_catalog.tsv")]) == 0
            assert main(["build-graph", *base]) == 0
            assert main(["build-mask", *base]) == 0
            assert main(["train", *base]) == 0
            assert main(["evaluate", *base, "--split", "test"]) == 0
            assert main(["predict", *base, "--input", str(data / "test.jsonl")]) == 0
        for name in ("checkpoint.bin", "metrics.json", "predictions.jsonl",
                     "history.csv", "vocab.txt", "embeddings.txt", "graph.txt",
                     "mask_index.tsv", "per_label.tsv"):
            a = (tmp_path / "run_a" / name).read_bytes()
            b = (tmp_path / "run_b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"


# ---------------------------------------------------------------------------
# criterion 9: hard-gating invariant


def test_criterion_9_gating_invariant(trained_big):
    with criterion(9, "no predictions outside nonempty candidate masks"):
        m = trained_big["model"]
        index = trained_big["index"]
        test_docs = trained_big["test_docs"]
        threshold = trained_big["threshold"]
        gold, scores = training.collect_scores(test_docs, m,
                                               training.doc_masks(test_docs, m, index))
        checked = 0
        for row, doc in enumerate(test_docs):
            doc_mask = mask.make_doc_mask(doc, index)
            if doc_mask.empty:
                continue
            checked += 1
            outside = doc_mask.vec == 0.0
            assert np.all(scores[row][outside] == 0.0), doc.doc_id
            assert not np.any(scores[row][outside] >= threshold), doc.doc_id
            for k in (5, 8, 15):
                top = metrics.top_k_labels(scores[row], k)
                assert all(doc_mask.vec[i] == 1.0 for i in top), doc.doc_id
        assert checked > 0
