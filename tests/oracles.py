"""Independent brute-force references used by the test suite.

Everything here is written the slow, obvious way (explicit loops, pair
counting, direct recounts) and deliberately shares no code with the
implementations it checks, except the plain compositions of engine ops that
an optimised path must reproduce (the dense label side, the unfused encoder
block).
"""

import re

import numpy as np


def naive_conv1d(x, filters, dilation, padding):
    """Sliding-window dilated convolution, triple loop."""
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    n, d_in = x.shape
    k, _, d_out = filters.shape
    xp = np.zeros((n + 2 * padding, d_in))
    xp[padding : padding + n] = x
    n_out = xp.shape[0] - dilation * (k - 1)
    out = np.zeros((n_out, d_out))
    for s in range(n_out):
        for j in range(k):
            for ci in range(d_in):
                for co in range(d_out):
                    out[s, co] += filters[j, ci, co] * xp[s + dilation * j, ci]
    return out


def dilated_stack(embedded, params, config):
    """Chain of dilated convolutions, one level per rate."""
    from xmtc.tensor import conv1d_dilated, same_padding

    h = embedded
    for filt, rate in zip(params.level_filters, config.rates):
        h = conv1d_dilated(h, filt, dilation=rate,
                           padding=same_padding(config.kernel_size, rate))
    return h


def unfused_residual_block(embedded, params, config):
    """One encoder block without dropout, its two branches run apart: the
    dilated chain, then the residual conv over the same input, summed and
    activated.  The shipped block runs level 0 and the residual as one
    product and must reproduce this."""
    from xmtc.tensor import add, conv1d_dilated, relu, same_padding, tanh

    act = {"relu": relu, "tanh": tanh}[config.activation]
    main = dilated_stack(embedded, params, config)
    rate = config.rates[0]
    residual = conv1d_dilated(embedded, params.residual_filter, dilation=rate,
                              padding=same_padding(config.kernel_size, rate))
    return act(add(main, residual))


def reference_preprocess(text, max_len=4000):
    """The tokenizer's rules applied one by one: drop ``[** ... **]`` spans,
    lowercase, split on anything but ASCII letters and digits (keeping
    ``<num>``), map pure numbers to ``<num>``, drop tokens holding a digit
    and a letter, truncate to ``max_len``."""
    text = re.sub(r"\[\*\*.*?\*\*\]", " ", text, flags=re.DOTALL).lower()
    out = []
    for tok in re.findall(r"<num>|[a-z0-9]+", text):
        if tok == "<num>":
            out.append(tok)
        elif tok.isdigit():
            out.append("<num>")
        elif any(c.isdigit() for c in tok):
            continue
        else:
            out.append(tok)
        if len(out) == max_len:
            break
    return out


def numeric_gradient(f, x, step=1e-5):
    """Central finite differences of scalar-valued f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return g


def count_cooccurrence(label_sets, num_labels):
    """Document-level label counts and pairwise joint counts by recount."""
    single = np.zeros(num_labels)
    joint = np.zeros((num_labels, num_labels))
    for labels in label_sets:
        for i in labels:
            single[i] += 1
            for j in labels:
                joint[i, j] += 1
    return single, joint


def conditional_prob_matrix(label_sets, num_labels):
    single, joint = count_cooccurrence(label_sets, num_labels)
    cond = np.zeros((num_labels, num_labels))
    for i in range(num_labels):
        if single[i] > 0:
            cond[i] = joint[i] / single[i]
    return cond


def csr_cooccurrence(train_docs, num_labels, lam):
    """The co-occurrence build counted through a CSR [N, L] occurrence
    matrix (``occur.T @ occur``, each row divided by its diagonal entry);
    returns (adjacency, cond_prob CSR, pair_count)."""
    import scipy.sparse as sp

    indices = []
    indptr = [0]
    for doc in train_docs:
        indices.extend(doc.label_ids(num_labels))
        indptr.append(len(indices))
    occur = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                          shape=(len(train_docs), num_labels))
    cond = (occur.T @ occur).tocsr()
    rows = np.repeat(np.arange(num_labels), np.diff(cond.indptr))
    cond.data /= cond.diagonal()[rows]
    edge = cond.data >= lam
    adj = np.zeros((num_labels, num_labels))
    adj[rows[edge], cond.indices[edge]] = 1.0
    np.fill_diagonal(adj, 1.0)
    return adj, cond, int(np.count_nonzero(edge & (rows < cond.indices)))


def csr_mask_tables(train_docs, num_labels):
    """The auxiliary-code tables counted through one CSR [codes, L] per
    terminology; returns {terminology: {code: (label ids, pair counts,
    probabilities)}} and {terminology: {code: code count}}."""
    import scipy.sparse as sp

    terminologies = ("drg", "cpt", "drugs")
    row_of = {t: {} for t in terminologies}
    code_counts = {t: {} for t in terminologies}
    pairs = {t: ([], []) for t in terminologies}
    for doc in train_docs:
        labels = doc.label_ids(num_labels)
        for term in terminologies:
            codes, counts, (rows, cols) = row_of[term], code_counts[term], pairs[term]
            for code in set(doc.aux_codes.get(term, ())):
                rows.extend([codes.setdefault(code, len(codes))] * len(labels))
                cols.extend(labels)
                counts[code] = counts.get(code, 0) + 1
    tables = {}
    for term, (rows, cols) in pairs.items():
        table = sp.csr_matrix((np.ones(len(rows)), (rows, cols)),
                              shape=(len(row_of[term]), num_labels))
        tables[term] = {}
        for code, row in row_of[term].items():
            span = slice(table.indptr[row], table.indptr[row + 1])
            ids, count = table.indices[span], table.data[span]
            tables[term][code] = (ids, count, count / code_counts[term][code])
    return tables, code_counts


def dense_row(row, num_labels):
    """Dense [num_labels] vector of one sparse table row (label ids, values)."""
    ids, values = row
    vec = np.zeros(num_labels)
    vec[ids] = values
    return vec


def recount_aux_tables(docs, num_labels):
    """Conditional P(label | aux code) tables by explicit recount.

    Returns {terminology: {code: (pair_counts, code_count)}}.
    """
    tables = {}
    for doc in docs:
        for term, codes in doc.aux_codes.items():
            per_term = tables.setdefault(term, {})
            for code in set(codes):
                pair, total = per_term.get(code, (np.zeros(num_labels), 0))
                for lab in doc.labels:
                    pair[lab] += 1
                per_term[code] = (pair, total + 1)
    return tables


def f1_from_confusion(gold, pred):
    """Micro and macro F1 via explicit confusion-matrix counts.

    Macro averages only labels with at least one gold positive.
    """
    gold = np.asarray(gold, dtype=bool)
    pred = np.asarray(pred, dtype=bool)
    tp = (gold & pred).sum(axis=0).astype(float)
    fp = (~gold & pred).sum(axis=0).astype(float)
    fn = (gold & ~pred).sum(axis=0).astype(float)

    def f1(tp_, fp_, fn_):
        denom = 2 * tp_ + fp_ + fn_
        return 2 * tp_ / denom if denom > 0 else 0.0

    micro = f1(tp.sum(), fp.sum(), fn.sum())
    keep = gold.sum(axis=0) > 0
    macro = float(np.mean([f1(tp[i], fp[i], fn[i]) for i in np.where(keep)[0]])) if keep.any() else 0.0
    return micro, macro


def auc_pair_counting(y, s):
    """AUC by quadratic positive/negative pair counting, ties worth 0.5.

    Returns None when either class is absent.
    """
    y = np.asarray(y, dtype=bool)
    s = np.asarray(s, dtype=np.float64)
    pos = s[y]
    neg = s[~y]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (pos.size * neg.size)


def macro_micro_auc_bruteforce(gold, scores):
    gold = np.asarray(gold, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    per_label = [auc_pair_counting(gold[:, i], scores[:, i]) for i in range(gold.shape[1])]
    usable = [a for a in per_label if a is not None]
    macro = float(np.mean(usable)) if usable else 0.0
    micro = auc_pair_counting(gold.reshape(-1), scores.reshape(-1))
    return macro, micro


def top_k_bruteforce(scores, k):
    """Label ids sorted by (-score, id), scores > 0 only, the first k."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [i for i in order if scores[i] > 0][:k]


def precision_at_k_bruteforce(gold, scores, k):
    """Mean over documents of (gold labels in top-k)/k; ranking excludes
    zero scores, ties broken toward the lower label index."""
    gold = np.asarray(gold, dtype=bool)
    scores = np.asarray(scores, dtype=np.float64)
    vals = []
    for d in range(gold.shape[0]):
        order = sorted(range(gold.shape[1]), key=lambda i: (-scores[d, i], i))
        top = [i for i in order if scores[d, i] > 0][:k]
        vals.append(sum(1 for i in top if gold[d, i]) / k)
    return float(np.mean(vals)) if vals else 0.0


def skipgram_pairs_loop(tokens, window, rng):
    """(center, context) token pairs, center by center: each center's window
    shrinks to a random span in [1, window], drawn once per position."""
    n = tokens.size
    if n < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    spans = rng.integers(1, window + 1, size=n)
    centers, contexts = [], []
    for pos in range(n):
        for ctx in range(max(0, pos - spans[pos]), min(n, pos + spans[pos] + 1)):
            if ctx != pos:
                centers.append(tokens[pos])
                contexts.append(tokens[ctx])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def skipgram_add_at(token_docs, vocab_size, dim, window=5, negatives=5, epochs=5, seed=0,
                    lr=0.025):
    """``embeddings.train_skipgram`` as it was written before its updates
    went through ``row_sums``: each document's gradients are scattered into
    the two tables one pair at a time with ``np.add.at``.  Pairs come from
    ``skipgram_pairs_loop``, which consumes the same draws."""
    from scipy.special import expit

    from xmtc.corpus import PAD_ID

    rng = np.random.default_rng(seed)
    w_in = (rng.random((vocab_size, dim)) - 0.5) / dim
    w_in[PAD_ID] = 0.0
    w_out = np.zeros((vocab_size, dim))
    all_ids = np.array([t for doc in token_docs for t in doc], dtype=np.int64)
    counts = np.bincount(all_ids, minlength=vocab_size).astype(np.float64)
    counts[PAD_ID] = 0.0
    noise = counts ** 0.75
    total = noise.sum()
    if total == 0 or epochs == 0:
        return w_in
    noise_cdf = np.cumsum(noise / total)
    steps_total = max(1, epochs * len(token_docs))
    step = 0
    for _ in range(epochs):
        for doc in token_docs:
            tokens = np.asarray([t for t in doc if t != PAD_ID], dtype=np.int64)
            centers, contexts = skipgram_pairs_loop(tokens, window, rng)
            step += 1
            if centers.size == 0:
                continue
            cur_lr = max(lr * (1.0 - step / steps_total), lr * 1e-4)
            n_pairs = centers.size
            neg = np.searchsorted(noise_cdf, rng.random((n_pairs, negatives)))
            tgt = np.concatenate([contexts[:, None], neg], axis=1)
            lbl = np.zeros((n_pairs, negatives + 1))
            lbl[:, 0] = 1.0
            vc = w_in[centers]
            vo = w_out[tgt]
            score = expit(np.einsum("pd,pkd->pk", vc, vo))
            err = (score - lbl) * cur_lr
            grad_c = np.einsum("pk,pkd->pd", err, vo)
            grad_o = err[:, :, None] * vc[:, None, :]
            np.add.at(w_in, centers, -grad_c)
            np.add.at(w_out, tgt.reshape(-1), -grad_o.reshape(-1, dim))
    return w_in


def row_sums_add_at(ids, values, rows=None, weights=None):
    """``tensor.row_sums`` as a scatter-add into a zero buffer with one row
    per distinct id, one entry at a time in input order."""
    ids = np.asarray(ids).reshape(-1)
    rows = np.arange(ids.size) if rows is None else np.asarray(rows).reshape(-1)
    weights = np.ones(ids.size) if weights is None else np.asarray(weights).reshape(-1)
    uniq, inverse = np.unique(ids, return_inverse=True)
    sums = np.zeros((uniq.size, values.shape[1]))
    np.add.at(sums, inverse, weights[:, None] * values[rows])
    return uniq, sums


def dense_forward_doc(model, token_ids, doc_mask, h_label, train=False, rng=None):
    """One document through the dense label side: every label attends over
    every position, a masked label through its zeroed representation row
    (``apply_mask``), and every label has its own context row.  This is the
    forward that candidate-sparse attention must reproduce; it composes the
    engine's dense ops rather than re-deriving them.  Returns (probabilities
    [L], attention weights [L, n] with zero PAD columns)."""
    from xmtc.attention import classify, label_attention
    from xmtc.corpus import PAD_ID
    from xmtc.encoder import encode
    from xmtc.mask import apply_mask

    ids = np.asarray(token_ids, dtype=np.int64)
    real = ids != PAD_ID
    encoded = encode(ids[real], model.embedding, model.blocks, model.encoder_config,
                     train=train, rng=rng)
    att = label_attention(encoded, apply_mask(h_label, doc_mask))
    alpha = np.zeros((h_label.shape[0], ids.size))
    alpha[:, real] = att.alpha.data
    return classify(att.context, model.classifier), alpha


def dense_batch_loss(model, docs, masks, rng):
    """``training.batch_loss`` over ``dense_forward_doc``."""
    from xmtc.tensor import add, bce_loss, mul

    h_label = model.label_representations()
    total = None
    for doc, doc_mask in zip(docs, masks):
        y_hat, _ = dense_forward_doc(model, doc.tokens, doc_mask, h_label, train=True, rng=rng)
        loss = bce_loss(y_hat, doc.label_vector(model.num_labels))
        total = loss if total is None else add(total, loss)
    return mul(total, 1.0 / len(docs))


def dense_predict_scores(model, token_ids, doc_mask):
    """Gated inference scores and attention weights over ``dense_forward_doc``."""
    y_hat, alpha = dense_forward_doc(model, token_ids, doc_mask, model.label_representations())
    scores = y_hat.data.copy()
    if doc_mask.labels:
        scores *= doc_mask.vec
    return scores, alpha


def dense_descriptor_matrix(catalog, vocab):
    """The descriptor-average operator S [L, V] as a dense array, filled one
    descriptor-token occurrence at a time."""
    from xmtc.corpus import preprocess

    s = np.zeros((len(catalog), len(vocab)))
    for i, descriptor in enumerate(catalog.descriptors):
        ids = vocab.encode(preprocess(descriptor))
        for tok in ids:
            s[i, tok] += 1.0 / len(ids)
    return s


def dense_propagation(adjacency):
    """The GCN propagation matrix (A + I) / rowsum as a dense array."""
    a = adjacency + np.eye(adjacency.shape[0])
    return a / a.sum(axis=1, keepdims=True)


def dense_label_representations(model, catalog, vocab):
    """``CodingModel.label_representations`` with dense S and Â, multiplied
    by the engine's dense ``matmul``."""
    from xmtc.tensor import Tensor, matmul, relu

    features = matmul(Tensor(dense_descriptor_matrix(catalog, vocab)), model.embedding)
    a_hat = Tensor(dense_propagation(model.graph.adjacency))
    h1 = relu(matmul(matmul(a_hat, features), model.gcn.w1))
    return matmul(matmul(a_hat, h1), model.gcn.w2)
