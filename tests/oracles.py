"""Independent brute-force references used by the test suite.

Everything here is written the slow, obvious way (explicit loops, pair
counting, direct recounts) and deliberately shares no code with the
implementations it checks.
"""

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
