"""Independent brute-force references used by the test suite.

Everything here is written the slow, obvious way (explicit loops, pair
counting, direct recounts, sparse products) and deliberately shares no code
with the implementations it checks, except the plain compositions of engine
ops that an optimised path must reproduce (the dense label side, the
unfused encoder block, the encoder whose tape keeps padded inputs, float
dropout masks and stacked filters, the convolution, the four-node
attention and the relu-then-dropout block that keep what backward could
re-make) and the tape's node plumbing, on which the four-node attention
builds its own transposed copy and softmax and the seven-node encoder
block its per-level convolutions (``tensor.conv_product`` and
``tensor.conv_backward`` as a node), column halves and relu with
dropout.  ``traced`` is the suite's one tracemalloc probe, and
``grad_check`` its finite-difference check, which contracts an op's output
to a scalar with ``tensor_sum``; no src path runs either.  The label
statistics and the auxiliary-code tables are counted here twice: by
recount (``conditional_prob_matrix``, ``recount_aux_tables``) and through
CSR products (``csr_cooccurrence``, ``csr_mask_tables``); src gets both
from one ``graph.conditional_pairs``.  scipy is the reference for the
engine's sparse products and the CSR constructions: ``scipy_csr`` and
``csr_from_scipy`` convert between its CSR and ``tensor.Csr``, and
``scipy_descriptor_matrix`` and ``csr_propagation`` build S and Â as
scipy does.  ``verify`` audits a synthetic
corpus against the ground truth its generator planted, with its
own recount of the auxiliary-code tables (``recount_raw_aux_tables``),
since the generator takes them from ``mask.build_mask_index``.
"""

import re
from collections import Counter
from dataclasses import dataclass, field

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


def receptive_field(config):
    """Positions one output element of an ``EncoderConfig``'s block stack
    can see."""
    per_block = sum(r * (config.kernel_size - 1) for r in config.rates)
    return 1 + config.num_blocks * per_block


@dataclass
class TwoFilterBlock:
    """An encoder block's filters laid out apart: one [K, d, d] filter per
    rate and the residual's [K, d, d].  The shipped ``BlockParams`` holds
    level 0 and the residual as one [K, d, 2d] filter."""

    level_filters: list
    residual_filter: object


def two_filter_block(block):
    """Leaf copies of a ``BlockParams``' filters in the two-filter layout:
    level 0 and the residual are ``level0_residual``'s column halves."""
    from xmtc.tensor import Tensor

    fused = block.level0_residual.data
    d = fused.shape[2] // 2

    def leaf(arr):
        return Tensor(np.ascontiguousarray(arr), requires_grad=True)

    return TwoFilterBlock(level_filters=[leaf(fused[:, :, :d]),
                                         *(leaf(f.data) for f in block.levels)],
                          residual_filter=leaf(fused[:, :, d:]))


def conv1d_dilated(x, filters, dilation):
    """``tensor.conv_product`` as a tape node of its own, whose backward is
    ``tensor.conv_backward``: the convolution the encoder block recorded
    per level before it became one node.  Its input is held as its
    ``rebuild`` where it has one, else as its array; a recorded output over
    an input with no rebuild gets one that repeats the product on that
    array, so that in a chain every other input is re-made and no rebuild
    re-runs another convolution's."""
    from xmtc.tensor import _accumulate, _make, conv_backward, conv_product

    data, f, xc, fc = x.data, filters.data, x.cell, filters.cell
    xd = x.rebuild or (lambda: data)

    def bwd(g):
        _accumulate(xc, conv_backward(g, xd, f, dilation, fc))

    return _make(conv_product(data, f, dilation), (x, filters), bwd,
                 rebuild=(lambda: conv_product(xd(), f, dilation)) if x.rebuild is None else None)


def split_columns(x, at):
    """Split a [n, c] tensor into its columns [0, at) and [at, c), each half
    a copy of its columns and a tape node that adds its gradient into its
    own columns of ``x``'s one gradient buffer."""
    from xmtc.tensor import _make

    xc = x.cell

    def half(cols):
        def bwd(g):
            if xc.grad is None:
                xc.grad = np.zeros(xc.shape)
            xc.grad[:, cols] += g

        return _make(x.data[:, cols].copy(), (x,), bwd)

    return half(slice(0, at)), half(slice(at, None))


def relu_dropout(x, keep, scale):
    """``dropout(relu(x), keep, scale)`` as one node that keeps its output's
    values other than +0.0 and one bit-packed mask of where they sit; the
    output's ``rebuild`` scatters them into zeros, and backward passes
    ``g * scale`` where the kept value is positive."""
    from xmtc.tensor import _accumulate, _make

    keep = np.asarray(keep, dtype=bool)
    assert keep.shape == x.shape
    out = np.maximum(x.data, 0.0) * (keep * scale)
    flat = out.reshape(-1)
    stored = flat.view(np.uint64) != 0
    shape, size, bits = out.shape, out.size, np.packbits(stored)
    values = flat[np.flatnonzero(stored)]

    def where():
        return np.flatnonzero(np.unpackbits(bits, count=size))

    def rebuild():
        full = np.zeros(size)
        full[where()] = values
        return full.reshape(shape)

    xc = x.cell

    def bwd(g):
        positive = np.zeros(size, dtype=bool)
        positive[where()] = values > 0.0
        _accumulate(xc, g * (positive.reshape(shape) * scale))

    return _make(out, (x,), bwd, rebuild=rebuild)


def seven_node_block(embedded, params, config, train=False, rng=None):
    """``encoder.residual_block`` as seven tape nodes: the fused level-0 and
    residual convolution, its two column halves, the chain's convolutions
    (``conv1d_dilated``, so the dense level-1 input stays on the tape and
    level 1's output is re-made), the sum and one ``relu_dropout`` (relu
    alone outside training).  The shipped block is one node and must be
    bit-equal to this while keeping less."""
    from xmtc.tensor import add, relu

    fused = params.level0_residual
    h, residual = split_columns(conv1d_dilated(embedded, fused, config.rates[0]),
                                fused.shape[2] // 2)
    for filt, rate in zip(params.levels, config.rates[1:]):
        h = conv1d_dilated(h, filt, rate)
    pre = add(h, residual)
    if not train:
        return relu(pre)
    keep = (rng.random(pre.shape) >= config.dropout if config.dropout > 0.0
            else np.ones(pre.shape, dtype=bool))
    return relu_dropout(pre, keep, 1.0 / (1.0 - config.dropout))


def dilated_stack(embedded, params, config):
    """Chain of dilated convolutions, one level per rate, over a
    ``TwoFilterBlock``."""
    h = embedded
    for filt, rate in zip(params.level_filters, config.rates):
        h = conv1d_dilated(h, filt, rate)
    return h


def unfused_residual_block(embedded, params, config):
    """One encoder block without dropout, its two branches run apart over a
    ``TwoFilterBlock``: the dilated chain, then the residual conv over the
    same input, summed and passed through relu.  The shipped block runs
    level 0 and the residual as one product and must reproduce this."""
    from xmtc.tensor import add, relu

    main = dilated_stack(embedded, params, config)
    residual = conv1d_dilated(embedded, params.residual_filter, config.rates[0])
    return relu(add(main, residual))


def conv1d_keeping_padded(x, filters, dilation, padding):
    """The dilated convolution whose tape node keeps its padded input ``xp``
    for backward, with the windows stacked slice by slice.  A tape op needs
    the engine's node plumbing (``_make``, ``_accumulate``); the arithmetic
    is written out here.  ``tensor.conv1d_dilated`` keeps no padded copy
    and must be bit-equal to this."""
    from xmtc.tensor import _accumulate, _make

    n, d_in = x.shape
    k, _, d_out = filters.shape
    xp = np.pad(x.data, ((padding, padding), (0, 0)))
    n_out = xp.shape[0] - dilation * (k - 1)

    def windows():
        taps = [xp[j * dilation : j * dilation + n_out] for j in range(k)]
        return np.stack(taps, axis=1).reshape(n_out, k * d_in)

    w2d = filters.data.reshape(k * d_in, d_out)

    def bwd(g):
        if filters.requires_grad:
            _accumulate(filters.cell, (windows().T @ g).reshape(k, d_in, d_out))
        if x.requires_grad:
            gwin = (g @ w2d.T).reshape(n_out, k, d_in)
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[j * dilation : j * dilation + n_out] += gwin[:, j, :]
            _accumulate(x.cell, gxp[padding : padding + n, :])

    return _make(windows() @ w2d, (x, filters), bwd)


def conv1d_keeping_input(x, filters, dilation):
    """A convolution with ``tensor.conv1d_dilated``'s signature whose node
    keeps its input's array (padded), whatever rebuild the input carries.
    The shipped convolution holds a rebuildable input's rebuild instead and
    must be bit-equal to this."""
    from xmtc.tensor import same_padding

    return conv1d_keeping_padded(x, filters, dilation, same_padding(filters.shape[0], dilation))


def transpose_keeping_copy(x):
    """A [d, n] transposed copy of ``x`` as a tape node, so a ``matmul`` that
    reads it as its right operand keeps the copy on the tape."""
    from xmtc.tensor import _accumulate, _make

    def bwd(g):
        _accumulate(x.cell, g.T)

    return _make(np.ascontiguousarray(x.data.T), (x,), bwd)


def row_softmax(x):
    """Max-subtracted softmax along the rows of a 2-d tensor, as a tape node
    that keeps its output for backward."""
    from xmtc.tensor import _accumulate, _make

    z = x.data - x.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    out = ez / ez.sum(axis=1, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        _accumulate(x.cell, out * (g - inner))

    return _make(out, (x,), bwd)


def four_node_attention(encoded, h_masked):
    """``attention.label_attention`` as four tape nodes: the transposed copy
    (``transpose_keeping_copy``), the score product, the softmax
    (``row_softmax``), which keeps alpha, and the context product.  The
    shipped attention is one node that re-derives the scores and alpha in
    backward and must be bit-equal to this."""
    from xmtc.attention import AttentionOutput
    from xmtc.tensor import matmul

    alpha = row_softmax(matmul(h_masked, transpose_keeping_copy(encoded)))
    return AttentionOutput(alpha=alpha.data, context=matmul(alpha, encoded))


def relu_then_dropout_block(embedded, params, config, train=False, rng=None):
    """``encoder.residual_block`` as per-op nodes that keep what they read:
    every convolution keeps its input (``conv1d_keeping_input``), the fused
    product splits into two column copies (``split_columns``), then the
    sum, a relu that keeps its bool mask and a dropout (none at dropout 0).
    The shipped block is one node that re-makes its activations in
    backward and must be bit-equal to this.  The engine's ops are read from
    ``xmtc.tensor`` when the block runs."""
    from xmtc import tensor

    fused = params.level0_residual
    h, residual = split_columns(conv1d_keeping_input(embedded, fused, config.rates[0]),
                                fused.shape[2] // 2)
    for filt, rate in zip(params.levels, config.rates[1:]):
        h = conv1d_keeping_input(h, filt, rate)
    out = tensor.relu(tensor.add(h, residual))
    if train and config.dropout > 0.0:
        out = tensor.dropout(out, rng.random(out.shape) >= config.dropout,
                             1.0 / (1.0 - config.dropout))
    return out


def concat_then_conv(x, filters, dilation, padding):
    """Filters side by side as a ``concat`` tape node, which keeps the
    stacked copy and its gradient, then one convolution that keeps ``xp``.
    A block's one ``level0_residual`` filter must be bit-equal to this over
    level 0's filter and the residual's."""
    from xmtc.tensor import concat

    return conv1d_keeping_padded(x, concat(list(filters), axis=2), dilation, padding)


def mul_dropout(x, p, rng):
    """Dropout as a product with a float64 keep-and-scale array, which the
    ``mul`` node keeps whole.  ``tensor.dropout`` keeps a bool mask and must
    be bit-equal to this on the same draw."""
    from xmtc.tensor import Tensor, mul

    keep = (rng.random(x.shape) >= p) / (1.0 - p)
    return mul(x, Tensor(keep))


def reference_encode(token_ids, embedding, blocks, config, train=False, rng=None):
    """``encoder.encode`` over ``TwoFilterBlock``s, written with the three
    paths above: ``mul`` dropout, level 0 and the residual as
    concat-then-conv, and every convolution keeping its padded input.
    ``encode`` must be bit-equal to this, output and gradients, on the same
    rng; the gradient of a block's ``level0_residual`` is level 0's and the
    residual's side by side."""
    from xmtc.tensor import add, gather_rows, relu, same_padding

    drop = train and config.dropout > 0.0
    k, rate0 = config.kernel_size, config.rates[0]
    h = gather_rows(embedding, np.asarray(token_ids, dtype=np.int64))
    if drop:
        h = mul_dropout(h, config.dropout, rng)
    for params in blocks:
        level0 = params.level_filters[0]
        pair = concat_then_conv(h, (level0, params.residual_filter), rate0,
                                same_padding(k, rate0))
        chain, residual = split_columns(pair, level0.shape[2])
        for filt, rate in zip(params.level_filters[1:], config.rates[1:]):
            chain = conv1d_keeping_padded(chain, filt, rate, same_padding(k, rate))
        h = relu(add(chain, residual))
        if drop:
            h = mul_dropout(h, config.dropout, rng)
    return h


def traced(fn):
    """(``fn()``, bytes still held after it, peak bytes during it), both
    counted from the traced memory when the call starts; tracemalloc runs
    only around the call."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - base, peak - base


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


def tensor_sum(x, axis=None):
    """The sum of a tensor's entries, over all of them or along ``axis``,
    as a tape node whose backward broadcasts ``g`` back over the summed
    entries."""
    from xmtc.tensor import _accumulate, _make

    if axis is not None:
        axis = int(axis)
    xc = x.cell

    def bwd(g):
        if axis is None:
            _accumulate(xc, np.full(xc.shape, 1.0) * g)
        else:
            _accumulate(xc, np.expand_dims(g, axis) * np.ones(xc.shape))

    return _make(x.data.sum(axis=axis), (x,), bwd)


@dataclass
class GradCheckReport:
    """Outcome of one analytic-vs-numeric gradient comparison."""

    max_rel_err: float
    tol: float
    passed: bool  # max_rel_err < tol


def grad_check(op, inputs, tol=1e-4, step=1e-5, seed=0):
    """Compare analytic gradients of ``op(*inputs)`` against central differences.

    The output is contracted to a scalar through a fixed random projection so
    structurally degenerate reductions (e.g. summing a softmax) cannot hide a
    wrong gradient.  Errors are measured relative to the gradient's own
    magnitude; the report passes when the worst error is below ``tol``.
    """
    from xmtc.tensor import GradTape, Tensor, mul

    rng = np.random.default_rng(seed)
    checked = [t for t in inputs if isinstance(t, Tensor) and t.requires_grad]
    if not checked:
        raise ValueError("grad_check needs at least one input with requires_grad")

    probe = None

    def scalar_loss():
        nonlocal probe
        out = op(*inputs)
        if probe is None:
            probe = rng.standard_normal(out.shape)
        return tensor_sum(mul(out, Tensor(probe)))

    for t in checked:
        t.zero_grad()
    with GradTape() as tape:
        loss = scalar_loss()
        tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in checked]

    errs = []
    for t, a in zip(checked, analytic):
        num = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        nflat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = float(scalar_loss().data)
            flat[i] = orig - step
            lo = float(scalar_loss().data)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2.0 * step)
        scale = max(np.abs(a).max(initial=0.0), np.abs(num).max(initial=0.0), 1e-8)
        errs.append(float(np.abs(a - num).max(initial=0.0) / scale))
    return GradCheckReport(max_rel_err=max(errs), tol=tol, passed=max(errs) < tol)


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


def dense_entries(entries, num_labels):
    """Dense [L, L] matrix of sparse (rows, cols, values) entries, which
    must name each (row, col) once, sorted by row, then column."""
    rows, cols, values = entries
    assert (np.diff(rows * num_labels + cols) > 0).all(), "entries not distinct and sorted"
    dense = np.zeros((num_labels, num_labels))
    dense[rows, cols] = values
    return dense


def csr_cooccurrence(train_docs, num_labels, lam):
    """The co-occurrence build counted through a CSR [N, L] occurrence
    matrix (``occur.T @ occur``, each row divided by its diagonal entry);
    returns (adjacency, P(j | i) as CSR, pair_count)."""
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
    terminology; returns {terminology: {code: (label ids, probabilities)}}."""
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
            tables[term][code] = (ids, count / code_counts[term][code])
    return tables


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


def recount_raw_aux_tables(docs):
    """Empirical P(label | code) of raw generator documents (dicts with
    label codes), by ``Counter`` recount: of the documents listing a code,
    the share that carries each label.  Returns {terminology: {code:
    {label code: probability}}}, the layout of ``GroundTruth.aux_tables``.
    """
    from xmtc.corpus import TERMINOLOGIES

    code_counts = {t: Counter() for t in TERMINOLOGIES}
    pair_counts = {t: {} for t in TERMINOLOGIES}
    for doc in docs:
        for term in TERMINOLOGIES:
            for code in doc.get(term, ()):
                code_counts[term][code] += 1
                pair_counts[term].setdefault(code, Counter()).update(set(doc.get("labels", ())))
    return {term: {code: {lab: cnt / code_counts[term][code] for lab, cnt in rows.items()}
                   for code, rows in pair_counts[term].items()}
            for term in TERMINOLOGIES}


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


def scipy_row_sums(ids, values, rows=None, weights=None):
    """``tensor.row_sums`` as scipy computes it: one product of a scipy CSR
    [U, len(values)] matrix, whose row u holds distinct id u's entries in
    input order (``weights[j]`` at column ``rows[j]``), with ``values``."""
    import scipy.sparse as sp

    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    order = np.argsort(ids, kind="stable")
    uniq, counts = np.unique(ids[order], return_counts=True)
    cols = order if rows is None else np.asarray(rows, dtype=np.int64).reshape(-1)[order]
    data = np.ones(ids.size) if weights is None else np.asarray(weights).reshape(-1)[order]
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return uniq, sp.csr_matrix((data, cols, indptr), shape=(uniq.size, values.shape[0])) @ values


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
    alpha[:, real] = att.alpha
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


def scipy_csr(m):
    """A ``tensor.Csr`` as the scipy CSR matrix that holds its ``indptr``,
    ``indices`` and ``data`` (1.0 where it holds none), so that a test can
    read it densely or by row, or multiply it by scipy's own product."""
    import scipy.sparse as sp

    data = np.ones(m.indices.size) if m.data is None else m.data
    return sp.csr_matrix((data, m.indices, m.indptr), shape=m.shape)


def csr_from_scipy(s):
    """The ``tensor.Csr`` that holds a scipy CSR matrix's ``indptr``,
    ``indices`` and ``data`` as they stand, repeated columns included."""
    from xmtc.tensor import Csr

    return Csr(s.indptr, s.indices, s.data, s.shape)


def scipy_descriptor_matrix(catalog, vocab):
    """The descriptor-average operator S [L, V] as scipy builds it from one
    (row, token, 1/Z) entry per descriptor-token occurrence: its COO -> CSR
    conversion sorts each row's tokens and sums a repeated token's
    entries."""
    import scipy.sparse as sp
    from xmtc.corpus import preprocess

    rows, cols, vals = [], [], []
    for i, descriptor in enumerate(catalog.descriptors):
        ids = vocab.encode(preprocess(descriptor))
        if ids:
            rows.extend([i] * len(ids))
            cols.extend(ids)
            vals.extend([1.0 / len(ids)] * len(ids))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(catalog), len(vocab)))


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


def graph_from_dense(adjacency, lam=1.0, pair_count=0):
    """A ``CooccurrenceGraph`` whose edges are the nonzeros of a dense [L, L]
    0/1 matrix, in ``save_graph``'s order; its diagonal is taken as given."""
    from xmtc.graph import CooccurrenceGraph

    rows, cols = np.nonzero(adjacency)
    return CooccurrenceGraph(adjacency.shape[0], rows, cols, lam=lam, pair_count=pair_count)


def csr_propagation(adjacency):
    """The GCN propagation matrix D^-1 (A + I) built from a dense [L, L]
    matrix: scipy's CSR sum of A and I, each row divided by its sum.  The
    edge-list construction must give its indptr, indices and data bit for
    bit."""
    import scipy.sparse as sp

    a = sp.csr_matrix(adjacency, dtype=np.float64) + sp.identity(adjacency.shape[0], format="csr")
    a.data /= np.repeat(np.asarray(a.sum(axis=1)).ravel(), np.diff(a.indptr))
    return a


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


def keep_everything_backward(tape, loss):
    """The reverse walk that frees nothing: every node stays on the tape and
    every intermediate keeps its gradient in its node's cell.
    ``GradTape.backward`` pops and clears as it goes and must leave the same
    gradients on the leaves."""
    loss.grad = np.ones((), dtype=np.float64)
    for cell, backward_fn in reversed(tape.nodes):
        if cell.grad is None:
            continue  # not on a path to the loss
        backward_fn(cell.grad)


def adam_step_expression(params, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step written as whole-array expressions, new arrays for the
    moments each time.  ``m`` and ``v`` map parameter names to moments and
    are rebound; ``t`` is the step number, from 1.  ``training.Adam.step``
    updates in place and must be bit-equal to this."""
    b1t = 1.0 - beta1 ** t
    b2t = 1.0 - beta2 ** t
    for name, p in params.items():
        g = 0.0 if p.grad is None else p.grad
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * g * g
        p.data -= lr * (m[name] / b1t) / (np.sqrt(v[name] / b2t) + eps)


@dataclass
class VerifyReport:
    """What ``verify`` found: the flagged document ids and one line per
    problem."""

    passed: bool
    flagged_docs: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def verify(docs, truth):
    """Audit a corpus against its ground truth.

    Checks per-document gold labels, clique closure, the planted aux-code
    implication (code fired => planted labels present), and recomputes the
    empirical conditional tables, which must match exactly.
    """
    from xmtc.corpus import TERMINOLOGIES

    flagged: set[str] = set()
    problems: list[str] = []
    clique_of: dict[str, set[str]] = {}
    for clique in truth.cliques:
        for member in clique:
            clique_of[member] = set(clique)

    known = []
    for doc in docs:
        doc_id = doc["doc_id"]
        labels = tuple(doc.get("labels", ()))
        expected = truth.doc_labels.get(doc_id)
        if expected is None:
            flagged.add(doc_id)
            problems.append(f"{doc_id}: not present in ground truth")
            continue
        known.append(doc)
        if tuple(labels) != expected:
            flagged.add(doc_id)
            problems.append(f"{doc_id}: labels {labels} != planted {expected}")
        label_set = set(labels)
        for lab in labels:
            missing = clique_of.get(lab, set()) - label_set
            if missing:
                flagged.add(doc_id)
                problems.append(f"{doc_id}: clique of {lab} missing {sorted(missing)}")
        for term in TERMINOLOGIES:
            for code in doc.get(term, ()):
                planted = set(truth.planted_aux.get(term, {}).get(code, ()))
                if planted and not planted <= label_set:
                    flagged.add(doc_id)
                    problems.append(f"{doc_id}: {term} code {code} fired without its labels")

    for term, recomputed in recount_raw_aux_tables(known).items():
        expected_tables = truth.aux_tables.get(term, {})
        if set(recomputed) != set(expected_tables):
            problems.append(f"{term}: code set differs from ground truth")
        else:
            for code, rows in recomputed.items():
                if rows != expected_tables[code]:
                    problems.append(f"{term}/{code}: conditional table differs from ground truth")

    return VerifyReport(passed=not flagged and not problems,
                        flagged_docs=sorted(flagged), problems=problems)
