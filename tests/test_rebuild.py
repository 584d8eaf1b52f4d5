"""Tensors that backward re-makes instead of keeping.

A gather from a parameter, a dropout over a rebuildable input and an
encoder block's output carry a ``rebuild`` function; a block's input and
the attention's keys are held as that function instead of the array, the
attention re-derives its weights in backward, and a block, one
``dilated_block`` node, re-makes its fused product and chain inputs in
backward unless they fit under ``tensor.KEEP_CHAIN_BYTES``, in which case
it keeps them.  These tests hold the model to the per-op paths of
``oracles`` (the block whose nodes keep their inputs, and the seven-node
block) and the re-making block to the keeping one bit for bit over two
train steps, bound what one block, one document and one short or long
multi-document step hold on either side of the limit, check that a
rebuild holds only arrays that live anyway or what its node keeps, that a
block's backward re-makes each of its products at most once above the
limit and none below it, and that the limit parts the benchmark's short
and long documents.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from xmtc import encoder, model as model_mod, tensor
from xmtc.corpus import DocumentRecord, build_vocab, encode_documents, preprocess
from xmtc.encoder import EncoderConfig
from xmtc.graph import build_cooccurrence
from xmtc.mask import DocMask, build_mask_index
from xmtc.model import model_from_artifacts
from xmtc.synth import generate, standard_spec
from xmtc.tensor import GradTape, Tensor, dropout, gather_rows, matmul, relu
from xmtc.training import Adam, batch_loss, clip_global_norm, doc_masks


@pytest.fixture(scope="module")
def corpus():
    spec = standard_spec(num_labels=40, num_docs=60, seed=5, doc_length=(20, 40))
    docs, catalog, _ = generate(spec)
    vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
    records = encode_documents(docs, vocab, catalog)
    graph = build_cooccurrence(records, len(catalog))
    index = build_mask_index(records, len(catalog), tau=0.05)
    return vocab, catalog, graph, index, records


def _two_steps(corpus, variant, dropout_p, num_blocks, rates, masks_kind, batch):
    """Loss, every parameter's gradient and every parameter after each of
    two Adam steps, as bytes, from one fixed initialisation."""
    vocab, catalog, graph, index, records = corpus
    model = model_from_artifacts(
        vocab, catalog, graph, dim=8, seed=2, variant=variant,
        encoder_config=EncoderConfig(kernel_size=3, rates=rates, dropout=dropout_p,
                                     num_blocks=num_blocks),
    )
    docs = records[:batch]
    if masks_kind == "empty":
        masks = [DocMask(labels=set(), vec=np.zeros(model.num_labels)) for _ in docs]
    else:
        masks = doc_masks(docs, model, index)
    optimizer = Adam(model.params, lr=1e-2)
    rng = np.random.default_rng(5)
    out = []
    for _ in range(2):
        model.params.zero_grads()
        with GradTape() as tape:
            loss = batch_loss(model, docs, masks, rng)
            tape.backward(loss)
        out.append(("loss", loss.data.tobytes()))
        out += [(f"grad {name}", None if p.grad is None else p.grad.tobytes())
                for name, p in model.params.items()]
        clip_global_norm(model.params, 5.0)
        optimizer.step()
        out += [(f"param {name}", p.data.tobytes()) for name, p in model.params.items()]
    return out


CASES = {  # variant, dropout, blocks, rates, masks, batch
    "rates_1_2_4": ("full", 0.3, 1, (1, 2, 4), "aux", 4),
    "rates_2_5_9": ("full", 0.3, 1, (2, 5, 9), "aux", 4),
    "rates_1": ("full", 0.3, 1, (1,), "aux", 4),  # no chain level after level 0
    "rates_1_2_4_8": ("full", 0.3, 1, (1, 2, 4, 8), "aux", 4),
    "no_dropout": ("full", 0.0, 1, (1, 2, 4), "aux", 4),  # level 0 reads the gather's rebuild
    "no_blocks": ("full", 0.3, 0, (1, 2, 4), "aux", 4),
    "two_blocks": ("full", 0.3, 2, (1, 2, 4), "aux", 4),  # block 1's input is re-made
    "two_blocks_no_dropout": ("full", 0.0, 2, (1, 2, 4, 8), "aux", 4),
    "signed_zeros": ("full", 0.3, 2, (1, 2, 4), "aux", 4),  # -0.0 pre-activations, see below
    "empty_masks": ("full", 0.3, 1, (1, 2, 4), "empty", 4),
    "no_mask": ("no_mask", 0.3, 1, (1, 2, 4), "aux", 4),
    "no_label_feature": ("no_label_feature", 0.3, 1, (2, 5, 9), "aux", 4),
    "batch_of_one": ("full", 0.3, 1, (1, 2, 4), "aux", 1),
}


def _signed_zeros(conv_product):
    """``conv_product`` whose output holds exactly -0.0 wherever it is not
    positive, so that a block's pre-activations hold -0.0 where both terms
    do.  Both blocks re-make what they read through it, so the gradients
    stay those of the changed values."""
    def conv_product_with_signed_zeros(x, filters, dilation):
        out = conv_product(x, filters, dilation)
        out[out <= 0.0] = -0.0
        return out

    return conv_product_with_signed_zeros


@pytest.mark.parametrize("case", sorted(CASES))
def test_two_train_steps_bit_equal_to_per_op_blocks(corpus, case, monkeypatch):
    """Against the seven-node block and, where the convolution is not
    patched, the block whose nodes keep their inputs with the four-node
    attention: the loss, every gradient and every parameter after each
    step."""
    if case == "signed_zeros":
        monkeypatch.setattr(tensor, "conv_product", _signed_zeros(tensor.conv_product))
    got = _two_steps(corpus, *CASES[case])
    references = [oracles.seven_node_block]
    if case != "signed_zeros":  # the keeping block has a convolution of its own
        references.append(oracles.relu_then_dropout_block)
    for reference in references:
        with monkeypatch.context() as patch:
            patch.setattr(encoder, "residual_block", reference)
            if reference is oracles.relu_then_dropout_block:
                patch.setattr(model_mod, "label_attention", oracles.four_node_attention)
            want = _two_steps(corpus, *CASES[case])
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            assert a == b, (reference.__name__, name)


BLOCKS = {"one_node": encoder.residual_block, "seven_nodes": oracles.seven_node_block}


def _block_input(n, d, rng):
    """What ``encode`` gives a first block in training: dropped-out rows of
    a parameter table, rebuildable from it and the packed mask."""
    table = Tensor(rng.standard_normal((50, d)), requires_grad=True, name="embedding")
    return dropout(gather_rows(table, rng.integers(0, 50, size=n)),
                   rng.random((n, d)) >= 0.2, 1.25)


def _block_node_bytes(block):
    """Bytes the tape holds for one training block at n=400, d=100, K=9,
    rates (1, 2, 4), dropout 0.2, over a rebuildable input, its output
    dropped at once; and the bound on a node that keeps no chain input."""
    n, d = 400, 100
    rng = np.random.default_rng(30)
    cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.2)
    params = encoder.init_block_params(cfg, d, rng)
    with GradTape():
        x = _block_input(n, d, rng)
        _, held, _ = oracles.traced(
            lambda: BLOCKS[block](x, params, cfg, train=True, rng=np.random.default_rng(0))
            and None)
    return held, 0.5 * n * d * 8 + n * d // 8 + 16 * 1024


@pytest.mark.parametrize("block", ["one_node", "seven_nodes"])
def test_block_node_holds_half_an_activation_and_one_packed_mask(block, monkeypatch):
    """Above the keep limit (here 0 bytes) the tape keeps the output's
    nonzeros (about 0.4 of an [n, d] float64 array, bounded by 0.5) and
    one bit-packed mask of n*d/8 bytes, plus 16 KiB of slack for the
    cells and closures.  The input is held as its rebuild, whose arrays
    the producing node keeps anyway.  The seven per-op nodes also keep the
    dense level-1 input and break the bound."""
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    held, bound = _block_node_bytes(block)
    n, d = 400, 100
    if block == "one_node":
        assert held <= bound, (held, held / (n * d * 8))
    else:
        assert held > bound, (held, held / (n * d * 8))


def test_block_node_below_the_limit_also_holds_its_chain_inputs(monkeypatch):
    """At n=400, d=100 and rates (1, 2, 4) the block's two chain inputs,
    2 * n * d * 8 = 640,000 bytes, are under the default limit: the node
    holds the re-making node's bound plus exactly those bytes, and the
    re-making node's bytes plus those and under 1 KiB of list."""
    n, d, m = 400, 100, 2
    assert m * n * d * 8 <= tensor.KEEP_CHAIN_BYTES
    held, bound = _block_node_bytes("one_node")
    assert held <= bound + m * n * d * 8, (held, held / (n * d * 8))
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    re_making, _ = _block_node_bytes("one_node")
    assert m * n * d * 8 <= held - re_making < m * n * d * 8 + 1024, (held, re_making)


def _forward_doc_bytes(corpus):
    """Bytes the tape holds for one training document at n=400, d=100,
    K=9, rates (1, 2, 4), dropout 0.2, and the bound on a tape whose block
    keeps no chain input."""
    vocab, catalog, graph, index, records = corpus
    n, d = 400, 100
    model = model_from_artifacts(
        vocab, catalog, graph, dim=d, seed=3,
        encoder_config=EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.2),
    )
    tokens = np.random.default_rng(4).integers(1, len(vocab), size=n)
    mask = doc_masks(records[:1], model, index)[0]
    assert mask.labels  # the attention runs
    with GradTape():
        h_label = model.label_representations()
        (y_hat, _), held, _ = oracles.traced(lambda: model.forward_doc(
            tokens, mask, h_label, train=True, rng=np.random.default_rng(0)))
    assert y_hat.shape == (model.num_labels,)
    return held, 0.5 * n * d * 8 + 2 * n * d // 8 + 128 * 1024


def test_forward_doc_tape_holds_the_nonzeros(corpus, monkeypatch):
    """Above the keep limit (here 0 bytes) the tape holds the encoded
    rows' nonzeros (about 0.4 of one float [n, d] array under dropout 0.2,
    bounded by 0.5) and two bit-packed masks (the embedding dropout's and
    the block's, n*d/8 bytes each).  The dropped-out embedding, every
    block activation, the transposed copy, alpha and the dense encoded
    rows are re-made in backward.  The slack, 128 KiB, covers the label
    side's [K_c, d] and [K_c + 1, d] arrays, its [L] arrays and the token
    ids, about 48 KB here.  The four-node attention's alpha, the kept
    encoded rows and a kept level-1 input each break the bound."""
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    n, d = 400, 100
    held, bound = _forward_doc_bytes(corpus)
    assert held <= bound, (held, held / (n * d * 8))


def test_forward_doc_tape_below_the_limit_holds_the_chain_inputs_too(corpus, monkeypatch):
    """At the default limit the document's one block also keeps its two
    chain inputs, 2 * n * d * 8 bytes: the bound is the re-making tape's
    plus exactly that, and the tape holds the re-making tape's bytes plus
    those and under 1 KiB of list, after one warm-up call."""
    n, d, m = 400, 100, 2
    _forward_doc_bytes(corpus)
    held, bound = _forward_doc_bytes(corpus)
    assert held <= bound + m * n * d * 8, (held, held / (n * d * 8))
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    re_making, _ = _forward_doc_bytes(corpus)
    assert m * n * d * 8 <= held - re_making < m * n * d * 8 + 1024, (held, re_making)


@pytest.mark.parametrize("block", sorted(BLOCKS))
def test_long_step_tape_and_backward_peak(corpus, block, monkeypatch):
    """A 16-document training step at d=100, K=9, rates (1, 2, 4), dropout
    0.2, documents 1,500-2,500 tokens long (long-docs' batch and lengths), under
    tracemalloc.  The forward tape holds at most 500 bytes per token: the
    block's nonzeros (about 320), two packed masks (25) and the token ids
    (8), plus the label side.  The backward peak is at most that plus 20
    float64 [n_max, d] arrays, the one-document transient of the block's
    backward (its re-made activations, the window buffers of K*d columns
    and the gradients in flight).  With the seven-node block, which keeps
    each document's dense level-1 input, the step breaks both bounds."""
    vocab, catalog, graph, index, records = corpus
    d = 100
    rng = np.random.default_rng(31)
    lengths = rng.integers(1500, 2500, size=16)
    docs = [DocumentRecord(doc_id=f"long{i}", labels=rec.labels, aux_codes=rec.aux_codes,
                           tokens=rng.integers(1, len(vocab), size=n).tolist())
            for i, (rec, n) in enumerate(zip(records, lengths))]
    model = model_from_artifacts(vocab, catalog, graph, dim=d, seed=3,
                                 encoder_config=EncoderConfig(dropout=0.2))
    masks = doc_masks(docs, model, index)
    monkeypatch.setattr(encoder, "residual_block", BLOCKS[block])

    def step():
        """Bytes held after the forward and the peak of the backward, both
        counted from when tracing starts."""
        with GradTape() as tape:
            loss = batch_loss(model, docs, masks, np.random.default_rng(0))
            forward = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            return forward, tracemalloc.get_traced_memory()[1]

    (forward, peak), _, _ = oracles.traced(step)
    tokens, n_max = sum(len(doc.tokens) for doc in docs), max(len(doc.tokens) for doc in docs)
    tape_bound = 500 * tokens
    peak_bound = tape_bound + 20 * n_max * d * 8
    seen = (forward / tokens, (peak - forward) / (n_max * d * 8))
    if block == "one_node":
        assert forward <= tape_bound and peak <= peak_bound, seen
    else:
        assert forward > tape_bound and peak > peak_bound, seen


def _float_arrays(fn, seen=None):
    """The float arrays a rebuild's closure holds, through nested rebuilds."""
    seen = set() if seen is None else seen
    found = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray) and value.dtype == np.float64:
            found.append(value)
        elif callable(value) and getattr(value, "__closure__", None) and id(value) not in seen:
            seen.add(id(value))
            found += _float_arrays(value, seen)
    return found


class TestRebuildHoldsWhatLivesAnyway:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.table = Tensor(rng.standard_normal((12, 5)), requires_grad=True, name="embedding")
        self.ids = rng.integers(0, 12, size=30)
        self.keep = rng.random((30, 5)) >= 0.2
        self.cfg = EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.2)
        self.params = encoder.init_block_params(self.cfg, 5, rng)

    def test_gather_from_a_parameter_holds_the_parameter_array(self):
        with GradTape():
            out = gather_rows(self.table, self.ids)
        [held] = _float_arrays(out.rebuild)
        assert held is self.table.data
        assert out.rebuild().tobytes() == out.data.tobytes()

    def test_dropout_over_a_gather_holds_the_parameter_array(self):
        with GradTape():
            out = dropout(gather_rows(self.table, self.ids), self.keep, 1.25)
        [held] = _float_arrays(out.rebuild)
        assert held is self.table.data
        assert out.rebuild().tobytes() == out.data.tobytes()

    def test_block_output_holds_only_its_nonzeros(self):
        """A block's output rebuild holds one float array, the output's
        values other than +0.0, and no array of its input or filters."""
        with GradTape():
            x = Tensor(np.random.default_rng(9).standard_normal((30, 5)))
            out = encoder.residual_block(x, self.params, self.cfg, train=True,
                                         rng=np.random.default_rng(1))
        [held] = _float_arrays(out.rebuild)
        assert held.size == np.count_nonzero(out.data.view(np.uint64)) < out.size
        assert out.rebuild().tobytes() == out.data.tobytes()

    def test_what_cannot_be_re_made_from_a_live_array_has_no_rebuild(self):
        # unrecorded, a block's rebuild would only pin its values
        x = Tensor(self.table.data[self.ids])
        assert encoder.residual_block(x, self.params, self.cfg).rebuild is None
        with GradTape():
            computed = matmul(self.table, Tensor(np.ones((5, 5))))
            assert gather_rows(computed, self.ids).rebuild is None  # not a parameter
            assert gather_rows(Tensor(self.table.data), self.ids).rebuild is None  # a constant
            activated = relu(gather_rows(self.table, self.ids))
            assert activated.rebuild is None
            assert dropout(activated, self.keep, 1.25).rebuild is None


def _window_products(monkeypatch):
    """Window buffers built by two training blocks at rates (1, 2, 4, 8),
    n = 40, d = 6: in the forward, and in the backward."""
    n, d = 40, 6
    rng = np.random.default_rng(12)
    cfg = EncoderConfig(kernel_size=3, rates=(1, 2, 4, 8), num_blocks=2, dropout=0.2)
    table = Tensor(rng.standard_normal((20, d)), requires_grad=True)
    blocks = [encoder.init_block_params(cfg, d, rng, prefix=f"block{b}") for b in range(2)]
    windows = []
    products = tensor._windows
    monkeypatch.setattr(tensor, "_windows", lambda *a: windows.append(1) or products(*a))
    with GradTape() as tape:
        out = encoder.encode(rng.integers(0, 20, size=n), table, blocks, cfg, train=True,
                             rng=np.random.default_rng(0))
        forward = len(windows)
        loss = oracles.tensor_sum(out)
        windows.clear()
        tape.backward(loss)
    return forward, len(windows)


def test_block_backward_re_makes_each_product_once(monkeypatch):
    """Above the keep limit (here 0 bytes), rates (1, 2, 4, 8), two
    training blocks: each block's forward runs four window products, and
    its backward seven: the fused product and the inputs of levels 2 and 3
    re-made, then one per convolution for its filter gradient.  A block's
    input is re-made by a gather and a mask or by a scatter of the
    previous block's values, never by a convolution, so no re-make runs
    another block's products."""
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    assert _window_products(monkeypatch) == (2 * 4, 2 * 7)


def test_block_backward_below_the_limit_re_makes_no_product(monkeypatch):
    """The same blocks under the default limit (their chain inputs take
    3 * 40 * 6 * 8 bytes each): the backward runs four window products per
    block, one per convolution for its filter gradient, and re-makes none."""
    assert 3 * 40 * 6 * 8 <= tensor.KEEP_CHAIN_BYTES
    assert _window_products(monkeypatch) == (2 * 4, 2 * 4)


# ---------------------------------------------------------------------------
# the keep rule: a recorded block keeps its chain inputs when they are small

KEEP_CASES = {  # variant, dropout, blocks, rates, masks, batch
    "dropout": ("full", 0.2, 1, (1, 2, 4), "aux", 4),
    "no_dropout": ("full", 0.0, 1, (1, 2, 4), "aux", 4),
    "two_blocks": ("full", 0.2, 2, (1, 2, 4), "aux", 4),
    "rates_1_2_4_8": ("full", 0.2, 1, (1, 2, 4, 8), "aux", 4),
    "rates_1": ("full", 0.2, 1, (1,), "aux", 4),  # no chain input to keep
    "empty_masks": ("full", 0.2, 1, (1, 2, 4), "empty", 4),
    "no_mask": ("no_mask", 0.2, 1, (1, 2, 4), "aux", 4),
    "batch_of_one": ("full", 0.2, 1, (1, 2, 4), "aux", 1),
}


@pytest.mark.parametrize("case", sorted(KEEP_CASES))
def test_two_train_steps_bit_equal_keeping_or_re_making(corpus, case, monkeypatch):
    """Three limits over the same two train steps: the default, under
    which every block of these documents keeps its chain inputs; one
    between the batch's lengths, so that its shorter documents keep them
    and its longer ones re-make them; and 0, under which every block
    re-makes them.  The loss, every gradient and every parameter after
    each Adam step are the same bits under all three."""
    _, _, _, rates, _, batch = KEEP_CASES[case]
    lengths = sorted(np.count_nonzero(doc.tokens) for doc in corpus[4][:batch])
    split = lengths[(batch - 1) // 2]
    assert batch == 1 or lengths[0] <= split < lengths[-1]
    m, c = len(rates) - 1, 8  # _two_steps' model has dim 8
    assert m * lengths[-1] * c * 8 <= tensor.KEEP_CHAIN_BYTES
    got = []
    for limit in (tensor.KEEP_CHAIN_BYTES, m * split * c * 8, 0):
        monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", limit)
        got.append(_two_steps(corpus, *KEEP_CASES[case]))
    assert got[0] == got[2] and got[1] == got[2]


def _block_args(n, d, rates, rng):
    """A block's input, fused filter, later filters and dropout mask."""
    k = 3
    x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    fused = Tensor(rng.standard_normal((k, d, 2 * d)) / d, requires_grad=True)
    levels = [Tensor(rng.standard_normal((k, d, d)) / d, requires_grad=True) for _ in rates[1:]]
    return x, fused, levels, rng.random((n, d)) >= 0.2


def test_kept_chain_inputs_are_the_forwards_own_and_re_made_bit_for_bit():
    """Below the limit the node's closure holds m arrays of [n, c]: level
    0's half of the fused product and each later level's input, not the
    last level's output.  Each has the bits of what the re-making path
    would build in backward."""
    rates, n, d = (1, 2, 4, 8), 30, 5
    x, fused, levels, keep = _block_args(n, d, rates, np.random.default_rng(40))
    with GradTape() as tape:
        tensor.dilated_block(x, fused, levels, rates, keep, 1.25)
        bwd = tape.nodes[-1][1]
    kept = bwd.__closure__[bwd.__code__.co_freevars.index("kept")].cell_contents
    want = [np.ascontiguousarray(tensor.conv_product(x.data, fused.data, rates[0])[:, :d])]
    for f, rate in zip(levels[:-1], rates[1:-1]):
        want.append(tensor.conv_product(want[-1], f.data, rate))
    assert [a.shape for a in kept] == [(n, d)] * (len(rates) - 1)
    assert [a.tobytes() for a in kept] == [a.tobytes() for a in want]


@pytest.mark.parametrize("how", ["no_tape", "no_parameter", "recorded"])
def test_unrecorded_block_keeps_nothing(how):
    """A block outside a tape, or over inputs none of which requires a
    gradient (validation, evaluate, predict), leaves only its output
    alive: no tape node, no rebuild and no kept chain input.  The recorded
    block under the limit holds its m chain inputs on top."""
    rates, n, d = (1, 2, 4), 300, 100
    x, fused, levels, keep = _block_args(n, d, rates, np.random.default_rng(41))
    if how == "no_parameter":
        for t in (x, fused, *levels):
            t.requires_grad = False

    def block():
        return tensor.dilated_block(x, fused, levels, rates, keep, 1.25)

    if how == "no_tape":
        out, held, _ = oracles.traced(block)
        nodes = []
    else:
        with GradTape() as tape:
            out, held, _ = oracles.traced(block)
        nodes = tape.nodes
    kept = (len(rates) - 1) * n * d * 8
    if how == "recorded":
        assert len(nodes) == 1 and held > out.data.nbytes + kept
    else:
        assert nodes == [] and out.rebuild is None
        assert held <= out.data.nbytes + 4 * 1024, held


def test_short_step_holds_only_parameter_gradients_after_backward(corpus, monkeypatch):
    """A 16-document training step at d=100, K=9, rates (1, 2, 4), dropout
    0.2, documents 150-300 tokens long (many-labels' and pipeline's
    lengths), so every block keeps its chain inputs, under tracemalloc
    after one warm-up step.  The forward tape holds what the re-making
    tape (limit 0) holds plus the kept inputs, 2 * n * d * 8 bytes per
    document, and under 1 KiB per document besides.  After backward the
    step holds the parameter gradients plus 64 KiB (the loss tensor and
    small library caches, 21-28 KB on either path), less than one kept
    [n, d] array: every kept input died in the walk."""
    vocab, catalog, graph, index, records = corpus
    d = 100
    rng = np.random.default_rng(32)
    lengths = rng.integers(150, 300, size=16)
    docs = [DocumentRecord(doc_id=f"short{i}", labels=rec.labels, aux_codes=rec.aux_codes,
                           tokens=rng.integers(1, len(vocab), size=n).tolist())
            for i, (rec, n) in enumerate(zip(records, lengths))]
    model = model_from_artifacts(vocab, catalog, graph, dim=d, seed=3,
                                 encoder_config=EncoderConfig(dropout=0.2))
    masks = doc_masks(docs, model, index)

    def step():
        with GradTape() as tape:
            loss = batch_loss(model, docs, masks, np.random.default_rng(0))
            forward = tracemalloc.get_traced_memory()[0]
            tape.backward(loss)
        return forward, loss

    def measured():
        model.params.zero_grads()
        (forward, _), held, _ = oracles.traced(step)
        return forward, held, sum(p.grad.nbytes for _, p in model.params.items())

    step()
    forward, held, grad_bytes = measured()
    monkeypatch.setattr(tensor, "KEEP_CHAIN_BYTES", 0)
    re_making, _, _ = measured()
    tokens = int(lengths.sum())
    kept = 2 * tokens * d * 8
    assert kept <= forward - re_making < kept + 16 * 1024, (forward, re_making)
    assert held <= grad_bytes + 64 * 1024, (held, grad_bytes)


@pytest.mark.parametrize("n, keeps", [(300, True), (1500, False)])
def test_the_limit_parts_the_benchmark_lengths(n, keeps, monkeypatch):
    """At the default embedding size and rates, a 300-token document (the
    longest of many-labels and pipeline) keeps its chain inputs and a
    1,500-token one (the shortest of long-docs) re-makes them: its
    backward runs the fused product and level 1 again, two window
    products on top of one per convolution.  A limit that moves a
    benchmark workload across fails here."""
    from xmtc.config import RunConfig

    d, rates = RunConfig().embedding_size, EncoderConfig().rates
    x, fused, levels, keep = _block_args(n, d, rates, np.random.default_rng(42))
    windows = []
    products = tensor._windows
    monkeypatch.setattr(tensor, "_windows", lambda *a: windows.append(1) or products(*a))
    with GradTape() as tape:
        loss = oracles.tensor_sum(tensor.dilated_block(x, fused, levels, rates, keep, 1.25))
        windows.clear()
        tape.backward(loss)
    assert len(windows) == len(rates) + (0 if keeps else 2)
