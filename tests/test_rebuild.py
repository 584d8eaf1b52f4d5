"""Tensors that backward re-makes instead of keeping.

A gather from a parameter, a dropout over a rebuildable input and an
encoder block's output carry a ``rebuild`` function; a block's input and
the attention's keys are held as that function instead of the array, the
attention re-derives its weights in backward, and a block, one
``dilated_block`` node, re-makes its fused product and chain inputs in
backward.  These tests hold the model to the per-op paths of ``oracles``
(the block whose nodes keep their inputs, and the seven-node block) bit
for bit over two train steps, bound what one block, one document and one
long multi-document step hold, check that a rebuild holds only arrays that
live anyway or what its node keeps, and that a block's backward re-makes
each of its products at most once.
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
from xmtc.tensor import GradTape, Tensor, dropout, gather_rows, matmul, relu, tensor_sum
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


@pytest.mark.parametrize("block", ["one_node", "seven_nodes"])
def test_block_node_holds_half_an_activation_and_one_packed_mask(block):
    """One training block at n=400, d=100, K=9, rates (1, 2, 4), dropout
    0.2, over a rebuildable input, its output dropped at once: the tape
    keeps the output's nonzeros (about 0.4 of an [n, d] float64 array,
    bounded by 0.5) and one bit-packed mask of n*d/8 bytes, plus 16 KiB
    of slack for the cells and closures.  The input is held as its
    rebuild, whose arrays the producing node keeps anyway.  The seven
    per-op nodes also keep the dense level-1 input and break the bound."""
    n, d = 400, 100
    rng = np.random.default_rng(30)
    cfg = EncoderConfig(kernel_size=9, rates=(1, 2, 4), dropout=0.2)
    params = encoder.init_block_params(cfg, d, rng)
    with GradTape():
        x = _block_input(n, d, rng)
        _, held, _ = oracles.traced(
            lambda: BLOCKS[block](x, params, cfg, train=True, rng=np.random.default_rng(0))
            and None)
    bound = 0.5 * n * d * 8 + n * d // 8 + 16 * 1024
    if block == "one_node":
        assert held <= bound, (held, held / (n * d * 8))
    else:
        assert held > bound, (held, held / (n * d * 8))


def test_forward_doc_tape_holds_the_nonzeros(corpus):
    """One training document at n=400, d=100, K=9, rates (1, 2, 4): the tape
    holds the encoded rows' nonzeros (about 0.4 of one float [n, d] array
    under dropout 0.2, bounded by 0.5) and two bit-packed masks (the
    embedding dropout's and the block's, n*d/8 bytes each).  The
    dropped-out embedding, every block activation, the transposed copy,
    alpha and the dense encoded rows are re-made in backward.  The slack,
    128 KiB, covers the label side's [K_c, d] and [K_c + 1, d] arrays, its
    [L] arrays and the token ids, about 48 KB here.  The four-node
    attention's alpha, the kept encoded rows and a kept level-1 input each
    break the bound."""
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
    bound = 0.5 * n * d * 8 + 2 * n * d // 8 + 128 * 1024
    assert held <= bound, (held, held / (n * d * 8))


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


def test_block_backward_re_makes_each_product_once(monkeypatch):
    """Rates (1, 2, 4, 8), two training blocks: each block's forward runs
    four window products, and its backward seven: the fused product and
    the inputs of levels 2 and 3 re-made, then one per convolution for its
    filter gradient.  A block's input is re-made by a gather and a mask or
    by a scatter of the previous block's values, never by a convolution,
    so no re-make runs another block's products."""
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
        assert len(windows) == 2 * 4
        loss = tensor_sum(out)
        windows.clear()
        tape.backward(loss)
    assert len(windows) == 2 * 7
