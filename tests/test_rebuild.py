"""Tensors that backward re-makes instead of keeping.

A gather from a parameter, a dropout over a rebuildable input, a recorded
convolution over an input with no rebuild and a training block's
``relu_dropout`` output carry a ``rebuild`` function; the convolution's
input and the attention's keys are held as that function instead of the
array, and the attention re-derives its weights in backward.  These tests
hold the model to the keeping paths of ``oracles`` bit for bit over two
train steps, bound what one document's tape holds, check that a rebuild
holds only arrays that live anyway or what its node keeps, and that no
rebuild re-runs another convolution's.
"""

import numpy as np
import pytest

import oracles
from xmtc import encoder, model as model_mod, tensor
from xmtc.corpus import build_vocab, encode_documents, preprocess
from xmtc.encoder import EncoderConfig
from xmtc.graph import build_cooccurrence
from xmtc.mask import DocMask, build_mask_index
from xmtc.model import model_from_artifacts
from xmtc.synth import generate, standard_spec
from xmtc.tensor import (GradTape, Tensor, conv1d_dilated, dropout, gather_rows, matmul, relu,
                         tensor_sum)
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


def _two_steps(corpus, variant, dropout_p, num_blocks, masks_kind, batch):
    """Loss, every parameter's gradient and every parameter after each of
    two Adam steps, as bytes, from one fixed initialisation."""
    vocab, catalog, graph, index, records = corpus
    model = model_from_artifacts(
        vocab, catalog, graph, dim=8, seed=2, variant=variant,
        encoder_config=EncoderConfig(kernel_size=3, rates=(1, 2), dropout=dropout_p,
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


CASES = {
    "dropout": ("full", 0.2, 1, "aux", 4),
    "no_dropout": ("full", 0.0, 1, "aux", 4),  # conv 0 reads the gather's rebuild
    "two_blocks": ("full", 0.2, 2, "aux", 4),  # block 1's level-0 input is re-made
    "signed_zeros": ("full", 0.2, 2, "aux", 4),  # -0.0 pre-activations, see below
    "empty_masks": ("full", 0.2, 1, "empty", 4),
    "no_mask": ("no_mask", 0.2, 1, "aux", 4),
    "no_label_feature": ("no_label_feature", 0.2, 1, "aux", 4),
    "batch_of_one": ("full", 0.2, 1, "aux", 1),
}


def _signed_zeros(add):
    """``add`` whose output holds exactly -0.0 wherever it is not positive:
    the encoder's pre-activations that relu zeroes (``add``'s backward
    reads no array, so the gradients stay those of the changed values)."""
    def add_with_signed_zeros(a, b):
        out = add(a, b)
        out.data[out.data <= 0.0] = -0.0
        return out

    return add_with_signed_zeros


@pytest.mark.parametrize("case", sorted(CASES))
def test_two_train_steps_bit_equal_to_keeping_path(corpus, case, monkeypatch):
    if case == "signed_zeros":  # the block reads encoder.add, the oracle tensor.add
        monkeypatch.setattr(encoder, "add", _signed_zeros(encoder.add))
        monkeypatch.setattr(tensor, "add", _signed_zeros(tensor.add))
    got = _two_steps(corpus, *CASES[case])
    monkeypatch.setattr(model_mod, "label_attention", oracles.four_node_attention)
    monkeypatch.setattr(encoder, "residual_block", oracles.relu_then_dropout_block)
    want = _two_steps(corpus, *CASES[case])
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert a == b, name


def test_forward_doc_tape_holds_one_activation_and_the_nonzeros(corpus):
    """One training document at n=400, d=100, K=9, rates (1, 2, 4): the tape
    holds level 1's input (1 float [n, d] array), the encoded rows'
    nonzeros (about 0.4 of one array under dropout 0.2, bounded by 0.5)
    and two bit-packed masks (the embedding dropout's and the
    ``relu_dropout`` node's, n*d/8 bytes each).  The dropped-out
    embedding, level 1's output (level 2's input), the transposed copy,
    alpha and the dense encoded rows are re-made in backward.  The slack,
    128 KiB, covers the label side's [K_c, d] and [K_c + 1, d] arrays, its
    [L] arrays and the token ids, about 48 KB here.  The four-node
    attention's alpha, the kept encoded rows and a kept level-2 input each
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
    bound = 1.5 * n * d * 8 + 2 * n * d // 8 + 128 * 1024
    assert held <= bound, (held, held / (n * d * 8))


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

    def test_convolution_over_a_plain_input_holds_its_input_and_its_filters(self):
        x = Tensor(np.random.default_rng(9).standard_normal((30, 5)))
        filters = Tensor(np.random.default_rng(10).standard_normal((3, 5, 4)), requires_grad=True)
        with GradTape():
            out = conv1d_dilated(x, filters, 2)
        held = _float_arrays(out.rebuild)
        assert len(held) == 2
        assert {id(a if a.base is None else a.base) for a in held} == {id(x.data), id(filters.data)}
        assert out.rebuild().tobytes() == out.data.tobytes()

    def test_what_cannot_be_re_made_from_a_live_array_has_no_rebuild(self):
        filters = Tensor(np.ones((3, 5, 5)), requires_grad=True)
        # unrecorded, a convolution's rebuild would only pin its input
        assert conv1d_dilated(Tensor(self.table.data), filters, 1).rebuild is None
        with GradTape():
            computed = matmul(self.table, Tensor(np.ones((5, 5))))
            assert gather_rows(computed, self.ids).rebuild is None  # not a parameter
            assert gather_rows(Tensor(self.table.data), self.ids).rebuild is None  # a constant
            activated = relu(gather_rows(self.table, self.ids))
            assert activated.rebuild is None
            assert dropout(activated, self.keep, 1.25).rebuild is None
            # over a rebuildable input, a rebuild would re-run the input's
            assert conv1d_dilated(gather_rows(self.table, self.ids), filters, 1).rebuild is None


def test_no_rebuild_re_runs_another_convolutions(monkeypatch):
    """Rates (1, 2, 4, 8): levels 1 and 3 carry a rebuild over their plain
    inputs, and each rebuild runs one window product.  A training block's
    backward runs five: one per convolution for its filter gradient and
    one for level 1's output, which level 2 reads; level 3's output feeds
    only the sum, which reads nothing.  A rebuild over a rebuild, at any
    depth, runs more."""
    n, d = 40, 6
    rng = np.random.default_rng(12)
    cfg = EncoderConfig(kernel_size=3, rates=(1, 2, 4, 8), dropout=0.2)
    table = Tensor(rng.standard_normal((20, d)), requires_grad=True)
    params = encoder.init_block_params(cfg, d, rng)
    windows = []
    products = tensor._windows
    monkeypatch.setattr(tensor, "_windows", lambda *a: windows.append(1) or products(*a))

    x = Tensor(rng.standard_normal((n, d)))
    with GradTape():
        chain = [x]
        for filters, rate in zip(params.levels, cfg.rates[1:]):
            chain.append(conv1d_dilated(chain[-1], filters, rate))
    assert [t.rebuild is not None for t in chain[1:]] == [True, False, True]
    for t in chain[1::2]:
        windows.clear()
        assert t.rebuild().tobytes() == t.data.tobytes()
        assert len(windows) == 1

    with GradTape() as tape:
        out = encoder.encode(rng.integers(0, 20, size=n), table, [params], cfg, train=True,
                             rng=np.random.default_rng(0))
        loss = tensor_sum(out)
        windows.clear()
        tape.backward(loss)
    assert len(windows) == 5
