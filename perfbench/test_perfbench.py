"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from stats import nearest_rank, tail_percentile  # noqa: E402
from tracing import Tracer, install, layer_metrics, layer_self_seconds, self_times  # noqa: E402
from xmtc import synth, training  # noqa: E402
from xmtc.corpus import build_vocab, encode_documents, preprocess  # noqa: E402
from xmtc.encoder import EncoderConfig  # noqa: E402
from xmtc.graph import build_cooccurrence  # noqa: E402
from xmtc.mask import DocMask, build_mask_index  # noqa: E402
from xmtc.model import model_from_artifacts  # noqa: E402


# ---------------------------------------------------------------------------
# percentiles


@pytest.mark.parametrize("n, pct", [(100, 90), (99, 89), (110, 90), (200, 95), (1000, 99),
                                    (20, 50), (11, 9), (10, 0), (0, 0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(11, 400):
        pct = tail_percentile(n)
        beyond = sum(1 for v in range(1, n + 1) if v > nearest_rank(range(1, n + 1), pct))
        assert beyond >= 10
        if pct < 99:
            nxt = sum(1 for v in range(1, n + 1) if v > nearest_rank(range(1, n + 1), pct + 1))
            assert nxt < 10


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(values, 50) == 3.0
    assert nearest_rank(values, 90) == 5.0
    assert nearest_rank(values, 1) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


# ---------------------------------------------------------------------------
# spans


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_from_nested_spans():
    # encoder.fwd [0, 10] holds tensor.a [1, 4] which holds tensor.b [2, 3];
    # encoder.fwd also holds attention.fwd [5, 9]
    t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    with t.span("encoder.fwd", ref=7):
        with t.span("tensor.a"):
            with t.span("tensor.b"):
                pass
        with t.span("attention.fwd"):
            pass
    assert [s[0] for s in t.spans] == ["encoder.fwd", "tensor.a", "tensor.b", "attention.fwd"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]
    assert all(s[4] == 7 for s in t.spans)  # children inherit the step or document id
    assert self_times(t.spans) == [3, 2, 1, 4]
    layers = layer_self_seconds(t.spans)
    assert layers["encoder"] == 3 and layers["tensor"] == 3 and layers["attention"] == 4
    assert sum(layers.values()) == 10  # self times partition the root span


def test_spans_must_close_in_order():
    t = Tracer()
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)


# ---------------------------------------------------------------------------
# backward attribution on a small model


@pytest.fixture(scope="module")
def small():
    spec = synth.standard_spec(num_labels=30, num_docs=80, seed=4, doc_length=(150, 250))
    docs, catalog, _ = synth.generate(spec)
    vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
    records = encode_documents(docs, vocab, catalog)
    g = build_cooccurrence(records, len(catalog))
    index = build_mask_index(records, len(catalog))
    model = model_from_artifacts(vocab, catalog, g, dim=48, seed=0,
                                 encoder_config=EncoderConfig(kernel_size=5))
    init = {k: p.data.copy() for k, p in model.params.items()}
    return model, init, records[:16], records[16:20], index


def _train(small):
    model, init, train_docs, val_docs, index = small
    model.params.load_arrays(init)
    cfg = training.TrainConfig(lr=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    return training.train(train_docs, val_docs, model, index, cfg, ks=(8,))


def test_backward_attribution_sums_to_the_reverse_pass(small):
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        _train(small)
    finally:
        uninstall()
    values = layer_metrics(tracer.spans, tracer.counts, tracer.nodes_per_step)
    train_docs = 16
    per_doc_bwd = sum(values[k] for k in ("encoder.bwd_ms", "attention.bwd_ms",
                                          "attention.classify_bwd_ms", "mask.apply_bwd_ms",
                                          "tensor.bce_bwd_ms"))
    steps = len(tracer.nodes_per_step)
    layered = per_doc_bwd * train_docs / steps + values["graph.label_side_bwd_ms"]
    assert steps == 2
    assert layered == pytest.approx(values["tensor.backward_ms"], rel=0.05)
    assert values["tensor.bwd_attributed_share"] > 0.95
    assert not [s for s in tracer.spans if s[0] == "tensor.unattributed_bwd"]
    assert values["training.step_coverage"] > 0.9
    assert values["encoder.fwd_ms"] > 0 and values["graph.label_side_fwd_ms"] > 0


def test_tracing_leaves_results_and_functions_unchanged(small):
    from xmtc import model as model_mod

    plain = _train(small).history[-1].train_loss
    original = model_mod.encode
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert model_mod.encode is not original
        traced = _train(small).history[-1].train_loss
    finally:
        uninstall()
    assert model_mod.encode is original
    assert traced == plain


# ---------------------------------------------------------------------------
# output checks


def test_check_scores_counts_gating_violations():
    from workloads import Outcome, check_scores

    mk = DocMask(labels={0, 2}, vec=np.array([1.0, 0.0, 1.0, 0.0]))
    outcome = Outcome()
    check_scores(np.array([0.9, 0.0, 0.2, 0.0]), mk, "ok", outcome)
    check_scores(np.array([0.9, 0.1, 0.2, 0.0]), mk, "outside mask", outcome)
    check_scores(np.array([0.9, 0.0, 1.2, 0.0]), mk, "above one", outcome)
    check_scores(np.array([np.nan, 0.0, 0.2, 0.0]), mk, "nan", outcome)
    check_scores(np.array([0.9, 0.3, 0.2, 0.0]), DocMask(set(), np.zeros(4)), "empty mask", outcome)
    assert outcome.attempted == 5
    assert [f.split(":")[0] for f in outcome.failures] == ["outside mask", "above one", "nan"]
