"""Tests for the optimizer, training loop, checkpointing, and ablation."""

import json
import logging
import struct
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import adam_step_expression, keep_everything_backward
from xmtc.corpus import PAD_ID, DocumentRecord, LabelCatalog, build_vocab
from xmtc.encoder import EncoderConfig
from xmtc.errors import ConfigError, DataError, DivergenceError, GradTapeError
from xmtc.graph import build_cooccurrence
from xmtc.mask import DocMask, build_mask_index, make_doc_mask
from xmtc.model import ModelParams, model_from_artifacts
from xmtc.tensor import GradCell, GradTape, Tensor, mul
from xmtc.training import (
    ADAM_BLOCK,
    Adam,
    TrainConfig,
    batch_loss,
    clip_global_norm,
    collect_scores,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    score_docs,
    train,
)


class TestAdam:
    def test_matches_scalar_hand_oracle(self):
        """Ten steps on f(x) = x^2 against an inline reference update."""
        params = ModelParams()
        x = Tensor(np.array(3.0), requires_grad=True, name="x")
        params.register(x)
        opt = Adam(params, lr=0.1)

        ref_x, m, v = 3.0, 0.0, 0.0
        b1, b2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 11):
            grad = 2.0 * float(x.data)
            x.grad = np.array(grad)
            opt.step()
            x.zero_grad()

            g = 2.0 * ref_x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref_x -= 0.1 * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            assert abs(float(x.data) - ref_x) < 1e-12

    def test_missing_gradient_steps_as_zero_gradient(self):
        """A parameter no backward pass reached steps exactly as with an
        all-zero gradient: unmoved on the first step, carried by its
        decaying momentum after that."""
        paths = []
        for zero in (None, np.zeros(3)):
            params = ModelParams()
            a = Tensor(np.ones(3), requires_grad=True, name="a")
            params.register(a)
            opt = Adam(params, lr=0.5)
            a.grad = zero
            opt.step()
            np.testing.assert_array_equal(a.data, np.ones(3))
            for grad in (np.array([1.0, -2.0, 0.5]), zero, zero):
                a.grad = grad
                opt.step()
            paths.append(a.data.copy())
        np.testing.assert_array_equal(paths[0], paths[1])
        assert not np.array_equal(paths[0], np.ones(3))

    def test_in_place_step_bit_equal_to_expressions(self):
        """Eight steps over parameters of six shapes, against the
        whole-array expressions of ``oracles.adam_step_expression``; one of
        exactly one block, and one of two blocks and a partial one.  The 1-d
        parameters "vec" and "blocks" have no gradient on steps 2, 5 and 6.
        Parameters and both moments must match bit for bit after every
        step."""
        rng = np.random.default_rng(21)
        shapes = {"scalar": (), "vec": (7,), "mat": (5, 3), "cube": (2, 4, 3),
                  "block": (ADAM_BLOCK // 64, 64), "blocks": (2 * ADAM_BLOCK + 7,)}
        init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}

        def registry():
            params = ModelParams()
            for name, data in init.items():
                params.register(Tensor(data.copy(), requires_grad=True, name=name))
            return params

        params, ref = registry(), registry()
        opt = Adam(params, lr=0.05)
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 9):
            for name, shape in shapes.items():
                g = None if name in ("vec", "blocks") and t in (2, 5, 6) else \
                    rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
                params[name].grad = ref[name].grad = g
            opt.step()
            adam_step_expression(ref, m, v, t, lr=0.05)
            for name in shapes:
                assert params[name].data.tobytes() == ref[name].data.tobytes(), (t, name)
                assert opt.m[name].tobytes() == m[name].tobytes(), (t, name)
                assert opt.v[name].tobytes() == v[name].tobytes(), (t, name)

    def test_step_allocates_no_parameter_sized_array(self):
        """After the first step, a step over 1.6 MB of parameters peaks
        under 16 KiB of new allocations (the per-parameter views)."""
        params = ModelParams()
        for i in range(4):
            t = Tensor(np.ones((100, 500)), requires_grad=True, name=f"p{i}")
            t.grad = np.full((100, 500), 0.5)
            params.register(t)
        opt = Adam(params, lr=1e-3)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak

    def test_scratch_is_two_blocks_whatever_the_parameter_size(self):
        """Adam over a 16 MiB parameter holds its two moments and, beyond
        them, no more than its two one-block scratch buffers and 16 KiB."""
        params = ModelParams()
        big = Tensor(np.ones((2048, 1024)), requires_grad=True, name="big")
        big.grad = np.full(big.shape, 0.5)
        params.register(big)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            opt = Adam(params, lr=1e-3)
            opt.step()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        scratch = held - 2 * big.data.nbytes
        assert scratch <= 2 * ADAM_BLOCK * 8 + 16 * 1024, scratch


class TestClipping:
    def _params(self, grads):
        params = ModelParams()
        for i, g in enumerate(grads):
            t = Tensor(np.zeros_like(np.asarray(g, dtype=float)), requires_grad=True, name=f"p{i}")
            t.grad = np.asarray(g, dtype=float)
            params.register(t)
        return params

    def test_large_gradients_scaled_to_max_norm(self):
        params = self._params([[3.0, 4.0], [12.0]])  # norm = 13
        norm = clip_global_norm(params, 5.0)
        assert norm == pytest.approx(13.0)
        total = sum(float((p.grad ** 2).sum()) for _, p in params.items())
        assert np.sqrt(total) <= 5.0 + 1e-9

    def test_small_gradients_untouched_bit_exactly(self):
        grads = [np.array([0.3, -0.4]), np.array([1.2])]
        params = self._params([g.copy() for g in grads])
        clip_global_norm(params, 5.0)
        for (_, p), g in zip(params.items(), grads):
            assert p.grad.tobytes() == g.tobytes()

    def test_random_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            params = self._params([rng.standard_normal(int(rng.integers(1, 6))) * 10
                                   for _ in range(3)])
            clip_global_norm(params, 5.0)
            total = sum(float((p.grad ** 2).sum()) for _, p in params.items())
            assert np.sqrt(total) <= 5.0 + 1e-9


class TestTrainConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(lr=value)
        with pytest.raises(ConfigError, match="clip_norm"):
            TrainConfig(clip_norm=value)


def tiny_world(seed=0, num_labels=6, n_docs=40, dim=12, variant="full"):
    """Corpus, artifacts, and an assembled model small enough for fast tests."""
    rng = np.random.default_rng(seed)
    letters = "abcdefghijklmnopqrstuvwxyz"
    keywords = [[f"kw{letters[lab]}{letters[j]}" for j in range(3)] for lab in range(num_labels)]
    noise = [f"noise{letters[j]}" for j in range(10)]
    docs = []
    for i in range(n_docs):
        labels = set(rng.choice(num_labels, size=int(rng.integers(1, 3)), replace=False).tolist())
        tokens = []
        for lab in sorted(labels):
            tokens += [keywords[lab][int(k)] for k in rng.integers(0, 3, size=6)]
        tokens += [noise[int(k)] for k in rng.integers(0, 10, size=4)]
        docs.append({
            "doc_id": f"d{i}", "text": " ".join(tokens),
            "labels": [f"c{lab}" for lab in sorted(labels)],
            "drg": [f"D{lab}" for lab in sorted(labels) if rng.random() < 0.95],
            "cpt": [], "drugs": [],
        })
    catalog = LabelCatalog([f"c{i}" for i in range(num_labels)],
                           [" ".join(keywords[i]) for i in range(num_labels)])
    from xmtc.corpus import encode_documents, preprocess

    vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
    records = encode_documents(docs, vocab, catalog)
    graph = build_cooccurrence(records, num_labels, lam=1.0)
    index = build_mask_index(records, num_labels, tau=0.2)
    model = model_from_artifacts(
        vocab, catalog, graph, dim=dim,
        encoder_config=EncoderConfig(kernel_size=3, rates=(1, 2), dropout=0.1),
        seed=seed, variant=variant,
    )
    return records, vocab, catalog, graph, index, model


class TestTrainLoop:
    def test_overfits_small_corpus(self):
        records, _, _, _, index, model = tiny_world()
        cfg = TrainConfig(lr=5e-3, lr_decay=0.97, max_epochs=90, batch_size=8, seed=0,
                          prediction_threshold=0.5, patience=90)
        result = train(records, records, model, index, cfg)
        report = evaluate(records, model, index, 0.5)
        assert report.micro_f1 >= 0.9

    def test_deterministic_across_runs(self):
        runs = []
        for _ in range(2):
            records, _, _, _, index, model = tiny_world(seed=4)
            cfg = TrainConfig(lr=2e-3, max_epochs=3, batch_size=8, seed=11,
                              prediction_threshold=0.5)
            result = train(records[:30], records[30:], model, index, cfg)
            runs.append(result)
        a, b = runs
        assert [s.train_loss for s in a.history] == [s.train_loss for s in b.history]
        assert [s.val_micro_f1 for s in a.history] == [s.val_micro_f1 for s in b.history]
        for name in a.params_arrays:
            assert a.params_arrays[name].tobytes() == b.params_arrays[name].tobytes()

    def test_lr_decay_schedule(self):
        records, _, _, _, index, model = tiny_world(seed=5, n_docs=12)
        cfg = TrainConfig(lr=1e-4, lr_decay=0.9, max_epochs=3, batch_size=8, seed=0,
                          patience=10, prediction_threshold=0.5)
        result = train(records[:8], records[8:], model, index, cfg)
        lrs = [s.lr for s in result.history]
        np.testing.assert_allclose(lrs, [1e-4, 9e-5, 8.1e-5], rtol=1e-12)
        # after three decays the next epoch would use 1e-4 * 0.9^3
        np.testing.assert_allclose(lrs[-1] * 0.9, 7.29e-5, rtol=1e-12)

    def test_early_stopping_stops(self):
        records, _, _, _, index, model = tiny_world(seed=6, n_docs=16)
        cfg = TrainConfig(lr=1e-9, max_epochs=50, batch_size=8, seed=0, patience=2,
                          prediction_threshold=0.5)
        result = train(records[:10], records[10:], model, index, cfg)
        # lr so small nothing improves: first epoch is best, then patience runs out
        assert len(result.history) <= 4

    def test_divergence_names_parameter(self):
        records, _, _, _, index, model = tiny_world(seed=7, n_docs=10)
        model.params["classifier.b"].data[:] = np.nan
        cfg = TrainConfig(lr=1e-3, max_epochs=1, batch_size=4, seed=0,
                          prediction_threshold=0.5)
        with pytest.raises(DivergenceError, match="classifier.b|embedding"):
            train(records[:8], records[8:], model, index, cfg)

    def test_pad_row_stays_zero_without_a_freeze(self):
        """PAD tokens never reach the embedding gather, so the PAD row gets an
        exactly zero gradient and Adam leaves it at its zero init."""
        records, _, _, _, index, model = tiny_world(seed=8, n_docs=16)
        for i, doc in enumerate(records):
            doc.tokens = [PAD_ID] * (i % 3) + doc.tokens[:5] + [PAD_ID] * 4 + doc.tokens[5:]
        cfg = TrainConfig(lr=1e-2, max_epochs=2, batch_size=4, seed=0,
                          prediction_threshold=0.5)
        before = model.embedding.data.copy()
        train(records[:12], records[12:], model, index, cfg)
        np.testing.assert_array_equal(model.embedding.data[PAD_ID], 0.0)
        assert (model.embedding.data != before).any()  # the real rows did train


def tape_batch(seed=3, dim=12, n_docs=4, variant="full"):
    """A small model and a batch of ``n_docs`` documents whose masks include
    one candidate mask from the index and one empty mask."""
    records, _, _, _, index, model = tiny_world(seed=seed, n_docs=12, dim=dim, variant=variant)
    docs = records[:n_docs]
    masks = [make_doc_mask(doc, index) for doc in docs]
    masks[1] = DocMask(labels=set(), vec=np.zeros(model.num_labels))
    assert not masks[0].empty and len(masks[0].labels) < model.num_labels
    return model, docs, masks


class TestTapeWalk:
    """``GradTape.backward`` consumes the tape as it walks: it must leave the
    parameters the gradients of a walk that frees nothing, and nothing else."""

    def test_full_model_walk_frees_and_matches_keep_everything_walk(self):
        model, docs, masks = tape_batch(n_docs=5)
        grads, cells = {}, []
        for walk in ("keep", "pop"):
            model.params.zero_grads()
            with GradTape() as tape:
                loss = batch_loss(model, docs, masks, np.random.default_rng(5))
                calls = []
                # a node off the path to the loss, with a closure that records a call
                mul(model.embedding, 2.0)
                tape.nodes[-1] = (tape.nodes[-1][0], calls.append)
                if walk == "keep":
                    keep_everything_backward(tape, loss)
                else:
                    cells = [cell for cell, _ in tape.nodes]
                    tape.backward(loss)
            assert calls == []
            grads[walk] = {name: p.grad for name, p in model.params.items()}
        assert grads["pop"].keys() == grads["keep"].keys()
        for name, g in grads["keep"].items():
            assert g is not None, name
            assert grads["pop"][name].tobytes() == g.tobytes(), name
        assert len(cells) > 100 and loss.cell in cells
        assert all(cell.grad is None for cell in cells)
        assert tape.nodes == []
        with pytest.raises(GradTapeError):
            tape.backward(loss)

    def test_backward_holds_only_parameter_gradients(self):
        """tracemalloc over one batch_loss + backward, after one warm-up
        pass that fills the first-call caches.  Bounds: after backward at
        most the parameter gradients plus 16 KiB (the loss tensor and other
        small objects) stay held; the peak of the walk stays under 1.5 times
        the forward tape's bytes plus the parameter gradients (the walk
        starts with the whole tape alive and ends holding the gradients,
        whose size does not scale with the tape).  The walk that frees
        nothing breaks both bounds: it holds every activation and gradient,
        about twice the tape."""
        model, docs, masks = tape_batch(dim=32)

        def traced(walk):
            model.params.zero_grads()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with GradTape() as tape:
                    loss = batch_loss(model, docs, masks, np.random.default_rng(5))
                    forward = tracemalloc.get_traced_memory()[0] - base
                    tracemalloc.reset_peak()
                    walk(tape, loss)
                    held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            grad_bytes = sum(p.grad.nbytes for _, p in model.params.items())
            return forward, peak - base, held - base, grad_bytes

        traced(GradTape.backward)
        forward, peak, held, grad_bytes = traced(GradTape.backward)
        assert held <= grad_bytes + 16 * 1024, (held, grad_bytes)
        assert peak < 1.5 * forward + grad_bytes, (peak, forward, grad_bytes)
        forward, peak, held, grad_bytes = traced(keep_everything_backward)
        assert held > grad_bytes + 16 * 1024 and peak > 1.5 * forward + grad_bytes


def held_tensors(obj, seen=None):
    """Every ``Tensor`` reachable from ``obj`` through function closures
    (nested functions included), bound methods, lists, tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, types.MethodType):
        inner = [obj.__self__, obj.__func__]
    elif isinstance(obj, types.FunctionType):
        inner = [_contents(c) for c in obj.__closure__ or ()]
        inner += list(obj.__defaults__ or ())
    elif isinstance(obj, (list, tuple)):
        inner = obj
    elif isinstance(obj, dict):
        inner = list(obj.values())
    else:
        return []
    return [t for item in inner for t in held_tensors(item, seen)]


def _contents(closure_cell):
    try:
        return closure_cell.cell_contents
    except ValueError:  # a free variable not yet assigned
        return None


class TestTapeHoldsNoTensor:
    """A tape node is ``(cell, backward_fn)``: the output's ``GradCell`` and
    a closure over its inputs' cells and the arrays its backward reads.  A
    node that captured a tensor would keep that tensor's array alive until
    the walk reaches it."""

    def test_finder_sees_a_tensor_in_a_nested_closure(self):
        x = Tensor(np.ones(2))

        def outer():
            def inner():
                return [(x,)]
            return inner

        found = held_tensors(outer())
        assert len(found) == 1 and found[0] is x
        assert held_tensors((x.cell, lambda g: None)) == []

    @pytest.mark.parametrize("variant", ["full", "no_label_feature"])
    def test_no_node_of_a_full_model_tape_holds_a_tensor(self, variant):
        model, docs, masks = tape_batch(n_docs=5, variant=variant)
        masks[2] = DocMask.all_ones(model.num_labels)
        with GradTape() as tape:
            loss = batch_loss(model, docs, masks, np.random.default_rng(5))
            assert len(tape.nodes) > 100
            for cell, backward_fn in tape.nodes:
                assert isinstance(cell, GradCell), cell
                held = held_tensors(backward_fn)
                assert held == [], (backward_fn.__qualname__, held)
            tape.backward(loss)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        records, _, catalog, graph, index, model = tiny_world(seed=8, n_docs=16)
        cfg = TrainConfig(lr=2e-3, max_epochs=2, batch_size=8, seed=0,
                          prediction_threshold=0.5)
        result = train(records[:12], records[12:], model, index, cfg)
        before = evaluate(records, model, index, 0.5)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params_arrays, epoch=result.best_epoch)
        params, manifest = load_checkpoint(path)
        assert manifest["epoch"] == result.best_epoch
        for name, arr in result.params_arrays.items():
            assert arr.tobytes() == params[name].tobytes()

        model.params.load_arrays(params)
        after = evaluate(records, model, index, 0.5)
        assert after == before

    def test_identical_saves_are_byte_identical(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, arrays, epoch=1)
        save_checkpoint(p2, arrays, epoch=1)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fuzzed_file_loads_or_is_data_error(self, data):
        """Cutting, splicing or extending a checkpoint never escapes as
        anything but ``DataError``."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.ckpt"
            save_checkpoint(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)}, epoch=0)
            raw = path.read_bytes()
            start = data.draw(st.integers(0, len(raw)))
            stop = data.draw(st.integers(start, len(raw)))
            path.write_bytes(raw[:start] + data.draw(st.binary(max_size=12)) + raw[stop:])
            try:
                params, manifest = load_checkpoint(path)
            except DataError:
                return
        assert ({name: arr.shape for name, arr in params.items()}
                == {spec["name"]: tuple(spec["shape"]) for spec in manifest["params"]})

    def test_holds_parameters_only(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(4), "s": np.array(2.0)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, epoch=0)
        raw = path.read_bytes()
        assert raw.startswith(b"XMTC-CKPT-v2\n")
        (length,) = struct.unpack_from("<Q", raw, 13)
        assert len(raw) == 13 + 8 + length + 8 * (6 + 4 + 1)
        params, _ = load_checkpoint(path)
        for name, arr in arrays.items():
            assert params[name].tobytes() == arr.tobytes()

    def test_manifest_with_an_extra_key_loads(self, tmp_path):
        """A checkpoint whose manifest carries a key no longer written, such
        as the ``variant`` of older ones, loads: extra keys are ignored."""
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, arrays, epoch=3)
        raw = path.read_bytes()
        (length,) = struct.unpack_from("<Q", raw, 13)
        manifest = json.loads(raw[21 : 21 + length])
        payload = json.dumps({**manifest, "variant": "no_mask"}, sort_keys=True).encode()
        path.write_bytes(raw[:13] + struct.pack("<Q", len(payload)) + payload + raw[21 + length :])
        params, loaded = load_checkpoint(path)
        assert loaded["epoch"] == 3
        assert params["w"].tobytes() == arrays["w"].tobytes()


class TestGatingInvariant:
    def test_no_predictions_outside_mask(self):
        records, _, _, _, index, model = tiny_world(seed=9, n_docs=30)
        cfg = TrainConfig(lr=2e-3, max_epochs=2, batch_size=8, seed=1,
                          prediction_threshold=0.3)
        train(records[:24], records[24:], model, index, cfg)
        from xmtc.mask import make_doc_mask
        from xmtc.metrics import top_k_labels
        from xmtc.training import collect_scores

        gold, scores = collect_scores(records, model, index)
        for row, doc in enumerate(records):
            mask = make_doc_mask(doc, index)
            if mask.empty:
                continue
            outside = scores[row][mask.vec == 0.0]
            assert np.all(outside == 0.0)
            assert all(mask.vec[i] == 1.0 for i in top_k_labels(scores[row], 5))


class TestScoreDocs:
    """``score_docs`` is the one loop that scores a split under its masks."""

    @staticmethod
    def _split(variant="full"):
        """Two documents with candidates around one without codes, whose
        mask is empty under a masked model."""
        records, _, _, _, index, model = tiny_world(seed=4, n_docs=12, variant=variant)
        first, second = [d for d in records if not make_doc_mask(d, index).empty][:2]
        bare = DocumentRecord("bare", first.tokens, first.labels)
        return [first, bare, second], index, model

    @pytest.mark.parametrize("with_attention", [False, True])
    @pytest.mark.parametrize("variant", ["full", "no_mask"])
    def test_yields_predict_scores_bits_in_input_order(self, variant, with_attention):
        docs, index, model = self._split(variant)
        h_label = model.label_representations()
        rows = list(score_docs(docs, model, index, with_attention=with_attention))
        assert [doc for doc, _, _, _ in rows] == docs
        masks = [doc_mask for _, doc_mask, _, _ in rows]
        if variant == "no_mask":
            assert all(m.vec.tobytes() == np.ones(model.num_labels).tobytes() for m in masks)
        else:
            assert [m.empty for m in masks] == [False, True, False]
            for doc, m in zip(docs, masks):
                assert m.vec.tobytes() == make_doc_mask(doc, index).vec.tobytes()
        for doc, doc_mask, scores, alpha in rows:
            want = model.predict_scores(doc.tokens, doc_mask, h_label)
            assert scores.tobytes() == want.tobytes()
            if with_attention:
                _, want_alpha = model.predict_scores(doc.tokens, doc_mask, h_label,
                                                     with_attention=True)
                assert alpha.tobytes() == want_alpha.tobytes()
            else:
                assert alpha is None

    def test_one_summary_line_per_split_and_none_per_document(self, caplog):
        docs, index, model = self._split()
        empty = sum(make_doc_mask(d, index).empty for d in docs)
        assert empty == 1
        with caplog.at_level(logging.DEBUG, logger="xmtc"):
            collect_scores(docs, model, index)
            for _ in score_docs(docs, model, index, with_attention=True):
                pass
        lines = [rec.getMessage() for rec in caplog.records]
        assert len(lines) == 2, lines
        for line in lines:
            assert line.startswith(f"scored {len(docs)} docs: {empty} empty masks"), line
