"""Tests for the optimizer, training loop, checkpointing, and ablation."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmtc.corpus import PAD_ID, LabelCatalog, build_vocab
from xmtc.encoder import EncoderConfig
from xmtc.errors import ConfigError, DataError, DivergenceError
from xmtc.graph import build_cooccurrence
from xmtc.mask import build_mask_index
from xmtc.model import ModelParams, model_from_artifacts
from xmtc.tensor import Tensor
from xmtc.training import (
    Adam,
    TrainConfig,
    clip_global_norm,
    evaluate,
    load_checkpoint,
    save_checkpoint,
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


def tiny_world(seed=0, num_labels=6, n_docs=40, dim=12):
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
        seed=seed,
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


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        records, _, catalog, graph, index, model = tiny_world(seed=8, n_docs=16)
        cfg = TrainConfig(lr=2e-3, max_epochs=2, batch_size=8, seed=0,
                          prediction_threshold=0.5)
        result = train(records[:12], records[12:], model, index, cfg)
        before = evaluate(records, model, index, 0.5)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.params_arrays, epoch=result.best_epoch,
                        config_hash="c0de", vocab_hash="v0c", variant="full")
        params, manifest = load_checkpoint(path)
        assert manifest["config_hash"] == "c0de"
        assert manifest["vocab_hash"] == "v0c"
        assert manifest["epoch"] == result.best_epoch
        for name, arr in result.params_arrays.items():
            assert arr.tobytes() == params[name].tobytes()

        model.params.load_arrays(params)
        after = evaluate(records, model, index, 0.5)
        assert after == before

    def test_identical_saves_are_byte_identical(self, tmp_path):
        arrays = {"w": np.arange(6.0).reshape(2, 3)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, arrays, epoch=1, config_hash="x")
        save_checkpoint(p2, arrays, epoch=1, config_hash="x")
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
