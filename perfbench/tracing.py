"""Spans around the engine's public functions, recorded from outside.

``install(tracer)`` replaces functions in the ``xmtc`` modules with wrappers
that open a span on entry and close it on exit; the returned callable puts
the originals back.  Nothing in ``src/`` knows about the tracer.

A span is ``[name, start, end, parent, ref]``: ``parent`` is the index of
the enclosing span (or -1) and ``ref`` the train step or document id it
belongs to.  The layer of a span is its name up to the first dot.

Backward time is charged by tape node.  When a layer's forward span closes
under an active ``GradTape``, every node the call appended that no inner
span has claimed gets its backward closure wrapped in a timer that opens a
``<layer>.bwd`` span while it runs.  Those spans nest under the
``tensor.backward`` span of the reverse pass.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Layer names, each a module of src/xmtc.
LAYERS = ("tensor", "encoder", "graph", "mask", "attention", "model", "training",
          "metrics", "embeddings", "corpus", "cli")


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.tapes: list = []
        self.counts: Counter = Counter()
        self.nodes_per_step: list[int] = []
        self.step = -1

    def open(self, name: str, ref=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        if ref is None and parent >= 0:
            ref = self.spans[parent][4]
        self.spans.append([name, self.clock(), 0.0, parent, ref])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str, ref=None):
        idx = self.open(name, ref)
        try:
            yield
        finally:
            self.close(idx)

    def claim(self, tape, first: int, bucket: str) -> None:
        """Charge the backward of unclaimed nodes ``tape.nodes[first:]`` to ``bucket``."""
        nodes = tape.nodes
        for i in range(first, len(nodes)):
            out, fn = nodes[i]
            if not isinstance(fn, _TimedBackward):
                nodes[i] = (out, _TimedBackward(self, bucket, fn))


class _TimedBackward:
    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer: Tracer, name: str, fn):
        self.tracer, self.name, self.fn = tracer, name, fn

    def __call__(self, g):
        idx = self.tracer.open(self.name)
        try:
            self.fn(g)
        finally:
            self.tracer.close(idx)


# ---------------------------------------------------------------------------
# installing the wrappers


def _wrap(tracer: Tracer, fn, name, bucket=None, ref=None, after=None, step=False):
    """Span around ``fn``.  ``name`` is a string or a pair (under a tape,
    without).  ``bucket`` names the backward of the nodes the call appends;
    ``after(result, args, kwargs)`` records counts.  ``ref`` gives the
    span's step or document id: a function of the call, or ``"step"`` for
    the current train step; ``step=True`` starts a new step."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tape = tracer.tapes[-1] if tracer.tapes else None
        label = name if isinstance(name, str) else name[0 if tape is not None else 1]
        if step:
            tracer.step += 1
        if step or ref == "step":
            key = tracer.step
        else:
            key = ref(args, kwargs) if ref else None
        idx = tracer.open(label, key)
        first = len(tape.nodes) if tape is not None else 0
        try:
            result = fn(*args, **kwargs)
        finally:
            if bucket and tape is not None:
                tracer.claim(tape, first, bucket)
            tracer.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap the engine's public functions; returns a function that undoes it."""
    from xmtc import corpus, embeddings, graph, mask, metrics, model, tensor, training
    from xmtc import cli

    count = tracer.counts

    def on_graph(g, args, kwargs):
        count["graph.edges"] = int(g.adjacency.sum() - np.trace(g.adjacency))

    def on_mask(m, args, kwargs):
        doc = args[0]
        count["mask.docs"] += 1
        count["mask.candidates"] += len(m.labels)
        count["mask.empty_docs"] += int(m.empty)
        count["mask.gold"] += len(doc.labels)
        count["mask.gold_covered"] += len(doc.labels & m.labels)

    def on_attention(out, args, kwargs):
        h = args[1].data
        count["attention.rows_attended"] += h.shape[0]
        count["attention.rows_candidate"] += int(np.count_nonzero(np.any(h != 0.0, axis=1)))

    def on_pairs(pairs, args, kwargs):
        count["embeddings.pairs"] += int(pairs[0].size)

    def on_vocab(vocab, args, kwargs):
        count["corpus.vocab_size"] = len(vocab)

    def doc_ref(args, kwargs):
        return kwargs.get("doc_id")

    tape_cls = tensor.GradTape
    orig_enter, orig_exit, orig_backward = tape_cls.__enter__, tape_cls.__exit__, tape_cls.backward

    def enter(self):
        tracer.tapes.append(self)
        return orig_enter(self)

    def exit_(self, *exc):
        tracer.tapes.pop()
        return orig_exit(self, *exc)

    def backward(self, loss):
        tracer.nodes_per_step.append(len(self.nodes))
        tracer.claim(self, 0, "tensor.unattributed_bwd")
        idx = tracer.open("tensor.backward", tracer.step)
        try:
            return orig_backward(self, loss)
        finally:
            tracer.close(idx)

    w = functools.partial(_wrap, tracer)
    patches = [
        (tape_cls, "__enter__", enter),
        (tape_cls, "__exit__", exit_),
        (tape_cls, "backward", backward),
        # model assembly; the layer functions are looked up in model's namespace
        (model, "encode", w(model.encode, ("encoder.fwd", "encoder.infer"), "encoder.bwd")),
        (model, "apply_mask", w(model.apply_mask, "mask.apply", "mask.apply_bwd")),
        (model, "label_attention", w(model.label_attention, ("attention.fwd", "attention.infer"),
                                     "attention.bwd", after=on_attention)),
        (model, "classify", w(model.classify, ("attention.classify_fwd", "attention.classify_infer"),
                              "attention.classify_bwd")),
        (model.CodingModel, "label_representations",
         w(model.CodingModel.label_representations,
           ("graph.label_side_fwd", "graph.label_side_infer"), "graph.label_side_bwd")),
        (model.CodingModel, "forward_doc", w(model.CodingModel.forward_doc, "model.forward_doc")),
        (model.CodingModel, "predict_scores",
         w(model.CodingModel.predict_scores, "model.predict", ref=doc_ref)),
        (model, "descriptor_average_matrix",
         w(model.descriptor_average_matrix, "graph.descriptor_matrix")),
        (model, "model_from_artifacts", w(model.model_from_artifacts, "model.build")),
        # training loop
        (training, "train", w(training.train, "training.train")),
        (training, "batch_loss", w(training.batch_loss, "training.batch_loss",
                                   "tensor.bce_bwd", step=True)),
        (training, "bce_loss", w(training.bce_loss, "tensor.bce", "tensor.bce_bwd")),
        (training, "clip_global_norm", w(training.clip_global_norm, "training.clip", ref="step")),
        (training.Adam, "step", w(training.Adam.step, "training.adam", ref="step")),
        (training, "evaluate", w(training.evaluate, "training.evaluate")),
        (training, "compute_metrics", w(training.compute_metrics, "metrics.compute")),
        (metrics, "compute_metrics", w(metrics.compute_metrics, "metrics.compute")),
        (training, "save_checkpoint", w(training.save_checkpoint, "cli.checkpoint_io")),
        (training, "load_checkpoint", w(training.load_checkpoint, "cli.checkpoint_io")),
        # label graph and candidate masks
        (graph, "build_cooccurrence", w(graph.build_cooccurrence, "graph.build_cooccurrence",
                                        after=on_graph)),
        (graph, "save_graph", w(graph.save_graph, "graph.io")),
        (graph, "load_graph", w(graph.load_graph, "graph.io")),
        (mask, "build_mask_index", w(mask.build_mask_index, "mask.build_index")),
        (mask, "make_doc_mask", w(mask.make_doc_mask, "mask.make_doc_mask", after=on_mask)),
        (training, "make_doc_mask", w(training.make_doc_mask, "mask.make_doc_mask",
                                      after=on_mask)),
        (mask, "save_mask_index", w(mask.save_mask_index, "mask.io")),
        (mask, "load_mask_index", w(mask.load_mask_index, "mask.io")),
        # corpus and embeddings
        (corpus, "preprocess", w(corpus.preprocess, "corpus.preprocess")),
        (corpus, "build_vocab", w(corpus.build_vocab, "corpus.build_vocab", after=on_vocab)),
        (corpus, "encode_documents", w(corpus.encode_documents, "corpus.encode")),
        (corpus, "load_corpus_jsonl", w(corpus.load_corpus_jsonl, "corpus.io")),
        (corpus, "save_encoded", w(corpus.save_encoded, "corpus.io")),
        (corpus, "load_encoded", w(corpus.load_encoded, "corpus.io")),
        (embeddings, "train_skipgram", w(embeddings.train_skipgram, "embeddings.skipgram")),
        (embeddings, "_subsample_pairs", _counting(embeddings._subsample_pairs, on_pairs)),
        (embeddings, "save_embeddings", w(embeddings.save_embeddings, "embeddings.save")),
        (embeddings, "load_embeddings", w(embeddings.load_embeddings, "embeddings.load")),
        (cli, "_write_manifest", w(cli._write_manifest, "cli.manifest")),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)

    def uninstall():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return uninstall


def _counting(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# reading spans back


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    """Self time summed per layer; spans outside the engine's layers are skipped."""
    out = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, self_times(spans)):
        layer = s[0].split(".", 1)[0]
        if layer in out:
            out[layer] += own
    return out


def merge(span_lists) -> list[list]:
    """Concatenate span lists from separate processes, re-basing parents."""
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        merged.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                      for s in spans)
    return merged


def _under(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


STEP_SPANS = ("training.batch_loss", "tensor.backward", "training.clip", "training.adam")


def step_coverage(spans) -> float:
    """Share of each train step's wall time that the step's spans cover.

    A step runs from the start of its ``batch_loss`` to the end of its Adam
    update; the self times of every span inside those four calls add up to
    their durations, so this is the per-layer self time over the wall."""
    walls: dict = {}
    covered: dict = {}
    root = -1
    for i, s in enumerate(spans):
        if s[3] == -1:
            root = i  # steps of different processes share ids; key by root too
        if s[0] in STEP_SPANS:
            key = (root, s[4])
            lo, hi = walls.get(key, (s[1], s[2]))
            walls[key] = (min(lo, s[1]), max(hi, s[2]))
            covered[key] = covered.get(key, 0.0) + s[2] - s[1]
    wall = sum(hi - lo for lo, hi in walls.values())
    return sum(covered.values()) / wall if wall > 0 else 0.0


def layer_metrics(spans, counts, nodes_per_step) -> dict[str, float]:
    """The per-layer figures that come from spans and counts."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def selfs(name, infer_only=False):
        idx = by_name.get(name, [])
        if infer_only:
            idx = [i for i in idx
                   if _under(spans, i, "model.predict") and not _under(spans, i, "training.train")]
        return [own[i] for i in idx]

    def mean_ms(name, infer_only=False):
        vals = selfs(name, infer_only)
        return 1e3 * sum(vals) / len(vals) if vals else 0.0

    def total(name):
        return sum(selfs(name))

    train_docs = len(by_name.get("encoder.fwd", []))
    steps = len(by_name.get("training.batch_loss", []))

    def per(name, n):
        return 1e3 * total(name) / n if n else 0.0

    backward_total = sum(spans[i][2] - spans[i][1] for i in by_name.get("tensor.backward", []))
    bwd_names = [n for n in by_name if n.endswith("_bwd") or n.endswith(".bwd")]
    attributed = sum(total(n) for n in bwd_names if n != "tensor.unattributed_bwd")
    validate = [spans[i][2] - spans[i][1] for i in by_name.get("training.evaluate", [])
                if _under(spans, i, "training.train")]
    skipgram_s = total("embeddings.skipgram")

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    return {
        "encoder.fwd_ms": mean_ms("encoder.fwd"),
        "encoder.bwd_ms": per("encoder.bwd", train_docs),
        "encoder.infer_ms": mean_ms("encoder.infer", infer_only=True),
        "attention.fwd_ms": mean_ms("attention.fwd"),
        "attention.bwd_ms": per("attention.bwd", train_docs),
        "attention.infer_ms": mean_ms("attention.infer", infer_only=True),
        "attention.classify_fwd_ms": mean_ms("attention.classify_fwd"),
        "attention.classify_bwd_ms": per("attention.classify_bwd", train_docs),
        "attention.rows_useful_share": ratio("attention.rows_candidate", "attention.rows_attended"),
        "graph.label_side_fwd_ms": mean_ms("graph.label_side_fwd"),
        "graph.label_side_bwd_ms": per("graph.label_side_bwd", steps),
        "graph.descriptor_matrix_ms": mean_ms("graph.descriptor_matrix"),
        "graph.build_cooccurrence_ms": mean_ms("graph.build_cooccurrence"),
        "graph.edges": float(counts.get("graph.edges", 0)),
        "model.build_ms": mean_ms("model.build"),
        "mask.build_index_ms": mean_ms("mask.build_index"),
        "mask.make_doc_mask_ms": mean_ms("mask.make_doc_mask"),
        "mask.apply_ms": mean_ms("mask.apply"),
        "mask.apply_bwd_ms": per("mask.apply_bwd", train_docs),
        "mask.candidates_mean": ratio("mask.candidates", "mask.docs"),
        "mask.gold_recall": ratio("mask.gold_covered", "mask.gold"),
        "mask.empty_docs": float(counts.get("mask.empty_docs", 0)),
        "tensor.backward_ms": 1e3 * backward_total / steps if steps else 0.0,
        "tensor.tape_nodes": float(np.mean(nodes_per_step)) if nodes_per_step else 0.0,
        "tensor.bce_ms": mean_ms("tensor.bce"),
        "tensor.bce_bwd_ms": per("tensor.bce_bwd", train_docs),
        "tensor.bwd_attributed_share": attributed / backward_total if backward_total else 0.0,
        "training.adam_ms": mean_ms("training.adam"),
        "training.clip_ms": mean_ms("training.clip"),
        "training.validate_ms": 1e3 * float(np.mean(validate)) if validate else 0.0,
        "training.step_coverage": step_coverage(spans),
        "metrics.compute_ms": mean_ms("metrics.compute"),
        "embeddings.skipgram_s": skipgram_s,
        "embeddings.pairs_per_s": counts.get("embeddings.pairs", 0) / skipgram_s if skipgram_s else 0.0,
        "embeddings.save_s": total("embeddings.save"),
        "embeddings.load_s": total("embeddings.load"),
        "corpus.preprocess_ms": mean_ms("corpus.preprocess"),
        "corpus.build_vocab_s": total("corpus.build_vocab"),
        "corpus.encode_s": total("corpus.encode"),
        "corpus.vocab_size": float(counts.get("corpus.vocab_size", 0)),
    }
