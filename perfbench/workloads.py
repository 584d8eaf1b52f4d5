"""The benchmark's workloads, run in a process of their own.

    python3 perfbench/workloads.py prepare --workload W --seed N --inputs DIR
    python3 perfbench/workloads.py run --workload W --seed N --seconds S --trace 0|1
                                       --inputs DIR --out DIR

``prepare`` writes the raw corpus of a workload into DIR and nothing else is
passed on to ``run``.  ``run`` measures, checks the outputs and prints one
JSON object as its last line of standard output.  ``run.py`` calls both
with the BLAS thread count fixed and ``src`` on the import path.
"""

from __future__ import annotations

import argparse
import json
import linecache
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from xmtc import corpus, graph, mask, metrics, model, synth, training
from xmtc.encoder import EncoderConfig, encode
from xmtc.tensor import GradTape

from stats import nearest_rank, tail_percentile
from tracing import Tracer, install, layer_metrics, layer_self_seconds, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Shapes; BENCHMARK.json records why each workload is there.
WORKLOADS = {
    # The encoder's im2col convolutions dominate: long documents, few labels.
    "long-docs": {"kind": "model", "labels": 200, "docs": 240, "doc_length": (1500, 2500),
                  "parts": {"infer": 100, "train": 32, "val": 4, "pool": 84}},
    # The [L, n] attention and the dense label side dominate: short documents.
    "many-labels": {"kind": "model", "labels": 3000, "docs": 800, "doc_length": (150, 300),
                    "parts": {"infer": 150, "train": 32, "val": 4, "pool": 564}},
    # The seven CLI stages as separate processes: skip-gram, I/O, metrics.
    "pipeline": {"kind": "pipeline", "labels": 200, "docs": 200, "doc_length": (150, 300),
                 "parts": {"test": 100, "train": 80, "val": 20}},
}

BATCH = 16
LR = 1e-3
DIM = 100
# Set-ups per run; the median skips the slower first one.  A pipeline set-up
# is two CLI processes, about 3 s, so it gets fewer.
SETUP_REPEATS = {"model": 5, "pipeline": 3}
ROUNDS = 2  # timed rounds or pipeline passes, at least
TOP_K = 8
WARM_DOCS = 5

PIPELINE_CONFIG = """\
skipgram_epochs = 1
max_epochs = 1
patience = 1
batch_size = 16
learning_rate = 0.001
min_count = 1
seed = 0
"""

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Outcome:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"FAILED: {what}")
        return ok


# ---------------------------------------------------------------------------
# inputs


def prepare(name: str, seed: int, out: Path) -> None:
    w = WORKLOADS[name]
    out.mkdir(parents=True)
    if w["kind"] == "model":
        spec = synth.standard_spec(num_labels=w["labels"], num_docs=w["docs"], seed=seed,
                                   doc_length=w["doc_length"])
        docs, catalog, _ = synth.generate(spec)
        synth.write_corpus(docs, out / "corpus.jsonl")
        catalog.save_tsv(out / "catalog.tsv")
        return
    lo, hi = w["doc_length"]
    gen = ["gen-synthetic", "--workdir", str(out), "--labels", str(w["labels"]),
           "--docs", str(w["docs"]), "--min-len", str(lo), "--max-len", str(hi),
           "--seed", str(seed)]
    rc = subprocess.run([sys.executable, "-m", "xmtc", *gen], stdout=subprocess.DEVNULL).returncode
    if rc != 0:
        raise RuntimeError(f"gen-synthetic exited with {rc}")
    # Own split of the generated corpus: 100 test documents give a p90 latency
    # with ten documents beyond it.
    docs = corpus.load_corpus_jsonl(out / "corpus.jsonl")
    for fname, idx in split_by_length(docs, w["parts"]).items():
        synth.write_corpus([docs[i] for i in idx], out / f"{fname}.jsonl")


def split_by_length(raw: list[dict], parts: dict[str, int]) -> dict[str, list[int]]:
    """Disjoint subsets of fixed sizes, taken in turn from the documents
    left, each spread evenly over their length order, so every seed gives
    the same number of documents with the same length profile.  The
    generator appends a varying number of extra documents; they are simply
    part of what is left."""
    left = list(range(len(raw)))
    out = {}
    for name, count in parts.items():
        order = sorted(left, key=lambda i: (len(raw[i]["text"].split()), raw[i]["doc_id"]))
        if count > len(order):
            raise ValueError(f"need {count} more documents, the corpus has {len(order)} left")
        out[name] = [order[int((k + 0.5) * len(order) / count)] for k in range(count)]
        chosen = set(out[name])
        left = [i for i in left if i not in chosen]
    return out


# ---------------------------------------------------------------------------
# model workloads: long-docs, many-labels


def _setup(raw_pool, raw_held, catalog):
    """The work before the first timed operation."""
    vocab = corpus.build_vocab([corpus.preprocess(d["text"]) for d in raw_pool], min_count=1)
    pool = corpus.encode_documents(raw_pool, vocab, catalog)
    held = corpus.encode_documents(raw_held, vocab, catalog)
    g = graph.build_cooccurrence(pool, len(catalog))
    index = mask.build_mask_index(pool, len(catalog))
    # Random embeddings drawn apart from the model's own generator, so the
    # filter and classifier initialisation does not depend on the vocabulary size.
    emb = np.random.default_rng(0).standard_normal((len(vocab), DIM)) / np.sqrt(DIM)
    m = model.model_from_artifacts(vocab, catalog, g, dim=DIM, encoder_config=EncoderConfig(),
                                   seed=0, embedding_matrix=emb)
    return vocab, pool, held, index, m


def run_model(name: str, seconds: float, trace: bool, inputs: Path, outcome: Outcome):
    w = WORKLOADS[name]
    raw = corpus.load_corpus_jsonl(inputs / "corpus.jsonl")
    catalog = corpus.LabelCatalog.load_tsv(inputs / "catalog.tsv")
    parts = split_by_length(raw, w["parts"])
    pool_idx = parts["train"] + parts["val"] + parts["pool"]
    raw_pool = [raw[i] for i in pool_idx]
    raw_held = [raw[i] for i in parts["infer"]]
    tracer = Tracer() if trace else None

    def traced(label, fn):
        """Run ``fn`` with the spans installed, under a benchmark span."""
        uninstall = install(tracer)
        try:
            with tracer.span(label):
                return fn()
        finally:
            uninstall()

    setup_walls = []
    for _ in range(1 if trace else SETUP_REPEATS["model"]):
        arts = None  # drop the previous model before building the next
        t0 = time.perf_counter()
        arts = _setup(raw_pool, raw_held, catalog)
        setup_walls.append(time.perf_counter() - t0)
    if trace:
        arts = None
        arts = traced("bench.setup", lambda: _setup(raw_pool, raw_held, catalog))
    vocab, pool, held, index, m = arts
    n_train, n_val = len(parts["train"]), len(parts["val"])
    train_docs, val_docs = pool[:n_train], pool[n_train:n_train + n_val]
    tc = training.TrainConfig(lr=LR, batch_size=BATCH, max_epochs=1, patience=1, seed=0)
    init = {k: p.data.copy() for k, p in m.params.items()}

    def train_call():
        m.params.load_arrays(init)
        t0 = time.perf_counter()
        try:
            result = training.train(train_docs, val_docs, m, index, tc, ks=(TOP_K,))
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.check(False, f"train call raised {exc!r}")
            return time.perf_counter() - t0, float("nan")
        wall = time.perf_counter() - t0
        loss = result.history[-1].train_loss
        outcome.check(bool(np.isfinite(loss)), f"train loss {loss}")
        return wall, loss

    held_masks = [mask.make_doc_mask(d, index) for d in held]
    gold = np.stack([d.label_vector(len(catalog)) > 0 for d in held])

    def infer_pass(h_label, scores_out=None, limit=None):
        lat = []
        for row, (doc, mk) in enumerate(zip(held[:limit], held_masks)):
            t0 = time.perf_counter()
            try:
                scores = m.predict_scores(doc.tokens, mk, h_label, doc_id=doc.doc_id)
            except Exception as exc:
                lat.append(time.perf_counter() - t0)
                outcome.check(False, f"{doc.doc_id}: predict raised {exc!r}")
                continue
            lat.append(time.perf_counter() - t0)
            check_scores(scores, mk, doc.doc_id, outcome)
            if scores_out is not None:
                scores_out[row] = scores
        return lat

    train_call()  # warm-up; inference warms up on a few documents before its phase

    report: dict = {"train_docs": len(train_docs), "infer_docs": len(held)}
    if not trace:
        # Rounds of one train call and one inference pass, so that both phases
        # sample the same stretches of a machine whose speed drifts.
        h_label = m.label_representations()
        infer_pass(h_label, limit=WARM_DOCS)
        start = time.perf_counter()
        train_walls, losses, passes = [], [], []
        while len(passes) < ROUNDS or time.perf_counter() - start < seconds:
            wall, loss = train_call()
            train_walls.append(wall)
            losses.append(loss)
            passes.append(infer_pass(h_label))
        if len(set(losses)) != 1:
            outcome.check(False, f"train calls from one start disagree: {losses}")
        latencies = fastest(passes)
        pct = tail_percentile(len(latencies))
        if pct < 90:
            raise RuntimeError(f"{len(latencies)} latency samples cannot give a p90")
        pass_sums = [sum(p) for p in passes]
        report.update(setup_s=setup_walls, train_call_s=train_walls, infer_pass_s=pass_sums,
                      latency_docs=len(latencies), latency_passes=len(passes), tail_percentile=pct)
        values = {
            "setup_s": statistics.median(setup_walls),
            "train_docs_per_s": statistics.median(len(train_docs) / x for x in train_walls),
            "infer_doc_ms_p50": 1e3 * nearest_rank(latencies, 50),
            "infer_doc_ms_p90": 1e3 * nearest_rank(latencies, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "train_loss_last": losses[-1],
            "pipeline_s": statistics.median(train_walls) + statistics.median(pass_sums),
        }
        return values, report

    # traced run: one untraced and one traced call of each timed operation
    wall_u, _ = train_call()
    wall_t, _ = traced("bench.train", train_call)
    h_label = m.label_representations()
    infer_pass(h_label, limit=WARM_DOCS)
    lat_u = infer_pass(h_label)
    scores = np.zeros(gold.shape)
    t0 = time.perf_counter()
    lat_t = traced("bench.infer", lambda: infer_pass(h_label, scores))
    traced_infer = time.perf_counter() - t0
    report_8 = traced("bench.metrics", lambda: metrics.compute_metrics(
        gold, scores, tc.prediction_threshold, ks=(TOP_K,)))
    values = layer_metrics(tracer.spans, tracer.counts, tracer.nodes_per_step)
    values["metrics.test_p_at_8"] = report_8.p_at_k[TOP_K]
    values.update(retained_memory(m, train_docs))
    untraced = wall_u + sum(lat_u)
    values["trace.overhead_s"] = wall_t + traced_infer - untraced
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
    values["infer.samples"] = float(len(lat_t))
    for stage in STAGES:  # no CLI stage runs in a model workload
        values[f"cli.{stage}_s"] = 0.0
        values[f"cli.{stage}_rss_mb"] = 0.0
    for layer, secs in layer_self_seconds(tracer.spans).items():
        values[f"self.{layer}_s"] = secs
    report["spans"] = len(tracer.spans)
    return values, report, tracer.spans


def fastest(passes: list[list[float]]) -> list[float]:
    """Each document's latency: its fastest pass.  A pass that a burst of
    load from outside the process slowed is dropped document by document,
    so the percentiles across documents follow the documents, not the load."""
    return [min(times) for times in zip(*passes)]


def check_scores(scores: np.ndarray, mk, doc_id: str, outcome: Outcome) -> None:
    """Probabilities in [0, 1]; with a non-empty mask, zero outside it and a
    top-k list inside it (hard gating)."""
    ok = bool(np.all(np.isfinite(scores))) and scores.min() >= 0.0 and scores.max() <= 1.0
    if ok and not mk.empty:
        ok = not np.any(scores[mk.vec == 0.0])
        ok = ok and all(i in mk.labels for i in metrics.top_k_labels(scores, TOP_K))
    outcome.check(ok, f"{doc_id}: scores break the [0, 1] range or the candidate mask")


def retained_memory(m, train_docs) -> dict[str, float]:
    """Bytes still held after ``encode`` returns under a tape, for the
    median-length training document, and the share of them allocated by
    the im2col ``windows`` line of the convolution."""
    doc = sorted(train_docs, key=lambda d: len(d.tokens))[len(train_docs) // 2]
    rng = np.random.default_rng(0)
    tracemalloc.start(1)
    try:
        base = tracemalloc.take_snapshot()
        with GradTape():
            out = encode(doc.tokens, m.embedding, m.blocks, m.encoder_config, train=True, rng=rng)
            held = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    del out
    diff = held.compare_to(base, "lineno")
    total = sum(d.size_diff for d in diff)
    windows = 0
    for d in diff:
        frame = d.traceback[0]
        if frame.filename.endswith("tensor.py") and _source(frame).startswith("windows ="):
            windows += d.size_diff
    return {"encoder.retained_mb": total / 2**20,
            "encoder.windows_share": windows / total if total else 0.0}


def _source(frame) -> str:
    return linecache.getline(frame.filename, frame.lineno).strip()


# ---------------------------------------------------------------------------
# pipeline workload


STAGES = ("preprocess", "build_graph", "build_mask", "train", "evaluate", "predict")


def run_stage(argv, work: Path, spans=None, latency=None):
    """One CLI stage in its own process: (exit code, wall s, peak RSS MB)."""
    cmd = [sys.executable, str(HERE / "stage.py")]
    if spans:
        cmd += ["--spans", str(spans)]
    if latency:
        cmd += ["--latency", str(latency)]
    cmd += ["--", *argv]
    with open(work / "stages.log", "ab") as logf:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=logf, stderr=logf)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_pipeline(seconds: float, trace: bool, inputs: Path, work: Path, outcome: Outcome):
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(PIPELINE_CONFIG)
    base = ["--workdir", str(work / "w"), "--config", str(cfg)]
    argvs = {
        "preprocess": ["preprocess", *base, "--train", str(inputs / "train.jsonl"),
                       "--val", str(inputs / "val.jsonl"), "--test", str(inputs / "test.jsonl"),
                       "--catalog", str(inputs / "raw_catalog.tsv")],
        "build_graph": ["build-graph", *base],
        "build_mask": ["build-mask", *base],
        "train": ["train", *base],
        "evaluate": ["evaluate", *base, "--split", "test"],
        "predict": ["predict", *base, "--input", str(inputs / "test.jsonl"),
                    "--attention-out", str(work / "w" / "heat.jsonl")],
    }

    def one_pass(traced: bool, stages=STAGES):
        walls: dict[str, float] = {}
        rss: dict[str, float] = {}
        span_files = []
        latency = work / "latency.json"
        for stage in stages:
            spans = work / f"spans-{stage}.json" if traced else None
            rc, walls[stage], rss[stage] = run_stage(
                argvs[stage], work, spans=spans,
                latency=latency if stage == "predict" and not traced else None)
            outcome.check(rc == 0, f"stage {stage} exited with {rc}")
            if spans:
                span_files.append(spans)
            if stage == "predict":
                check_predictions(work, inputs, outcome)
        lat = json.loads(latency.read_text()) if "predict" in stages and not traced else []
        return walls, rss, lat, span_files

    run_stage(["--help"], work)  # warm-up: interpreter and imports, untimed

    if not trace:
        start = time.perf_counter()
        passes, lat_passes, losses = [], [], set()
        while len(passes) < ROUNDS or time.perf_counter() - start < seconds:
            walls, rss, pass_lat, _ = one_pass(traced=False)
            passes.append((walls, rss))
            lat_passes.append(pass_lat)
            history = (work / "w" / "history.csv").read_text().splitlines()
            loss = float(history[-1].split(",")[1])
            outcome.check(bool(np.isfinite(loss)), f"train loss {loss}")
            losses.add(loss)
        if len(losses) != 1:
            outcome.check(False, f"passes over one corpus disagree on the loss: {sorted(losses)}")
        setup = [w["build_graph"] + w["build_mask"] for w, _ in passes]
        while len(setup) < SETUP_REPEATS["pipeline"]:
            extra, _, _, _ = one_pass(traced=False, stages=("build_graph", "build_mask"))
            setup.append(extra["build_graph"] + extra["build_mask"])
        med = {s: statistics.median(w[s] for w, _ in passes) for s in STAGES}
        lat = fastest(lat_passes)
        pct = tail_percentile(len(lat))
        if pct < 90:
            raise RuntimeError(f"{len(lat)} latency samples cannot give a p90")
        n_train = len(corpus.load_corpus_jsonl(inputs / "train.jsonl"))
        values = {
            "setup_s": statistics.median(setup),
            "train_docs_per_s": n_train / med["train"],
            "infer_doc_ms_p50": 1e3 * nearest_rank(lat, 50),
            "infer_doc_ms_p90": 1e3 * nearest_rank(lat, 90),
            "peak_rss_mb": max(max(r.values()) for _, r in passes),
            "train_loss_last": loss,
            "pipeline_s": sum(med.values()),
        }
        report = {"latency_docs": len(lat), "latency_passes": len(lat_passes),
                  "tail_percentile": pct, "train_docs": n_train,
                  "setup_s": setup, "stage_s": [w for w, _ in passes],
                  "stage_rss_mb": [r for _, r in passes]}
        return values, report

    walls_u, rss_u, lat_u, _ = one_pass(traced=False)
    walls_t, _, _, files = one_pass(traced=True)
    loaded = [json.loads(f.read_text()) for f in files]
    spans = merge(d["spans"] for d in loaded)
    counts: dict = {}
    for d in loaded:
        for k, v in d["counts"].items():
            # vocab size and edge count are set, not summed, by the stage that finds them
            counts[k] = v if k in ("corpus.vocab_size", "graph.edges") else counts.get(k, 0) + v
    nodes = [n for d in loaded for n in d["nodes_per_step"]]
    values = layer_metrics(spans, counts, nodes)
    values["metrics.test_p_at_8"] = json.loads(
        (work / "w" / "metrics.json").read_text())["p_at_k"][str(TOP_K)]
    # the model lives in the stage processes; its memory shows in cli.train_rss_mb
    values.update({"encoder.retained_mb": 0.0, "encoder.windows_share": 0.0})
    untraced = sum(walls_u.values())
    values["trace.overhead_s"] = sum(walls_t.values()) - untraced
    values["trace.overhead_share"] = values["trace.overhead_s"] / untraced
    values["infer.samples"] = float(len(lat_u))
    for stage in STAGES:
        values[f"cli.{stage}_s"] = walls_u[stage]
        values[f"cli.{stage}_rss_mb"] = rss_u[stage]
    for layer, secs in layer_self_seconds(spans).items():
        values[f"self.{layer}_s"] = secs
    return values, {"spans": len(spans)}, spans


def check_predictions(work: Path, inputs: Path, outcome: Outcome) -> None:
    """predictions.jsonl: one row per input document, scores in [0, 1], and
    every top-k code inside the document's candidate mask."""
    w = work / "w"
    raw = corpus.load_corpus_jsonl(inputs / "test.jsonl")
    rows = [json.loads(x) for x in (w / "predictions.jsonl").read_text().splitlines()[1:]]
    if not outcome.check(len(rows) == len(raw),
                         f"predictions has {len(rows)} rows for {len(raw)} documents"):
        return
    catalog = corpus.LabelCatalog.load_tsv(w / "catalog.tsv")
    index, _ = mask.load_mask_index(w / "mask_index.tsv", catalog)
    bad = []
    for doc, row in zip(raw, rows):
        aux = {t: tuple(doc.get(t, ())) for t in corpus.TERMINOLOGIES}
        mk = mask.make_doc_mask(corpus.DocumentRecord(doc["doc_id"], [], set(), aux), index)
        ids = [catalog.id_of(code) for code, _ in row["topk"]]
        scores = [s for _, s in row["topk"]]
        ok = row["doc_id"] == doc["doc_id"] and all(0.0 <= s <= 1.0 for s in scores)
        ok = ok and row["masked"] == (not mk.empty)
        ok = ok and (mk.empty or all(i in mk.labels for i in ids))
        if not ok:
            bad.append(doc["doc_id"])
    outcome.check(not bad, f"predictions break the candidate mask or score range: {bad[:5]}")


# ---------------------------------------------------------------------------
# entry point


def provenance() -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        blas_info = cfg["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "xmtc").glob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="workloads.py")
    parser.add_argument("action", choices=("prepare", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    inputs = Path(args.inputs)
    if args.action == "prepare":
        prepare(args.workload, args.seed, inputs)
        return 0

    out = Path(args.out)
    outcome = Outcome()
    trace = bool(args.trace)
    if WORKLOADS[args.workload]["kind"] == "model":
        result = run_model(args.workload, args.seconds, trace, inputs, outcome)
    else:
        work = out / f"pipeline-{os.getpid()}"
        try:
            result = run_pipeline(args.seconds, trace, inputs, work, outcome)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    values, report = result[0], result[1]
    prov = provenance()
    if trace:
        values["src.lines"] = float(prov["src_lines"])
        spans_path = out / f"spans-{args.workload}-s{args.seed}.json"
        spans_path.write_text(json.dumps(result[2]))
    # every metric BENCHMARK.json declares for this kind of run, in its order
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics_out = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in declared}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  provenance=prov, failures=outcome.failures)
    (out / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics_out}, indent=1, default=str))
    log(json.dumps(report, default=str))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
