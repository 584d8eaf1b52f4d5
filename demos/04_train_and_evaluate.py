#!/usr/bin/env python3
"""End-to-end training on a planted corpus, evaluation, and a mini ablation.

Run:  python demos/04_train_and_evaluate.py   (about a minute)
"""

import numpy as np

from xmtc import synth
from xmtc.corpus import build_vocab, encode_documents, preprocess
from xmtc.embeddings import train_skipgram
from xmtc.encoder import EncoderConfig
from xmtc.graph import build_cooccurrence
from xmtc.mask import build_mask_index, make_doc_mask
from xmtc.model import model_from_artifacts
from xmtc.training import TrainConfig, doc_masks, evaluate, train

# one member of each clique is "silent": it never leaves a keyword trace in
# the text and has to be inferred from co-occurrence and auxiliary codes.
# training is kept short and the corpus small; with scarce supervision the
# label-side knowledge has to carry rare and silent labels
spec = synth.standard_spec(num_labels=80, num_docs=400, seed=11, doc_length=(20, 40),
                           keywords_per_label=8, noise_rate=0.35, tail_exponent=1.3,
                           silent_per_clique=1)
docs, catalog, _ = synth.generate(spec)
vocab = build_vocab([preprocess(d["text"]) for d in docs], min_count=1)
records = encode_documents(docs, vocab, catalog)
n = len(records)
train_docs = records[: int(0.7 * n)]
val_docs = records[int(0.7 * n) : int(0.8 * n)]
test_docs = records[int(0.8 * n) :]

print("=" * 60)
print("1. Stage the artifacts")
print("=" * 60)

graph = build_cooccurrence(train_docs, len(catalog), lam=1.0)
index = build_mask_index(train_docs, len(catalog), tau=0.4)
table = train_skipgram([r.tokens for r in train_docs], len(vocab), dim=48, epochs=8, seed=11)
print(f"graph edges {graph.pair_count}, vocabulary {len(vocab)}, embeddings {table.shape}")


def make_model(variant="full", seed=0):
    return model_from_artifacts(
        vocab, catalog, graph, dim=48,
        encoder_config=EncoderConfig(kernel_size=5, rates=(1, 2, 4), dropout=0.2),
        seed=seed, embedding_matrix=table, variant=variant,
    )


print()
print("=" * 60)
print("2. Train the full model")
print("=" * 60)

model = make_model()
config = TrainConfig(lr=2e-3, lr_decay=0.95, max_epochs=2, batch_size=16, seed=0,
                     prediction_threshold=0.4, patience=2)
result = train(train_docs, val_docs, model, index, config)
for row in result.history:
    print(f"epoch {row.epoch}: train loss {row.train_loss:7.4f}  "
          f"val micro-F1 {row.val_micro_f1:.4f}  lr {row.lr:.2e}")

print()
print("=" * 60)
print("3. Evaluate on the held-out split")
print("=" * 60)

report = evaluate(test_docs, model, doc_masks(test_docs, model, index), 0.4, ks=(5, 8, 15),
                  label_codes=catalog.codes)
print(f"micro-F1 {report.micro_f1:.4f}  macro-F1 {report.macro_f1:.4f}")
print(f"micro-AUC {report.micro_auc:.4f}  macro-AUC {report.macro_auc:.4f}")
print("P@K:", {k: round(v, 4) for k, v in sorted(report.p_at_k.items())})

print()
print("=" * 60)
print("4. Where does a prediction attend?")
print("=" * 60)

h_label = model.label_representations()
doc = next(
    d for d in test_docs
    if int(np.argmax(model.predict_scores(d.tokens, make_doc_mask(d, index), h_label)))
    in d.labels
)
doc_mask = make_doc_mask(doc, index)
scores, alpha = model.predict_scores(doc.tokens, doc_mask, h_label, doc_id=doc.doc_id,
                                     with_attention=True)
top = int(np.argmax(scores))
heavy = np.argsort(-alpha[top])[:5]
tokens = [vocab.id_to_token[t] for t in doc.tokens]
print(f"doc {doc.doc_id}: top label {catalog.codes[top]} (p={scores[top]:.3f}), "
      f"gold={'yes' if top in doc.labels else 'no'}")
print("heaviest attention positions:", [(int(i), tokens[i]) for i in heavy])

print()
print("=" * 60)
print("5. Mini ablation (one seed)")
print("=" * 60)

for variant in ("full", "no_mask", "no_label_feature"):
    m = make_model(variant)
    train(train_docs, val_docs, m, index, config)
    rep = evaluate(test_docs, m, doc_masks(test_docs, m, index), 0.4)
    print(f"{variant:>18}: micro-F1 {rep.micro_f1:.4f}")
