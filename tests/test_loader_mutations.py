"""Every artifact loader turns a damaged file into ``DataError``.

Each test takes a real artifact of one small work directory (or a raw
split or config file it was made from), applies one seeded mutation and
loads the result.  The load must return, or raise ``DataError``
(``ConfigError`` for the configuration file); any other exception is a
loader that lets malformed input through as a traceback.  The mutations:
a line deleted, doubled or inserted blank, one byte replaced, the file cut
short, or one field replaced by a value such as ``nan``, ``-1``, ``1e400``
or ``null``.  A checkpoint's JSON manifest is also mutated on its own, with
its length prefix rewritten, so that the damage reaches past the JSON
parser.  The same mutations of a work-directory artifact, under the
stage that reads it next, run in-process through ``cli.main``, must stop
it with exit 2 or 3: the loader or the sha256 its producer's manifest
records refuses the file.  Hypothesis runs derandomized, so the examples
are the same on every run.
"""

import re
import shutil
import struct

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from xmtc import corpus, embeddings, graph, mask, training
from xmtc.cli import ARTIFACTS, main
from xmtc.config import canonical_text, load_run_config
from xmtc.errors import ConfigError, DataError

CONFIG = """\
embedding_size = 16
filter_size = 3
dilation_rates = 1,2
batch_size = 8
max_epochs = 1
tau = 0.3
seed = 9
min_count = 1
skipgram_epochs = 1
"""

BAD_VALUES = ["nan", "-nan", "inf", "-inf", "-1", "0", "-0", "1e400", "-1e400", "1.5",
              "null", "true", "[]", "{}", "\"\"", "", "x", "9" * 25, "\x00", "é"]

FIELD = re.compile(rb"[^\s,:\[\]{}\"]+")  # a run of bytes between separators

LOADS = 100  # examples per loader

mutation_settings = settings(max_examples=LOADS, derandomize=True, database=None,
                             deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A trained 20-label, 120-document work directory, its raw splits, its
    config file and a directory for the mutated copies."""
    root = tmp_path_factory.mktemp("mutations")
    data, work, cfg = root / "data", root / "work", root / "run.cfg"
    cfg.write_text(CONFIG)
    assert main(["gen-synthetic", "--workdir", str(data), "--labels", "20",
                 "--docs", "120", "--seed", "9"]) == 0
    base = ["--workdir", str(work), "--config", str(cfg)]
    assert main(["preprocess", *base, "--train", str(data / "train.jsonl"),
                 "--val", str(data / "val.jsonl"), "--test", str(data / "test.jsonl"),
                 "--catalog", str(data / "raw_catalog.tsv")]) == 0
    for stage in ("build-graph", "build-mask", "train"):
        assert main([stage, *base]) == 0
    out = root / "mutated"
    out.mkdir()
    return data, work, cfg, out


@st.composite
def mutated(draw, raw: bytes, fields_end: int | None = None):
    """``raw`` with one mutation; a field is picked among those that start
    before ``fields_end`` (all by default)."""
    kind = draw(st.sampled_from(["delete", "double", "blank", "byte", "cut", "field"]))
    lines = raw.splitlines(keepends=True)
    if kind in ("delete", "double", "blank"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = {"delete": [], "double": [lines[i]] * 2,
                          "blank": [b"\n", lines[i]]}[kind]
        return b"".join(lines)
    if kind == "byte":
        i = draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i + 1:]
    if kind == "cut":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    spans = [m.span() for m in FIELD.finditer(raw) if fields_end is None or m.start() < fields_end]
    start, end = draw(st.sampled_from(spans))
    return raw[:start] + draw(st.sampled_from(BAD_VALUES)).encode() + raw[end:]


def _loads_or_refuses(out, name, data, load, error=DataError):
    path = out / name
    path.write_bytes(data)
    try:
        load(path)
    except error:
        pass


def _artifact(workdir, key) -> bytes:
    return (workdir[1] / ARTIFACTS[key]).read_bytes()


def _manifest_span(checkpoint: bytes) -> tuple[int, int]:
    """Where a checkpoint's JSON manifest starts and ends: after the magic
    line and the manifest's 8-byte length."""
    start = checkpoint.index(b"\n") + 1 + 8
    (length,) = struct.unpack_from("<Q", checkpoint, start - 8)
    return start, start + length


def _catalog_and_vocab(workdir):
    work = workdir[1]
    return (corpus.LabelCatalog.load_tsv(work / ARTIFACTS["catalog"]),
            corpus.Vocabulary.load(work / ARTIFACTS["vocab"]))


@mutation_settings
@given(data=st.data())
def test_load_graph(workdir, data):
    catalog, _ = _catalog_and_vocab(workdir)
    raw = data.draw(mutated(_artifact(workdir, "graph")))
    _loads_or_refuses(workdir[3], "graph.txt", raw, lambda p: graph.load_graph(p, len(catalog)))


@mutation_settings
@given(data=st.data())
def test_load_mask_index(workdir, data):
    catalog, _ = _catalog_and_vocab(workdir)
    raw = data.draw(mutated(_artifact(workdir, "mask_index")))
    _loads_or_refuses(workdir[3], "mask_index.tsv", raw,
                      lambda p: mask.load_mask_index(p, catalog))


@mutation_settings
@given(data=st.data())
def test_vocabulary_load(workdir, data):
    raw = data.draw(mutated(_artifact(workdir, "vocab")))
    _loads_or_refuses(workdir[3], "vocab.txt", raw, corpus.Vocabulary.load)


@mutation_settings
@given(data=st.data())
def test_label_catalog_load_tsv(workdir, data):
    raw = data.draw(mutated(_artifact(workdir, "catalog")))
    _loads_or_refuses(workdir[3], "catalog.tsv", raw, corpus.LabelCatalog.load_tsv)


@mutation_settings
@given(data=st.data())
def test_load_embeddings(workdir, data):
    _, vocab = _catalog_and_vocab(workdir)
    raw = data.draw(mutated(_artifact(workdir, "embeddings")))
    _loads_or_refuses(workdir[3], "embeddings.txt", raw,
                      lambda p: embeddings.load_embeddings(p, vocab, 16))


@mutation_settings
@given(data=st.data())
def test_load_encoded(workdir, data):
    catalog, vocab = _catalog_and_vocab(workdir)
    raw = data.draw(mutated(_artifact(workdir, "train")))
    _loads_or_refuses(workdir[3], "train.enc.jsonl", raw,
                      lambda p: corpus.load_encoded(p, len(vocab), len(catalog)))


@mutation_settings
@given(data=st.data())
def test_load_checkpoint(workdir, data):
    raw = _artifact(workdir, "checkpoint")
    start, end = _manifest_span(raw)
    if data.draw(st.booleans()):
        raw = data.draw(mutated(raw, fields_end=end))  # the file, fields of the manifest only
    else:  # the manifest alone, its length prefix kept true, so the JSON parses
        manifest = data.draw(mutated(raw[start:end]))
        raw = raw[:start - 8] + struct.pack("<Q", len(manifest)) + manifest + raw[end:]
    _loads_or_refuses(workdir[3], "checkpoint.bin", raw, training.load_checkpoint)


@mutation_settings
@given(data=st.data())
def test_load_corpus_jsonl(workdir, data):
    raw = data.draw(mutated((workdir[0] / "train.jsonl").read_bytes()))
    _loads_or_refuses(workdir[3], "train.jsonl", raw, corpus.load_corpus_jsonl)


@mutation_settings
@given(data=st.data())
def test_load_run_config(workdir, data):
    every_key = canonical_text(load_run_config(workdir[2])).encode()
    raw = data.draw(mutated(every_key))
    _loads_or_refuses(workdir[3], "run.cfg", raw, load_run_config, error=ConfigError)


def test_checkpoint_dimension_past_every_int_is_data_error(workdir):
    """A shape entry that JSON reads as an infinite float (``1e400``) is a
    malformed manifest, not an ``OverflowError``."""
    raw = _artifact(workdir, "checkpoint")
    start, end = _manifest_span(raw)
    manifest = raw[start:end].replace(b'"shape": [', b'"shape": [1e400, ', 1)
    path = workdir[3] / "checkpoint.bin"
    path.write_bytes(raw[:start - 8] + struct.pack("<Q", len(manifest)) + manifest + raw[end:])
    with pytest.raises(DataError, match="malformed checkpoint manifest"):
        training.load_checkpoint(path)


# the next stage that reads each work-directory artifact
READERS = {"catalog": "build-graph", "vocab": "build-graph", "train": "build-graph",
           "val": "train", "embeddings": "train", "graph": "evaluate",
           "mask_index": "evaluate", "checkpoint": "evaluate", "test": "evaluate"}


@pytest.mark.parametrize("key", sorted(READERS))
@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_stage_refuses_a_mutated_artifact(workdir, key, data):
    """Exit 3 (a loader's ``DataError`` or a file its manifest does not
    record) or 2 (a stale artifact); exit 0 would mean a stage used a file
    no stage wrote, exit 1 a failure that names no cause."""
    _, work, cfg, out = workdir
    copy = out / f"work-{key}"
    if not copy.exists():
        shutil.copytree(work, copy)
    path = copy / ARTIFACTS[key]
    original = _artifact(workdir, key)
    raw = data.draw(mutated(original))
    assume(raw != original)
    path.write_bytes(raw)
    try:
        code = main([READERS[key], "--workdir", str(copy), "--config", str(cfg)])
    finally:
        path.write_bytes(original)
    assert code in (2, 3)
