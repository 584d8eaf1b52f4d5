"""Run one ``xmtc`` CLI stage, optionally with spans or a per-document timer.

    python3 perfbench/stage.py [--spans FILE] [--latency FILE] -- <xmtc arguments>

Without options this is ``python -m xmtc <arguments>``.  ``--spans`` installs
the tracer of ``tracing.py`` and writes the spans and counts of the stage as
JSON when it ends; ``--latency`` times every ``CodingModel.predict_scores``
call and writes the seconds as a JSON list.  The exit code is the stage's.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path


def main(argv) -> int:
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="stage.py")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--latency", default=None)
    opts = parser.parse_args(argv[:split])
    stage_argv = argv[split + 1:]

    from xmtc import cli, model

    if opts.latency:
        samples: list[float] = []
        predict = model.CodingModel.predict_scores

        @functools.wraps(predict)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return predict(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)

        model.CodingModel.predict_scores = timed
        try:
            return cli.main(stage_argv)
        finally:
            Path(opts.latency).write_text(json.dumps(samples))

    if opts.spans:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
        try:
            with tracer.span("cli." + stage_argv[0].replace("-", "_")):
                return cli.main(stage_argv)
        finally:
            Path(opts.spans).write_text(json.dumps({
                "spans": tracer.spans,
                "counts": dict(tracer.counts),
                "nodes_per_step": tracer.nodes_per_step,
            }))

    return cli.main(stage_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
