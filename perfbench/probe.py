"""Child processes the benchmark starts: set-up probes and the service.

``probe.py setup --workload W --out DIR --seed N`` does one workload's
set-up in a fresh interpreter: imports the program, loads (building on
first use) the native SAT library and, for the corpus workload,
generates the seeded corpus into DIR. It prints one JSON line when
ready and exits.

``probe.py serve --queue-dir DIR`` loads the native SAT library and
runs ``repro serve`` with two worker threads on an ephemeral port until
SIGTERM.

With ``--trace-out FILE`` either installs the benchmark's span wrappers
first and writes its spans to FILE before exiting.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# modules each workload's set-up imports
IMPORTS = {
    "audit-ref": ("repro.core", "repro.frontend", "repro.runner"),
    "corpus-audit": ("repro.corpus", "repro.bench.harness", "repro.sched"),
    "serve-mixed": ("repro.cli", "repro.serve"),
}


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    parser = argparse.ArgumentParser(prog="probe.py")
    parser.add_argument("mode", choices=("setup", "serve"))
    parser.add_argument("--workload", default="serve-mixed",
                        choices=sorted(IMPORTS))
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queue-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    recorder = None
    if args.trace_out:
        from perfbench import layers, spans

        recorder = spans.Recorder(os.path.dirname(args.trace_out))
        spans.install(recorder, layers.SPECS)
    try:
        from perfbench.workloads import CORPUS_COUNT, solver_backend

        backend = solver_backend()
        if args.mode == "serve":
            from repro.cli import main as repro_main

            print(json.dumps({"backend": backend}), flush=True)
            return repro_main([
                "serve", "--queue-dir", args.queue_dir, "--port", "0",
                "--workers", "2",
            ])
        if args.workload == "corpus-audit":
            from repro.corpus import CorpusConfig, generate_corpus

            generate_corpus(
                CorpusConfig(seed=args.seed, count=CORPUS_COUNT), args.out
            )
        print(json.dumps({"backend": backend}), flush=True)
        return 0
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
