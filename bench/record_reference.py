"""Record the reference result tables of the corpus workload.

    python3 bench/record_reference.py

Renders every script of ``tests/corpus`` and every built-in demo at run
seed 0 and writes the CSV text to ``bench/reference/corpus.json``.  The
corpus workload compares each op's output against these tables, so run
this only on a commit whose output is known to be right.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import corpus_scripts, run_corpus_script  # noqa: E402

if __name__ == "__main__":
    tables = {name: run_corpus_script(name, text)[2]
              for name, text in corpus_scripts(BENCH.parent)}
    out = BENCH / "reference" / "corpus.json"
    out.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(tables)} tables to {out}")
