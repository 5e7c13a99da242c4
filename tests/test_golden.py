"""Corpus and demo output, byte for byte against a recorded table.

``tests/golden/corpus_csv.json`` holds, at seed 0, the CSV that each of the
scripts in ``tests/corpus`` and each built-in demo prints, and the files the
scripts write with ``emit``.  Each script runs in a fresh working directory,
so its emitted files land there.  Record the table again with

    PYTHONPATH=src python tests/test_golden.py

only on a commit whose output is known to be right.
"""

import json
import os
import pathlib
import sys

import pytest

from duoc.dsl import DEMOS, RunConfig, parse_script, render_csv, run_script

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "corpus_csv.json"


def _scripts():
    files = sorted((HERE / "corpus").glob("*.duoc"))
    return [(p.name, p.read_text(encoding="utf-8")) for p in files] + [
        (f"demo:{name}", text) for name, text in sorted(DEMOS.items())
    ]


def _run(name, text, workdir):
    """What ``duoc run`` prints for a script at seed 0, and the files it emits into ``workdir``."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        table = run_script(parse_script(text), RunConfig(seed=0, script_name=name))
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(pathlib.Path(workdir).iterdir())}
    return render_csv(table), files


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_script(golden):
    assert sorted(golden["csv"]) == sorted(name for name, _ in _scripts())


@pytest.mark.parametrize("name,text", _scripts(), ids=[name for name, _ in _scripts()])
def test_output_matches_golden(name, text, tmp_path, golden):
    csv, files = _run(name, text, tmp_path)
    assert csv == golden["csv"][name]
    assert files == golden["emitted"].get(name, {})


if __name__ == "__main__":
    import tempfile

    csv, emitted = {}, {}
    for name, text in _scripts():
        with tempfile.TemporaryDirectory() as tmp:
            csv[name], files = _run(name, text, tmp)
        if files:
            emitted[name] = files
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"csv": csv, "emitted": emitted}, indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(csv)} tables to {GOLDEN}\n")
