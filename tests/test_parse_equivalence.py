"""The parse outcome of each corpus and demo script, and of seeded mutations of it, is fixed.

A case is a corpus or demo script, or one seeded mutation of it: a line deleted, duplicated
or swapped with another line, a word replaced by another word of the script, or an ``emit``
line inserted.  Its outcome is the ``ParseError`` text with its line and column, or the
``pretty_print`` text with each statement's line.  ``parse_outcomes.json`` holds a short
digest of each outcome, so a parser change that moves an error, a message or a tree fails
here and prints the case.  A change that means to alter outcomes records them again:

    PYTHONPATH=src python tests/test_parse_equivalence.py
"""

import hashlib
import json
import pathlib
import random
import re

from duoc.dsl import DEMOS, parse_script, pretty_print
from duoc.errors import ParseError

HERE = pathlib.Path(__file__).parent
RECORD = HERE / "parse_outcomes.json"
MUTATIONS = 60  # per script; the 36 scripts give 2160 mutated cases
_WORD = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def scripts():
    """``(name, text)`` of each corpus and demo script."""
    corpus = [(p.stem, p.read_text()) for p in sorted((HERE / "corpus").glob("*.duoc"))]
    return corpus + [(f"demo-{name}", text) for name, text in sorted(DEMOS.items())]


def mutate(text: str, rng: random.Random) -> str:
    """One line-level edit of ``text``, drawn with ``rng.random()`` alone, whose sequence
    Python keeps from version to version for a given seed."""
    lines = text.split("\n")

    def pick(n):
        return int(rng.random() * n)

    op, i = pick(5), pick(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = pick(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        spots = list(_WORD.finditer(text))
        words = sorted({m.group() for m in spots})
        m = spots[pick(len(spots))]
        return text[:m.start()] + words[pick(len(words))] + text[m.end():]
    else:
        lines.insert(i, 'emit csv "out.csv"')
    return "\n".join(lines)


def cases():
    """``(name, texts)``: each script, then its mutations."""
    for name, text in scripts():
        rng = random.Random(name)
        yield name, [text] + [mutate(text, rng) for _ in range(MUTATIONS)]


def outcome(text: str) -> str:
    try:
        script = parse_script(text)
    except ParseError as exc:
        return f"error {exc}"
    return pretty_print(script) + "lines " + " ".join(str(st.line) for st in script.statements)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def test_parse_outcomes_match_the_record():
    recorded = json.loads(RECORD.read_text())
    assert sorted(recorded) == sorted(name for name, _ in scripts())
    mismatches, errors, total = [], 0, 0
    for name, texts in cases():
        assert len(recorded[name]) == len(texts), name
        for k, (text, want) in enumerate(zip(texts, recorded[name])):
            got = outcome(text)
            errors += got.startswith("error ")
            total += 1
            if digest(got) != want:
                mismatches.append(f"{name} case {k}:\n{text}\n-- outcome:\n{got}")
    assert not mismatches, f"{len(mismatches)} of {total} outcomes moved; the first is " \
                           f"{mismatches[0]}"
    # the mutations reach both the error paths and the tree builder
    assert 0.2 < errors / total < 0.8, (errors, total)


if __name__ == "__main__":
    RECORD.write_text(json.dumps({name: [digest(outcome(t)) for t in texts]
                                  for name, texts in cases()}, indent=0) + "\n")
