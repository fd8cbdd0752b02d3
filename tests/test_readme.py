"""README's examples are part of the byte-level contract: the commented
values of the library quick start, the `analyze --json` object with its key
order, and the header, first and footer lines of the sweep excerpt."""

import json
import re
from pathlib import Path

from toeplitz_periods.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[list[str]]:
    """The lines of every fenced block of README in the given language."""
    fences = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)
    return [body.splitlines() for tag, body in fences if tag == lang]


def _cli(capsys, *argv: str) -> str:
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    return out


def test_library_quick_start_shows_what_it_computes():
    (block,) = [b for b in _blocks("python") if "analyze(spec)" in "\n".join(b)]
    namespace, shown = {}, 0
    for line in block:
        code, _, comment = line.partition("  # ")
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert (json.dumps(value) if isinstance(value, str) else repr(value)) == comment.strip()
        shown += 1
    assert shown == 5


def test_analyze_json_example_is_the_output(capsys):
    (block,) = _blocks("json")
    pairs = lambda text: json.loads(text, object_pairs_hook=list)
    readme = pairs("\n".join(block))
    fields = dict(readme)
    spec = f"n={fields['n']};S={','.join(map(str, fields['S']))};T={','.join(map(str, fields['T']))}"
    assert pairs(_cli(capsys, "analyze", spec, "--json")) == readme


def test_sweep_excerpt_is_the_output(capsys):
    (block,) = [b for b in _blocks("") if b[0].startswith("# sweep n=4..4 ")]
    header, first, elided, footer = block
    assert elided == "..."
    lines = _cli(capsys, "sweep", "--n", "4..4").splitlines()
    assert (lines[0], lines[1], lines[-1]) == (header, first, footer)
