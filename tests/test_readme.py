"""The README's Library examples and CLI lines run, and give the values
their comments state."""

import re
import shlex
from pathlib import Path

import efgseg as E
from efgseg import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(heading: str, language: str) -> list[str]:
    """The ```<language> blocks of the README section ``## <heading>``, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^```{language}\n(.*?)^```$", section, re.M | re.S)


def test_library_examples_run_in_order(capsys):
    recipe, lower_level = section_blocks("Library", "python")
    namespace: dict = {}
    exec(recipe, namespace)
    assert namespace["run"].ext.f.tolist() == [1, 3, 5, 4]
    seg = namespace["seg"]
    assert seg.blocks == [(1, 1), (2, 3), (4, 4)]
    assert capsys.readouterr().out == E.export_gfa(namespace["efg"]) + "\n"
    # the stage-by-stage calls continue in the same namespace and give the
    # same segmentation
    exec(lower_level, namespace)
    assert namespace["seg"] == seg


def test_cli_lines_run_in_order(tmp_path, monkeypatch, capsys):
    (block,) = section_blocks("CLI", "sh")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words for words in lines if words[:1] == ["efgseg"]]
    assert ["efgseg", "validate", "toy.fa"] in commands
    monkeypatch.chdir(tmp_path)
    for words in commands:
        argv, target = words[1:], None
        if ">" in argv:  # "> file" sends stdout to that file
            argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0, words
        if target:
            (tmp_path / target).write_text(out)
        if argv[0] == "validate":
            assert out.startswith("ok: "), out
