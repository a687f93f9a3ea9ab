"""The README's Library examples run, and give the values their comments state."""

import re
from pathlib import Path

import efgseg as E

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    """The ```python blocks of the README's Library section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


def test_library_examples_run_in_order(capsys):
    recipe, lower_level = library_blocks()
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
