"""The recorded mutants of tests/mutants.py stay applicable: each source
text occurs exactly once in its module.  Whether each mutant dies is the
runner's check, ``python tests/mutants.py``, which CI runs as its own step."""

from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, module_path


@pytest.mark.parametrize("module,text,replacement,nodes", MUTANTS, ids=[f"{m[0]}-{i}" for i, m in enumerate(MUTANTS, 1)])
def test_each_mutant_source_text_occurs_exactly_once(module, text, replacement, nodes):
    assert module_path(ROOT, module).read_text().count(text) == 1
    assert replacement != text and nodes
    assert all(Path(ROOT, node.partition("::")[0]).is_file() for node in nodes)
